"""The code-line counter of tests/code_lines.py on a small module."""

import code_lines

FIXTURE = '''\
"""A module docstring
of two lines."""

# A comment line.
import os  # a trailing comment


class Box:
    """A class docstring."""

    def size(self):
        """A function
        docstring."""
        total = (1 +
                 2)
        text = """not a
docstring"""
        return total + \\
            len(text)
'''


def test_comments_blanks_and_docstrings_are_not_counted():
    # import, class, def, the two lines of total, the two of text and the
    # two of the return statement.
    assert code_lines.code_lines(FIXTURE) == 9


def test_each_line_of_a_statement_counts():
    assert code_lines.code_lines("x = [\n    1,\n\n    2]\n") == 3
    assert code_lines.code_lines("def f():\n    'doc'\n    return 1\n") == 2
    assert code_lines.code_lines("'doc'\n") == 0
    assert code_lines.code_lines("") == 0
