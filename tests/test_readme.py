"""Every ```python block of README.md runs, and each assert in it holds.

A block runs in a fresh namespace, compiled under the README's name with
its own line numbers, so a failure's traceback points into README.md.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def test_every_python_block_of_the_readme_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(BLOCK.finditer(text))
    assert blocks
    for block in blocks:
        before = text.count("\n", 0, block.start(1))
        code = compile("\n" * before + block.group(1), str(README), "exec")
        exec(code, {"__name__": "readme"})
