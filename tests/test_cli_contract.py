"""The exit-code contract under random argv.

Every in-process ``main`` call on argv drawn from the CLI grammar returns
0 or 1, and on 1 its stderr starts with ``error:``.  Nothing escapes
``main`` but argparse's ``SystemExit(0)`` for ``--version`` and
``--help``, and no drawn call runs for long: orders are bounded by
P_MAX and ETA_TABLE_P_MAX, trees by NODE_MAX, and family ranges are drawn
with at most 3 members or with more than FAMILY_MAX (refused at once).
FAMILY_MAX bounds the member count of a run, not its time, so a long
admitted range is not drawn here.  Exit 2 (a broken internal invariant)
never happens on user input.
"""

import io
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from brieskorn import build_analysis, render_text
from brieskorn import cli, report
from brieskorn.cli import FAMILY_MAX, build_parser, main
from process_checks import launch

CALL_SECONDS = 10

# Edge values: 0, +-1, primes around the eta and P_MAX ceilings, and
# entries whose resolutions run into NODE_MAX.
ints = st.one_of(
    st.sampled_from([0, 1, -1, 997, 1009, 99991, 10**6 + 3, 2**61 - 1]),
    st.integers(min_value=2, max_value=60))
orders = st.one_of(st.sampled_from([3, 5, 7, 11, 13]), ints)


def opt(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def either(*choices):
    return st.sampled_from([list(c) for c in choices])


def argv_of(*parts):
    """One argv: the drawn parts, each a list, concatenated."""
    return st.tuples(*parts).map(lambda drawn: [x for part in drawn
                                                for x in part])


@st.composite
def s_ranges(draw):
    """LO..HI of at most 3 members or more than FAMILY_MAX, or no range."""
    kind = draw(st.sampled_from(["short", "long", "bad"]))
    if kind == "bad":
        return draw(st.sampled_from(["", "5", "5..", "..5", "1..2..3", "a..b",
                                     "3.5..4"]))
    lo = draw(st.integers(min_value=-3, max_value=40))
    if kind == "short":
        return f"{lo}..{lo + draw(st.integers(min_value=-1, max_value=2))}"
    return f"{lo}..{lo + FAMILY_MAX + draw(st.sampled_from([0, 1, 10**9]))}"


class MatrixFile(str):
    """A --matrix argument: the file's text, written before the call.
    The empty MatrixFile() names a file that does not exist."""


entries = st.integers(min_value=-3, max_value=3)


@st.composite
def matrix_files(draw):
    """A matrix file of rank <= 4: symmetric, arbitrary, ragged or junk."""
    kind = draw(st.sampled_from(["symmetric", "square", "ragged", "junk",
                                 "missing"]))
    if kind == "missing":
        return MatrixFile()
    if kind == "junk":
        return MatrixFile(draw(st.text(alphabet="0123456789-.x \n",
                                       min_size=1, max_size=12)))
    n = draw(st.integers(min_value=0, max_value=4))
    if kind == "ragged":
        rows = draw(st.lists(st.lists(entries, max_size=4), min_size=1,
                             max_size=4))
    else:
        rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
        if kind == "symmetric":
            for i in range(n):
                rows[i][i] = -abs(rows[i][i]) or -1
                for j in range(i):
                    rows[i][j] = rows[j][i]
    return MatrixFile("\n".join(" ".join(map(str, row)) for row in rows)
                      + "\n")


@st.composite
def coprime_triples(draw):
    """Entries >= 2 and pairwise coprime, drawn entry by entry."""
    a = draw(ints.filter(lambda x: x >= 2))
    b = draw(ints.filter(lambda x: x >= 2 and gcd(a, x) == 1))
    c = draw(ints.filter(lambda x: x >= 2 and gcd(a * b, x) == 1))
    return a, b, c


@st.composite
def zero_padded(draw, parts):
    """A drawn list of argv texts with up to two zeros put before each run
    of digits (int() reads 003 as 3)."""
    return ["0" * draw(st.integers(min_value=0, max_value=2)) + x
            if x.isdigit() else x for x in draw(parts)]


triple = st.one_of(st.tuples(ints, ints, ints), coprime_triples()).map(
    lambda t: [str(x) for x in t])
json_out = either([], ["--json", "-"])
argvs = argv_of(
    st.one_of(
        argv_of(st.just(["analyze"]), zero_padded(triple),
                zero_padded(opt("--p", orders)),
                either([], ["--text"]), either([], ["--no-cache"]), json_out),
        argv_of(st.just(["family"]),
                either(["stern"], ["casson-harer"], ["other"]),
                st.integers(min_value=-1, max_value=8).map(
                    lambda r: ["--r", str(r)]),
                s_ranges().map(lambda s: ["--s-range", s]),
                either([], ["--sign", "+"], ["--sign", "-"]),
                opt("--p", orders), either([], ["--no-cache"]), json_out),
        argv_of(st.just(["rho", "--lens"]),
                st.lists(ints.map(str), min_size=2, max_size=4)),
        argv_of(st.just(["eta"]), triple, opt("--p", orders)),
        argv_of(st.just(["graph"]), triple,
                either([], ["--format", "dot"], ["--format", "json"],
                       ["--format", "tgf"], ["--format", "png"])),
        argv_of(st.just(["diagonalize", "--matrix"]),
                matrix_files().map(lambda m: [m]), json_out),
        either(["bogus"], [])),
    st.one_of(st.just([]), either(["--bogus"], ["--p"], ["7"], ["--version"],
                                  ["--help"])))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BRIESKORN_CACHE_DIR", str(path / "cache"))
        yield path


def written(argv, workdir):
    """argv with each MatrixFile written out and replaced by its path."""
    out = []
    for arg in argv:
        if isinstance(arg, MatrixFile):
            path = workdir / ("matrix.txt" if arg else "missing/matrix.txt")
            if arg:
                path.write_text(arg)
            arg = str(path)
        out.append(arg)
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs)
def test_exit_code_contract(workdir, argv):
    argv = written(argv, workdir)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's --version and --help
            assert exc.code == 0, argv
            assert "--version" in argv or "--help" in argv, argv
            code = None
    assert time.perf_counter() - start < CALL_SECONDS, argv
    assert code in (None, 0, 1), (argv, code, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


# A number of more digits than int() converts (4300 by default since
# Python 3.11 and 3.10.7), in each place analyze reads a number, with the
# argument argparse names in its error.
BIG = "1" * 5000
BIG_ARGV = [(["analyze", BIG, "2", "3"], "a"), (["analyze", "2", BIG, "3"], "b"),
            (["analyze", "2", "3", BIG], "c"),
            (["analyze", "3", "16", "113", "--p", BIG], "--p")]

# Edge argv for the dispatch test: -h, --help and --version at both
# levels, option prefixes, --opt=value, negative numbers, "--" around the
# command, commands that are a prefix, an extension or a case change of
# a real one, and a matrix file that exists or is missing.  For the plain
# analyze path: zero-padded, non-ASCII and superscript digits (int()
# reads the Arabic-Indic 3 and refuses the superscript 2), a repeated or
# misspelt --p, a number after the triple, an empty --p and BIG_ARGV.
EDGE_ARGV = [line.split() for line in """\
-h
--help
--version
--vers
analyze
analyze -h
analyze --help
analyze --version
analyze 3 16 113
analyze 3 16 113 --p 5
analyze 3 16 113 --p=5
analyze 3 16 113 --p 5 --json -
analyze 3 16 113 --p 5 --js -
analyze 3 16 113 --p 5 --no-c
analyze 3 16 113 --p 5 --no-cache --text --json -
analyze -3 16 113
analyze 3 16 113 --p -5
analyze -- 3 16 113
analyze 3 16 -- 113
analyze 3 16 113 --
analyze 1 2 3
analyze 3 16 113 --p 9
analyze 3 16 113 --bogus
analyze 3 16 113 7
analyze 3 16 x
analyze 3 16 113 --p
analyze 3 16 113 -h
analyze 003 16 113 --p 05
analyze ٣ 16 113
analyze ² 16 113
analyze 3 16 113 --p 5 --p 7
analyze 3 16 113 --P 5
analyze 3 16 113 5 --p
analyz 3 16 113
anal 3 16 113
analyzee 3 16 113
ANALYZE 3 16 113
-- analyze 3 16 113
--version analyze 3 16 113
-h analyze
family stern --r 3 --s-range 5..6 --p 5
family stern --r 3 --s-range=-2..2
family stern --r 3 --s-range -2..2
family stern --r 3 --s 5..6
family stern --r 3 --s-range 5..6 --sign - --json -
family other --r 3 --s-range 5..6
family stern --s-range 5..6
family -h
fam stern --r 3 --s-range 5..6
diagonalize
diagonalize -h
rho --lens 5 3 8
rho --lens 5 3
rho --lens 5 -3 8
rho -h
eta 3 16 113 --p 5
eta 3 16 113
eta -h
graph 3 16 113
graph 3 16 113 --format dot
graph 3 16 113 --format png
graph --help
graph 3 16 113 --format=json --version
""".splitlines()] + [
    [], ["diagonalize", "--matrix", MatrixFile("-2 1\n1 -1\n")],
    ["diagonalize", "--matrix", MatrixFile("-2 1\n1 -1\n"), "--json", "-"],
    ["diagonalize", "--matrix", MatrixFile()],
    ["analyze", "3", "16", "113", "--p", ""]] + [argv for argv, _ in BIG_ARGV]


def outcome(argv):
    """(return code or ("SystemExit", code), stdout, stderr) of main."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def with_edge_examples(test):
    """test with each EDGE_ARGV as an explicit example."""
    for argv in EDGE_ARGV:
        test = example(argv)(test)
    return test


@with_edge_examples
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argvs)
def test_dispatch_prints_what_the_full_parse_prints(workdir, argv):
    """main reads a plain analyze argv itself; without that shortcut, the
    parser reads all of argv.  Both print the same bytes and end the same
    way."""
    argv = written(argv, workdir)
    printed = outcome(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_plain_analyze", lambda argv: None)
        assert outcome(argv) == printed, argv


plain_argvs = argv_of(st.just(["analyze"]), zero_padded(triple),
                      zero_padded(opt("--p", orders)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(plain_argvs)
def test_plain_path_builds_the_namespace_the_analyze_parser_builds(argv):
    """An argv of the plain shape whose numbers are all ASCII digits gets
    the analyze parser's (a, b, c, p), and the parser's other fields are
    the ones the plain path writes for: no --json path, no --text, the
    cache on, cmd_analyze.  One with a sign is left to argparse."""
    plain = cli._plain_analyze(argv)
    if any(x.startswith("-") for x in argv if x != "--p"):
        assert plain is None, argv
    else:
        args = build_parser().parse_args(argv)
        assert plain == (args.a, args.b, args.c, args.p), argv
        assert vars(args) == {"a": args.a, "b": args.b, "c": args.c,
                              "p": args.p, "json": None, "text": False,
                              "no_cache": False, "func": cli.cmd_analyze,
                              "command": "analyze"}, argv


@pytest.mark.parametrize("argv, name", BIG_ARGV,
                         ids=[name for _, name in BIG_ARGV])
def test_a_number_int_refuses_gets_argparses_error(workdir, argv, name):
    """The plain path hands a number int() refuses to argparse, which
    reports it as bad input: exit 1, not an internal error."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int() has no digit limit in this Python")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        result = outcome(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert result == (1, "", f"error: argument {name}: invalid int value: "
                             f"{BIG!r}\n")


def test_plain_analyze_argv_skips_argparse(monkeypatch, tmp_path):
    """With no parser built and build_parser raising, a plain analyze argv
    still prints the report's text, first on a miss and then on a hit."""
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    for argv, triple, p in [(["analyze", "3", "16", "113", "--p", "5"],
                             (3, 16, 113), 5),
                            (["analyze", "2", "3", "5"], (2, 3, 5), None)]:
        text = render_text(build_analysis(*triple, p))
        assert outcome(argv) == (0, text, ""), argv
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(report, "build_analysis", refuse)
            assert outcome(argv) == (0, text, ""), argv
    assert len(os.listdir(tmp_path / "cache")) == 2


def test_module_run_prints_no_traceback(tmp_path):
    proc = launch(["-m", "brieskorn", "analyze", "2", "4", "5"],
                  tmp_path / "cache", timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
