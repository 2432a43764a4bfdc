"""Write tests/cli_corpus.json: what `brieskorn` prints for a fixed list of
argv, run in process.

    python3 tests/make_cli_corpus.py

Run it from the root of a checkout whose output is known to be right;
tests/test_cli_corpus.py then fails any argv whose stdout, stderr, exit
code or --json file differs from the entry by one byte.  An entry holds
the sha256 of stdout, the exact stderr, the exit code and the sha256 of
the file `--json out.json` writes (null when none is written).

Each argv runs in a fresh directory that holds FILES, with a fresh cache
directory, twice: a miss, then a hit.  Nothing is written unless the two
print the same.  Help texts and argparse's invalid-choice errors are left
out, since their wording differs between the Python versions the package
supports.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from brieskorn import cli  # noqa: E402
from brieskorn.report import CACHE_ENV_VAR  # noqa: E402

CORPUS = os.path.join(HERE, "cli_corpus.json")
# The --json file an argv may name; it is hashed and removed after each run.
OUT = "out.json"

E8 = """\
-2 1 0 0 0 0 0 0
1 -2 1 0 0 0 0 0
0 1 -2 1 0 0 0 1
0 0 1 -2 1 0 0 0
0 0 0 1 -2 1 0 0
0 0 0 0 1 -2 1 0
0 0 0 0 0 1 -2 0
0 0 1 0 0 0 0 -2
"""

# The matrix files each run finds in its directory: forms diagonalize
# finds a basis for or refutes, and one file for each way a file is bad.
FILES = {
    "e8.txt": E8.encode(),
    "e8-comments.txt": ("# -E8, the resolution of Sigma(2,3,5)\n\n"
                        + E8).encode(),
    "minus-i3.txt": b"-2 1 0\n1 -1 0\n0 0 -1\n",
    "token.txt": b"-1 x\nx -1\n",
    "ragged.txt": b"-1 0\n0\n",
    "empty.txt": b"# nothing\n\n",
    "latin1.txt": b"-1 \xe9\n",
    "asymmetric.txt": b"-1 1\n0 -1\n",
    "det2.txt": b"-2\n",
    "hyperbolic.txt": b"0 1\n1 0\n",
    "positive.txt": b"1 0\n0 1\n",
    "indefinite.txt": b"-1 0\n0 1\n",
}

TRIPLES = [(2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (3, 4, 5), (3, 7, 8),
           (3, 10, 71), (3, 16, 113), (4, 11, 13), (3, 19, 134),
           (5, 26, 287), (3, 34, 239)]
ORDERS = [None, 5, 13, 31, 101]

OTHER_ARGV = [
    # The plain path's shapes, and shapes that miss it by one token.
    "analyze 113 16 3", "analyze 003 016 0113 --p 05", "analyze 3 16 113 --p=5",
    "analyze 3 16 113 --p 7 --p 5", "analyze 3 16 113 --p 5 --no-cache",
    "analyze 3 16 113 --no-cache --json -", "analyze +3 16 113",
    "analyze 3 1_6 113", "analyze ٣ 16 113 --p 5",
    "analyze 3 16 113 --p 5 --text --json -",
    "analyze 3 16 113 --p 5 --json out.json",
    "analyze 3 16 113 --p 5 --json out.json --text",
    "analyze 2 3 5 --json out.json",
    # A fixed-coefficient certificate: fixed sphere 4 of Sigma(2,7,31) at
    # p = 3 has a coefficient of absolute value 2.
    "analyze 2 7 31 --p 3", "analyze 2 7 31 --p 3 --json -",
    # family, both kinds; a member the action is not free on is analyzed
    # without p, and a member the family rule refuses is a skipped row.
    "family stern --r 3 --s-range 4..6 --p 5",
    "family stern --r 3 --s-range 4..6 --p 5 --json -",
    "family stern --r 3 --s-range 11..13 --p 11 --no-cache",
    "family stern --r 4 --s-range 9..11 --p 11 --json out.json",
    "family stern --r 3 --s-range 5..6 --sign - --p 13",
    "family stern --r 2 --s-range -2..2",
    "family stern --r 3 --s-range 1195..1196",
    "family casson-harer --r 3 --s-range 1..4",
    "family casson-harer --r 4 --s-range 1..4 --p 7 --json -",
    "family casson-harer --r 2 --s-range 1..2",
    "family stern --r 1 --s-range 1..2",
    # eta, rho, graph and diagonalize.
    "eta 3 16 113 --p 5", "eta 2 3 7 --p 13", "eta 113 16 3 --p 31",
    "rho --lens 5 3 8", "rho --lens 13 1 2", "rho --lens 31 3 8",
    "graph 3 16 113", "graph 3 16 113 --format dot",
    "graph 3 16 113 --format json", "graph 2 3 5 --format tgf",
    "graph 3 19 134 --format json",
    "diagonalize --matrix e8.txt", "diagonalize --matrix e8.txt --json -",
    "diagonalize --matrix e8-comments.txt --json out.json",
    "diagonalize --matrix minus-i3.txt",
    "diagonalize --matrix minus-i3.txt --json -",
    "--version",
    # Every input error, each with its own text.
    "", "analyze", "analyze 3 16", "analyze 3 16 113 --bogus",
    "analyze x 16 113", "analyze 3 16 113 --p", "analyze 3 16 113 --p x",
    "analyze 1 16 113", "analyze 2 4 5", "analyze 3 16 113 --p 9",
    "analyze 3 16 113 --p 2", "analyze 3 16 113 --p 0",
    "analyze 3 16 113 --p -5", "analyze 3 16 113 --p 1000003",
    "analyze 4 1000003 2305843009213693951", "analyze 3 3586 25103",
    "analyze 3 16 113 --json .", "analyze 3 16 113 --json missing/x.json",
    "analyze 3 16 113 --json out.json/", "analyze 1 2 3 --json .",
    "analyze 3 16 113 --p 9 --json missing/x.json",
    "family stern --s-range 1..2", "family stern --r 3",
    "family stern --r 3 --s-range 1-5", "family stern --r 3 --s-range 5..x",
    "family stern --r 3 --s-range 1..1001", "family stern --r 3 --s-range 1..2 --p 9",
    "family stern --r 3 --s-range 1..2 --json .",
    "eta 3 16 113", "eta 3 16 113 --p 1009", "eta 3 16 113 --p 9",
    "eta 2 3 5 --p 5", "eta 1 2 3 --p 5",
    "rho --lens 5 3", "rho --lens 5 5 1", "rho --lens 4 1 1",
    "rho --lens 1000003 1 1",
    "graph 2 4 5", "graph 3 16",
    "diagonalize", "diagonalize --matrix missing.txt", "diagonalize --matrix .",
    "diagonalize --matrix token.txt", "diagonalize --matrix ragged.txt",
    "diagonalize --matrix empty.txt", "diagonalize --matrix latin1.txt",
    "diagonalize --matrix asymmetric.txt", "diagonalize --matrix det2.txt",
    "diagonalize --matrix hyperbolic.txt", "diagonalize --matrix positive.txt",
    "diagonalize --matrix indefinite.txt",
    "diagonalize --matrix e8.txt --json missing/x.json",
]


def corpus_argv():
    """Every argv of the corpus, in order: analyze on each triple and
    order, as text and as --json -, then OTHER_ARGV."""
    for triple in TRIPLES:
        for p in ORDERS:
            argv = ["analyze", *map(str, triple)]
            argv += [] if p is None else ["--p", str(p)]
            yield argv
            yield argv + ["--json", "-"]
    for line in OTHER_ARGV:
        yield line.split()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_once(argv):
    """The entry of one in-process main(argv) in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --version
            code = exc.code
    written = None
    if os.path.isfile(OUT):
        with open(OUT, "rb") as handle:
            written = sha256(handle.read())
        os.remove(OUT)
    return {"argv": list(argv), "exit": code,
            "stdout_sha256": sha256(out.getvalue().encode("utf-8")),
            "stderr": err.getvalue(), "json_sha256": written}


def miss_and_hit(argv, root):
    """The entries of argv run twice in a fresh directory under root that
    holds FILES, with a fresh cache directory in it: a miss, then a hit."""
    work = tempfile.mkdtemp(dir=root)
    for name, data in FILES.items():
        with open(os.path.join(work, name), "wb") as handle:
            handle.write(data)
    cwd, cache = os.getcwd(), os.environ.get(CACHE_ENV_VAR)
    os.chdir(work)
    os.environ[CACHE_ENV_VAR] = os.path.join(work, "cache")
    try:
        return run_once(argv), run_once(argv)
    finally:
        os.chdir(cwd)
        if cache is None:
            del os.environ[CACHE_ENV_VAR]
        else:
            os.environ[CACHE_ENV_VAR] = cache
        shutil.rmtree(work)


def main() -> int:
    entries, bad = [], []
    root = tempfile.mkdtemp()
    try:
        for argv in corpus_argv():
            miss, hit = miss_and_hit(argv, root)
            if miss != hit or miss["exit"] not in (0, 1):
                bad.append(f"{argv}: miss {miss}, hit {hit}")
            entries.append(miss)
    finally:
        shutil.rmtree(root)
    if len({tuple(e["argv"]) for e in entries}) != len(entries):
        bad.append("an argv is listed twice")
    for line in bad:
        print(f"FAILED {line}")
    if bad:
        return 1
    with open(CORPUS, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    print(f"wrote {len(entries)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
