"""`python tests/process_checks.py [NAME ...]` runs the named rows, or all,
reports each that fails and exits 1 if any did.  A row runs `python ARGV`
on this checkout in a fresh interpreter and temporary directory holding
its input files and BRIESKORN_CACHE_DIR.  It pins the exit code, stdout
(text, sha256 or nothing), stderr (text or prefix; empty by default), and
optionally the peak RSS.  No row may leave an entry in its cache dir."""

import hashlib
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
Row = namedtuple("Row", "name argv timeout code stdout stderr rss_mb files",
                 defaults=(0, None, "", None, {}))
Run = namedtuple("Run", "returncode stdout stderr rss_mb seconds")


class sha256(str):
    def of(self, text):
        return hashlib.sha256(text.encode()).hexdigest()


class prefix(str):
    def of(self, text):
        return text[:len(self)]


def member(s, triple, lens):
    return (f"s={s}  Sigma({triple})  delta=-1  R=-1  diagonalizable=True  "
            f"obstruction=infeasible  lens={lens}\n")


# Each child runs under this small process, which kills it past the
# timeout and writes its wait status and peak RSS in KiB, read by wait4,
# to a descriptor (an empty report reads as SIGKILL).  exec keeps the peak
# RSS of the image it replaces: a child spawned from pytest counts pytest's.
REAPER = """import os, signal, sys
fd, timeout, *argv = sys.argv[1:]
pid = os.fork() or os.execv(argv[0], argv)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, float(timeout))
_, status, usage = os.wait4(pid, 0)
os.write(int(fd), b"%d %d" % (status, usage.ru_maxrss))"""
M = "-m brieskorn "
LONG = "x" * 300 + ".json"
ROWS = (
    # Theorems A and B: every stern member is obstructed; at s = 11 = p,
    # r = 3 gets lens (3,8) with matching rho, and r = 4 gets (4,7) only.
    Row("theorems-odd", M + "family stern --r 3 --s-range 11..13 --p 11 "
        "--no-cache", 60, 0, member(11, "3,34,239", "(3,8)+rho")
        + member(12, "3,37,260", "none") + member(13, "3,40,281", "none")),
    Row("theorems-even", M + "family stern --r 4 --s-range 11..11 --p 11 "
        "--no-cache", 60, 0, member(11, "4,45,403", "(4,7)")),
    # 1009 is prime but not in is_prime's set: the strong tests decide it.
    Row("spectral-1009", M + "analyze 3 16 113 --p 1009 --no-cache", 30, 0,
        sha256("0716a19193423cad14a6f053495c7795"
               "7f6461a083e7ed8d678dd6a682a1b332")),
    Row("spectral-10007", M + "analyze 3 16 113 --p 10007 --no-cache", 60),
    Row("spectral-99991", M + "analyze 3 16 113 --p 99991 --no-cache", 30,
        0, sha256("a336f7d58d9d877d2d92aa5f90444921"
                  "ece51f63de754bd28ee74de0a837bff4")),
    Row("np-corner", M + "analyze 3 601 4208 --p 10007 --no-cache", 60,
        0, sha256("80705dc2b746d91a340b2f320e8b73be"
                  "cb51eb7bd6ea7d0a04cef479d3f78261")),
    Row("np-corner-memory", "-c 'from brieskorn.report import build_"
        "analysis; build_analysis(3, 601, 4208, 99991)'", 120, rss_mb=100),
    Row("eta-997", M + "eta 3 16 113 --p 997", 30, 0, sha256(
        "085acb8aef903416f528cd2d55fb7b603d79263561421ee8d6960051e190797e")),
    Row("rho-99991", M + "rho --lens 99991 3 8", 30, 0, sha256(
        "96a25390d7005d86ca9718d7f088f9544897c20e3873af7d2f2c55c533b38efb")),
    *(Row(f"lattice-{s + 6}", M + f"family stern --r 3 --s-range {s}..{s} "
          "--p 5 --no-cache", 60, 0, sha256(digest)) for s, digest in (
        (400, "5df474954a4f5402de685cfffef3412d"
              "3986686e8ecf454e91d5c99571498dcb"),
        (800, "fa5311ebd82f81a0ac79dda4000dad6e"
              "1b0391a27566615584160f3378156c07"),
        (1000, "06f8f76cbf2cbcdde89c3edd15e37a87"
               "811fecaad1f32ff60c9ee7d3726e820c"))),
    Row("report-406", M + "analyze 3 1201 8408 --p 5 --no-cache --json -",
        60, 0, sha256("932ae0b4ad20a3ae77c565e92a74055691d25c8ae51592b0"
                      "6610b8451dea8c01")),
    Row("node-max", M + "analyze 4 1000003 2305843009213693951", 10, 1, "",
        "error: the continued fraction of 2305843009213693951/"
        "-1998502151763439159 has more than NODE_MAX = 1200 terms\n"),
    Row("node-max-family", M + "family stern --r 3 --s-range 1194..1195 "
        "--p 7 --no-cache", 60, 0, member(1194, "3,3583,25082", "(1,4)")
        + "s=1195: skipped (the resolution tree has 1201 nodes, more than "
        "NODE_MAX = 1200)\n"),
    Row("family-max", M + "family stern --r 1 --s-range 1..1000000000", 10,
        1, "", "error: the range 1..1000000000 has 1000000000 members, "
        "more than FAMILY_MAX = 1000\n"),
    Row("p-max", M + "analyze 3 16 113 --p 1000003 --no-cache", 10, 1, "",
        "error: p must be at most 100000, got 1000003\n"),
    Row("broken-invariant", "-c \"import sys, brieskorn.seifert as s; "
        "s.pow = lambda *a: 1; from brieskorn.cli import main; sys.exit("
        "main(['analyze', '3', '16', '113', '--no-cache']))\"", 30, 2, "",
        "internal invariant violation: ArithmeticError: central weight is "
        "not an integer: -14078/5424\n"),
    Row("cache-not-a-dir", M + "analyze 3 16 113 --p 5", 30, 0, sha256(
        "243726a9fabb63e717005ea67f0b330c32dd1e3380dfd194b7745f545f97d255"),
        files={"cache": ""}),
    Row("json-no-dir", M + "analyze 3 16 113 --p 5 --json missing/x.json", 30,
        1, "", "error: [Errno 2] No such file or directory: 'missing/x."
        "json'\n", files={"cache": ""}),
    Row("json-dir-first", M + "analyze 1 2 3 --json .", 30, 1, "",
        "error: [Errno 21] Is a directory: '.'\n"),
    Row("json-dir", M + "analyze 3 16 113 --p 5 --json .", 30, 1, "",
        "error: [Errno 21] Is a directory: '.'\n"),
    Row("json-long", M + "analyze 3 16 113 --p 5 --json " + LONG, 30, 1, "",
        f"error: [Errno 36] File name too long: '{LONG}'\n"),
    Row("json-slash", M + "analyze 3 16 113 --p 5 --json missing.json/", 30,
        1, "", "error: [Errno 21] Is a directory: 'missing.json/'\n"),
    # Python patch releases may reformat argparse's usage and choices.
    Row("help", M + "analyze -h", 30, 0, prefix("usage: brieskorn analyze")),
    Row("typo", M + "analyz 3 16 113", 30, 1, "",
        prefix("error: argument command: invalid choice: 'analyz'")),
    Row("big-int", M + "analyze " + "1" * 5000 + " 2 3", 30, 1, "",
        "error: argument a: invalid int value: '" + "1" * 5000 + "'\n"),
    Row("zero-pivot", M + "diagonalize --matrix hyperbolic.txt", 30, 1, "",
        "error: zero pivot: the form is not definite\n",
        files={"hyperbolic.txt": "0 1\n1 0\n"}),
    Row("large-analyze", M + "analyze 317 143002 1024527679 --p 5 "
        "--no-cache", 10, 0, sha256("1e4fb95c372849da6a0b51530802095a"
                                    "b42e35ebb224276a89fa1ef12a314b97")),
    Row("large-eta", M + "eta 193 122771 1897856947 --p 5", 10, 0, sha256(
        "388883d37c88fdc0ba40be473c5cfa7338fcfba0c03e4c3db579f8602894b692")),
)


def launch(argv, cache_dir, cwd=None, timeout=300):
    """`python ARGV` on this checkout, with BRIESKORN_CACHE_DIR=cache_dir
    and output to files: a pipe would block a child printing megabytes."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path,
           "BRIESKORN_CACHE_DIR": str(cache_dir)}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            tempfile.TemporaryFile() as report:
        start = time.monotonic()
        subprocess.run([sys.executable, "-S", "-c", REAPER,
                        str(report.fileno()), str(timeout), sys.executable,
                        *argv], cwd=cwd, env=env, stdout=out, stderr=err,
                       pass_fds=[report.fileno()])
        for file in out, err, report:
            file.seek(0)
        status, kib = map(int, report.read().split() or [9, 0])
        return Run(os.waitstatus_to_exitcode(status), out.read().decode(),
                   err.read().decode(), kib / 1024, time.monotonic() - start)


def check(row):
    """Row's run, and the ways it misses its pins: none if it passes."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in row.files.items():
            pathlib.Path(tmp, name).write_text(text)
        cache = pathlib.Path(tmp, "cache")
        run = launch(shlex.split(row.argv), cache, tmp, row.timeout)
        entries = len(os.listdir(cache)) if cache.is_dir() else 0
    if run.seconds >= row.timeout:
        return run, [f"timed out after {row.timeout} s"]
    problems = [f"{what} {got!r:.300}, expected {want!r}" for what, got, want
                in [("exit", run.returncode, row.code),
                    ("stdout", getattr(row.stdout, "of", str)(run.stdout),
                     row.stdout),
                    ("stderr", getattr(row.stderr, "of", str)(run.stderr),
                     row.stderr), ("cache entries", entries, 0)]
                if want is not None and got != want]
    if row.rss_mb is not None and run.rss_mb > row.rss_mb:
        problems.append(f"peak RSS {run.rss_mb:.0f} MB > {row.rss_mb} MB")
    return run, problems


def main(names, rows=ROWS):
    unknown = sorted(set(names) - {row.name for row in rows})
    if unknown:
        sys.exit(f"no such row: {', '.join(unknown)}")
    failed = 0
    for row in [row for row in rows if not names or row.name in names]:
        run, problems = check(row)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok'}  {row.name}  {run.seconds:.1f}"
              f" s  {run.rss_mb:.0f} MB", *problems, sep="\n    ")
    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
