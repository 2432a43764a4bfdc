"""The cache entry reader as it was before its single-read form, kept as a
test oracle.

``read_entry`` reads the stamp line alone (the stamp's length plus 21
bytes), checks it, calls ``fstat`` for the file's size, seeks past the
line and reads the text and its newline (a text read) or the rest of the
file (a report read): six system calls where the package's
``brieskorn.cache._read_entry`` makes three for a text that fits in its
first read.  ``json`` is a module global here.  The tests in
``test_cache_reader.py`` check that both readers give the same value, the
same None and the same exception class on valid, forged and broken
entries.
"""

import json
import os

from brieskorn.cache import SCHEMA_VERSION, _stamp


def read_entry(path, a, b, c, p, text):
    """The text (or, text=False, the report) that the entry at path holds
    for this input, or None; OSError when there is no readable file, and
    ValueError when the text or the report does not decode."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        stamp = _stamp(a, b, c, p)
        line = os.read(fd, len(stamp) + 21)
        line = line[:line.find(b"\n") + 1]
        n = line[len(stamp):-1]
        # bytes.isdigit is ASCII only: no sign, space or "_", which int()
        # would take.  The text and its newline must fit in the file, so a
        # forged n reads and allocates nothing more.
        size = os.fstat(fd).st_size
        if not (line.startswith(stamp) and n.isdigit()
                and len(line) + int(n) < size):
            return None
        n = int(n)
        os.lseek(fd, len(line), os.SEEK_SET)
        body = os.read(fd, n + 1 if text else size)
        if body[n:n + 1] != b"\n":
            return None
        if text:
            return body[:n].decode("utf-8")
        report = json.loads(body[n + 1:].decode("utf-8"))
        if (isinstance(report, dict)
                and report.get("schema_version") == SCHEMA_VERSION
                and report.get("input") == {"a": a, "b": b, "c": c, "p": p}):
            return report
        return None
    finally:
        os.close(fd)
