"""The file cache of analysis reports, and their exact JSON and text
renderings: everything an `analyze` cache hit runs.

Numbers are serialized exactly: integers as JSON integers and rationals
as "num/den" strings.  No floats appear anywhere in a report.

This module imports only `rules` (and, through it, `records`), so a hit
loads none of the pipeline, nor `seifert` or `arith`.  A miss imports
`report` and reads `report.build_analysis` at call time, so a caller
that replaces that name (a test, or the benchmark's tracer) is seen.
`_stamp` reads `source_digest` from this module's globals at call time.
A hit checks its input on plain ints by the checks of `rules` and builds
no `BrieskornTriple`.  `json` is
imported where a report is rendered, read or written, so a text hit
loads none of it.  The source is hashed by the interpreter's own
BLAKE2b module, `_blake2`, so a hit loads neither `hashlib` nor OpenSSL.
"""

from __future__ import annotations

import functools
import os

from .rules import check_entries, check_free

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "BRIESKORN_CACHE_DIR"


def render_json(report: dict) -> str:
    import json
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report: dict) -> str:
    inp = report["input"]
    lines = []
    name = f"Sigma({inp['a']},{inp['b']},{inp['c']})"
    lines.append(f"analysis of {name}" + (f" with p = {inp['p']}" if inp["p"] else ""))
    sf = report["seifert"]
    lines.append(f"  seifert: b = {tuple(sf['b'])}, delta = {sf['delta']}, "
                 f"R = {sf['r_invariant']}")
    g = report["graph"]
    lines.append(f"  graph: {len(g['weights'])} nodes, weights {g['weights']}")
    f = report["form"]
    lines.append(f"  form: det = {f['determinant']}, signature = {f['signature']}"
                 f" ({f['definiteness']})")
    d = report["diagonalization"]
    if d["found"]:
        lines.append(f"  diagonalization: found ({d['root_pairs']} root pairs)")
    else:
        lines.append(f"  diagonalization: failed ({d['certificate']})")
    if "equivariant" in report:
        eq = report["equivariant"]
        pts = ", ".join(f"({a},{b})" for a, b in eq["fixed_points"])
        lines.append(f"  fixed points: {pts}")
        spheres = ", ".join(
            f"node {s['node']} (square {s['self_intersection']}, c_F = "
            f"{s['normal_rotation']})" for s in eq["fixed_spheres"])
        lines.append(f"  fixed spheres: {spheres}")
    if "obstruction" in report:
        ob = report["obstruction"]
        lines.append(f"  obstruction: {ob['status']}")
        lines.append(f"    {ob['certificate']}")
    if "locally_linear" in report:
        ll = report["locally_linear"]
        lines.append(f"  rho of quotient: {ll['rho_quotient']}")
        for cand in ll["candidates"]:
            lines.append(
                f"  lens candidate ({cand['r']},{cand['s']}): product "
                f"{cand['product_mod_p']} = rs {cand['rs_mod_p']} (mod p), "
                f"rho match: {cand['rho_match']}")
        if not ll["candidates"]:
            lines.append("  lens candidates: none")
    lines.append("conclusions:")
    for sentence in report["conclusions"]:
        lines.append(f"  - {sentence}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cache (an optimization only; verdicts never depend on it)
# ---------------------------------------------------------------------------

def cache_dir() -> str:
    path = os.environ.get(CACHE_ENV_VAR)
    if path is None:    # built only when unset: a hit pays nothing for it
        path = os.path.join(os.path.expanduser("~"), ".cache", "brieskorn")
    return path


# The bytes each read of a source file asks for: more than any module's
# size, so a file is read whole by one call and its end seen by the next.
_SOURCE_READ = 1 << 16


@functools.cache
def source_digest() -> str:
    """A 64-bit BLAKE2b of this package's *.py files, as 16 hex digits, by
    sorted name: each name, its byte length, then the file's bytes.
    Computed on first use, once per process, so importing the package
    reads no file.

    The hash is the interpreter's own _blake2 module, which needs neither
    hashlib nor OpenSSL.  On the 98 KB source it takes about 0.2 ms cold,
    against 0.5 ms for the builtin sha256 it replaced.  Each file is read
    by raw os.read calls until one returns no bytes, as _read_entry reads
    an entry: through buffered file objects a cold digest took about
    40 us more."""
    from _blake2 import blake2b
    package = os.path.dirname(os.path.abspath(__file__))
    digest = blake2b(digest_size=8)
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        fd = os.open(os.path.join(package, name), _OPEN_FLAGS)
        try:
            data = b""
            while chunk := os.read(fd, _SOURCE_READ):
                data += chunk
        finally:
            os.close(fd)
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _stamp(a: int, b: int, c: int, p: int | None) -> bytes:
    """An entry's first line up to its text length: the schema version,
    the writer's source_digest and the input."""
    return (f"brieskorn {SCHEMA_VERSION} {source_digest()} {a} {b} {c} {p} "
            .encode())


# The bytes the first read of an entry asks for.  A text hit whose stamp
# line, text and newline fit in them is served by that read alone.
_CHUNK = 8192
# Computed once: getattr on a name the module lacks (O_BINARY, outside
# Windows) builds and drops an AttributeError, about 0.7 us a call.
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def _read_entry(path: str, a: int, b: int, c: int, p: int | None,
                text: bool) -> dict | str | None:
    """The text (or, text=False, the report) that the entry at path holds
    for this input, or None; OSError when there is no readable file, and
    ValueError when the text or the report does not decode.  A text hit
    whose text ends within the first _CHUNK bytes makes three system
    calls: open, one read and close.  Only a report read, or a text that
    does not fit, also calls fstat and reads once more.  The reads are raw
    os.read calls: through a buffered file object the same reads took
    8.5 us against 6.6 us for Sigma(3,16,113) at p = 5, and a whole
    cached_analysis text hit 14.5 us against 12.4 us."""
    fd = os.open(path, _OPEN_FLAGS)
    try:
        stamp = _stamp(a, b, c, p)
        # Enough for the stamp line even when the stamp itself is longer
        # than the chunk (an input with thousands of digits).
        data = os.read(fd, max(_CHUNK, len(stamp) + 21))
        start = data.find(b"\n", len(stamp), len(stamp) + 21) + 1
        n = data[len(stamp):start - 1]
        # bytes.isdigit is ASCII only: no sign, space or "_", which int()
        # would take; and the stamp line's newline must come within 20
        # digits of the stamp.
        if not (start and data.startswith(stamp) and n.isdigit()):
            return None
        end = start + int(n)    # the text is data[start:end], then "\n"
        if end >= len(data) or not text:
            # The text and its newline must fit in the file, so a forged
            # n reads and allocates nothing more.
            size = os.fstat(fd).st_size
            if end >= size:
                return None
            data += os.read(fd, (end + 1 if text else size) - len(data))
        if data[end:end + 1] != b"\n":
            return None
        if text:
            return data[start:end].decode("utf-8")
        import json
        report = json.loads(data[end + 1:].decode("utf-8"))
        if (isinstance(report, dict)
                and report.get("schema_version") == SCHEMA_VERSION
                and report.get("input") == {"a": a, "b": b, "c": c, "p": p}):
            return report
        return None
    finally:
        os.close(fd)


def cached_analysis(a: int, b: int, c: int, p: int | None = None, *,
                    text: bool = False) -> dict | str:
    """build_analysis with a transparent file cache holding one entry per
    input, analyze_{a}_{b}_{c}_p{p}.json for the sorted triple and p.  The
    input is validated before the lookup, so a bad p is never served or
    cached: by check_entries and check_free on the sorted ints, the
    checks of BrieskornTriple.of and check_action with no record built.

    An entry has three parts: a stamp line, "brieskorn <SCHEMA_VERSION>
    <source_digest> <a> <b> <c> <p> <n>", where n is the byte length of
    the rendered text; the text's n UTF-8 bytes and a newline; then the
    report as one line of compact JSON.  A hit needs a first line that
    starts with the stamp this code would write for this input and ends
    in an n that is a run of at most 20 ASCII digits and leaves room in
    the file for the text and its newline; the check reads at most the
    first chunk of the file, so a forged n reads and allocates nothing
    more.  With text=True the result is the text, and a hit decodes its
    n bytes alone, so the report is never decoded and, past the first
    chunk, never read; otherwise a hit slices past the text by its
    length, without decoding it, and decodes the report, which must be an
    object of this schema for this input too.  Anything else, an entry
    written by other code or in another layout included, is a miss, and
    the entry is rewritten in place.  A miss renders the text once, for
    the entry and the result.  The stamp, and so the source digest, is
    built only once an entry is opened or written: an unusable cache
    directory, an empty name included, is a miss that is not cached and
    hashes no source, and the result is still returned."""
    a, b, c = sorted((a, b, c))
    check_entries(a, b, c)
    if p is not None:
        check_free(p, a * b * c)
    directory = cache_dir()
    # An empty value names no directory, not the working one: the path is
    # then "", which open and makedirs refuse, so nothing is read or written.
    path = directory and os.path.join(directory,
                                      f"analyze_{a}_{b}_{c}_p{p}.json")
    try:
        hit = _read_entry(path, a, b, c, p, text)
        if hit is not None:
            return hit
    except (OSError, ValueError):  # ValueError: corrupt entry
        pass
    # Only a miss loads the pipeline (and tempfile and json).
    import json
    import tempfile
    from .report import build_analysis
    report = build_analysis(a, b, c, p)
    rendered = render_text(report)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".analyze_",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                data = rendered.encode("utf-8")
                handle.write(b"%s%d\n%s\n" % (_stamp(a, b, c, p), len(data),
                                               data))
                # compact, by the C encoder: one ASCII line
                handle.write(json.dumps(report).encode("ascii"))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass   # not cached; the cache is an optimization only
    return rendered if text else report
