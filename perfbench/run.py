"""Benchmark of the brieskorn pipeline.

    python3 perfbench/run.py --workload spectral-p --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client in this process sends the seeded
requests of one workload (see ``workloads.py``) one at a time and checks
every output.  A run sends a fixed number of rounds, sized so that its
requests take about ``--seconds`` at the reference speed (see
``speed.py``): the same seed always measures the same work, whatever the
host's speed at the time.  The last line of standard output is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics listed in
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a run whose
layer calls are wrapped by ``tracing.Tracer``.  The lines before it
print the same numbers, with sample counts, for a reader.

Every run uses a fresh temporary ``BRIESKORN_CACHE_DIR`` inside
``perfbench/out`` and deletes it at the end, so ``~/.cache/brieskorn`` is
never read or written.  Traced runs also write their spans to
``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import io
import json
import os
import pkgutil
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import REFERENCE_KERNEL_S, Sampler  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_INTERPRETERS = 7
# A run, with the untraced reference run a traced run starts, ends within
# this many seconds.
RUN_LIMIT_S = 170
# Times the import and parser build, then the speed kernel in the same
# interpreter right after, so each interpreter's time can be scaled.
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import brieskorn.cli\n"
    "brieskorn.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from speed import kernel_seconds\n"
    "print(t1 - t0, kernel_seconds())\n"
)
# ROADMAP stage table (seconds): total, diagonalize, eta, rho, lens search.
ROADMAP_ROWS = {
    "3,16,113,5": (0.03, 0.016, 0.007, 0.0005, 0.006),
    "3,16,113,13": (0.27, 0.019, 0.168, 0.012, 0.071),
    "3,16,113,29": (2.35, 0.018, 1.894, 0.138, 0.300),
    "3,121,848,5": (0.91, 0.869, 0.020, 0.0006, 0.018),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(env):
    """Seconds a fresh interpreter takes to import brieskorn and build the
    CLI parser: (wall, scaled), one per interpreter.  The first
    interpreter, which may compile bytecode, is discarded."""
    wall, scaled = [], []
    for _ in range(SETUP_INTERPRETERS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, HERE], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, kernel = map(float, out.stdout.split())
        wall.append(seconds)
        scaled.append(seconds * REFERENCE_KERNEL_S / kernel)
    return wall[1:], scaled[1:]


def tail(durations):
    """The highest percentile with at least ten items beyond it: the
    eleventh-largest value (the largest when there are at most ten), with
    its percentile and the sample count."""
    data = sorted(durations)
    n = len(data)
    rank = n - 10 if n > 10 else n
    return data[rank - 1], 100.0 * rank / n, n


class Memos:
    """The package's functools caches, found by their cache_clear method in
    the module that defines them.  Clearing them before each round makes
    every round a sweep that starts cold, as a fresh process does, so a
    round costs the same wherever it falls in a run."""

    def __init__(self):
        import brieskorn
        self.caches = {}
        for info in pkgutil.iter_modules(brieskorn.__path__):
            if info.name.startswith("_"):
                continue
            module = importlib.import_module(f"brieskorn.{info.name}")
            for name, value in vars(module).items():
                if (callable(getattr(value, "cache_clear", None))
                        and getattr(value, "__module__", None) == module.__name__):
                    self.caches[f"{info.name}.{name}"] = value
        self.hits = dict.fromkeys(self.caches, 0)
        self.misses = dict.fromkeys(self.caches, 0)

    def clear(self) -> None:
        """Add each cache's hit and miss counts to the totals, then empty it."""
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            cache.cache_clear()


def count_files(path: str) -> int:
    return sum(len(files) for _, _, files in os.walk(path))


class Client:
    """The closed-loop client: sends one request, waits, checks it."""

    def __init__(self, workload, golden, cache_dir, tracer):
        import brieskorn.cli
        import brieskorn.report
        self.cli = brieskorn.cli
        self.report = brieskorn.report
        # Checks use the functions as imported here, never a traced wrapper.
        self.render_json = brieskorn.report.render_json
        self.render_text = brieskorn.report.render_text
        self.cached_analysis = brieskorn.report.cached_analysis
        self.workload = workload
        self.golden = golden
        self.cache_dir = cache_dir
        self.tracer = tracer
        self.seen = {}
        self.hit_ids = set()
        self.failures = []
        self.anchors = {}

    def send(self, req, item_id):
        """Run one request; return ((start, end), report or None, problems)."""
        if self.workload == "repeat-cache":
            return self._send_cli(req, item_id)
        t0 = time.perf_counter()
        if self.tracer:
            with self.tracer.span("item", item_id):
                report = self.report.build_analysis(req.a, req.b, req.c, req.p)
        else:
            report = self.report.build_analysis(req.a, req.b, req.c, req.p)
        span = (t0, time.perf_counter())
        text = self.render_json(report)
        return span, report, workloads.check_report(req, report, text, self.golden)

    def _send_cli(self, req, item_id):
        argv = ["analyze", str(req.a), str(req.b), str(req.c)]
        if req.p is not None:
            argv += ["--p", str(req.p)]
        before = count_files(self.cache_dir)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer:
                with self.tracer.span("cli.main", item_id):
                    code = self.cli.main(argv)
            else:
                code = self.cli.main(argv)
        span = (t0, time.perf_counter())
        if code != 0:
            return span, None, [f"exit code {code}: {err.getvalue().strip()}"]
        grew = count_files(self.cache_dir) > before
        report = self.cached_analysis(req.a, req.b, req.c, req.p)
        if req.key in self.seen:
            self.hit_ids.add(item_id)
            first_out, first_report = self.seen[req.key]
            problems = []
            if grew:
                problems.append("cache hit wrote a new cache entry")
            if out.getvalue() != first_out:
                problems.append("cache hit printed other text than its miss")
            # Equal reports render to the same JSON bytes.
            if report != first_report:
                problems.append("cache hit report differs from its miss")
            return span, None, problems
        text = self.render_json(report)
        problems = workloads.check_report(req, report, text, self.golden)
        if not grew:
            problems.append("cache miss wrote no cache entry")
        if out.getvalue() != self.render_text(report):
            problems.append("printed text differs from render_text of the report")
        self.seen[req.key] = (out.getvalue(), report)
        return span, report, problems


def install_wrappers(tracer: Tracer, lens_pairs):
    """Wrap the layer functions where the pipeline looks them up."""
    import brieskorn.cli as cli
    import brieskorn.report as report
    import brieskorn.spectral as spectral

    def nodes(t, args, graph):
        t.count("plumbing.nodes", len(graph.weights))

    def roots(t, args, diag):
        t.count("lattice.found", 1 if diag.found else 0)
        t.count("lattice.roots", diag.form.n if diag.found else diag.root_pairs)

    def couplings(t, args, cs):
        t.count("obstruction.couplings", len(cs.couplings))

    def verdict(t, args, v):
        t.count("obstruction.infeasible", 1 if v.status == "infeasible" else 0)

    def lens(t, args, candidates):
        t.count("spectral.candidates", len(candidates))
        t.count("spectral.rho_matches", sum(1 for c in candidates if c.rho_match))
        t.count("spectral.lens_pairs", lens_pairs(args[1]))

    def json_bytes(t, args, text):
        t.count("report.json_bytes", len(text.encode("utf-8")))

    for module in (report, spectral):
        tracer.wrap(module, "seifert_invariants", "seifert.invariants")
        tracer.wrap(module, "canonical_resolution", "plumbing.resolve", nodes)
        tracer.wrap(module, "propagate_rotations", "plumbing.markup")
    tracer.wrap(report, "graph_signature", "plumbing.signature")
    tracer.wrap(spectral, "graph_signature", "plumbing.signature")
    tracer.wrap(report, "diagonalize", "lattice.diagonalize", roots)
    tracer.wrap(report, "build_constraints", "obstruction.build", couplings)
    tracer.wrap(report, "decide", "obstruction.decide", verdict)
    tracer.wrap(report, "eta_from_fixed_data", "spectral.eta")
    tracer.wrap(report, "rho_from_eta", "spectral.rho")
    tracer.wrap(report, "ll_extension_search", "spectral.lens_search", lens)
    tracer.wrap(spectral, "eta_brieskorn", "spectral.lens_eta_recompute")
    tracer.wrap(spectral, "rho_from_eta", "spectral.lens_rho_recompute")
    tracer.wrap(spectral, "rho_lens_table", "spectral.lens_rho_tables")
    tracer.wrap(report, "build_analysis", "report.build_analysis")
    tracer.wrap(report, "render_json", "report.render_json", json_bytes)
    tracer.wrap(cli, "cached_analysis", "report.cached_analysis")
    tracer.wrap(cli, "render_text", "report.render_text")


def lens_pair_counter():
    """Number of canonical (r, s) classes ll_extension_search scans at p."""
    from brieskorn.spectral import canonical_lens_pair
    memo = {}

    def count(p):
        if p not in memo:
            memo[p] = len({canonical_lens_pair(r, s, p)
                           for r in range(1, p) for s in range(r, p)})
        return memo[p]
    return count


def run_probes(report, probes):
    """Time enumerate_roots, inverse_unimodular and is_negative_definite on
    one report's matrices, outside every span."""
    from brieskorn import lattice, matrices
    q = report["form"]["matrix"]
    d = report["diagonalization"]
    form = lattice.UnimodularForm.from_matrix(q)
    t0 = time.perf_counter()
    lattice.enumerate_roots(form)
    t1 = time.perf_counter()
    if d["found"]:
        matrices.inverse_unimodular(d["C"])
    t2 = time.perf_counter()
    matrices.is_negative_definite(form.q)
    t3 = time.perf_counter()
    probes["lattice.enumerate_probe_s"] += t1 - t0
    probes["matrices.inverse_probe_s"] += t2 - t1
    probes["matrices.negdef_probe_s"] += t3 - t2


def layer_metrics(tracer: Tracer, items: int, probes, memos, overhead):
    """Per-layer metrics of a traced run.  Times are seconds per item unless
    the name says otherwise; counts are means per call."""
    dur = tracer.durations()
    own = tracer.self_times()
    kids = tracer.children()
    total = {}
    for name, d in zip(tracer.names, dur):
        total[name] = total.get(name, 0.0) + d

    def per_item(name):
        return total.get(name, 0.0) / items

    def self_per_item(name):
        return sum(s for n, s in zip(tracer.names, own) if n == name) / items

    def mean(name):
        s, calls = tracer.counts.get(name, (0.0, 0))
        return s / calls if calls else 0.0

    hits, miss_self = [], []
    for idx, name in enumerate(tracer.names):
        if name == "report.cached_analysis":
            if any(tracer.names[k] == "report.build_analysis" for k in kids.get(idx, ())):
                miss_self.append(own[idx])
            else:
                hits.append(dur[idx])
    item_total = total.get("item", 0.0) + total.get("cli.main", 0.0)
    spectral_total = sum(total.get(n, 0.0) for n in
                         ("spectral.eta", "spectral.rho", "spectral.lens_search"))
    m = {}
    for name in ("seifert.invariants", "plumbing.resolve", "plumbing.signature",
                 "plumbing.markup", "obstruction.build", "obstruction.decide",
                 "lattice.diagonalize", "spectral.eta", "spectral.rho",
                 "spectral.lens_search", "spectral.lens_eta_recompute",
                 "spectral.lens_rho_recompute", "spectral.lens_rho_tables",
                 "report.render_json", "report.render_text"):
        m[name + "_s"] = per_item(name)
    for name in ("plumbing.nodes", "lattice.roots", "obstruction.couplings",
                 "spectral.candidates", "spectral.rho_matches",
                 "spectral.lens_pairs", "report.json_bytes"):
        m[name] = mean(name)
    m["lattice.found_ratio"] = mean("lattice.found")
    m["obstruction.infeasible_ratio"] = mean("obstruction.infeasible")
    for name, value in probes.items():
        m[name] = value / items
    nu_hits = memos.hits.get("spectral.nu_defect", 0)
    nu_misses = memos.misses.get("spectral.nu_defect", 0)
    m["spectral.nu_cache_hits"] = nu_hits
    m["spectral.nu_cache_misses"] = nu_misses
    lookups = nu_hits + nu_misses
    m["spectral.nu_cache_hit_ratio"] = nu_hits / lookups if lookups else 0.0
    m["report.self_s"] = self_per_item("report.build_analysis")
    m["cli.self_s"] = self_per_item("cli.main")
    m["report.cache_hits"] = len(hits)
    m["report.cache_misses"] = len(miss_self)
    m["report.cache_hit_s"] = statistics.fmean(hits) if hits else 0.0
    m["report.cache_write_s"] = statistics.fmean(miss_self) if miss_self else 0.0
    m["spectral.item_share"] = spectral_total / item_total
    m["lattice.item_share"] = total.get("lattice.diagonalize", 0.0) / item_total
    m["trace.overhead_ratio"] = overhead
    return m


def sanity_rows(tracer: Tracer, anchors):
    """The traced stage split of the ROADMAP table's inputs."""
    dur = tracer.durations()
    lines = []
    for key, item_id in anchors.items():
        got = {}
        for name, item, d in zip(tracer.names, tracer.items, dur):
            if item == item_id:
                got[name] = got.get(name, 0.0) + d
        measured = (got.get("item", got.get("cli.main", 0.0)),
                    got.get("lattice.diagonalize", 0.0), got.get("spectral.eta", 0.0),
                    got.get("spectral.rho", 0.0), got.get("spectral.lens_search", 0.0))
        ref = ROADMAP_ROWS[key]
        off = any(not (r / 10 <= x <= r * 10) for x, r in zip(measured, ref))
        lines.append("sanity %-12s total %8.4f  diagonalize %8.4f  eta %8.4f  "
                     "rho %8.4f  lens %8.4f  (ROADMAP %s)%s" % (
                         key, *measured, " ".join(str(r) for r in ref),
                         "  ! more than 10x off" if off else ""))
    return lines


def reference_rounds(args, timeout):
    """Scaled request seconds of each complete round of an untraced run of
    the same workload and seed in a fresh process; empty if it did not end
    within `timeout`."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(1.0, timeout), check=True)
    except subprocess.TimeoutExpired:
        return []
    for line in out.stdout.splitlines():
        if line.startswith("round_scaled_s "):
            return json.loads(line.split(" ", 1)[1])
    raise RuntimeError("reference run printed no round_scaled_s line")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "brieskorn", "__init__.py")):
        sys.stderr.write(f"error: no brieskorn package under {SRC}; run from "
                         "the root of a source checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    os.environ["BRIESKORN_CACHE_DIR"] = cache_dir
    sys.path.insert(0, SRC)
    try:
        return run(args, spec, golden, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run(args, spec, golden, cache_dir) -> int:
    begun = time.perf_counter()
    setup_wall, setup = [], []
    if not args.trace:
        setup_wall, setup = measure_setup(dict(os.environ, PYTHONPATH=SRC))

    tracer = Tracer() if args.trace else None
    probes = {"lattice.enumerate_probe_s": 0.0, "matrices.inverse_probe_s": 0.0,
              "matrices.negdef_probe_s": 0.0}
    client = Client(args.workload, golden, cache_dir, tracer)
    if tracer:
        install_wrappers(tracer, lens_pair_counter())

    # A run never exceeds this much wall time, even mid-round, so it ends
    # within the benchmark's per-run time limit on a much slower program.
    hard_stop = 2 * args.seconds + 30
    start = time.perf_counter()
    attempted = 0
    round_ends = []  # items attempted when each complete round ended
    stopped_early = False
    spans = []
    count = workloads.round_count(args.workload, args.seconds)
    memos = Memos()
    with Sampler() as sampler:
        for batch in workloads.rounds(args.workload, args.seed, count):
            memos.clear()
            for req in batch:
                if time.perf_counter() - start > hard_stop:
                    stopped_early = True
                    break
                item_id = attempted
                attempted += 1
                try:
                    span, report, problems = client.send(req, item_id)
                except Exception:  # a failed request is counted, not fatal
                    span, report = None, None
                    problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
                if span is not None:
                    spans.append((item_id, *span))
                if problems:
                    client.failures.append(f"{req.label}: {'; '.join(problems)}")
                if tracer and report is not None:
                    run_probes(report, probes)
                if req.anchor:
                    client.anchors[req.key] = item_id
            if stopped_early:
                break
            round_ends.append(attempted)
    wall = time.perf_counter() - start
    memos.clear()
    durations = [end - begin for _, begin, end in spans]
    scaled = [sampler.scaled(begin, end) for _, begin, end in spans]

    failed = len(client.failures)
    passed = attempted - failed
    busy = sum(durations)
    scaled_busy = sum(scaled)
    round_scaled = [0.0] * len(round_ends)
    for (item_id, _, _), d in zip(spans, scaled):
        k = bisect.bisect_right(round_ends, item_id)
        if k < len(round_scaled):
            round_scaled[k] += d
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} items in {len(round_ends)} complete rounds, wall {wall:.2f} s"
          + (" (stopped at the hard limit)" if stopped_early else ""))
    costs = sorted(sampler.costs)
    print(f"speed: kernel {1000 * sampler.kernel_median:.4f} ms median, "
          f"{1000 * costs[len(costs) // 10]:.4f}..{1000 * costs[9 * len(costs) // 10]:.4f} ms "
          f"p10..p90 over {len(costs)} samples (reference "
          f"{1000 * REFERENCE_KERNEL_S} ms); busy {busy:.3f} s wall, "
          f"{scaled_busy:.3f} s scaled")
    print(f"round_scaled_s {json.dumps(round_scaled)}")
    for line in client.failures[:20]:
        print(f"FAILED {line}")

    measured = True
    if tracer:
        tracer.unwrap()
        # Compare the rounds both runs completed: the same requests.
        ref = reference_rounds(args, RUN_LIMIT_S - (time.perf_counter() - begun))
        shared = min(len(ref), len(round_scaled))
        if shared:
            overhead = sum(round_scaled[:shared]) / sum(ref[:shared])
            print(f"trace.overhead_ratio over {shared} rounds completed by "
                  f"both runs ({len(round_scaled)} traced, {len(ref)} untraced)")
        else:
            overhead, measured = 0.0, False
            print("trace.overhead_ratio NOT MEASURED: the traced or the "
                  "untraced run completed no round in time; correct is false")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        values = layer_metrics(tracer, attempted, probes, memos, overhead)
        item_total = sum(d for n, d in zip(tracer.names, tracer.durations())
                         if n in ("item", "cli.main"))
        print(f"traced items {attempted}, mean item time {item_total / attempted:.6f} "
              f"s wall")
        for line in sanity_rows(tracer, client.anchors):
            print(line)
        metrics_spec = spec["per_layer"]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_value, tail_pct, tail_n = tail(scaled or [0.0])
        values = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "items_per_s": passed / scaled_busy if scaled_busy else 0.0,
            "item_s_p50": statistics.median(scaled or [0.0]),
            "item_s_tail": tail_value,
            "passed_ratio": passed / attempted,
            "peak_rss_mb": rss_mb,
        }
        print(f"items_per_s {values['items_per_s']:.4f} 1/s  ({passed} passed "
              f"items over {scaled_busy:.2f} scaled busy s; "
              f"{passed / busy if busy else 0.0:.4f} per wall s)")
        print(f"item_s_p50 {values['item_s_p50']:.6f} s  (wall "
              f"{statistics.median(durations or [0.0]):.6f} s)")
        print(f"item_s_tail {tail_value:.6f} s  (p{tail_pct:.1f} of {tail_n} items; "
              f"wall {tail(durations or [0.0])[0]:.6f} s)")
        if args.workload == "repeat-cache":
            hits = [d for (i, _, _), d in zip(spans, scaled) if i in client.hit_ids]
            misses = [d for (i, _, _), d in zip(spans, scaled) if i not in client.hit_ids]
            print(f"hit_ms_p50 {1000 * statistics.median(hits or [0.0]):.4f} ms  "
                  f"({len(hits)} hits of {attempted} requests, hit share "
                  f"{len(hits) / attempted:.4f})")
            print(f"miss_ms_p50 {1000 * statistics.median(misses or [0.0]):.4f} ms  "
                  f"({len(misses)} misses)")
        print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted})")
        print(f"peak_rss_mb {rss_mb:.1f} MB")
        if setup:
            print(f"setup_s {values['setup_s']:.5f} s  (median of {len(setup)} "
                  f"interpreters; wall {statistics.median(setup_wall):.5f} s)")
        metrics_spec = spec["end_to_end"]

    metrics = {}
    for entry in metrics_spec:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    if tracer:
        for name, entry in metrics.items():
            print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": failed == 0 and measured, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
