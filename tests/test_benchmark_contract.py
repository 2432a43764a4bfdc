"""The benchmark's traced run looks up pipeline names in brieskorn.report,
brieskorn.spectral, brieskorn.cli, brieskorn.lattice and
brieskorn.matrices.  This test loads perfbench/run.py (read only) and
runs its wrapper installation, one traced request and its probes, a
traced CLI miss and hit, and its discovery of the package's functools
caches, so a renamed or removed name fails here and not only in
perfbench/smoke.py.  spectral.nu_defect keeps no memo: the discovery
finds none under its name, and the per-layer spectral.nu_cache_*
metrics, which read its counts with a default of 0, still come out, as
0."""

import importlib.util
import pathlib
import sys

import brieskorn.cli
import brieskorn.report
import brieskorn.spectral
from brieskorn.report import build_analysis

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_run(monkeypatch):
    # run.py puts perfbench/ on sys.path to import its siblings; the
    # monkeypatched copy of sys.path is restored after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_probes_run(monkeypatch):
    run = load_run(monkeypatch)
    modules = (brieskorn.cli, brieskorn.report, brieskorn.spectral)
    before = [dict(vars(m)) for m in modules]
    tracer = run.Tracer()
    run.install_wrappers(tracer, run.lens_pair_counter())
    try:
        with tracer.span("item", 0):
            report = brieskorn.report.build_analysis(3, 16, 113, 5)
    finally:
        tracer.unwrap()
    assert [dict(vars(m)) for m in modules] == before
    for name in ("spectral.eta", "spectral.rho", "spectral.lens_search",
                 "lattice.diagonalize", "report.build_analysis"):
        assert name in tracer.names
    assert tracer.counts["spectral.rho_matches"] == [1, 1]
    assert report == build_analysis(3, 16, 113, 5)

    probes = dict.fromkeys(("lattice.enumerate_probe_s",
                            "matrices.inverse_probe_s",
                            "matrices.negdef_probe_s"), 0.0)
    run.run_probes(report, probes)
    assert all(value > 0 for value in probes.values())


def test_nu_defect_cache_counters_reach_the_benchmark(monkeypatch):
    # The benchmark finds the package's caches by cache_clear and reads
    # spectral.nu_defect's hits and misses by that name.  nu_defect has no
    # memo, so its spectral.nu_cache_* metrics must still be emitted, as 0.
    run = load_run(monkeypatch)
    memos = run.Memos()
    assert "spectral.nu_defect" not in memos.caches
    tracer = run.Tracer()
    run.install_wrappers(tracer, run.lens_pair_counter())
    try:
        with tracer.span("item", 0):
            brieskorn.report.build_analysis(3, 16, 113, 5)
    finally:
        tracer.unwrap()
    memos.clear()
    metrics = run.layer_metrics(tracer, 1, {}, memos, 0.0)
    names = ("spectral.nu_cache_hits", "spectral.nu_cache_misses",
             "spectral.nu_cache_hit_ratio")
    assert {name: metrics[name] for name in names} == dict.fromkeys(names, 0)


def test_traced_cli_run_tells_a_cache_hit_from_a_miss(monkeypatch, tmp_path,
                                                      capsys):
    # The traced repeat-cache run counts a report.cached_analysis span
    # with a report.build_analysis child as a miss and one without as a
    # hit.  analyze must reach the cache through the wrapped name
    # cli.cached_analysis, or report.cache_hits would read 0.
    run = load_run(monkeypatch)
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    tracer = run.Tracer()
    run.install_wrappers(tracer, run.lens_pair_counter())
    try:
        for item in (0, 1):
            with tracer.span("item", item):
                assert brieskorn.cli.main(["analyze", "3", "16", "113",
                                           "--p", "5"]) == 0
    finally:
        tracer.unwrap()
    first, second = capsys.readouterr().out.split("analysis of ")[1:]
    assert first == second
    kids = tracer.children()
    spans = [(tracer.items[idx], [tracer.names[k] for k in kids.get(idx, ())])
             for idx, name in enumerate(tracer.names)
             if name == "report.cached_analysis"]
    assert [item for item, _ in spans] == [0, 1]
    assert "report.build_analysis" in spans[0][1]
    assert "report.build_analysis" not in spans[1][1]
