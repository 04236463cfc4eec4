"""The names the benchmark's tracer must patch still alias what it traces,
and the benchmark's own jobs still run and pass their checks.

perfbench/spans.py wraps each traced function in its defining module and,
by object identity, wherever ``from .x import y`` re-binds it; its REBOUND
lists the re-bound names the benchmark needs patched.  Reading both
tuples here, unchanged, makes a renamed or wrapped alias fail the suite
instead of silently dropping its spans from a traced run.  Likewise
perfbench/workloads.py is loaded unchanged and its sl(2) jobs run once, so
a renamed or changed function that the benchmark calls fails the suite.
One full pass of seed 1 runs too, so that the inputs a timing rests on
(the dense Fraction exp(ad x) conjugates, the sl(4) Weyl conjugates) pass
their checks in the suite and not only in a benchmark run.  Finally the
tracer itself is installed around the cohomology-catalog smoke jobs, so a
refactor that routes around a traced layer fails the suite instead of
silently emptying that layer's numbers.
"""

import importlib
import importlib.util
from pathlib import Path

from mcybe import Cochain, catalog, d_apply, rb_from_r

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"mcybe.{name}")


def test_rebound_names_are_the_traced_originals():
    spans = _load("spans")
    traced = {(mod_name, path) for mod_name, path, _, _ in spans.TARGETS}
    for name in spans.REBOUND:
        mod_name, attr = name.split(".")
        value = getattr(_module(mod_name), attr)
        home = value.__module__.rpartition(".")[2]
        assert home != mod_name and (home, value.__name__) in traced, name
        assert getattr(_module(home), value.__name__) is value, name


def test_d_apply_takes_the_keywords_of_the_benchmark_gate():
    a, r = catalog("sl-borel", 2)
    x = Cochain.from_vector(a, a.basis_vector(0))
    for flavor, P in (("R", r), ("B", rb_from_r(r))):
        dx = d_apply(P, x, flavor=flavor, check=False)
        assert dx.arity == 1
        assert d_apply(P, dx, flavor=flavor, check=False).is_zero()


def test_benchmark_smoke_jobs_pass_their_checks(tmp_path):
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload, 1, True, tmp_path / workload)
        assert jobs, workload
        for job in jobs:
            job.check(job.call())


def test_benchmark_full_pass_passes_its_checks(tmp_path):
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload, 1, False, tmp_path / workload)
        assert jobs, workload
        for job in jobs:
            job.check(job.call())


def test_tracer_records_each_cohomology_layer(tmp_path):
    spans, workloads = _load("spans"), _load("workloads")
    jobs = workloads.build("cohomology-catalog", 1, True, tmp_path)
    tracer = spans.Tracer()
    tracer.install("mcybe")
    try:
        reports = [job.call() for job in jobs]
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.summary()
    matrices = sum(1 for report in reports for d in report.degrees.values() if d.dim_cochains)
    assert matrices > len(jobs)
    assert calls["cochain.cohomology"] == len(jobs)
    assert calls["cochain.coboundary_matrix"] == matrices
    assert calls["linalg.rank"] == matrices
