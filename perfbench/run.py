"""Benchmark of the mcybe package: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload cohomology-catalog --seed 1 --seconds 40 --trace 0

Run from the repository root.  The package is imported from ``src/``.
Load shape: a closed loop with one client; one process runs one job at a
time, with no threads, and each invocation runs one workload.

--trace 0 runs as many whole passes over the workload's job list as fit in
--seconds and prints the end-to-end metrics.  wall_s is one pass timed job
by job at each job's fastest: the sum over the jobs of each job's least
latency over the passes.  The shared machine this was tuned on changes
speed by up to 1.7x for seconds to minutes at a time, while brief quick
moments mostly come back within a run; every job is short and runs many
times, so its fastest run falls in such a moment.  Set-up is repeated
SETUP_REPEATS times, spread evenly over the run, and setup_s is their
median.  --trace 1 runs one pass untraced and one traced, interleaved job
by job, checks that both produce the same outputs and prints the
per-layer metrics.  Every job's output is checked; an exception or a
failed check counts as a failed job.  The last line of stdout is the
result object; the line before it records the Python version, nproc, the
per-job latency median and tail with their job count, and the failure
share.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "mcybe"
SETUP_REPEATS = 9
TAIL_BEYOND = 10          # the tail percentile keeps this many jobs beyond it

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("linalg.rank.calls", "count"), ("linalg.rank.self_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.rref.max_bits", "bits"),
    ("linalg.kernel_basis.calls", "count"), ("linalg.kernel_basis.self_s", "s"),
    ("linalg.solve.calls", "count"), ("linalg.solve.self_s", "s"),
    ("linalg.apply.calls", "count"), ("linalg.apply.self_s", "s"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_s", "s"),
    ("linalg.elim_cells", "count"), ("linalg.elim_nnz", "count"),
    ("linalg.elim_density", "ratio"),
    ("cochain.coboundary_matrix.calls", "count"), ("cochain.coboundary_matrix.self_s", "s"),
    ("cochain.coboundary_matrix.cells", "count"), ("cochain.coboundary_matrix.nnz", "count"),
    ("cochain.coboundary_matrix.distinct_ratio", "ratio"),
    ("cochain.cohomology.calls", "count"), ("cochain.cohomology.total_s", "s"),
    ("cochain.d_apply.calls", "count"), ("cochain.d_apply.self_s", "s"),
    ("cochain.from_coeff_vector.calls", "count"), ("cochain.from_coeff_vector.self_s", "s"),
    ("cochain.is_cocycle.calls", "count"), ("cochain.coboundary_preimage.calls", "count"),
    ("liealg.from_json_dict.calls", "count"), ("liealg.from_json_dict.self_s", "s"),
    ("liealg.verify_jacobi.calls", "count"), ("liealg.verify_jacobi.self_s", "s"),
    ("liealg.bracket.calls", "count"),
    ("rmatrix.mcybe_defect.calls", "count"), ("rmatrix.mcybe_defect.self_s", "s"),
    ("rmatrix.mcybe_defect.distinct_ratio", "ratio"),
    ("rmatrix.is_rota_baxter.calls", "count"), ("rmatrix.is_rota_baxter.self_s", "s"),
    ("graded.graded_bracket.calls", "count"), ("graded.graded_bracket.self_s", "s"),
    ("graded.kuranishi.calls", "count"), ("graded.kuranishi.total_s", "s"),
    ("graded.mc_deformation_check.total_s", "s"),
    ("deform.check_linear_deformation.total_s", "s"),
    ("deform.trivial_deformation.total_s", "s"),
    ("deform.check_equivalence.total_s", "s"),
    ("deform.nijenhuis_scan.total_s", "s"),
    ("deform.compatible_bracket_check.total_s", "s"),
    ("doubling.graph_complement.total_s", "s"),
    ("doubling.complement_certificate.total_s", "s"),
    ("cli.run.total_s", "s"), ("cli.Report.emit.self_s", "s"), ("cli.emit_bytes", "B"),
    ("trace.overhead_frac", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run the sl(2) jobs only")
    p.add_argument("--corrupt-expected", action="store_true",
                   help="alter one expected value, to show the gate catches it")
    return p.parse_args(argv)


def package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def fresh_import():
    """Import the package and its CLI anew, as a user's process would."""
    for name in package_modules():
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if SRC not in Path(package.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} was found at {package.__file__}, not under {SRC}")


def setup(args, workdir):
    """Time import, instance building and seeded input generation: (jobs, seconds)."""
    import workloads
    start = perf_counter()
    fresh_import()
    jobs = workloads.build(args.workload, args.seed, args.smoke, workdir,
                           corrupt=args.corrupt_expected)
    return jobs, perf_counter() - start


def setup_again(args, workdir):
    """Time one more set-up, then put back the modules the jobs were built with."""
    kept = package_modules()
    _, seconds = setup(args, workdir)
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return seconds


def execute(job, check, tracer=None, idx=None):
    """Run one job: (latency, sha256 of the output, error or None).

    Outside the timed region the output is digested and, when check is set,
    verified, then dropped, so that no job carries the heap of the ones
    before it.  A tracer, when given, is installed for the call only.
    """
    import workloads
    gc.collect()                 # no job pays for the garbage of the one before
    if tracer is not None:
        tracer.install(PACKAGE)
        tracer.job = idx
    t0 = perf_counter()
    try:
        output, error = job.call(), None
    except Exception as exc:     # a failing job is a result, not a crash
        output, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.job = None
        tracer.uninstall()
    digest = None
    if error is None:
        try:
            digest = job.digest(output)
            if check:
                job.check(output)
        except (workloads.GateError, ValueError, KeyError, TypeError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return latency, digest, error


def as_pass(results):
    """(seconds spent inside the jobs, per-job results)."""
    return sum(r[0] for r in results), results


def run_pass(jobs, check):
    return as_pass([execute(job, check) for job in jobs])


def run_traced(jobs, tracer):
    """An untraced and a traced pass, interleaved job by job.

    Each job runs once plain and once traced, in alternating order, so the
    machine's speed drifts cancel out of the overhead, and a warm cache
    favours neither side.
    """
    plain, traced = [], []
    for idx, job in enumerate(jobs):
        for with_trace in ((False, True) if idx % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(execute(job, False, tracer, idx))
            else:
                plain.append(execute(job, True))
    return as_pass(plain), as_pass(traced)


def gate(jobs, passes):
    """Failures over all passes; passes after the first must reproduce it.

    Returns (failed executions, per-job sha256 digests, failure messages).
    """
    failed, problems = 0, {}
    reference = passes[0][1]
    for idx, job in enumerate(jobs):
        for p, (_, results) in enumerate(passes):
            _, digest, error = results[idx]
            if error is None and digest != reference[idx][1]:
                error = f"pass {p} output differs from pass 0"
            if error is not None:
                failed += 1
                problems[job.name] = error
    return failed, [r[1] for r in reference], problems


def per_job_latency(passes, njobs):
    """Each job's least latency over the passes."""
    return [min(results[i][0] for _, results in passes) for i in range(njobs)]


def end_to_end(setup_times, passes, njobs):
    """The gated metrics, and the per-job latency percentiles for the info line.

    job_s.p50 and job_s.tail are not gated: a percentile rests on one or two
    jobs, and its spread between runs on a shared 2-vCPU machine exceeded
    the largest bound a metric may carry.
    """
    lat = sorted(per_job_latency(passes, njobs))
    tail_idx = max(0, len(lat) - 1 - TAIL_BEYOND)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"jobs": len(lat), "passes": len(passes),
            "job_s.p50": statistics.median(lat), "job_s.tail": lat[tail_idx],
            "job_s.tail_percentile": round(100 * tail_idx / max(1, len(lat) - 1), 1),
            "job_s.tail_jobs_beyond": len(lat) - 1 - tail_idx}
    return values, info


def per_layer(tracer, untraced_wall, traced_wall):
    calls, self_s, total_s = tracer.summary()
    counts = tracer.counts
    values = {}
    for name, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(base, 0) + counts.get(base, 0)
        elif stat == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif stat == "total_s":
            values[name] = total_s.get(base, 0.0)
        elif stat == "distinct_ratio":
            values[name] = tracer.distinct_ratio(base)
        else:
            values[name] = counts.get(name, 0)
    values["linalg.rref.max_bits"] = tracer.bits
    cells = values["linalg.elim_cells"]
    values["linalg.elim_density"] = values["linalg.elim_nnz"] / cells if cells else 0.0
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return values


def combined_digest(digests):
    return hashlib.sha256("\n".join(d or "-" for d in digests).encode()).hexdigest()


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    workdir = out_dir / "work" / tag
    try:
        jobs, seconds = setup(args, workdir)
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_times = [seconds]
    gc.collect()
    gc.freeze()                  # keep the inputs out of the collector's scans

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "setup_runs_s": setup_times}
    if args.trace:
        import spans
        tracer = spans.Tracer()
        untraced, traced = run_traced(jobs, tracer)
        passes = [untraced, traced]
        metrics = per_layer(tracer, untraced[0], traced[0])
        units = dict(PER_LAYER)
        info["rebound_patched"] = sorted(tracer.rebound & set(spans.REBOUND))
        info["spans"] = len(tracer.spans)
        span_file = out_dir / f"spans-{tag}.jsonl"
    else:
        passes = []
        start = perf_counter()
        while True:
            began = perf_counter()
            passes.append(run_pass(jobs, check=not passes))
            due = len(setup_times) * args.seconds / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and perf_counter() - start >= due:
                setup_times.append(setup_again(args, workdir))
            now = perf_counter()
            if now - start + (now - began) > args.seconds:    # the next pass would overrun
                break
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_again(args, workdir))
        metrics, extra = end_to_end(setup_times, passes, len(jobs))
        units = dict(END_TO_END)
        info.update(extra)
        info["wall_runs_s"] = [wall for wall, _ in passes]

    failed, digests, problems = gate(jobs, passes)
    attempted = len(jobs) * len(passes)
    info.update({"attempted": attempted, "failed": failed,
                 "fail_frac": failed / attempted, "outputs_sha256": combined_digest(digests),
                 "problems": problems})
    out_dir.mkdir(exist_ok=True)
    record = dict(info, jobs_sha256={job.name: d for job, d in zip(jobs, digests)},
                  jobs_latency_s=dict(zip((job.name for job in jobs),
                                          per_job_latency(passes, len(jobs)))),
                  metrics=metrics)
    (out_dir / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        tracer.write_jsonl(span_file, [job.name for job in jobs])

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
