"""Self-test of the benchmark, on the sl(2) jobs only (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is printed with its unit, that
per-layer counts repeat exactly between two traced runs, that the traced
run patches the names re-bound by ``from .x import y``, that a corrupted
expected value raises the failure share, and that the benchmark refuses to
run where the package sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import REBOUND

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def counts(result, spec_metrics):
    """Every per-layer value that is not a time."""
    units = {m["name"]: m["unit"] for m in spec_metrics}
    return {k: v["value"] for k, v in result["metrics"].items()
            if units[k] != "s" and k != "trace.overhead_frac"}


def main():
    for workload in WORKLOADS:
        info, result = parse(bench(workload, 0, "--smoke"))
        check_metrics(result, SPEC["end_to_end"])
        assert result["correct"] and result["failed"] == 0, (workload, info["problems"])
        assert info["python"] and info["nproc"] >= 1
        assert info["job_s.p50"] > 0 and info["job_s.tail"] > 0 and info["jobs"] > 0

        info, first = parse(bench(workload, 1, "--smoke"))
        check_metrics(first, SPEC["per_layer"])
        assert first["correct"], (workload, info["problems"])
        assert set(info["rebound_patched"]) == set(REBOUND), info["rebound_patched"]
        _, second = parse(bench(workload, 1, "--smoke"))
        assert counts(first, SPEC["per_layer"]) == counts(second, SPEC["per_layer"]), workload

        info, bad = parse(bench(workload, 0, "--smoke", "--corrupt-expected"))
        assert not bad["correct"] and bad["failed"] > 0 and info["fail_frac"] > 0, workload
        print(f"{workload}: metrics, counts, rebinding and the gate: ok")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("without the package sources: refused with exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
