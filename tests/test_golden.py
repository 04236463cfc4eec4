"""Golden CLI reports: exit code and sha256 of stdout and stderr per run.

golden_digests.json pins the bytes of every subcommand's ``--json`` report
on sl(2) and sl(3) with the Borel operator R, of ``catalog sl`` on sl(4)
and sl(5), and of failing runs whose witnesses come from the MCYBE,
Rota-Baxter, Nijenhuis and induced-bracket checks or from an algebra that
fails the Jacobi identity.  Each case runs once more without ``--json``
(its name ends in ``-text``), so the order and wording of the text report
lines are pinned too.  All runs share one process.  Inputs are written to
one temporary directory and named by relative paths, so the input paths
inside the reports do not depend on where the suite runs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mcybe import Endo, catalog, rb_from_r
from mcybe.cli import run

DIGESTS = json.loads((Path(__file__).parent / "golden_digests.json").read_text())

# one literal valid deformation Rhat = d e_0 (a single entry) and one Z^2
# cocycle per size, as (dim, Rhat entry, cocycle entries)
SIZES = {
    2: (3, (2, 1, 2), [([2], {2: 1})]),
    3: (8, (6, 3, 2), [([3], {2: -1}), ([4], {7: 1})]),
}


def _vector(dim, entries):
    return [entries.get(k, 0) for k in range(dim)]


def _broken_algebra(algebra, n):
    """sl(n) with [e_0, H_1] = -3 e_0 in place of -2 e_0: [h, e] = 3e on sl(2)."""
    data = algebra.to_json_dict()
    entry = next(e for e in data["brackets"] if (e["i"], e["j"]) == (0, n * (n - 1)))
    assert entry["value"] == _vector(algebra.dim, {0: -2})
    entry["value"] = _vector(algebra.dim, {0: -3})
    return data


def _input_files(n):
    """{file name: payload} for the sl(n) cases."""
    algebra, R = catalog("sl-borel", n)
    dim, (row, col, value), cocycle = SIZES[n]
    rhat = [[0] * dim for _ in range(dim)]
    rhat[row][col] = value
    p = f"sl{n}"
    files = {
        f"{p}.json": algebra.to_json_dict(),
        f"{p}-broken.json": _broken_algebra(algebra, n),
        f"{p}-R.json": R.to_json_dict(),
        f"{p}-3R.json": R.scale(3).to_json_dict(),
        f"{p}-neg2R.json": R.scale(-2).to_json_dict(),
        f"{p}-B.json": rb_from_r(R).to_json_dict(),
        f"{p}-zero.json": Endo.zero(algebra).to_json_dict(),
        f"{p}-rhat.json": {"matrix": rhat},
        f"{p}-f.json": {"degree": 1, "entries": [
            {"tuple": tup, "value": _vector(dim, vec)} for tup, vec in cocycle]},
    }
    if n == 2:
        files["sl2-diag11m1.json"] = Endo.from_diagonal(algebra, [1, 1, -1]).to_json_dict()
    return files


def _cases():
    cases = {}
    for n, (dim, _, _) in SIZES.items():
        p = f"sl{n}"
        alg = ["--algebra", f"{p}.json"]
        zero_x = json.dumps([0] * dim)
        e0 = json.dumps(_vector(dim, {0: 1}))

        def add(name, *argv, on="R"):
            cases[f"{p}-{name}"] = [*argv[:2], *alg, "--map", f"{p}-{on}.json",
                                    *argv[2:]]

        cases[f"{p}-catalog"] = ["catalog", "sl", "--n", str(n)]
        cases[f"{p}-check-lie"] = ["check", "lie", *alg]
        cases[f"{p}-check-lie-broken"] = ["check", "lie", "--algebra", f"{p}-broken.json"]
        cases[f"{p}-check-mcybe-broken"] = ["check", "mcybe", "--algebra", f"{p}-broken.json",
                                            "--map", f"{p}-R.json"]
        cases[f"{p}-graded-bracket-RR"] = ["graded-bracket", *alg, "--left",
                                           f"{p}-R.json", "--right", f"{p}-R.json"]
        cases[f"{p}-graded-bracket-ff"] = ["graded-bracket", *alg, "--left",
                                           f"{p}-f.json", "--right", f"{p}-f.json"]
        add("check-mcybe", "check", "mcybe")
        add("check-mcybe-3R", "check", "mcybe", on="3R")
        for w in ("1", "0", "2", "-1/2"):
            add(f"check-rb-w{w.replace('/', '_')}", "check", "rota-baxter",
                f"--weight={w}", on="B")
        add("cohomology-R", "cohomology", "", "--max-degree", "2", "--witnesses")
        add("cohomology-B", "cohomology", "", "--max-degree", "2", "--witnesses",
            "--flavor", "B", on="B")
        add("cohomology-3R", "cohomology", "", "--max-degree", "2", on="3R")
        add("induced", "induced", "")
        add("induced-3R", "induced", "", on="3R")
        add("induced-force-3R", "induced", "", "--force", on="3R")
        add("mc-check-zero", "mc-check", "", "--prime", f"{p}-zero.json")
        add("mc-check-neg2R", "mc-check", "", "--prime", f"{p}-neg2R.json")
        add("mc-check-R", "mc-check", "", "--prime", f"{p}-R.json")
        add("kuranishi", "kuranishi", "", "--cocycle", f"{p}-f.json")
        for rhat in ("rhat", "zero", "R"):
            add(f"deform-check-{rhat}", "deform", "check", "--rhat", f"{p}-{rhat}.json")
        add("deform-trivial-zero", "deform", "trivial", "--element", zero_x)
        add("deform-trivial-e0", "deform", "trivial", "--element", e0)
        add("deform-equivalence-zero", "deform", "equivalence", "--rhat1",
            f"{p}-zero.json", "--rhat2", f"{p}-zero.json", "--element", zero_x)
        add("deform-equivalence-e0", "deform", "equivalence", "--rhat1",
            f"{p}-rhat.json", "--rhat2", f"{p}-zero.json", "--element", e0)
        add("nijenhuis-check-zero", "nijenhuis", "check", "--element", zero_x)
        add("nijenhuis-check-e0", "nijenhuis", "check", "--element", e0)
        add("nijenhuis-scan", "nijenhuis", "scan")
        add("double-graph", "double", "graph")
        add("double-graph-3R", "double", "graph", on="3R")
        add("double-complement", "double", "complement")
        add("double-complement-3R", "double", "complement", on="3R")
        add("involutive-analyze", "involutive", "analyze")
        add("compatible", "compatible", "", "--rhat", f"{p}-rhat.json",
            "--t1", "1/2", "--t2", "-3")
        add("compatible-R", "compatible", "", "--rhat", f"{p}-R.json",
            "--t1", "1", "--t2", "2")
    for n in (4, 5):
        cases[f"sl{n}-catalog"] = ["catalog", "sl", "--n", str(n)]
    cases["sl2-cohomology-default"] = ["cohomology", "--algebra", "sl2.json",
                                       "--map", "sl2-R.json"]
    cases["sl2-check-mcybe-diag11m1"] = ["check", "mcybe", "--algebra", "sl2.json",
                                         "--map", "sl2-diag11m1.json"]
    cases["sl2-involutive-analyze-diag11m1"] = [
        "involutive", "analyze", "--algebra", "sl2.json", "--map", "sl2-diag11m1.json"]
    # drop the empty second word of one-word subcommands
    cases = {name: [s for s in argv if s] for name, argv in cases.items()}
    return {**{name: argv + ["--json"] for name, argv in cases.items()},
            **{f"{name}-text": argv for name, argv in cases.items()}}


CASES = _cases()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for n in SIZES:
        for name, payload in _input_files(n).items():
            (root / name).write_text(json.dumps(payload, sort_keys=True))
    return root


def test_digest_file_covers_exactly_the_cases():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    code = run(CASES[name])
    out, err = capsys.readouterr()
    got = {"exit": code,
           "stdout": hashlib.sha256(out.encode()).hexdigest(),
           "stderr": hashlib.sha256(err.encode()).hexdigest()}
    assert got == DIGESTS[name]
