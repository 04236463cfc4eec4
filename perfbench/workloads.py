"""Seeded inputs, job execution and the correctness gate of the benchmark.

Every workload is a fixed list of jobs.  The seed picks which operators and
files a job gets, never how many jobs there are or how large they are, so
the cost of a pass does not depend on the seed.  The expected results
(Borel cohomology dimensions, exit codes) follow from how each input was
built and do not depend on the seed either.

The package is imported inside the functions, not at module level, so that
each set-up run picks up a freshly imported ``mcybe``.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb
from pathlib import Path

WORKLOADS = ("cohomology-catalog", "cohomology-conjugated", "cli-verify")

# dim H^1.. of the Borel r-matrix of sl(n); conjugation by an automorphism
# keeps them, so every catalog and conjugated job must reproduce them.
BOREL_DIMS = {2: (1, 2, 1), 3: (2, 9, 16), 4: (3, 20)}

# Every job is short (at most a few tenths of a second), so that each job
# runs many times in one run and its fastest time is taken while the shared
# machine is at its quickest; see run.py.  sl(3) at degree 3, sl(4) at
# degree 2 and Kuranishi on sl(4) take seconds and are left out.

# cohomology-catalog: (n, max_degree, flavor, jobs).  Each job gets its own
# operator, a seeded Weyl conjugate of +R or -R, so no two jobs of a pass
# share an operator.  sl(3) has 12 such conjugates and uses all of them.
CATALOG_PLAN = (
    (2, 3, "R", 2), (2, 3, "B", 2),
    (3, 1, "R", 2), (3, 1, "B", 2), (3, 2, "R", 4), (3, 2, "B", 4),
    (4, 1, "R", 10), (4, 1, "B", 11),
)

# cohomology-conjugated: (n, max_degree, flavor, x) with x a nilradical
# element given as {(row, col): coefficient}.  The seed picks a sign torus
# diag(+-1) that moves R and x together; it flips the signs of entries but
# keeps their pattern and size, so the job's cost does not move.  (A Weyl
# permutation would reorder the basis, and with it the pivots of rref,
# which moves the cost of these dense rational jobs by up to half.)
# The sl(4) H^<=1 shapes were picked for like costs (35-45 ms) from 54
# measured; the sl(3) H^<=2 ones take 0.1-0.3 s.  An x with roots at both
# (0, 1) and (1, 2) makes sl(3) H^<=2 five times slower and is left out.
# No two jobs of one n and flavor share an x, even up to the signs of the
# torus, so no two jobs share an operator.
H = Fraction(1, 2)
SL4_H1_SHAPES = (
    ("B", {(0, 3): 1, (2, 3): 2}), ("B", {(0, 1): 3}), ("B", {(0, 3): 2}),
    ("B", {(2, 3): 1}), ("B", {(1, 2): 1}), ("B", {(0, 2): 2}), ("B", {(1, 3): 2}),
    ("B", {(0, 1): 1, (2, 3): 1}),
    ("R", {(0, 2): -1}), ("R", {(0, 1): 1, (1, 3): 1}), ("R", {(0, 1): 1, (0, 2): 1, (0, 3): 1}),
    ("R", {(1, 3): H}), ("R", {(1, 2): 2, (0, 3): 1}), ("R", {(0, 2): 2}), ("R", {(2, 3): 1}),
    ("R", {(0, 1): 3}),
)
CONJUGATED_PLAN = (
    (2, 3, "R", {(0, 1): 1}), (2, 3, "R", {(0, 1): -2}),
    (2, 3, "B", {(0, 1): H}), (2, 3, "B", {(0, 1): 3}),
    (3, 1, "R", {(0, 1): 1, (1, 2): 1, (0, 2): 2}), (3, 1, "B", {(0, 1): H, (1, 2): 2}),
    (3, 2, "R", {(0, 1): 1}), (3, 2, "R", {(1, 2): 1}), (3, 2, "R", {(0, 2): 2}),
    (3, 2, "R", {(1, 2): H, (0, 2): 1}),
    (3, 2, "B", {(0, 1): H}), (3, 2, "B", {(0, 2): 1}), (3, 2, "B", {(1, 2): H, (0, 2): 1}),
) + tuple((4, 1, flavor, x) for flavor, x in SL4_H1_SHAPES)

# sl(4) is left out: kuranishi takes seconds per sl(4) witness, and the
# other sl(4) jobs, though each short, made up 60% of a pass and held a run
# to 12-18 passes, too few for each job's fastest time to settle.
CLI_SIZES = (2, 3)


class GateError(Exception):
    """A job's output failed its correctness check."""


@dataclass
class Job:
    name: str
    call: object                     # zero-argument callable -> output
    check: object                    # callable(output) raising GateError
    digest: object                   # callable(output) -> sha256 hex


# -- sl(n) automorphisms and operators ---------------------------------------


def offdiag_positions(n):
    """Documented sl(n) basis order: upper E_ij row-major, then lower E_ij."""
    upper = [(i, j) for i in range(n) for j in range(n) if i < j]
    lower = [(i, j) for i in range(n) for j in range(n) if i > j]
    return upper + lower


def weyl_automorphism(n, perm, signs):
    """Matrix of X -> Q X Q^-1 with Q = diag(signs) P_perm on the sl(n) basis."""
    from mcybe import Matrix
    offdiag = offdiag_positions(n)
    index = {p: k for k, p in enumerate(offdiag)}
    dim = n * n - 1
    cols = []
    for i, j in offdiag:
        col = [0] * dim
        col[index[(perm[i], perm[j])]] = signs[perm[i]] * signs[perm[j]]
        cols.append(col)
    for i in range(n - 1):
        diag = [0] * n
        diag[perm[i]] += 1
        diag[perm[i + 1]] -= 1
        col = [0] * dim
        running = 0
        for k in range(n - 1):
            running += diag[k]
            col[len(offdiag) + k] = running
        cols.append(col)
    return Matrix.from_columns(cols)


def check_automorphism(algebra, A):
    """Refuse a generated map that does not preserve the bracket."""
    basis = algebra.basis()
    images = [A.apply(e) for e in basis]
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            if A.apply(algebra.bracket_basis(i, j)) != algebra.bracket(images[i], images[j]):
                raise RuntimeError(f"generated map is not an automorphism at ({i}, {j})")


def exp_ad(algebra, x):
    """exp(ad x) for nilpotent ad x, as an exact matrix."""
    from mcybe import Matrix
    ad = algebra.ad(x).matrix
    acc = term = Matrix.identity(algebra.dim)
    k, fact = 1, 1
    while True:
        term = term @ ad
        if term.is_zero():
            return acc
        fact *= k
        acc = acc + term.scale(Fraction(1, fact))
        k += 1


def nilradical_element(n, shape):
    vec = [0] * (n * n - 1)
    index = {p: k for k, p in enumerate(offdiag_positions(n))}
    for pos, c in shape.items():
        vec[index[pos]] = c
    return tuple(vec)


class Instances:
    """sl(n) with its Borel r-matrix, built once per set-up."""

    def __init__(self, sizes):
        from mcybe import catalog
        self.sl = {n: catalog("sl-borel", n) for n in sizes}

    def weyl(self, n, perm, signs):
        algebra, _ = self.sl[n]
        A = weyl_automorphism(n, perm, signs)
        check_automorphism(algebra, A)
        return A, A.inverse()


# -- outputs, digests, checks -------------------------------------------------


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report):
    return sha256_text(json.dumps(report.to_json_dict(), sort_keys=True))


def check_cohomology(P, n, max_degree, flavor, expected):
    """Dimensions against the Borel values; witnesses through d_apply."""
    from mcybe import d_apply

    def check(report):
        dims = tuple(report.dim_h(d) for d in range(1, max_degree + 1))
        if dims != expected[:max_degree]:
            raise GateError(f"dim H = {dims}, expected {expected[:max_degree]}")
        dim = n * n - 1
        for degree, dr in report.degrees.items():
            if dr.dim_cochains != comb(dim, degree - 1) * dim:
                raise GateError(f"degree {degree}: dim C = {dr.dim_cochains}")
            if len(dr.cocycle_witnesses) != dr.dim_cocycles:
                raise GateError(f"degree {degree}: {len(dr.cocycle_witnesses)} cocycle "
                                f"witnesses for dim Z = {dr.dim_cocycles}")
            if len(dr.coboundary_witnesses) != dr.dim_coboundaries:
                raise GateError(f"degree {degree}: coboundary witness count")
            for w in dr.cocycle_witnesses:
                if not d_apply(P, w, flavor=flavor, check=False).is_zero():
                    raise GateError(f"degree {degree}: a cocycle witness has d w != 0")
            for pre, img in dr.coboundary_witnesses:
                if d_apply(P, pre, flavor=flavor, check=False) != img:
                    raise GateError(f"degree {degree}: a coboundary witness has d pre != img")
    return check


def cohomology_job(name, n, P, max_degree, flavor, expected):
    import mcybe
    # mcybe.cohomology is looked up at call time, so a traced run sees it
    return Job(name,
               call=lambda: mcybe.cohomology(P, max_degree=max_degree, flavor=flavor,
                                             witnesses=True),
               check=check_cohomology(P, n, max_degree, flavor, expected),
               digest=report_digest)


# -- cohomology workloads -----------------------------------------------------


def catalog_jobs(rng, sizes, expected):
    from mcybe import Endo, rb_from_r
    inst = Instances(sizes)
    jobs = []
    for n in sizes:
        algebra, R = inst.sl[n]
        plan = [row for row in CATALOG_PLAN if row[0] == n]
        choices = [(perm, sign) for perm in permutations(range(n)) for sign in (1, -1)]
        picks = rng.sample(choices, sum(row[3] for row in plan))
        for _, max_degree, flavor, count in plan:
            for _ in range(count):
                perm, sign = picks.pop()
                A, A_inv = inst.weyl(n, perm, (1,) * n)
                Rw = Endo(A @ R.matrix.scale(sign) @ A_inv, algebra)
                P = Rw if flavor == "R" else rb_from_r(Rw)
                name = f"sl{n}-H{max_degree}-{flavor}-w{''.join(map(str, perm))}{'+-'[sign < 0]}"
                jobs.append(cohomology_job(name, n, P, max_degree, flavor, expected[n]))
    return jobs


def conjugated_jobs(rng, sizes, expected):
    from mcybe import Endo, rb_from_r
    inst = Instances(sizes)
    jobs = []
    for idx, (n, max_degree, flavor, shape) in enumerate(CONJUGATED_PLAN):
        if n not in sizes:
            continue
        algebra, R = inst.sl[n]
        x = nilradical_element(n, shape)
        base = exp_ad(algebra, x) @ R.matrix @ exp_ad(algebra, tuple(-c for c in x))
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        A, A_inv = inst.weyl(n, tuple(range(n)), signs)
        Rc = Endo(A @ base @ A_inv, algebra)
        P = Rc if flavor == "R" else rb_from_r(Rc)
        name = f"sl{n}-H{max_degree}-{flavor}-x{idx}-s{''.join('+-'[s < 0] for s in signs)}"
        jobs.append(cohomology_job(name, n, P, max_degree, flavor, expected[n]))
    return jobs


# -- cli-verify ---------------------------------------------------------------


def run_cli(argv):
    from mcybe import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_digest(output):
    code, out, err = output
    return sha256_text(f"{code}\n{out}\n{err}")


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True))
    return str(path)


def broken_algebra_json(algebra):
    """sl(n) with [E12, H1] = -3 E12 in place of -2 E12.

    The Jacobi identity then fails on (E12, E21, H1) with value H1.
    """
    n = round((algebra.dim + 1) ** 0.5)
    data = algebra.to_json_dict()
    h1 = n * (n - 1)
    for entry in data["brackets"]:
        if (entry["i"], entry["j"]) == (0, h1):
            entry["value"] = [-3 if k == 0 else 0 for k in range(algebra.dim)]
            return data
    raise RuntimeError("sl(n) bracket [E12, H1] not found")


def expect_code(code, verdicts=None):
    """Check of an exit code and, on success, of named report verdicts."""
    def check(output):
        got, out, err = output
        if got != code:
            raise GateError(f"exit {got}, expected {code}: {err.strip()[:200]}")
        if code == 0 and verdicts is not None:
            report = json.loads(out)
            for key, value in verdicts.items():
                if report["verdicts"].get(key) != value:
                    raise GateError(f"verdict {key} = {report['verdicts'].get(key)!r}")
        if code != 0 and not out and not err:
            raise GateError("a failing run printed nothing")
    return check


def check_kuranishi(R, f):
    """Exit code against the report; [[f, f]] and its primitive via d_apply."""
    from mcybe import Cochain, d_apply, graded_bracket

    def check(output):
        code, out, err = output
        if code not in (0, 1) or not out:
            raise GateError(f"kuranishi exit {code}: {err.strip()[:200]}")
        report = json.loads(out)
        vanishes = report["verdicts"]["vanishes_in_H3"]
        if vanishes != (code == 0) or ("primitive" in report["witnesses"]) != vanishes:
            raise GateError("kuranishi verdict, primitive and exit code disagree")
        ff = Cochain.from_json_dict(report["witnesses"]["ff"], R.algebra)
        if ff != graded_bracket(f, f):
            raise GateError("reported [[f, f]] differs from the bracket of the input")
        if not d_apply(R, ff, check=False).is_zero():
            raise GateError("[[f, f]] is not a cocycle")
        if vanishes:
            prim = Cochain.from_json_dict(report["witnesses"]["primitive"], R.algebra)
            if d_apply(R, prim, check=False) != ff:
                raise GateError("primitive g has d g != [[f, f]]")
    return check


def cli_jobs(rng, sizes, workdir, expected_codes):
    """Every subcommand but cohomology, on sign-torus conjugates of the Borel R.

    The seed picks the torus and the scalars below; each choice set keeps
    one size of number, so the cost of a job does not move with the seed.

    Negative inputs fail by construction: c R with c != +-1 has MCYBE
    defect (1 - c^2)[x, y] and c^2 R^2 != Id; R itself has d R = -[[R, R]]
    = -2 pi != 0; (R - Id)/2 is Rota-Baxter of weight 1 and of no other
    weight; a nonzero basis vector x of sl(n) has [[x, y], [x, z]] != 0 for
    some y, z, so it is not a Nijenhuis element.
    """
    from mcybe import Cochain, Endo, coboundary_matrix, rb_from_r
    inst = Instances(sizes)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []

    def add(name, argv, code, verdicts=None, check=None):
        full = argv + ["--json"]
        jobs.append(Job(name, call=lambda: run_cli(full),
                        check=check or expected_codes(name, code, verdicts),
                        digest=cli_digest))

    for n in sizes:
        algebra, R0 = inst.sl[n]
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        A, A_inv = inst.weyl(n, tuple(range(n)), signs)
        R = Endo(A @ R0.matrix @ A_inv, algebra)
        c = rng.choice((2, -2, 3, -3))
        files = {
            "alg": write_json(workdir / f"sl{n}.json", algebra.to_json_dict()),
            "broken": write_json(workdir / f"sl{n}-broken.json", broken_algebra_json(algebra)),
            "R": write_json(workdir / f"sl{n}-R.json", R.to_json_dict()),
            "cR": write_json(workdir / f"sl{n}-cR.json", R.scale(c).to_json_dict()),
            "B": write_json(workdir / f"sl{n}-B.json", rb_from_r(R).to_json_dict()),
            "zero": write_json(workdir / f"sl{n}-zero.json",
                               Endo.zero(algebra).to_json_dict()),
            "mc_bad": write_json(workdir / f"sl{n}-mc-bad.json",
                                 R.scale(c - 1).to_json_dict()),
            "mc_neg": write_json(workdir / f"sl{n}-mc-neg.json",
                                 R.scale(-2).to_json_dict()),
        }
        alg, rmap = ["--algebra", files["alg"]], ["--map", files["R"]]
        zero_x = json.dumps([0] * algebra.dim)
        bad_x = [0] * algebra.dim
        bad_x[rng.randrange(algebra.dim)] = rng.choice((1, -1, 2, -2))
        bad_x = json.dumps(bad_x)
        t1, t2 = rng.choice(("1", "-1")), rng.choice(("2", "-2"))
        p = f"sl{n}-"
        add(p + "check-lie", ["check", "lie"] + alg, 0, {"jacobi_ok": True})
        add(p + "check-lie-broken", ["check", "lie", "--algebra", files["broken"]], 1)
        add(p + "check-mcybe", ["check", "mcybe"] + alg + rmap, 0, {"mcybe_ok": True})
        add(p + "check-mcybe-cR", ["check", "mcybe"] + alg + ["--map", files["cR"]], 1)
        add(p + "check-mcybe-broken-algebra",
            ["check", "mcybe", "--algebra", files["broken"]] + rmap, 2)
        add(p + "check-rb-w1", ["check", "rota-baxter"] + alg +
            ["--map", files["B"], "--weight", "1"], 0, {"rota_baxter_ok": True})
        add(p + "check-rb-w2", ["check", "rota-baxter"] + alg +
            ["--map", files["B"], "--weight", "2"], 1)
        add(p + "induced", ["induced"] + alg + rmap, 0, {"jacobi_ok": True})
        add(p + "induced-cR", ["induced"] + alg + ["--map", files["cR"]], 1)
        add(p + "graded-bracket-RR", ["graded-bracket"] + alg +
            ["--left", files["R"], "--right", files["R"]], 0, {"arity": 2})
        add(p + "mc-check-zero", ["mc-check"] + alg + rmap + ["--prime", files["zero"]],
            0, {"maurer_cartan_ok": True})
        add(p + "mc-check-neg", ["mc-check"] + alg + rmap + ["--prime", files["mc_neg"]],
            0, {"maurer_cartan_ok": True})
        add(p + "mc-check-bad", ["mc-check"] + alg + rmap + ["--prime", files["mc_bad"]], 1)
        add(p + "deform-check-zero", ["deform", "check"] + alg + rmap +
            ["--rhat", files["zero"]], 0, {"valid": True})
        add(p + "deform-check-R", ["deform", "check"] + alg + rmap +
            ["--rhat", files["R"]], 1)
        add(p + "deform-trivial-zero", ["deform", "trivial"] + alg + rmap +
            ["--element", zero_x], 0, {"valid": True})
        add(p + "deform-trivial-bad", ["deform", "trivial"] + alg + rmap +
            ["--element", bad_x], 1)
        add(p + "deform-equivalence-zero", ["deform", "equivalence"] + alg + rmap +
            ["--rhat1", files["zero"], "--rhat2", files["zero"], "--element", zero_x],
            0, {"equivalent": True})
        add(p + "deform-equivalence-bad", ["deform", "equivalence"] + alg + rmap +
            ["--rhat1", files["zero"], "--rhat2", files["zero"], "--element", bad_x], 1)
        add(p + "nijenhuis-check-zero", ["nijenhuis", "check"] + alg + rmap +
            ["--element", zero_x], 0, {"is_nijenhuis_element": True})
        add(p + "nijenhuis-check-bad", ["nijenhuis", "check"] + alg + rmap +
            ["--element", bad_x], 1)
        add(p + "nijenhuis-scan", ["nijenhuis", "scan"] + alg + rmap, 0,
            {"nijenhuis_elements": []})
        add(p + "double-graph", ["double", "graph"] + alg + rmap, 0,
            {"is_subalgebra": True})
        add(p + "double-graph-cR", ["double", "graph"] + alg + ["--map", files["cR"]], 1)
        add(p + "double-complement", ["double", "complement"] + alg + rmap, 0,
            {"ok": True})
        add(p + "double-complement-cR", ["double", "complement"] + alg +
            ["--map", files["cR"]], 1)
        add(p + "involutive", ["involutive", "analyze"] + alg + rmap, 0, {"verdict": True})
        add(p + "involutive-cR", ["involutive", "analyze"] + alg +
            ["--map", files["cR"]], 2)
        add(p + "catalog", ["catalog", "sl", "--n", str(n)], 0, {"dim": algebra.dim})
        add(p + "compatible-zero", ["compatible"] + alg + rmap +
            ["--rhat", files["zero"], "--t1", t1, "--t2", t2], 0, {"compatible": True})
        add(p + "compatible-R", ["compatible"] + alg + rmap +
            ["--rhat", files["R"], "--t1", t1, "--t2", t2], 1)
        add(p + "kuranishi-R", ["kuranishi"] + alg + rmap + ["--cocycle", files["R"]], 1)

        kernel = coboundary_matrix(R, 1).matrix.kernel_basis()
        for k in range(len(kernel)):
            f = Cochain.from_coeff_vector(algebra, 1, kernel[k])
            path = write_json(workdir / f"sl{n}-z2-{k}.json", f.to_json_dict())
            add(f"{p}kuranishi-z{k}", ["kuranishi"] + alg + rmap + ["--cocycle", path],
                None, check=check_kuranishi(R, f))
        add(p + "graded-bracket-ff", ["graded-bracket"] + alg +
            ["--left", path, "--right", path], 0, {"arity": 2})
    return jobs


# -- entry points ---------------------------------------------------------------


def build(workload, seed, smoke, workdir, corrupt=False):
    """The job list of one workload, in a fixed shuffled order.

    Jobs of one size would otherwise run back to back, and their latencies
    would sample the machine's speed in one short window of each pass; the
    shuffle spreads every group over the whole pass.  smoke keeps the sl(2)
    jobs only.
    """
    jobs = _jobs(workload, seed, smoke, workdir, corrupt)
    random.Random(0).shuffle(jobs)
    return jobs


def _jobs(workload, seed, smoke, workdir, corrupt):
    rng = random.Random(f"{workload}/{seed}")
    expected = dict(BOREL_DIMS)
    if corrupt:
        expected[2] = (expected[2][0] + 1,) + expected[2][1:]
    if workload == "cohomology-catalog":
        sizes = (2,) if smoke else (2, 3, 4)
        return catalog_jobs(rng, sizes, expected)
    if workload == "cohomology-conjugated":
        sizes = (2,) if smoke else (2, 3, 4)
        return conjugated_jobs(rng, sizes, expected)
    if workload == "cli-verify":
        sizes = (2,) if smoke else CLI_SIZES

        def expected_codes(name, code, verdicts):
            if corrupt and name == "sl2-check-lie":
                code = 1 - code
            return expect_code(code, verdicts)
        return cli_jobs(rng, sizes, workdir, expected_codes)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
