"""Command-line front end: parse JSON inputs, dispatch, report.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the report
names witnesses), 2 input or usage error, 3 internal error (two independent
routes disagreed, or a certificate failed).  Output is deterministic: the
same inputs and flags produce byte-identical reports.  All rationals print
as p/q (or a bare integer); no floating point appears on any output path.
"""

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction

from .errors import InputError, InternalError, PreconditionError
from .linalg import rational_from_json, rational_str, rational_to_json, rationals_from_json
from .liealg import Endo, LieAlgebra, vector_str
from . import rmatrix
from .cochain import Cochain, cohomology
from .graded import GRADED_SIGN_CONVENTION, graded_bracket, kuranishi, \
    mc_deformation_check
from . import deform
from . import doubling
from .liealg import catalog as catalog_fn

CONVENTIONS = {
    "rationals": "exact p/q strings or bare integers; no floating point",
    "cochain_indexing": "arity k = cohomological degree k+1; C^0 = 0, C^1 = g, B^1 = 0",
    "cochain_basis_order": "pairs (sorted tuple, target index), tuples lexicographic",
    "sl_basis_order": "upper E_ij row-major, lower E_ij row-major, Cartan H_i",
    "graded_signs": GRADED_SIGN_CONVENTION,
}


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return rational_to_json(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (Cochain, Endo, LieAlgebra)):
        return _jsonable(obj.to_json_dict())
    return obj


class Report:
    def __init__(self, command):
        self.data = {
            "command": command,
            "inputs": {},
            "conventions": CONVENTIONS,
            "verdicts": {},
            "witnesses": {},
        }
        self.lines = []

    def add_input(self, label, path, raw):
        self.data["inputs"][label] = {
            "path": path,
            "sha256": hashlib.sha256(raw).hexdigest(),
        }

    def verdict(self, key, value, line=None):
        self.data["verdicts"][key] = _jsonable(value)
        if line is not None:
            self.lines.append(line)

    def check(self, key, ok, label, detail=""):
        """Record a pass/FAIL verdict with its report line; return its exit code."""
        self.verdict(key, ok, f"{label}: {'pass' if ok else 'FAIL'}{detail}")
        return 0 if ok else 1

    def witness(self, key, value):
        self.data["witnesses"][key] = _jsonable(value)

    def note(self, line):
        self.lines.append(line)

    def emit(self, as_json):
        if as_json:
            print(json.dumps(self.data, sort_keys=True, indent=2))
        else:
            print(f"== {self.data['command']}")
            for line in self.lines:
                print(line)


def _read_json(path, report, label):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"{label} file {path}: {exc}") from exc
    report.add_input(label, path, raw)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{label} file {path} is not valid JSON: "
                         f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _write_json_files(outputs):
    """Write each (path, payload, label) as JSON once every path is open, none
    truncated and no two the same file; on an error, remove the files this
    call created."""
    created = [path for path, _, _ in outputs if not os.path.exists(path)]
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path, _, label in outputs:
                files.append(stack.enter_context(open(path, "a")))
            stats = [os.fstat(fh.fileno()) for fh in files]
            if len(stats) == 2 and os.path.samestat(*stats):
                raise InputError(f"{outputs[0][2]} and {label} outputs are one file: {path}")
            for fh, (path, payload, label) in zip(files, outputs):
                fh.truncate(0)
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
    except (OSError, InputError) as exc:
        for done in created:
            if os.path.exists(done):
                os.remove(done)
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{label} file {path}: {exc}") from exc


def _load_algebra(args, report, check=True):
    data = _read_json(args.algebra, report, "algebra")
    return LieAlgebra.from_json_dict(data, check=check)


def _load_operator(args, report):
    """The --algebra and the --map operator on it."""
    algebra = _load_algebra(args, report)
    return algebra, _load_endo(args.map, algebra, report, "map")


def _load_endo(path, algebra, report, label):
    data = _read_json(path, report, label)
    return Endo.from_json_dict(data, algebra)


def _load_cochain_or_endo(path, algebra, report, label):
    data = _read_json(path, report, label)
    if isinstance(data, dict) and "matrix" in data:
        return Cochain.from_endo(Endo.from_json_dict(data, algebra))
    return Cochain.from_json_dict(data, algebra)


def _parse_element(text, algebra):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"--element is not valid JSON: {exc.msg}") from exc
    vec = tuple(rationals_from_json(data, "--element"))
    if len(vec) != algebra.dim:
        raise InputError(f"--element length {len(vec)} != dim {algebra.dim}")
    return vec


def _pair_names(algebra, pair):
    i, j = pair
    return [algebra.basis_names[i], algebra.basis_names[j]]


# -- subcommand handlers (each returns the exit code) -------------------------


def cmd_check_lie(args, report):
    algebra = _load_algebra(args, report, check=False)
    jac = algebra.verify_jacobi()
    code = report.check("jacobi_ok", jac.ok, "jacobi")
    if not jac.ok:
        i, j, k = jac.triple
        names = algebra.basis_names
        report.witness("jacobi_triple", [names[i], names[j], names[k]])
        report.witness("jacobiator", list(jac.value))
        report.note(f"counterexample triple: ({names[i]}, {names[j]}, {names[k]}) "
                    f"-> {vector_str(jac.value)}")
    return code


def cmd_check_mcybe(args, report):
    algebra, R = _load_operator(args, report)
    defect = rmatrix.mcybe_defect(R)
    code = report.check("mcybe_ok", defect.is_zero, "modified Yang-Baxter equation")
    if not defect.is_zero:
        report.witness("failing_pair", _pair_names(algebra, defect.worst_pair))
        report.witness("defect", defect.defect_cochain)
        i, j = defect.worst_pair
        report.note(f"defect at ({algebra.basis_names[i]}, {algebra.basis_names[j]}): "
                    f"{vector_str(defect.defect_cochain.get(defect.worst_pair))}")
    return code


def cmd_check_rota_baxter(args, report):
    algebra, B = _load_operator(args, report)
    weight = rational_from_json(args.weight)
    res = rmatrix.is_rota_baxter(B, weight)
    code = report.check("rota_baxter_ok", res.ok,
                        f"Rota-Baxter (weight {rational_str(weight)})")
    if not res.ok:
        report.witness("failing_pair", _pair_names(algebra, res.failing_pair))
        report.witness("defect_value", list(res.value))
    return code


def cmd_cohomology(args, report):
    _, R = _load_operator(args, report)
    rep = cohomology(R, max_degree=args.max_degree, flavor=args.flavor,
                     witnesses=args.witnesses)
    degrees = {}
    for d, dr in sorted(rep.degrees.items()):
        degrees[d] = {
            "arity": dr.arity,
            "dim_cochains": dr.dim_cochains,
            "dim_cocycles": dr.dim_cocycles,
            "dim_coboundaries": dr.dim_coboundaries,
            "dim_cohomology": dr.dim_cohomology,
        }
        report.note(f"H^{d}: dim {dr.dim_cohomology}   "
                    f"(C={dr.dim_cochains} Z={dr.dim_cocycles} B={dr.dim_coboundaries}, "
                    f"arity {dr.arity})")
        if args.witnesses:
            report.witness(f"cocycle_basis_degree_{d}", dr.cocycle_witnesses)
    report.verdict("dimensions", degrees)
    return 0


def cmd_induced(args, report):
    _, R = _load_operator(args, report)
    induced = rmatrix.induced_bracket(R, force=args.force)
    jac = induced.verify_jacobi()
    code = report.check("jacobi_ok", jac.ok, "induced bracket jacobi")
    report.verdict("algebra", induced)
    for (i, j), vec in sorted(induced.structure.items()):
        report.note(f"[{induced.basis_names[i]}, {induced.basis_names[j]}]_R = "
                    f"{vector_str(vec)}")
    return code


def cmd_graded_bracket(args, report):
    algebra = _load_algebra(args, report)
    left = _load_cochain_or_endo(args.left, algebra, report, "left")
    right = _load_cochain_or_endo(args.right, algebra, report, "right")
    result = graded_bracket(left, right)
    report.verdict("arity", result.arity)
    report.verdict("result", result)
    report.note(f"[[left, right]] has arity {result.arity} with "
                f"{len(result.coeffs)} nonzero basis values")
    return 0


def cmd_mc_check(args, report):
    algebra, R = _load_operator(args, report)
    Rp = _load_endo(args.prime, algebra, report, "prime")
    return report.check("maurer_cartan_ok", mc_deformation_check(R, Rp),
                        "R' Maurer-Cartan for d_R (R + R' modified)")


def cmd_kuranishi(args, report):
    algebra, R = _load_operator(args, report)
    f = _load_cochain_or_endo(args.cocycle, algebra, report, "cocycle")
    rep = kuranishi(R, f)
    report.verdict("ff_is_cocycle", rep.is_cocycle)
    code = report.check("vanishes_in_H3", rep.vanishes_in_H3,
                        "Kuranishi obstruction vanishes in H^3")
    report.witness("ff", rep.ff)
    if rep.witness is not None:
        report.witness("primitive", rep.witness)
        report.note("primitive g with d g = [[f, f]] attached")
    return code


def cmd_deform_check(args, report):
    algebra, R = _load_operator(args, report)
    rhat = _load_endo(args.rhat, algebra, report, "rhat")
    dv = deform.check_linear_deformation(R, rhat)
    report.verdict("cocycle_ok", dv.cocycle_ok)
    report.verdict("weight0_ok", dv.weight0_ok)
    code = report.check("valid", dv.valid, "linear deformation valid",
                        f" (cocycle {dv.cocycle_ok}, weight-0 {dv.weight0_ok})")
    if not dv.valid:
        report.witness("failing_pair", _pair_names(algebra, dv.failing_pair))
    return code


def cmd_deform_trivial(args, report):
    algebra, R = _load_operator(args, report)
    x = _parse_element(args.element, algebra)
    rhat, dv = deform.trivial_deformation(R, x)
    code = report.check("valid", dv.valid, "trivial deformation")
    report.witness("rhat", rhat)
    nonzero = sum(len(rhat.matrix.nonzeros(i)) for i in range(algebra.dim))
    report.note(f"Rhat = d x with {nonzero} nonzero entries")
    return code


def cmd_deform_equivalence(args, report):
    algebra, R = _load_operator(args, report)
    rhat1 = _load_endo(args.rhat1, algebra, report, "rhat1")
    rhat2 = _load_endo(args.rhat2, algebra, report, "rhat2")
    x = _parse_element(args.element, algebra)
    eq = deform.check_equivalence(R, rhat1, rhat2, x)
    report.verdict("homomorphism_ok", eq.homomorphism_ok)
    report.verdict("intertwine_linear_ok", eq.intertwine_linear_ok)
    report.verdict("intertwine_quadratic_ok", eq.intertwine_quadratic_ok)
    code = report.check("equivalent", eq.ok, "equivalence via Id + t ad_x")
    if not eq.ok and eq.failing_pair is not None:
        report.witness("failing_pair", _pair_names(algebra, eq.failing_pair))
    return code


def cmd_nijenhuis_check(args, report):
    algebra, R = _load_operator(args, report)
    x = _parse_element(args.element, algebra)
    v = deform.nijenhuis_check(R, x)
    report.verdict("eq1_ok", v.eq1_ok)
    report.verdict("eq2_ok", v.eq2_ok)
    code = report.check("is_nijenhuis_element", v.is_nijenhuis_element,
                        "Nijenhuis element", f" (eq1 {v.eq1_ok}, eq2 {v.eq2_ok})")
    if v.eq1_witness is not None:
        report.witness("eq1_pair", _pair_names(algebra, v.eq1_witness))
    if v.eq2_witness is not None:
        report.witness("eq2_basis_vector", algebra.basis_names[v.eq2_witness])
    return code


def cmd_nijenhuis_scan(args, report):
    _, R = _load_operator(args, report)
    results = deform.nijenhuis_scan(R)
    found = []
    for x, v in results:
        if v.is_nijenhuis_element:
            found.append(list(x))
            report.note(f"nijenhuis element: {vector_str(x)}")
    report.verdict("candidates_checked", len(results))
    report.verdict("nijenhuis_elements", found,
                   f"{len(found)} of {len(results)} candidates are Nijenhuis elements")
    return 0


def cmd_double_graph(args, report):
    _, R = _load_operator(args, report)
    cert = doubling.graph_complement(R)
    code = report.check("is_subalgebra", cert.is_subalgebra,
                        "graph of R is a subalgebra of g(+)g")
    report.witness("graph_basis", [list(v) for v in cert.basis])
    if not cert.is_subalgebra:
        report.witness("failing_pair", list(cert.failing_pair))
    return code


def cmd_double_complement(args, report):
    algebra, R = _load_operator(args, report)
    rep = doubling.complement_certificate(R)
    report.verdict("direct_sum_ok", rep.direct_sum_ok)
    report.verdict("diagonal_subalgebra_ok", rep.diagonal_subalgebra_ok)
    report.verdict("graph_subalgebra_ok", rep.graph_subalgebra_ok)
    return report.check("ok", rep.ok, "g(+)g = diagonal (+) graph, both subalgebras",
                        f" (rank {rep.rank_total} of {2 * algebra.dim}, "
                        f"intersection dim {rep.intersection_dim})")


def cmd_involutive_analyze(args, report):
    _, R = _load_operator(args, report)
    rep = rmatrix.involutive_analyze(R)
    report.verdict("mcybe_ok", rep.mcybe_ok)
    report.verdict("nijenhuis_operator_ok", rep.nijenhuis_operator_ok)
    report.verdict("eigensplit_ok", rep.eigensplit_ok)
    report.verdict("product_structure_ok", rep.product_structure_ok)
    code = report.check("verdict", rep.verdict, "involutive equivalences (all four agree)")
    report.witness("plus_eigenbasis", [list(v) for v in rep.plus_basis])
    report.witness("minus_eigenbasis", [list(v) for v in rep.minus_basis])
    return code


def cmd_catalog_sl(args, report):
    algebra, R = catalog_fn("sl-borel", args.n)
    report.verdict("dim", algebra.dim,
                   f"sl({args.n}) with Borel r-matrix: dim {algebra.dim}")
    payload = {"algebra": algebra.to_json_dict(), "r_matrix": R.to_json_dict()}
    outputs = [out for out in ((args.algebra_out, payload["algebra"], "algebra"),
                               (args.map_out, payload["r_matrix"], "r-matrix")) if out[0]]
    _write_json_files(outputs)
    for path, _, label in outputs:
        report.note(f"{label} written to {path}")
    if not outputs:
        report.verdict("catalog", payload)
    return 0


def cmd_compatible(args, report):
    algebra, R = _load_operator(args, report)
    rhat = _load_endo(args.rhat, algebra, report, "rhat")
    t1 = rational_from_json(args.t1)
    t2 = rational_from_json(args.t2)
    rep = deform.compatible_bracket_check(R, rhat, t1, t2)
    report.verdict("jacobi_ok", rep.jacobi_ok)
    report.verdict("midpoint_ok", rep.midpoint_ok)
    return report.check("compatible", rep.ok,
                        f"bracket sum at t1={rational_str(t1)}, t2={rational_str(t2)}")


# -- parser --------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argparse tree, built on first use and shared by every run()."""
    parser = argparse.ArgumentParser(
        prog="mcybe",
        description="Verification workbench for modified r-matrices on Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, func, *files):
        """Dispatch p to func; add the required input files and then --json."""
        p.set_defaults(func=func)
        if "algebra" in files:
            p.add_argument("--algebra", required=True, help="algebra JSON file")
        if "map" in files:
            p.add_argument("--map", required=True, help="operator JSON file")
        if files:
            p.add_argument("--json", action="store_true", help="emit the structured report")
        return p

    check = sub.add_parser("check", help="verify a single axiom").add_subparsers(
        dest="what", required=True)
    add(check.add_parser("lie"), cmd_check_lie, "algebra")
    add(check.add_parser("mcybe"), cmd_check_mcybe, "algebra", "map")
    p = add(check.add_parser("rota-baxter"), cmd_check_rota_baxter, "algebra", "map")
    p.add_argument("--weight", required=True, help="rational weight, e.g. 1 or 1/2")

    p = add(sub.add_parser("cohomology"), cmd_cohomology, "algebra", "map")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--flavor", choices=("R", "B"), default="R")
    p.add_argument("--witnesses", action="store_true",
                   help="include witness bases in the report")

    p = add(sub.add_parser("induced"), cmd_induced, "algebra", "map")
    p.add_argument("--force", action="store_true",
                   help="emit the raw table even for non-r-matrices")

    p = add(sub.add_parser("graded-bracket"), cmd_graded_bracket, "algebra")
    p.add_argument("--left", required=True, help="cochain or operator JSON file")
    p.add_argument("--right", required=True, help="cochain or operator JSON file")

    p = add(sub.add_parser("mc-check"), cmd_mc_check, "algebra", "map")
    p.add_argument("--prime", required=True, help="candidate R' JSON file")

    p = add(sub.add_parser("kuranishi"), cmd_kuranishi, "algebra", "map")
    p.add_argument("--cocycle", required=True, help="2-cocycle JSON file")

    dsub = sub.add_parser("deform", help="linear deformations").add_subparsers(
        dest="what", required=True)
    p = add(dsub.add_parser("check"), cmd_deform_check, "algebra", "map")
    p.add_argument("--rhat", required=True)
    p = add(dsub.add_parser("trivial"), cmd_deform_trivial, "algebra", "map")
    p.add_argument("--element", required=True, help="JSON array, e.g. '[0, 1, \"1/2\"]'")
    p = add(dsub.add_parser("equivalence"), cmd_deform_equivalence, "algebra", "map")
    p.add_argument("--rhat1", required=True)
    p.add_argument("--rhat2", required=True)
    p.add_argument("--element", required=True)

    nsub = sub.add_parser("nijenhuis", help="Nijenhuis elements").add_subparsers(
        dest="what", required=True)
    p = add(nsub.add_parser("check"), cmd_nijenhuis_check, "algebra", "map")
    p.add_argument("--element", required=True)
    add(nsub.add_parser("scan"), cmd_nijenhuis_scan, "algebra", "map")

    dbl = sub.add_parser("double", help="doubling constructions").add_subparsers(
        dest="what", required=True)
    add(dbl.add_parser("graph"), cmd_double_graph, "algebra", "map")
    add(dbl.add_parser("complement"), cmd_double_complement, "algebra", "map")

    inv = sub.add_parser("involutive").add_subparsers(dest="what", required=True)
    add(inv.add_parser("analyze"), cmd_involutive_analyze, "algebra", "map")

    # catalog reads no file; its --json follows its own options
    cat = sub.add_parser("catalog").add_subparsers(dest="what", required=True)
    p = add(cat.add_parser("sl"), cmd_catalog_sl)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--algebra-out", help="write the algebra JSON here")
    p.add_argument("--map-out", help="write the r-matrix JSON here")
    p.add_argument("--json", action="store_true", help="emit the structured report")

    p = add(sub.add_parser("compatible"), cmd_compatible, "algebra", "map")
    p.add_argument("--rhat", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)

    return parser


def run(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    command = " ".join(
        s for s in (args.command, getattr(args, "what", None)) if s)
    report = Report(command)
    try:
        code = args.func(args, report)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    report.emit(args.json)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
