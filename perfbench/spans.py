"""Span tracing of the package's layers from outside the package.

Each traced name is a public function or method of one module; its wrapper
records a span (name, start, end, parent span, job) in memory.  Functions
re-bound elsewhere by ``from .x import y`` are replaced wherever the same
function object appears, so calls through every alias are seen.  A few
wrappers also record counts at the boundary (matrix cells and nonzeros,
rational bit lengths, distinct operator keys, bytes emitted).  Self time is
a span's duration minus the time its child spans cover.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, metric prefix, kind); kind "span" records spans,
# "count" only counts calls.  Missing targets are skipped, so a later
# version of the package that drops one still runs.
TARGETS = (
    ("linalg", "Matrix.rank", "linalg.rank", "span"),
    ("linalg", "Matrix.rref", "linalg.rref", "span"),
    ("linalg", "Matrix.kernel_basis", "linalg.kernel_basis", "span"),
    ("linalg", "Matrix.solve", "linalg.solve", "span"),
    ("linalg", "Matrix.apply", "linalg.apply", "span"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul", "span"),
    ("liealg", "LieAlgebra.from_json_dict", "liealg.from_json_dict", "span"),
    ("liealg", "LieAlgebra.verify_jacobi", "liealg.verify_jacobi", "span"),
    ("liealg", "LieAlgebra.bracket", "liealg.bracket", "count"),
    ("rmatrix", "mcybe_defect", "rmatrix.mcybe_defect", "span"),
    ("rmatrix", "is_rota_baxter", "rmatrix.is_rota_baxter", "span"),
    ("cochain", "coboundary_matrix", "cochain.coboundary_matrix", "span"),
    ("cochain", "cohomology", "cochain.cohomology", "span"),
    ("cochain", "d_apply", "cochain.d_apply", "span"),
    ("cochain", "is_cocycle", "cochain.is_cocycle", "span"),
    ("cochain", "coboundary_preimage", "cochain.coboundary_preimage", "span"),
    ("cochain", "Cochain.from_coeff_vector", "cochain.from_coeff_vector", "span"),
    ("graded", "graded_bracket", "graded.graded_bracket", "span"),
    ("graded", "kuranishi", "graded.kuranishi", "span"),
    ("graded", "mc_deformation_check", "graded.mc_deformation_check", "span"),
    ("deform", "check_linear_deformation", "deform.check_linear_deformation", "span"),
    ("deform", "trivial_deformation", "deform.trivial_deformation", "span"),
    ("deform", "check_equivalence", "deform.check_equivalence", "span"),
    ("deform", "nijenhuis_scan", "deform.nijenhuis_scan", "span"),
    ("deform", "compatible_bracket_check", "deform.compatible_bracket_check", "span"),
    ("doubling", "graph_complement", "doubling.graph_complement", "span"),
    ("doubling", "complement_certificate", "doubling.complement_certificate", "span"),
    ("cli", "run", "cli.run", "span"),
    ("cli", "Report.emit", "cli.Report.emit", "span"),
)

# Names bound by ``from .x import y`` that must be patched as well.
REBOUND = ("graded.is_cocycle", "graded.coboundary_preimage", "deform.mcybe_defect",
           "doubling.mcybe_defect", "cli.cohomology", "cli.kuranishi",
           "cli.graded_bracket")


def matrix_cells_nnz(m):
    """rows x cols and nonzero entries, through the public row accessor."""
    nrows, ncols = m.nrows, m.ncols
    return nrows * ncols, sum(ncols - m.row(i).count(0) for i in range(nrows))


def max_bits(rows):
    best = 0
    for row in rows:
        for x in row:
            if x:
                if type(x) is int:
                    b = x.bit_length()
                else:
                    b = max(x.numerator.bit_length(), x.denominator.bit_length())
                if b > best:
                    best = b
    return best


def operator_key(P):
    m = P.matrix
    return tuple(m.row(i) for i in range(m.nrows))


class Tracer:
    """In-memory spans and boundary counters for one traced pass."""

    def __init__(self):
        self.spans = []              # (name, start, end, parent, job, outermost)
        self.stack = [-1]
        self.depth = defaultdict(int)
        self.job = None
        self.counts = defaultdict(int)
        self.keys = defaultdict(list)
        self.bits = 0
        self.patched = []            # (owner, attribute, original)
        self.rebound = set()

    # -- recording ------------------------------------------------------

    def _spanned(self, name, fn, before=None, after=None):
        spans, stack, depth = self.spans, self.stack, self.depth

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outer = depth[name] == 0
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, outer)
            if after is not None:
                after(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _elim_input(self, args, kwargs):
        cells, nnz = matrix_cells_nnz(args[0])
        self.counts["linalg.elim_cells"] += cells
        self.counts["linalg.elim_nnz"] += nnz

    def _rref_output(self, args, kwargs, result):
        rows, _ = result
        self.bits = max(self.bits, max_bits(rows))

    def _coboundary_output(self, args, kwargs, result):
        P, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        flavor = args[2] if len(args) > 2 else kwargs.get("flavor", "R")
        self.keys["cochain.coboundary_matrix"].append(
            (operator_key(P), k, getattr(result, "flavor", flavor)))
        cells, nnz = matrix_cells_nnz(result.matrix)
        self.counts["cochain.coboundary_matrix.cells"] += cells
        self.counts["cochain.coboundary_matrix.nnz"] += nnz

    def _defect_input(self, args, kwargs):
        self.keys["rmatrix.mcybe_defect"].append(operator_key(args[0]))

    def _emit_wrapper(self, name, fn):
        """Span of Report.emit plus the bytes it writes to captured stdout."""
        spanned = self._spanned(name, fn)

        def measured(report, as_json):
            out = sys.stdout
            start = out.tell()
            spanned(report, as_json)
            self.counts["cli.emit_bytes"] += len(out.getvalue()[start:].encode())
        measured.__wrapped__ = fn
        return measured

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Wrap every target of the freshly imported package."""
        hooks = {
            "linalg.rank": (self._elim_input, None),
            "linalg.rref": (self._elim_input, self._rref_output),
            "rmatrix.mcybe_defect": (self._defect_input, None),
            "cochain.coboundary_matrix": (None, self._coboundary_output),
        }
        modules = {name: sys.modules.get(f"{package}.{name}")
                   for name in {t[0] for t in TARGETS}}
        for mod_name, path, name, kind in TARGETS:
            module = modules[mod_name]
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if kind == "count":
                wrapped = self._counted(name, fn)
            elif name == "cli.Report.emit":
                wrapped = self._emit_wrapper(name, fn)
            else:
                before, after = hooks.get(name, (None, None))
                wrapped = self._spanned(name, fn, before, after)
            self._replace(owner, attr, raw, classmethod(wrapped) if is_classmethod else wrapped)
            if owner_name:
                continue
            # re-bound aliases of a module-level function
            for other_name, other in modules.items():
                if other is None or other is module:
                    continue
                for alias, value in list(vars(other).items()):
                    if value is fn:
                        self._replace(other, alias, fn, wrapped)
                        self.rebound.add(f"{other_name}.{alias}")
            top = sys.modules.get(package)
            for alias, value in list(vars(top).items()):
                if value is fn:
                    self._replace(top, alias, fn, wrapped)

    def _replace(self, owner, attr, original, new):
        self.patched.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-name calls, self time and outermost total time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for idx, (name, start, end, _, _, outer) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
            if outer:
                total_s[name] += end - start
        return calls, self_s, total_s

    def distinct_ratio(self, name):
        keys = self.keys[name]
        return len(set(keys)) / len(keys) if keys else 0.0

    def write_jsonl(self, path, job_names):
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent,
                    "job": None if job is None else job_names[job]}) + "\n")
