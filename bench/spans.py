"""Spans around the public functions of ckcenter, recorded from outside.

install() wraps every public function of the six layer modules and puts
the wrapper in place of the original in every ckcenter namespace that bound
it by name: center.py imports multiply from algebra, so both
ckcenter.algebra.multiply and ckcenter.center.multiply must be replaced, or
calls made from center would bypass the span.

Each call is one span with its function, duration, calling span and op id.
A pass of the structure workload makes about eight million calls, so spans
are folded into one row per (op, function, calling function) as they
close, holding the call count, inclusive time, self time (duration minus
the durations of direct child spans) and two counters that a few functions
fill in from their arguments or result (work attempted and useful results,
see _COUNTERS).  That keeps memory to ops x call edges.  write() saves the
rows when the run ends; layer_metrics() derives the per-layer figures from
a saved file.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("graphs", "hereditary", "algebra", "linalg", "center", "cli")

ROW_FIELDS = ("op", "function", "caller", "calls", "incl_s", "self_s", "work", "found")


def _lattice(args, result):
    return 2 ** len(args[0].vertices), len(result.elements)


def _nullspace(args, result):
    rows, ncols = args[0], args[1]
    return len(rows), ncols - len(result)


# function -> (args, result) -> (work, found)
_COUNTERS = {
    "hereditary.finitary_annihilator_lattice": _lattice,
    "hereditary.arrival_paths": lambda a, r: (0, len(r.paths) if r.is_finite else 0),
    "graphs.cycles": lambda a, r: (0, len(r)),
    "algebra.multiply": lambda a, r: (len(a[0].terms) * len(a[1].terms), 0),
    "algebra.bounded_basis_monomials": lambda a, r: (0, len(r)),
    "linalg.nullspace": _nullspace,
}


def public_functions() -> dict:
    """"layer.name" -> function, for the public functions each layer defines."""
    import ckcenter

    found = {}
    for layer in LAYERS:
        mod = getattr(ckcenter, layer)
        for attr, fn in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[f"{layer}.{attr}"] = fn
    return found


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.rows: dict[tuple, list] = {}
        self.bindings = 0
        self._names: list[str] = []  # functions of the open spans
        self._child: list[float] = []  # time covered by their closed children

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is
        bound in a ckcenter namespace."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions().items()}
        for name, mod in list(sys.modules.items()):
            if name != "ckcenter" and not name.startswith("ckcenter."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self.bindings += 1

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        names, child, rows = self._names, self._child, self.rows

        def wrapper(*args, **kwargs):
            key = (self.op, name, names[-1] if names else None)
            names.append(name)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                names.pop()
                inner = child.pop()
                if child:
                    child[-1] += duration
                row = rows.get(key)
                if row is None:
                    row = rows[key] = [0, 0.0, 0.0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - inner
            if counter is not None:
                work, found = counter(args, result)
                row[3] += work
                row[4] += found
            return result

        return functools.wraps(fn)(wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ROW_FIELDS, "rows": [list(k) + v for k, v in self.rows.items()]}, fh)


def layer_metrics(path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a saved span file.
    "_s" figures are inclusive times unless they are self times."""
    with open(path) as fh:
        rows = [dict(zip(ROW_FIELDS, r)) for r in json.load(fh)["rows"]]
    calls, incl, work, found, self_s = (defaultdict(int), defaultdict(float), defaultdict(int),
                                        defaultdict(int), defaultdict(float))
    verify = 0.0
    candidates = 0
    generator_build = ("algebra.central_idempotent", "algebra.conjugated_cycle_power")
    for r in rows:
        fn = r["function"]
        calls[fn] += r["calls"]
        incl[fn] += r["incl_s"]
        work[fn] += r["work"]
        found[fn] += r["found"]
        self_s[fn.split(".")[0]] += r["self_s"]
        if (r["caller"] == "center.compute_center" and fn.startswith("algebra.")
                and fn not in generator_build):
            verify += r["incl_s"]
        if fn == "algebra.bounded_basis_monomials" and r["caller"] == "algebra.center_degree_bounded":
            candidates += r["found"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    s, count = "s", "count"
    lattice = "hereditary.finitary_annihilator_lattice"
    return {
        "trace.op_s": (incl["cli.main"], s),
        "cli.self_s": (self_s["cli"], s),
        "center.compute_center_s": (incl["center.compute_center"], s),
        "center.verify_s": (verify, s),
        "center.cross_check_center_s": (incl["center.cross_check_center"], s),
        "center.predicted_central_elements_s": (incl["center.predicted_central_elements"], s),
        "center.self_s": (self_s["center"], s),
        "hereditary.lattice_s": (incl[lattice], s),
        "hereditary.lattice_calls": (calls[lattice], count),
        "hereditary.subsets_swept": (work[lattice], count),
        "hereditary.lattice_elements": (found[lattice], count),
        "hereditary.lattice_yield": (ratio(found[lattice], work[lattice]), "ratio"),
        "hereditary.double_annihilator_calls": (calls["hereditary.double_annihilator"], count),
        "hereditary.classify_atom_s": (incl["hereditary.classify_atom"], s),
        "hereditary.arrival_paths_s": (incl["hereditary.arrival_paths"], s),
        "hereditary.arrival_paths_calls": (calls["hereditary.arrival_paths"], count),
        "hereditary.arrival_paths_found": (found["hereditary.arrival_paths"], count),
        "hereditary.self_s": (self_s["hereditary"], s),
        "graphs.cycles_s": (incl["graphs.cycles"], s),
        "graphs.cycles_calls": (calls["graphs.cycles"], count),
        "graphs.cycles_found": (found["graphs.cycles"], count),
        "graphs.is_simple_graph_s": (incl["graphs.is_simple_graph"], s),
        "graphs.find_cycle_within_calls": (calls["graphs.find_cycle_within"], count),
        "graphs.self_s": (self_s["graphs"], s),
        "algebra.generator_build_s": (sum(incl[k] for k in generator_build), s),
        "algebra.multiply_calls": (calls["algebra.multiply"], count),
        "algebra.multiply_s": (incl["algebra.multiply"], s),
        "algebra.multiply_term_pairs": (work["algebra.multiply"], count),
        "algebra.normal_form_calls": (calls["algebra.normal_form"], count),
        "algebra.commutator_calls": (calls["algebra.commutator"], count),
        "algebra.commutator_s": (incl["algebra.commutator"], s),
        "algebra.is_central_calls": (calls["algebra.is_central"], count),
        "algebra.center_degree_bounded_s": (incl["algebra.center_degree_bounded"], s),
        "algebra.candidate_monomials": (candidates, count),
        "algebra.self_s": (self_s["algebra"], s),
        "linalg.nullspace_s": (incl["linalg.nullspace"], s),
        "linalg.rows_in": (work["linalg.nullspace"], count),
        "linalg.pivots": (found["linalg.nullspace"], count),
        "linalg.useful_row_ratio": (ratio(found["linalg.nullspace"], work["linalg.nullspace"]), "ratio"),
        "linalg.in_span_calls": (calls["linalg.in_span"], count),
        "linalg.in_span_s": (incl["linalg.in_span"], s),
        "linalg.rank_s": (incl["linalg.rank"], s),
        "linalg.self_s": (self_s["linalg"], s),
        "trace.spans": (sum(calls.values()), count),
    }
