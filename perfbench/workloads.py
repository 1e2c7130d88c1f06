"""The benchmark's workloads: their items, and the checks on each output.

An item is one unit of work with its own latency and pass/fail outcome: one
model on ``sweep``, one pairing table or scan step on ``tables``, one
``isoflag count`` invocation on ``count`` and ``count_c2``.  ``run`` calls
the program and returns its outputs; ``check`` runs afterwards, outside the
item's timing, and returns the list of problems found (empty when the item
passed) and, for exact objects (g, T, tables), the JSON payload whose
digest must match the one recorded in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from typing import Callable, List, NamedTuple, Tuple

# program calls go through module attributes, which the tracer rebinds
from isoflag import cli, counting, gram, model
from isoflag.fields import RATIONALS, get_finite_field
from isoflag.linalg import Matrix
from isoflag.shapes import ORTHOGONAL, SYMPLECTIC, ShapeSeq, psi

#: The standard field list of the model sweep, by the names the scripts use.
FIELD_SPECS = {"gf3": (3, 1), "gf5": (5, 1), "gf7": (7, 1), "gf2": (2, 1),
               "gf4": (2, 2)}

SWEEP_TOTAL = 3       # part sum bound of the model sweep
TABLES_TOTAL = 5      # part sum bound of the orthogonal pairing tables
SCAN_KS = range(2, 11)


class Item(NamedTuple):
    key: str
    run: Callable[[], object]
    check: Callable[[object], Tuple[List[str], object]]


def standard_fields():
    """Construct every field the workloads use (part of set-up)."""
    fields = {name: get_finite_field(p, m)
              for name, (p, m) in FIELD_SPECS.items()}
    fields["rat"] = RATIONALS
    return fields


def partitions_up_to(total):
    """Weakly decreasing positive tuples with sum <= total, sorted."""
    out = []

    def rec(rem, largest, cur):
        if cur:
            out.append(tuple(cur))
        for p in range(min(rem, largest), 0, -1):
            rec(rem - p, p, cur + [p])

    rec(total, total, [])
    return sorted(out)


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- sweep --------------------------------------------------------------------

def _sweep_fields(mode, kappa):
    if mode == SYMPLECTIC:
        names = ["rat", "gf3", "gf5", "gf7"] if kappa == 0 else []
        return names + ["gf2", "gf4"]
    return ["rat", "gf3", "gf5", "gf7"]


def _cuts(shape, mode):
    if mode == SYMPLECTIC:
        return list(range(1, shape.sigma + shape.kappa))
    ps = psi(shape)
    return [r for r in range(1, shape.sigma + 1) if ps[r - 1] == -1]


def _run_model(shape, mode, field):
    """build_model, flags, position, splits and both intertwiners."""
    iso = model.build_model(shape, mode, field)
    pair = model.flags_from(iso)
    position = model.position_check(*pair, shape)
    splits = {c: model.split_check(iso, c)["pass"]
              for c in _cuts(shape, mode)}
    eps = {t: -1 if t % 2 else 1
           for t in range(1, shape.sigma + shape.kappa + 1)}
    t_mats = [model.build_T(iso, iso.with_signs(eps), flags_pair=pair)]
    if iso.field.char != 2:
        minus = Matrix.identity(iso.field, iso.space.dim) * \
            iso.field.from_int(-1)
        t_mats.append(model.build_T(iso, iso.conjugated(minus),
                                    flags_pair=pair))
    return iso, position, splits, t_mats


def _check_model(out):
    iso, position, splits, t_mats = out
    problems = [] if position else ["position_check failed"]
    problems += [f"split_check failed at cut {c}"
                 for c, ok in splits.items() if not ok]
    return problems, {"field": iso.field.to_json(),
                      "gram": iso.space.gram.to_json(),
                      "g": iso.g.to_json(),
                      "T": [t.to_json() for t in t_mats]}


def sweep_items(fields) -> List[Item]:
    items = []
    for parts in partitions_up_to(SWEEP_TOTAL):
        for kappa in (0, 1):
            shape = ShapeSeq(parts, kappa)
            for mode in (SYMPLECTIC, ORTHOGONAL):
                if not shape.valid_for_mode(mode):
                    continue
                for name in _sweep_fields(mode, kappa):
                    items.append(Item(
                        f"sweep:{','.join(map(str, parts))}|k{kappa}|"
                        f"{mode}|{name}",
                        lambda s=shape, m=mode, f=fields[name]:
                            _run_model(s, m, f),
                        _check_model))
    return items


# -- tables -------------------------------------------------------------------

def _table_payload(table):
    sigma_k = table.shape.sigma + table.shape.kappa
    bound = table.delta_bound
    values = [[t, r, d, table.value(t, r, d).to_json()]
              for t in range(1, sigma_k + 1)
              for r in range(t, sigma_k + 1)
              for d in range(-bound, bound + 1)]
    return {"field": table.field.to_json(), "values": values,
            "cases": sorted(f"{t},{r}:{c}"
                            for (t, r), c in table.case_map.items())}


def _check_table(table):
    problems = []
    if table.diagnostics["mu_zero_levels"]:
        problems.append("mu_zero fallback fired")
    if table.diagnostics["sec28_singular"]:
        problems.append("sec28 fallback fired")
    return problems, _table_payload(table)


def _check_scan(k):
    def check(out):
        table, square, wanted, matches = out
        # the prediction is proven for k <= 4; beyond that it is recorded
        problems = [] if matches or k > 4 else ["corner square mismatch"]
        return problems, {"field": table.field.to_json(),
                          "square": square.to_json(),
                          "expected": wanted.to_json(), "matches": matches}
    return check


def tables_items(fields) -> List[Item]:
    items = []
    for parts in partitions_up_to(TABLES_TOTAL):
        for kappa in (0, 1):
            shape = ShapeSeq(parts, kappa)
            if not shape.valid_for_mode(ORTHOGONAL):
                continue
            items.append(Item(f"table:{','.join(map(str, parts))}|k{kappa}",
                              lambda s=shape: gram.GramTable(s, ORTHOGONAL),
                              _check_table))
    for k in SCAN_KS:
        items.append(Item(f"scan:k{k}",
                          lambda k=k: gram.check_conjecture_210(k),
                          _check_scan(k)))
    return items


# -- counting -----------------------------------------------------------------

class CountCase(NamedTuple):
    argv: tuple
    space: tuple          # (mode, nu, q) of the group that gets enumerated
    count: int
    unipotents: int
    flags: int
    group_order: int
    per_flag: int         # every flag meets this many unipotents
    per_g: int            # every unipotent meets this many flags


COUNT_CASES = (
    CountCase(("--type", "A", "--n", "3", "--q", "3"),
              (counting.TYPE_A, 3, 3), 5616, 624, 52, 11232, 108, 9),
    CountCase(("--type", "C", "--shape", "1", "--q", "7"),
              (counting.SP, 2, 7), 336, 48, 8, 336, 42, 7),
    CountCase(("--type", "B", "--shape", "1", "--kappa", "1", "--q", "7"),
              (counting.SO_ODD, 3, 7), 336, 48, 8, 336, 42, 7),
)

COUNT_C2 = CountCase(("--type", "C", "--shape", "2", "--q", "3"),
                     (counting.SP, 4, 3), 51840, 5760, 160, 51840, 324, 9)


def _run_count(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["count", *case.argv, "--per-element"])
    return code, buf.getvalue()


def _check_count(case):
    def check(out):
        code, text = out
        # exit 1 is the CLI's verdict when the count differs from the
        # adjoint order, as it does for types B and C (the known doubling)
        if code not in (0, 1):
            return [f"exit code {code}"], None
        rep = json.loads(text)["result"]
        problems = []
        for field, want in (("count", case.count),
                            ("unipotent_count", case.unipotents),
                            ("flag_count", case.flags)):
            if rep[field] != want:
                problems.append(f"{field} {rep[field]} != {want}")
        group = counting._GROUP_CACHE.get(case.space)
        formula = counting.group_order_formula(
            counting.FiniteFormSpace(*case.space))
        if group is None or not group.order == formula == case.group_order:
            problems.append(f"group order {group and group.order} != "
                            f"formula {formula} / {case.group_order}")
        if set(rep["per_flag"]) != {case.per_flag}:
            problems.append(f"per-flag hits {sorted(set(rep['per_flag']))}")
        if set(rep["per_g"]) != {case.per_g}:
            problems.append(f"per-g hits {sorted(set(rep['per_g']))}")
        return problems, None
    return check


def _count_items(cases) -> List[Item]:
    return [Item("count:" + " ".join(case.argv),
                 lambda c=case: _run_count(c), _check_count(case))
            for case in cases]


#: Workloads whose item order the seed permutes.  The counting cases run in a
#: fixed order: each leaves its group in the program's module-level cache,
#: which changes the heap that the next case runs in.
SEEDED = ("sweep", "tables")

WORKLOADS = {
    "sweep": sweep_items,
    "tables": tables_items,
    "count": lambda fields: _count_items(COUNT_CASES),
    "count_c2": lambda fields: _count_items((COUNT_C2,)),
}
