"""Lifting problems: exhaustive solvers and fibration-class checks.

A lifting problem is a commuting square u/v over a mono inclusion i and a
map p; the solver backtracks over images of the missing cells, each
right after its faces (`SimplicialSet.faces_first`).  NONE is only ever
reported after exhausting the finite search space; running out of node
budget is a distinct outcome.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .core import (
    Budget,
    BudgetExceeded,
    DEFAULT_NODE_BUDGET,
    GeneratorComplex,
    SimplicialMap,
    Simplex,
    boundary_complex,
    enumerate_maps,
    horn_complex,
    require_composable,
    spine_complex,
    standard_simplex,
)

FOUND = "found"
NONE = "none"
BUDGET = "budget"

YES = "yes"
NO = "no"

FIBRATION_CLASSES = ("inner", "left", "right", "kan", "trivial_kan")

# legal horn indices per class, in each dimension
HORN_RANGES = {
    "inner": lambda n: range(1, n),
    "left": lambda n: range(0, n),
    "right": lambda n: range(1, n + 1),
    "kan": lambda n: range(0, n + 1),
}

# a generator's name: (n, i) for the horn of index i in Delta^n, (n, None)
# for the boundary of Delta^n
Key = tuple[int, int | None]


@dataclass
class LiftingProblem:
    """A square: i: A -> B (mono), p: X -> S, u: A -> X, v: B -> S."""

    i: SimplicialMap
    p: SimplicialMap
    u: SimplicialMap
    v: SimplicialMap

    def check(self) -> list[str]:
        """Reasons the square is ill-posed; it commutes when p(u(a)) is
        v(i(a)) for every cell a of A."""
        i, p, u, v = self.i, self.p, self.u, self.v
        out = []
        if not i.is_mono():
            out.append("i is not a mono inclusion")
        require_composable(u, p)
        require_composable(i, v)
        if (
            u.source.cell_counts() != i.source.cell_counts()
            or p.target.cell_counts() != v.target.cell_counts()
            or any(
                p.apply(u.images[a]) != v.apply(i.images[a])
                for a in i.source.all_cells()
            )
        ):
            out.append("square does not commute: p o u != v o i")
        return out


@dataclass
class LiftResult:
    status: str  # FOUND | NONE | BUDGET
    lift: SimplicialMap | None = None


def solve_lift(
    P: LiftingProblem, node_budget: int | Budget = DEFAULT_NODE_BUDGET
) -> LiftResult:
    """First lift of the square, in deterministic search order."""
    bad = P.check()
    if bad:
        raise ValueError("; ".join(bad))
    budget = Budget.of(node_budget)
    fixed = {
        P.i.images[a].base: P.u.images[a] for a in P.i.source.all_cells()
    }

    def ok(c, cand: Simplex) -> bool:
        return P.p.apply(cand) == P.v.images[c]

    try:
        for lift in enumerate_maps(P.i.target, P.p.source, fixed, ok, budget):
            lower = all(P.p.apply(s) == P.v.images[b] for b, s in lift.images.items())
            if not (lower and fixed.items() <= lift.images.items()):
                raise AssertionError("solver produced an invalid lift")
            return LiftResult(FOUND, lift)
    except BudgetExceeded:
        return LiftResult(BUDGET)
    return LiftResult(NONE)


# -- generating families ------------------------------------------------------


def generator_inclusion(sub: GeneratorComplex, amb: GeneratorComplex) -> SimplicialMap:
    """Canonical inclusion between tuple-indexed complexes."""
    return SimplicialMap(
        sub.complex,
        amb.complex,
        {c: Simplex(amb.lookup[t]) for t, c in sub.lookup.items()},
    )


def horn_inclusion(n: int, i: int) -> SimplicialMap:
    return key_inclusion((n, i))


def boundary_inclusion(n: int) -> SimplicialMap:
    return key_inclusion((n, None))


def spine_inclusion(n: int) -> SimplicialMap:
    return generator_inclusion(spine_complex(n), standard_simplex(n))


def family_keys(name: str, max_dim: int) -> Iterator[Key]:
    """Keys of the named class's generators up to the bound, in search
    order, yielded one at a time; an unknown class raises at the call."""
    if name == "trivial_kan":
        return ((n, None) for n in range(max_dim + 1))
    if name not in HORN_RANGES:
        raise ValueError(f"unknown fibration class {name!r}")
    return ((n, i) for n in range(1, max_dim + 1) for i in HORN_RANGES[name](n))


@functools.cache
def key_inclusion(key: Key) -> SimplicialMap:
    """The generator named by a key, built once per process: complexes and
    maps never change after construction, so every caller shares it, and
    the generators into one Delta^n share that simplex."""
    n, i = key
    sub = boundary_complex(n) if i is None else horn_complex(n, i)
    return generator_inclusion(sub, _table_simplex(n))


_table_simplex = functools.cache(standard_simplex)


# -- right-lifting-property checks --------------------------------------------


@dataclass
class RlpVerdict:
    status: str  # YES | NO | BUDGET
    bound: int
    witness: LiftingProblem | None = None

    def __str__(self) -> str:
        if self.status == YES:
            return f"YesUpTo({self.bound})"
        if self.status == NO:
            return "No(witness)"
        return "Budget"


def has_rlp(
    p: SimplicialMap,
    keys: Iterable[Key],
    max_dim: int,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> RlpVerdict:
    """Right lifting property of p against every instantiated square over
    the generators named by the keys, skipping those above the bound
    unbuilt.  The squares over i are the maps u: A -> X, each with every
    map v extending p o u along i."""
    budget = Budget.of(node_budget)
    for key in keys:
        if key[0] > max_dim:
            continue
        i = key_inclusion(key)
        try:
            for u in enumerate_maps(i.source, p.source, budget=budget):
                fixed = {i.images[a].base: p.apply(s) for a, s in u.images.items()}
                for v in enumerate_maps(i.target, p.target, fixed, budget=budget):
                    P = LiftingProblem(i, p, u, v)
                    r = solve_lift(P, budget)
                    if r.status == NONE:
                        return RlpVerdict(NO, max_dim, P)
                    if r.status == BUDGET:
                        return RlpVerdict(BUDGET, max_dim)
        except BudgetExceeded:
            return RlpVerdict(BUDGET, max_dim)
    return RlpVerdict(YES, max_dim)


@dataclass
class FibrationReport:
    classes: dict[str, RlpVerdict] = field(default_factory=dict)
    mono: bool = False
    vertex_bijective: bool = False
    checked_dim: int = 0


def classify_map(
    p: SimplicialMap,
    max_dim: int | None = None,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
    classes: tuple[str, ...] = FIBRATION_CLASSES,
) -> FibrationReport:
    """Run has_rlp against each generating family up to the bound, on one budget.

    The families overlap (an inner horn is also a left and a right horn,
    and the Kan horns are the left and right ones), so each generator is
    checked at most once per call, the first time a class reaches it, and
    its verdict is shared by every class that contains it.  A class takes
    the first verdict of its family that is not YES.
    """
    bound = max(p.source.dim, p.target.dim, 0) + 1 if max_dim is None else max_dim
    budget = Budget.of(node_budget)
    report = FibrationReport(
        mono=p.is_mono(),
        vertex_bijective=p.is_vertex_bijective(),
        checked_dim=bound,
    )
    verdicts: dict[Key, RlpVerdict] = {}
    for name in classes:
        report.classes[name] = RlpVerdict(YES, bound)
        for key in family_keys(name, bound):
            if key not in verdicts:
                verdicts[key] = has_rlp(p, [key], bound, budget)
            if verdicts[key].status != YES:
                report.classes[name] = verdicts[key]
                break
    return report
