"""Lifting problems: exhaustive solvers and fibration-class checks.

A lifting problem is a commuting square u/v over a mono inclusion i and a
map p; the solver backtracks over images of the missing cells in
increasing dimension.  NONE is only ever reported after exhausting the
finite search space; running out of node budget is a distinct outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    Budget,
    BudgetExceeded,
    DEFAULT_NODE_BUDGET,
    GeneratorComplex,
    SimplicialMap,
    Simplex,
    all_extensions,
    boundary_complex,
    compose,
    enumerate_maps,
    horn_complex,
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


@dataclass
class LiftingProblem:
    """A square: i: A -> B (mono), p: X -> S, u: A -> X, v: B -> S."""

    i: SimplicialMap
    p: SimplicialMap
    u: SimplicialMap
    v: SimplicialMap

    def check(self) -> list[str]:
        out = []
        if not self.i.is_mono():
            out.append("i is not a mono inclusion")
        if compose(self.u, self.p) != compose(self.i, self.v):
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
    return generator_inclusion(horn_complex(n, i), standard_simplex(n))


def boundary_inclusion(n: int) -> SimplicialMap:
    return generator_inclusion(boundary_complex(n), standard_simplex(n))


def spine_inclusion(n: int) -> SimplicialMap:
    return generator_inclusion(spine_complex(n), standard_simplex(n))


def family_keys(name: str, max_dim: int) -> list[tuple[int, int | None]]:
    """Keys of the named class's generators up to the bound, in search
    order: (n, i) for the horn inclusion of index i into Delta^n, and
    (n, None) for the boundary inclusion into Delta^n."""
    if name == "trivial_kan":
        return [(n, None) for n in range(max_dim + 1)]
    if name not in HORN_RANGES:
        raise ValueError(f"unknown fibration class {name!r}")
    return [(n, i) for n in range(1, max_dim + 1) for i in HORN_RANGES[name](n)]


def key_inclusion(key: tuple[int, int | None]) -> SimplicialMap:
    n, i = key
    return boundary_inclusion(n) if i is None else horn_inclusion(n, i)


def generating_family(name: str, max_dim: int) -> list[SimplicialMap]:
    """Horn/boundary inclusions of the named class, up to the bound."""
    return [key_inclusion(k) for k in family_keys(name, max_dim)]


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
    generators: list[SimplicialMap],
    max_dim: int,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> RlpVerdict:
    """Right lifting property of p against every instantiated square."""
    budget = Budget.of(node_budget)
    for i in generators:
        if i.target.dim > max_dim:
            continue
        try:
            for u in enumerate_maps(i.source, p.source, budget=budget):
                for v in all_extensions(compose(u, p), i, budget=budget):
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
    built and checked at most once per call, the first time a class
    reaches it, and its verdict is shared by every class that contains
    it.  A class takes the first verdict of its family that is not YES.
    """
    bound = max(p.source.dim, p.target.dim, 0) + 1 if max_dim is None else max_dim
    budget = Budget.of(node_budget)
    report = FibrationReport(
        mono=p.is_mono(),
        vertex_bijective=p.is_vertex_bijective(),
        checked_dim=bound,
    )
    verdicts: dict[tuple[int, int | None], RlpVerdict] = {}
    for name in classes:
        report.classes[name] = RlpVerdict(YES, bound)
        for key in family_keys(name, bound):
            if key not in verdicts:
                verdicts[key] = has_rlp(p, [key_inclusion(key)], bound, budget)
            if verdicts[key].status != YES:
                report.classes[name] = verdicts[key]
                break
    return report
