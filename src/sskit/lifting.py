"""Lifting problems: exhaustive solvers and fibration-class checks.

A lifting problem is a commuting square u/v over a mono inclusion i and a
map p; the solver backtracks over images of the missing cells, each
right after its faces (`SimplicialSet.faces_first`).  Over a horn or a
boundary, whose missing cells are one simplex and at most one face of
it, `has_rlp` looks the squares and their lifts up instead
(`SimplicialSet.horn_fillers`), and the maps out of a horn or a boundary
are listed by their faces (`generator_maps`).  NO is only ever answered after
exhausting the finite search space; running out of node budget is the
distinct answer BUDGET.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .core import BUDGET, NO, YES, Verdict, all_of
from .core import (
    Budget,
    BudgetExceeded,
    CellId,
    DEFAULT_NODE_BUDGET,
    GeneratorComplex,
    SimplicialMap,
    SimplicialSet,
    Simplex,
    boundary_complex,
    enumerate_maps,
    horn_complex,
    require_composable,
    spine_complex,
    standard_simplex,
)

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


def solve_lift(
    P: LiftingProblem, node_budget: int | Budget = DEFAULT_NODE_BUDGET
) -> Verdict:
    """YES with the first lift of the square, in deterministic search
    order, as its witness; NO when the square has no lift."""
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
            return Verdict(YES, witness=lift)
    except BudgetExceeded:
        return Verdict(BUDGET)
    return Verdict(NO)


# -- generating families ------------------------------------------------------


def generator_inclusion(sub: GeneratorComplex, amb: GeneratorComplex) -> SimplicialMap:
    """Canonical inclusion between tuple-indexed complexes."""
    return SimplicialMap(
        sub.complex,
        amb.complex,
        {c: Simplex(amb.lookup[t]) for t, c in sub.lookup.items()},
    )


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


@functools.cache
def key_cells(key: Key) -> tuple[tuple[CellId, ...], tuple[CellId, ...]]:
    """The cells of the generator's domain that are the faces d_j of
    Delta^n, j != i (every j for a boundary), in order of j; and the cells
    of Delta^n outside the domain, the missing face d_i before the top."""
    n, h = key
    inc = key_inclusion(key)
    preimage = {s.base: a for a, s in inc.images.items()}
    lookup, full = _table_simplex(n).lookup, tuple(range(n + 1))
    given = tuple(
        preimage[lookup[full[:j] + full[j + 1 :]]] for j in range(n + 1) if j != h
    ) if n else ()
    return given, tuple(c for c in inc.target.faces_first if c not in preimage)


# a block of a generator's domain: its cells in `faces_first` order, the
# top cell last; the steps (cell, cell above it, face index) that give the
# image of each other cell from the top one's, in the order to take them;
# and the positions and cells of the top cell's faces that earlier blocks hold
_Block = tuple[
    tuple[CellId, ...],
    tuple[tuple[int, int, int], ...],
    tuple[int, ...],
    tuple[CellId, ...],
]


@functools.cache
def _generator_blocks(key: Key) -> tuple[_Block, ...]:
    """The domain's `faces_first` order cut after each top cell, so after
    each face d_j of Delta^n (j != i), in the order j = n, ..., 0: a block
    holds a top cell and those of its faces that no earlier block has."""
    A = key_inclusion(key).source
    blocks: list[_Block] = []
    cells: list[CellId] = []
    for c in A.faces_first:
        cells.append(c)
        if c.dim < A.dim:
            continue
        where = {b: m for m, b in enumerate(cells)}
        steps, done = [], {len(cells) - 1}
        for above in reversed(range(len(cells))):
            for k, f in enumerate(A.cell_faces(cells[above])):
                b = where.get(f.base)
                if b is not None and b not in done:
                    done.add(b)
                    steps.append((b, above, k))
        old = [(k, f.base) for k, f in enumerate(A.cell_faces(c)) if f.base not in where]
        blocks.append((
            tuple(cells),
            tuple(steps),
            tuple(k for k, _ in old),
            tuple(b for _, b in old),
        ))
        cells = []
    return tuple(blocks)


def generator_maps(key: Key, S: SimplicialSet, budget: Budget) -> list[SimplicialMap]:
    """Every map from the domain of the keyed horn or boundary into S, the
    same maps in the same order as `enumerate_maps` lists them, for at most
    its nodes.

    Such a map is its tuple of faces x_j (j != i), with d_k x_j = d_{j-1}
    x_k for k < j.  The x_j are chosen in the domain's `faces_first`
    order of them, x_n first; the candidates for x_j are the
    (n-1)-simplices of S, degenerate ones included, whose faces shared
    with the x_k already chosen are those of the x_k, read off an index
    by partial face tuples (`simplices_with_faces`).  Each candidate fixes
    the images of the cells of its block (`_generator_blocks`), one `face`
    call each, and the candidates are tried in the order of those images,
    so the maps come out in `faces_first` lexicographic order.  One node
    per candidate: each is a map out of the union of the faces chosen so
    far, which `enumerate_maps` also reaches, at one node, on the top cell
    of the block."""
    A = key_inclusion(key).source
    blocks = _generator_blocks(key)
    if not blocks:
        return [SimplicialMap(A, S, {})]
    face, with_faces = S.face, S.simplices_with_faces
    m = A.dim
    images: dict[CellId, Simplex] = {}
    # per block, the candidates' sorted image tuples by the shared faces
    tried: list[dict[tuple[Simplex, ...], list[tuple[Simplex, ...]]]] = [
        {} for _ in blocks
    ]

    def candidates(level: int) -> Iterator[tuple[Simplex, ...]]:
        cells, steps, positions, fixed = blocks[level]
        faces = tuple([images[c] for c in fixed])
        found = tried[level].get(faces)
        if found is None:
            found = []
            for x in with_faces(m, positions, faces):
                row = [x] * len(cells)
                for b, above, k in steps:
                    row[b] = face(row[above], k)
                found.append(tuple(row))
            found.sort()
            tried[level][faces] = found
        return iter(found)

    out: list[SimplicialMap] = []
    last = len(blocks) - 1
    untried = [candidates(0)]
    while untried:
        level = len(untried) - 1
        cells = blocks[level][0]
        for row in untried[level]:
            budget.spend()
            images.update(zip(cells, row))
            if level == last:
                out.append(SimplicialMap(A, S, images))
            else:
                untried.append(candidates(level + 1))
                break
        else:
            untried.pop()
    return out


# -- right-lifting-property checks --------------------------------------------


def lifts_inner_horns(p: SimplicialMap) -> bool:
    """Both ends of p are nerves, so every square over an inner horn lifts:
    the unique filler above maps to the unique filler below."""
    return p.source.is_nerve and p.target.is_nerve


def has_rlp(
    p: SimplicialMap,
    keys: Iterable[Key],
    max_dim: int,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Right lifting property of p against every instantiated square over
    the generators named by the keys, skipping those above the bound
    unbuilt: YES up to the bound, or NO with a square that has no lift.
    The squares over i are the maps u: A -> X, each with every map v
    extending p o u along i.  The u are enumerated; the v, and whether
    each square lifts, are looked up (`_first_square_without_lift`).

    Inner horns are skipped unbuilt, with no search, when p lifts against
    them all (`lifts_inner_horns`, tested at the first one)."""
    budget = Budget.of(node_budget)
    nerves = None
    for key in keys:
        n, h = key
        if n > max_dim:
            continue
        if h is not None and 0 < h < n:
            if nerves is None:
                nerves = lifts_inner_horns(p)
            if nerves:
                continue
        i = key_inclusion(key)
        try:
            for u in enumerate_maps(i.source, p.source, budget=budget):
                square = _first_square_without_lift(key, i, p, u, budget)
                if square is not None:
                    return Verdict(NO, max_dim, square)
        except BudgetExceeded:
            return Verdict(BUDGET, max_dim)
    return Verdict(YES, max_dim)


def _given_faces(X: SimplicialSet, s: Simplex, h: int | None) -> tuple[Simplex, ...]:
    """The faces d_j of s for j != h, in order of j."""
    n = s.dim
    return tuple([X.face(s, j) for j in range(n + 1) if j != h]) if n else ()


def _first_square_without_lift(
    key: Key,
    i: SimplicialMap,
    p: SimplicialMap,
    u: SimplicialMap,
    budget: Budget,
) -> LiftingProblem | None:
    """The first square over i with top u that has no lift, or None.

    A map Delta^n -> Y is an n-simplex of Y, so the squares with top u are
    the fillers in S of the faces of p o u (`horn_fillers`), in the order
    `enumerate_maps` extends p o u along i, and such a square lifts when a
    filler in X of the faces of u maps to its simplex.  One node per
    square.  Each square checks that i is mono and that it commutes, and
    each lift found is checked against u and v."""
    n, h = key
    given, missing = key_cells(key)
    X, S = p.source, p.target
    faces = tuple([u.images[c] for c in given])
    below = tuple([p.apply(f) for f in faces])
    lifts: dict[Simplex, Simplex] | None = None
    for top in S.horn_fillers(n, h, below):
        budget.spend()
        if not i.is_mono():
            raise ValueError("i is not a mono inclusion")
        if _given_faces(S, top, h) != below:
            raise AssertionError("square does not commute: p o u != v o i")
        if lifts is None:
            lifts = {}
            for s in X.horn_fillers(n, h, faces):
                lifts.setdefault(p.apply(s), s)
        lift = lifts.get(top)
        if lift is None:
            images = {i.images[a].base: p.apply(s) for a, s in u.images.items()}
            images[missing[-1]] = top
            if h is not None:
                images[missing[0]] = S.face(top, h)
            P = LiftingProblem(i, p, u, SimplicialMap(i.target, S, images))
            bad = P.check()
            if bad:
                raise AssertionError("; ".join(bad))
            return P
        if p.apply(lift) != top or _given_faces(X, lift, h) != faces:
            raise AssertionError("solver produced an invalid lift")
    return None


@dataclass
class FibrationReport:
    classes: dict[str, Verdict] = field(default_factory=dict)
    mono: bool = False
    vertex_bijective: bool = False
    checked_dim: int = 0

    @property
    def verdict(self) -> Verdict:
        """Every class at once, up to the checked dimension."""
        return all_of(self.classes.values(), self.checked_dim)


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
    the first verdict of its family that is not YES; between nerves the
    inner class is YES with no walk over its keys, as `has_rlp` says.
    """
    bound = max(p.source.dim, p.target.dim, 0) + 1 if max_dim is None else max_dim
    budget = Budget.of(node_budget)
    report = FibrationReport(
        mono=p.is_mono(),
        vertex_bijective=p.is_vertex_bijective(),
        checked_dim=bound,
    )
    verdicts: dict[Key, Verdict] = {}
    for name in classes:
        report.classes[name] = Verdict(YES, bound)
        if name == "inner" and lifts_inner_horns(p):
            continue
        for key in family_keys(name, bound):
            if key not in verdicts:
                verdicts[key] = has_rlp(p, [key], bound, budget)
            if verdicts[key].value != YES:
                report.classes[name] = verdicts[key]
                break
    return report
