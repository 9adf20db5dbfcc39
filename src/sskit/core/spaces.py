"""Mapping spaces: slices, left hom-spaces, and function-complex truncations.

All three are produced by the same levelwise-to-cellular converter: a
space given by finite level sets with face/degeneracy actions is turned
into a SimplicialSet by detecting degenerate elements (e is degenerate
iff s_j(d_j e) = e for some j) and normalizing recursively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .budget import Budget
from .complex import SimplicialSet
from .generators import GeneratorComplex, standard_simplex
from .maps import (
    Product,
    SimplicialMap,
    compose,
    enumerate_maps,
    identity_map,
    map_by_vertices,
    product,
    product_functor,
)
from .simplex import CellId, Simplex, apply_degeneracy, constant_simplex, degenerate


class LevelwiseSpace:
    """Cellular model of a space presented by levels and actions."""

    def __init__(
        self,
        levels: Sequence[Sequence],
        face_fn: Callable,
        deg_fn: Callable,
        label_fn: Callable | None = None,
    ) -> None:
        self.levels = [list(lev) for lev in levels]
        self.face_fn = face_fn
        self.deg_fn = deg_fn
        self.up_to = len(self.levels) - 1
        self._cell_of: dict[tuple[int, object], CellId] = {}
        self.elements: list[list] = []  # nondegenerate elements per dim

        counts = []
        for n, lev in enumerate(self.levels):
            nondeg = [e for e in lev if not self._is_degenerate(n, e)]
            self.elements.append(nondeg)
            counts.append(len(nondeg))
            for idx, e in enumerate(nondeg):
                self._cell_of[(n, e)] = CellId(n, idx)

        faces = {}
        labels = {}
        for n, nondeg in enumerate(self.elements):
            for idx, e in enumerate(nondeg):
                c = CellId(n, idx)
                if label_fn is not None:
                    labels[c] = label_fn(n, e)
                if n > 0:
                    faces[c] = tuple(
                        self.normalize(n - 1, self.face_fn(n, e, i))
                        for i in range(n + 1)
                    )
        self.space = SimplicialSet(counts, faces, labels)

    def _is_degenerate(self, n: int, e) -> bool:
        return n > 0 and any(
            self.deg_fn(n - 1, self.face_fn(n, e, j), j) == e for j in range(n)
        )

    def normalize(self, n: int, e) -> Simplex:
        c = self._cell_of.get((n, e))
        if c is not None:
            return Simplex(c)
        for j in range(n):
            down = self.face_fn(n, e, j)
            if self.deg_fn(n - 1, down, j) == e:
                inner = self.normalize(n - 1, down)
                return Simplex(inner.base, apply_degeneracy(inner.word, j))
        raise ValueError(f"element not found at level {n}: {e!r}")

    def element_of(self, c: CellId):
        return self.elements[c.dim][c.index]


# -- slices and hom-spaces ---------------------------------------------------


@dataclass
class SliceSpace:
    ambient: SimplicialSet
    base_vertex: CellId
    computed_up_to: int
    space: SimplicialSet
    levels: list[list[Simplex]]  # ambient (n+1)-simplices per level n
    _lw: LevelwiseSpace

    @property
    def projection(self) -> SimplicialMap:
        """Sends a level-n element u to d_0(u) in the ambient complex."""
        return SimplicialMap(
            self.space,
            self.ambient,
            {
                c: self.ambient.face(self._lw.element_of(c), 0)
                for c in self.space.all_cells()
            },
        )


@dataclass
class HomSpace:
    ambient: SimplicialSet
    source_vertex: CellId
    target_vertex: CellId
    computed_up_to: int
    space: SimplicialSet
    levels: list[list[Simplex]]
    _lw: LevelwiseSpace


def slice_under(X: SimplicialSet, x: CellId, up_to: int) -> SliceSpace:
    """Levels of X_{x/}: (n+1)-simplices with initial vertex x."""
    if x.dim != 0 or not X.has_cell(x):
        raise ValueError("slice base must be a vertex of the complex")
    levels = [
        [u for u in X.simplices(n + 1) if X.vertex(u, 0) == x]
        for n in range(up_to + 1)
    ]
    lw = LevelwiseSpace(
        levels,
        lambda n, u, i: X.face(u, i + 1),
        lambda n, u, j: degenerate(u, j + 1),
    )
    return SliceSpace(X, x, up_to, lw.space, lw.levels, lw)


def hom_left(X: SimplicialSet, x: CellId, y: CellId, up_to: int) -> HomSpace:
    """Left mapping space: level n holds the (n+1)-simplices u with
    initial vertex x and d_0(u) constant at y."""
    for v in (x, y):
        if v.dim != 0 or not X.has_cell(v):
            raise ValueError("hom endpoints must be vertices of the complex")
    levels = [
        [
            u
            for u in X.simplices(n + 1)
            if X.vertex(u, 0) == x and X.face(u, 0) == constant_simplex(y, n)
        ]
        for n in range(up_to + 1)
    ]
    lw = LevelwiseSpace(
        levels,
        lambda n, u, i: X.face(u, i + 1),
        lambda n, u, j: degenerate(u, j + 1),
    )
    return HomSpace(X, x, y, up_to, lw.space, lw.levels, lw)


# -- function complexes ------------------------------------------------------


@dataclass
class FunctionComplexTruncation:
    base: SimplicialSet  # C
    exponent: SimplicialSet  # K
    bound: int
    deltas: list[GeneratorComplex]
    products: list[Product]  # product(K, Delta^n)
    levels: list[list[SimplicialMap]]
    space: SimplicialSet = field(init=False)
    _lw: LevelwiseSpace = field(init=False)

    def __post_init__(self) -> None:
        self._lw = LevelwiseSpace(self.levels, self.face_map, self.deg_map)
        self.space = self._lw.space

    def normalize(self, n: int, u: SimplicialMap) -> Simplex:
        return self._lw.normalize(n, u)

    def element_of(self, c: CellId) -> SimplicialMap:
        return self._lw.element_of(c)

    def face_map(self, n: int, u: SimplicialMap, i: int) -> SimplicialMap:
        """Restriction along id x delta_i : K x Delta^{n-1} -> K x Delta^n."""
        return compose(self._connecting(n - 1, n, _coface(i)), u)

    def deg_map(self, n: int, u: SimplicialMap, j: int) -> SimplicialMap:
        return compose(self._connecting(n + 1, n, _codegeneracy(j)), u)

    def restrict_to_vertex(self, v: CellId) -> SimplicialMap:
        """Evaluation at a vertex of the exponent, as a map to the base."""
        images = {}
        for c in self.space.all_cells():
            u = self.element_of(c)
            P = self.products[c.dim]
            top = self.deltas[c.dim].lookup[tuple(range(c.dim + 1))]
            images[c] = u.apply(
                P.simplex_of_pair(constant_simplex(v, c.dim), Simplex(top))
            )
        return SimplicialMap(self.space, self.base, images)

    def _connecting(self, m: int, n: int, vfun: Callable[[int], int]) -> SimplicialMap:
        d = map_by_vertices(
            self.deltas[m].complex,
            self.deltas[n],
            {CellId(0, v): vfun(v) for v in range(m + 1)},
        )
        return product_functor(
            self.products[m], self.products[n], identity_map(self.exponent), d
        )


def _coface(i: int) -> Callable[[int], int]:
    return lambda v: v if v < i else v + 1


def _codegeneracy(j: int) -> Callable[[int], int]:
    return lambda v: v if v <= j else v - 1


def function_complex(
    C: SimplicialSet, K: SimplicialSet, up_to: int, budget: Budget | None = None
) -> FunctionComplexTruncation:
    """Level n = every simplicial map K x Delta^n -> C, enumerated.

    Raises BudgetExceeded when the enumeration outgrows the node budget;
    an empty level is an ordinary result, never an error.
    """
    if up_to < 0:
        raise ValueError("truncation bound must be >= 0")
    deltas = [standard_simplex(n) for n in range(up_to + 1)]
    products = [product(K, d.complex) for d in deltas]
    levels = [
        list(enumerate_maps(products[n].complex, C, budget=budget))
        for n in range(up_to + 1)
    ]
    return FunctionComplexTruncation(C, K, up_to, deltas, products, levels)


def restricted_function_complex(
    C: SimplicialSet,
    K: SimplicialSet,
    up_to: int,
    budget: Budget | None = None,
    word_budget: int = 8,
) -> FunctionComplexTruncation:
    """Full simplicial subset of the function complex on the vertices
    K -> C whose image edges are all equivalence edges of C."""
    from ..homotopy import is_equivalence_edge  # deferred: avoids module cycle

    fc = function_complex(C, K, up_to, budget)
    P0 = fc.products[0]

    def vertex_ok(u: SimplicialMap) -> bool:
        for e in P0.complex.cells(1):
            if is_equivalence_edge(C, u.images[e], word_budget).value != "yes":
                return False
        return True

    ok = {u for u in fc.levels[0] if vertex_ok(u)}
    levels = [[u for u in fc.levels[0] if u in ok]]
    for n in range(1, up_to + 1):
        kept = []
        for u in fc.levels[n]:
            verts = (
                compose(fc._connecting(0, n, lambda v, j=j: j), u)
                for j in range(n + 1)
            )
            if all(v in ok for v in verts):
                kept.append(u)
        levels.append(kept)
    return FunctionComplexTruncation(C, K, up_to, fc.deltas, fc.products, levels)


