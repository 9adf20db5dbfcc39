"""Mapping spaces: slices, left hom-spaces, and function-complex truncations.

Each of them is a LevelwiseSpace: a space given by finite level sets
with face/degeneracy actions, turned into a SimplicialSet by detecting
degenerate elements (e is degenerate iff s_j(d_j e) = e for some j) and
recording each element's normal form once.  Slices and left hom-spaces
are SliceSpaces; function complexes are FunctionComplexTruncations.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from .budget import YES, Budget, DEFAULT_WORD_BUDGET
from .complex import ComplexBuilder, SimplicialSet
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
        self, levels: Sequence[Sequence], face_fn: Callable, deg_fn: Callable
    ) -> None:
        self.levels = [list(lev) for lev in levels]
        self.elements: list[list] = []  # nondegenerate elements per dim
        self._normal: dict[tuple[int, object], Simplex] = {}  # of every element

        builder = ComplexBuilder()
        for n, lev in enumerate(self.levels):
            self.elements.append([])
            for e in lev:
                for j in range(n):  # degenerate: e = s_j(d_j e), the first such j wins
                    down = face_fn(n, e, j)
                    if deg_fn(n - 1, down, j) == e:
                        s = self.normalize(n - 1, down)
                        self._normal[(n, e)] = Simplex(s.base, apply_degeneracy(s.word, j))
                        break
                else:
                    self.elements[n].append(e)
                    fs = (self.normalize(n - 1, face_fn(n, e, i)) for i in range(n + 1))
                    self._normal[(n, e)] = Simplex(builder.add_cell(n, fs))
        self.space = builder.build()

    def normalize(self, n: int, e) -> Simplex:
        s = self._normal.get((n, e))
        if s is None:
            raise ValueError(f"element not found at level {n}: {e!r}")
        return s

    def element_of(self, c: CellId):
        return self.elements[c.dim][c.index]


# -- slices and hom-spaces ---------------------------------------------------


class SliceSpace(LevelwiseSpace):
    """Level n holds ambient (n+1)-simplices with a fixed initial vertex;
    d_i and s_j act as d_{i+1} and s_{j+1} in the ambient complex."""

    def __init__(self, ambient: SimplicialSet, levels: list[list[Simplex]]) -> None:
        self.ambient = ambient
        super().__init__(levels, self.face_map, self.deg_map)

    def face_map(self, n: int, u: Simplex, i: int) -> Simplex:
        return self.ambient.face(u, i + 1)

    def deg_map(self, n: int, u: Simplex, j: int) -> Simplex:
        return degenerate(u, j + 1)

    @property
    def projection(self) -> SimplicialMap:
        """Sends a level-n element u to d_0(u) in the ambient complex."""
        return SimplicialMap(
            self.space,
            self.ambient,
            {
                c: self.ambient.face(self.element_of(c), 0)
                for c in self.space.all_cells()
            },
        )


def _slice_levels(X: SimplicialSet, x: CellId, up_to: int) -> list[list[Simplex]]:
    """Level n: the (n+1)-simplices of X with initial vertex x."""
    return [
        [u for u in X.simplices(n + 1) if X.vertex(u, 0) == x]
        for n in range(up_to + 1)
    ]


def slice_under(X: SimplicialSet, x: CellId, up_to: int) -> SliceSpace:
    """Levels of X_{x/}: (n+1)-simplices with initial vertex x."""
    if x.dim != 0 or not X.has_cell(x):
        raise ValueError("slice base must be a vertex of the complex")
    return SliceSpace(X, _slice_levels(X, x, up_to))


def hom_left(X: SimplicialSet, x: CellId, y: CellId, up_to: int) -> SliceSpace:
    """Left mapping space: level n holds the (n+1)-simplices u with
    initial vertex x and d_0(u) constant at y."""
    for v in (x, y):
        if v.dim != 0 or not X.has_cell(v):
            raise ValueError("hom endpoints must be vertices of the complex")
    levels = [
        [u for u in level if X.face(u, 0) == constant_simplex(y, n)]
        for n, level in enumerate(_slice_levels(X, x, up_to))
    ]
    return SliceSpace(X, levels)


# -- function complexes ------------------------------------------------------


class FunctionComplexTruncation(LevelwiseSpace):
    """Level n holds simplicial maps K x Delta^n -> C from the exponent K,
    where products[n] = product(K, Delta^n); `connect` builds the maps
    between the products (`_enumerate_levels`)."""

    def __init__(
        self,
        base: SimplicialSet,
        deltas: list[GeneratorComplex],
        products: list[Product],
        levels: list[list[SimplicialMap]],
        connect: Callable[[int, tuple[int, ...]], SimplicialMap],
    ) -> None:
        self.base = base  # C
        self.deltas = deltas
        self.products = products
        # id x d_i : K x Delta^n -> K x Delta^{n+1} at [n][i], and
        # id x s_j : K x Delta^{n+1} -> K x Delta^n at [n][j]
        self._face_connectors = [
            [connect(n + 1, tuple(v if v < i else v + 1 for v in range(n + 1))) for i in range(n + 2)]
            for n in range(len(deltas) - 1)
        ]
        self._degeneracy_connectors = [
            [connect(n, tuple(v if v <= j else v - 1 for v in range(n + 2))) for j in range(n + 1)]
            for n in range(len(deltas) - 1)
        ]
        super().__init__(levels, self.face_map, self.deg_map)

    def face_map(self, n: int, u: SimplicialMap, i: int) -> SimplicialMap:
        """Restriction along id x delta_i : K x Delta^{n-1} -> K x Delta^n."""
        return compose(self._face_connectors[n - 1][i], u)

    def deg_map(self, n: int, u: SimplicialMap, j: int) -> SimplicialMap:
        return compose(self._degeneracy_connectors[n][j], u)

    def evaluate(self, n: int, u: SimplicialMap, v: CellId) -> Simplex:
        """The n-simplex of the base that the level-n element u takes
        on v x Delta^n, for a vertex v of the exponent."""
        top = self.deltas[n].lookup[tuple(range(n + 1))]
        return u.apply(
            self.products[n].simplex_of_pair(constant_simplex(v, n), Simplex(top))
        )

    def restrict_to_vertex(self, v: CellId) -> SimplicialMap:
        """Evaluation at a vertex of the exponent, as a map to the base."""
        images = {
            c: self.evaluate(c.dim, self.element_of(c), v)
            for c in self.space.all_cells()
        }
        return SimplicialMap(self.space, self.base, images)


def _connecting(
    deltas: list[GeneratorComplex], products: list[Product], n: int, images: tuple[int, ...]
) -> SimplicialMap:
    """id x d : K x Delta^m -> K x Delta^n, where m = len(images) - 1 and
    d sends vertex v to vertex images[v]."""
    m = len(images) - 1
    G = deltas[m]
    d = map_by_vertices(G.complex, deltas[n], {G.lookup[(v,)]: w for v, w in enumerate(images)})
    return product_functor(products[m], products[n], identity_map(products[m].x), d)


def _enumerate_levels(C: SimplicialSet, K: SimplicialSet, up_to: int, budget: Budget | None):
    """Delta^n, K x Delta^n and every map K x Delta^n -> C, for n <= up_to,
    and `_connecting` on them, which builds each map once when first asked
    for it and keeps it as long as the function complex is being built."""
    if up_to < 0:
        raise ValueError("truncation bound must be >= 0")
    deltas = [standard_simplex(n) for n in range(up_to + 1)]
    products = [product(K, d.complex) for d in deltas]
    levels = [list(enumerate_maps(P.complex, C, budget=budget)) for P in products]
    connect = functools.cache(lambda n, images: _connecting(deltas, products, n, images))
    return deltas, products, levels, connect


def function_complex(
    C: SimplicialSet, K: SimplicialSet, up_to: int, budget: Budget | None = None
) -> FunctionComplexTruncation:
    """Level n = every simplicial map K x Delta^n -> C, enumerated.

    Raises BudgetExceeded when the enumeration outgrows the node budget;
    an empty level is an ordinary result, never an error.
    """
    return FunctionComplexTruncation(C, *_enumerate_levels(C, K, up_to, budget))


def restricted_function_complex(
    C: SimplicialSet,
    K: SimplicialSet,
    up_to: int,
    budget: Budget | None = None,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> FunctionComplexTruncation:
    """Full simplicial subset of the function complex on the vertices
    K -> C whose image edges are all equivalence edges of C."""
    from ..homotopy import homotopy_category  # deferred: avoids module cycle

    deltas, products, all_levels, connect = _enumerate_levels(C, K, up_to, budget)
    hc = homotopy_category(C, word_budget)

    def vertex_ok(u: SimplicialMap) -> bool:
        return all(
            hc.is_equivalence(u.images[e]).value == YES
            for e in products[0].complex.cells(1)
        )

    ok = {u for u in all_levels[0] if vertex_ok(u)}
    levels = [[u for u in all_levels[0] if u in ok]]
    for n in range(1, up_to + 1):
        vertices = [connect(n, (j,)) for j in range(n + 1)]
        levels.append(
            [u for u in all_levels[n] if all(compose(w, u) in ok for w in vertices)]
        )
    return FunctionComplexTruncation(C, deltas, products, levels, connect)
