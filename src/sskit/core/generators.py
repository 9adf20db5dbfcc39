"""Named generator complexes: simplices, boundaries, horns, spines, coskeleta.

These are all built from vertex tuples.  A strictly increasing tuple
(v0 < ... < vk) names a nondegenerate k-cell; a weakly increasing tuple
names the evident degenerate simplex.  Each constructor also returns the
tuple -> CellId table so that canonical inclusions between generators can
be written down directly.

The named constructors keep what they build in one bounded table per
process: equal parameters give the identical `GeneratorComplex`, which
every caller shares.  Complexes never change after construction, so
sharing one is safe; never write into its `lookup` or `labels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as iproduct
from typing import Callable

from .complex import ComplexBuilder, SimplicialSet
from .simplex import CellId, Simplex, apply_degeneracy


def tuple_label(t: tuple[int, ...]) -> str:
    """Vertices run together when all are single digits, else joined by -."""
    return ("" if max(t, default=0) <= 9 else "-").join(map(str, t))


@dataclass(frozen=True)
class GeneratorComplex:
    """A complex whose cells are indexed by vertex tuples.

    Index `lookup` with vertex tuples only: a `CellId` equals the int pair
    of its fields, so `lookup[CellId(0, 1)]` finds the edge on vertices 0, 1.
    """

    complex: SimplicialSet
    lookup: dict[tuple[int, ...], CellId]


def tuple_simplex(t: tuple[int, ...], lookup: dict[tuple[int, ...], CellId]) -> Simplex:
    """Normal form of the simplex named by a weakly increasing tuple.

    Repeated vertices are peeled off as degeneracies: t = s_j(t') when
    t_j = t_{j+1} and t' drops position j+1.
    """
    for j in range(len(t) - 1):
        if t[j] == t[j + 1]:
            inner = tuple_simplex(t[: j + 1] + t[j + 2 :], lookup)
            return Simplex(inner.base, apply_degeneracy(inner.word, j))
    return Simplex(lookup[t])


def from_vertex_tuples(tuples) -> GeneratorComplex:
    """Build a complex from strictly increasing vertex tuples, face-closed.

    Cells are added by length, each length in sorted order.  The face d_j
    of a k-cell t drops position j of t, so d_0 ... d_k are
    `combinations(t, k)` reversed, read from a table of simplices.
    """
    levels: list[set[tuple[int, ...]]] = []
    for t in tuples:
        t = tuple(t)
        while len(levels) < len(t):
            levels.append(set())
        if t:
            levels[len(t) - 1].add(t)
    for k in range(len(levels) - 1, 0, -1):
        below = levels[k - 1]
        for t in levels[k]:
            below.update(combinations(t, k))

    builder = ComplexBuilder()
    add_cell = builder.add_cell
    lookup: dict[tuple[int, ...], CellId] = {}
    simplex: dict[tuple[int, ...], Simplex] = {}
    for k, level in enumerate(levels):
        for t in sorted(level):
            faces = reversed([simplex[f] for f in combinations(t, k)]) if k else ()
            c = lookup[t] = add_cell(k, faces, tuple_label(t))
            simplex[t] = Simplex(c)
    return GeneratorComplex(builder.build(), lookup)


# the bounded table of each named constructor here and of each per-key
# generator table in `sskit.lifting`; a few dozen generators cover any run
shared_table = lru_cache(maxsize=64)


@shared_table
def standard_simplex(n: int) -> GeneratorComplex:
    if n < 0:
        raise ValueError("simplex dimension must be >= 0")
    return from_vertex_tuples([tuple(range(n + 1))])


@shared_table
def boundary_complex(n: int) -> GeneratorComplex:
    if n < 0:
        raise ValueError("boundary dimension must be >= 0")
    full = tuple(range(n + 1))
    return from_vertex_tuples(
        full[:i] + full[i + 1 :] for i in range(n + 1)
    )


@shared_table
def horn_complex(n: int, i: int) -> GeneratorComplex:
    if n < 1 or not 0 <= i <= n:
        raise ValueError(f"no horn ({n},{i})")
    full = tuple(range(n + 1))
    return from_vertex_tuples(
        full[:j] + full[j + 1 :] for j in range(n + 1) if j != i
    )


@shared_table
def spine_complex(n: int) -> GeneratorComplex:
    if n < 1:
        raise ValueError("spine needs n >= 1")
    return from_vertex_tuples((k, k + 1) for k in range(n))


@shared_table
def cosk0_complex(n_vertices: int, bound: int) -> GeneratorComplex:
    """Truncation of the 0-coskeleton of a vertex set up to the bound.

    One nondegenerate k-cell per (k+1)-tuple with no two consecutive
    entries equal; inner faces may be degenerate.
    """
    if n_vertices < 1 or bound < 0:
        raise ValueError("need at least one vertex and bound >= 0")
    builder = ComplexBuilder()
    lookup: dict[tuple[int, ...], CellId] = {}
    for k in range(bound + 1):
        for t in iproduct(range(n_vertices), repeat=k + 1):
            if all(t[j] != t[j + 1] for j in range(k)):
                lookup[t] = builder.add_cell(
                    k,
                    (tuple_simplex(t[:i] + t[i + 1 :], lookup) for i in range(k + 1)),
                    tuple_label(t),
                )
    return GeneratorComplex(builder.build(), lookup)


def j_truncation(n: int) -> GeneratorComplex:
    """n-skeleton of the nerve of the free-standing isomorphism."""
    if n < 0:
        raise ValueError("truncation dimension must be >= 0")
    return cosk0_complex(2, n)


# the named generator kinds, each built from integer parameters
GENERATORS: dict[str, Callable[..., GeneratorComplex]] = {
    "simplex": standard_simplex,
    "boundary": boundary_complex,
    "horn": horn_complex,
    "spine": spine_complex,
    "cosk0": cosk0_complex,
    "jtrunc": j_truncation,
}
