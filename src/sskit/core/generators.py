"""Named generator complexes: simplices, boundaries, horns, spines, coskeleta.

These are all built from vertex tuples.  A strictly increasing tuple
(v0 < ... < vk) names a nondegenerate k-cell; a weakly increasing tuple
names the evident degenerate simplex.  Each constructor also returns the
tuple -> CellId table so that canonical inclusions between generators can
be written down directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable

from .complex import ComplexBuilder, SimplicialSet
from .simplex import CellId, Simplex, apply_degeneracy


def tuple_label(t: tuple[int, ...]) -> str:
    if all(v <= 9 for v in t):
        return "".join(str(v) for v in t)
    return "-".join(str(v) for v in t)


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
    """Build a complex from strictly increasing vertex tuples, face-closed."""
    closed: set[tuple[int, ...]] = set()
    stack = [tuple(t) for t in tuples]
    while stack:
        t = stack.pop()
        if t in closed or not t:
            continue
        closed.add(t)
        if len(t) > 1:
            stack.extend(t[:i] + t[i + 1 :] for i in range(len(t)))

    builder = ComplexBuilder()
    lookup: dict[tuple[int, ...], CellId] = {}
    for t in sorted(closed, key=lambda t: (len(t), t)):
        lookup[t] = builder.add_cell(
            len(t) - 1,
            (Simplex(lookup[t[:i] + t[i + 1 :]]) for i in range(len(t))),
            tuple_label(t),
        )
    return GeneratorComplex(builder.build(), lookup)


def standard_simplex(n: int) -> GeneratorComplex:
    if n < 0:
        raise ValueError("simplex dimension must be >= 0")
    return from_vertex_tuples([tuple(range(n + 1))])


def boundary_complex(n: int) -> GeneratorComplex:
    if n < 0:
        raise ValueError("boundary dimension must be >= 0")
    full = tuple(range(n + 1))
    return from_vertex_tuples(
        full[:i] + full[i + 1 :] for i in range(n + 1)
    )


def horn_complex(n: int, i: int) -> GeneratorComplex:
    if n < 1 or not 0 <= i <= n:
        raise ValueError(f"no horn ({n},{i})")
    full = tuple(range(n + 1))
    return from_vertex_tuples(
        full[:j] + full[j + 1 :] for j in range(n + 1) if j != i
    )


def spine_complex(n: int) -> GeneratorComplex:
    if n < 1:
        raise ValueError("spine needs n >= 1")
    return from_vertex_tuples((k, k + 1) for k in range(n))


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
