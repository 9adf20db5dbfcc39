"""Shared complex builders and random generators for the test suite."""

import random

import pytest

from sskit.core import (
    CellId,
    ComplexBuilder,
    Simplex,
    SimplicialMap,
    boundary_complex,
    from_vertex_tuples,
    horn_complex,
    identity_map,
    map_by_vertices,
    pushout,
    spine_complex,
    standard_simplex,
    terminal_map,
)
from sskit.lifting import LiftingProblem, generator_inclusion


def build_walking_iso():
    """Two vertices joined by a pair of mutually inverse edges.

    Returns (complex, x, y).  Exact presentation: four edges, four
    triangles imposing g f = gf, f g = fg, gf = id_x, fg = id_y.
    """
    b = ComplexBuilder()
    x = b.add_cell(0, label="x")
    y = b.add_cell(0, label="y")
    f = b.add_cell(1, (Simplex(y), Simplex(x)), "f")
    g = b.add_cell(1, (Simplex(x), Simplex(y)), "g")
    gf = b.add_cell(1, (Simplex(x), Simplex(x)), "gf")
    fg = b.add_cell(1, (Simplex(y), Simplex(y)), "fg")
    b.add_cell(2, (Simplex(g), Simplex(gf), Simplex(f)), "t_gf")
    b.add_cell(2, (Simplex(f), Simplex(fg), Simplex(g)), "t_fg")
    b.add_cell(2, (Simplex(x, (0,)), Simplex(x, (0,)), Simplex(gf)), "t_gf_id")
    b.add_cell(2, (Simplex(y, (0,)), Simplex(y, (0,)), Simplex(fg)), "t_fg_id")
    return b.build(), x, y


def build_glued_spines():
    """A 3-simplex and a 3-sphere shell glued along their common spine.

    Returns the pushout object; .complex has cell counts (4, 9, 8, 1).
    """
    sp = spine_complex(3)
    return pushout(
        generator_inclusion(sp, standard_simplex(3)),
        generator_inclusion(sp, boundary_complex(3)),
    )


def extension_problem(f, i):
    """Extending f: A -> X along a mono inclusion i: A -> B, as the
    lifting problem of i against the map from X to the point."""
    pt = standard_simplex(0).complex
    return LiftingProblem(i, terminal_map(f.target, pt), f, terminal_map(i.target, pt))


def ill_posed_squares():
    """Squares that LiftingProblem.check rejects, by the message it gives:
    i collapses Delta^1 to the point (the square commutes), or i picks
    vertex 0 of Delta^1 while u picks vertex 1 over the identity."""
    pt, d1 = standard_simplex(0), standard_simplex(1)
    collapse, over_pt = terminal_map(d1.complex, pt.complex), identity_map(pt.complex)
    over_d1 = identity_map(d1.complex)
    vertex1 = map_by_vertices(pt.complex, d1, {CellId(0, 0): 1})
    return {
        "i is not a mono inclusion": LiftingProblem(collapse, over_pt, collapse, over_pt),
        "square does not commute: p o u != v o i": LiftingProblem(
            generator_inclusion(pt, d1), over_d1, vertex1, over_d1
        ),
    }


def build_parallel_edge_square():
    """A complex whose mapping space between the end vertices has two
    components while its homotopy category sees a single morphism.

    Four vertices 0..3; the long edge 0->3 appears twice (03 and 03'),
    and the four triangles identify both copies with composites of the
    same generators, so 03 = 03' in the homotopy category.  No triangle
    relates the two edges directly, and the complex fills all the horn
    shapes it is ever asked to (checked exhaustively in the tests), so
    the gap is intrinsic, not a missing filler.
    """
    b = ComplexBuilder()
    V = [b.add_cell(0, label=str(i)) for i in range(4)]

    def edge(i, j, lab):
        return b.add_cell(1, (Simplex(V[j]), Simplex(V[i])), lab)

    e01 = edge(0, 1, "01")
    e12 = edge(1, 2, "12")
    e23 = edge(2, 3, "23")
    e02 = edge(0, 2, "02")
    e03 = edge(0, 3, "03")
    e13 = edge(1, 3, "13")
    e03b = edge(0, 3, "03'")
    S = Simplex
    b.add_cell(2, (S(e12), S(e02), S(e01)), "012")  # 02 = 12.01
    b.add_cell(2, (S(e23), S(e03), S(e02)), "023")  # 03 = 23.02
    b.add_cell(2, (S(e23), S(e13), S(e12)), "123")  # 13 = 23.12
    b.add_cell(2, (S(e13), S(e03b), S(e01)), "013")  # 03' = 13.01
    return b.build(), V[0], V[3]


def build_parallel_edges(n):
    """Two vertices and n parallel edges from the first to the second."""
    b = ComplexBuilder()
    x, y = b.add_cell(0), b.add_cell(0)
    for _ in range(n):
        b.add_cell(1, (Simplex(y), Simplex(x)))
    return b.build()


def parallel_edges_map(m, n):
    """The map from m parallel edges to n that is the identity on vertices
    and sends every edge to the first one."""
    C, D = build_parallel_edges(m), build_parallel_edges(n)
    first = Simplex(D.cells(1)[0])
    return SimplicialMap(C, D, {**{v: Simplex(v) for v in C.cells(0)}, **{e: first for e in C.cells(1)}})


def build_edges_over_horn():
    """Two disjoint edges covering the two edges of the 2-horn at index 1."""
    lam = horn_complex(2, 1)
    v = {i: lam.lookup[(i,)] for i in range(3)}
    b = ComplexBuilder()
    a0 = b.add_cell(0, label="a0")
    a1 = b.add_cell(0, label="a1")
    b1 = b.add_cell(0, label="b1")
    b2 = b.add_cell(0, label="b2")
    e = b.add_cell(1, (Simplex(a1), Simplex(a0)), "e")
    f = b.add_cell(1, (Simplex(b2), Simplex(b1)), "f")
    X = b.build()
    p = SimplicialMap(
        X,
        lam.complex,
        {
            a0: Simplex(v[0]),
            a1: Simplex(v[1]),
            b1: Simplex(v[1]),
            b2: Simplex(v[2]),
            e: Simplex(lam.lookup[(0, 1)]),
            f: Simplex(lam.lookup[(1, 2)]),
        },
    )
    return p


def build_horn_plus_vertex():
    """The 2-horn at index 1 with an extra isolated vertex over vertex 1."""
    lam = horn_complex(2, 1)
    v = {i: lam.lookup[(i,)] for i in range(3)}
    b = ComplexBuilder()
    w = [b.add_cell(0, label=str(i)) for i in range(3)]
    g01 = b.add_cell(1, (Simplex(w[1]), Simplex(w[0])), "01")
    g12 = b.add_cell(1, (Simplex(w[2]), Simplex(w[1])), "12")
    z = b.add_cell(0, label="z")
    X = b.build()
    p = SimplicialMap(
        X,
        lam.complex,
        {
            w[0]: Simplex(v[0]),
            w[1]: Simplex(v[1]),
            w[2]: Simplex(v[2]),
            g01: Simplex(lam.lookup[(0, 1)]),
            g12: Simplex(lam.lookup[(1, 2)]),
            z: Simplex(v[1]),
        },
    )
    return p


def over_horn_is_source(p, res) -> bool:
    """Whether, at every stage of a descent over the 2-horn, the cells whose
    base simplex lies in the horn (misses vertex 0 or vertex 2) are exactly
    the cells of the input complex."""
    d2 = standard_simplex(2)
    horn = {c for t, c in d2.lookup.items() if not {0, 2} <= set(t)}
    return all(
        {c for c in stage.all_cells() if q.images[c].base in horn}
        == set(p.source.all_cells())
        for stage, q in zip(res.stages, res.base_maps)
    )


def random_tuple_family(rng: random.Random, n_vertices: int, extra: int):
    """Vertex-tuple family: all vertices plus a few random simplices."""
    ts = {(v,) for v in range(n_vertices)}
    for _ in range(extra):
        k = rng.choice([2, 2, 3])
        ts.add(tuple(sorted(rng.sample(range(n_vertices), k))))
    return ts


def random_generator_complex(rng: random.Random):
    return from_vertex_tuples(
        random_tuple_family(rng, rng.choice([3, 4]), rng.choice([2, 3]))
    )


def random_mono_pair(rng: random.Random, max_cells: int = 12):
    """A composable pair of generator-complex inclusions, or None when the
    sampled complex is too large or the bottom layer comes out empty."""
    GC = from_vertex_tuples(
        random_tuple_family(rng, rng.choice([3, 4]), rng.choice([2, 3, 4]))
    )
    if GC.complex.total_cells() > max_cells:
        return None
    all_t = list(GC.lookup)
    tb = {t for t in all_t if rng.random() < 0.7} | {
        t for t in all_t if len(t) == 1
    }
    ta = {t for t in tb if rng.random() < 0.7} | {
        t for t in tb if len(t) == 1 and rng.random() < 0.9
    }
    if not ta:
        return None
    GA, GB = from_vertex_tuples(ta), from_vertex_tuples(tb)
    return generator_inclusion(GA, GB), generator_inclusion(GB, GC)


@pytest.fixture(scope="session")
def walking_iso():
    return build_walking_iso()


@pytest.fixture(scope="session")
def glued_spines():
    return build_glued_spines()


@pytest.fixture(scope="session")
def parallel_edge_square():
    return build_parallel_edge_square()
