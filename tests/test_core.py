"""Normal forms, complex construction, generators, and mapping spaces."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sskit.core import (
    Budget,
    CellId,
    ComplexBuilder,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracy,
    apply_images,
    boundary_complex,
    constant_simplex,
    cosk0_complex,
    degeneracy_words,
    degenerate,
    enumerate_maps,
    from_vertex_tuples,
    function_complex,
    hom_left,
    horn_complex,
    identity_map,
    is_constant,
    j_truncation,
    join,
    join_functor,
    product,
    product_functor,
    pushout,
    restricted_function_complex,
    slice_under,
    spine_complex,
    standard_simplex,
    sub_complex,
    tuple_simplex,
    validate,
    word_is_valid,
)
from sskit.core import spaces
from sskit.factorize import mapping_path_space
from sskit.fileformat import serialize_complex
from sskit.lifting import generator_inclusion

from conftest import build_walking_iso, random_generator_complex, random_looped_complex


# -- degeneracy words ----------------------------------------------------------


@given(st.lists(st.integers(0, 10**6), max_size=8))
def test_apply_degeneracy_always_yields_a_valid_word(raw_ops):
    # over a vertex: after m degeneracies the simplex has dimension m,
    # so the next legal index is 0..m
    word = ()
    for r in raw_ops:
        word = apply_degeneracy(word, r % (len(word) + 1))
    assert word_is_valid(word, 0)
    assert len(word) == len(raw_ops)


def test_degeneracy_insertion_matches_the_index_shift_rule():
    # s_a s_j = s_{j+1} s_a for a <= j
    assert apply_degeneracy((2,), 0) == (0, 3)
    assert apply_degeneracy((0,), 2) == (0, 2)


def test_constant_simplex_detection():
    v = CellId(0, 0)
    assert is_constant(constant_simplex(v, 3))
    assert constant_simplex(v, 0) == Simplex(v)
    e = Simplex(CellId(1, 0))
    assert not is_constant(degenerate(e, 0))


def recursive_degeneracy_words(length, base_dim, top):
    """Reference: the recursive enumeration of the valid words of a length
    over a base dimension, with indices below top."""
    if length == 0:
        yield ()
        return

    def rec(prefix, start, m):
        if m == length:
            yield tuple(prefix)
            return
        bound = min(top - 1, base_dim + m)
        for j in range(start, bound + 1):
            prefix.append(j)
            yield from rec(prefix, j + 1, m + 1)
            prefix.pop()

    yield from rec([], 0, 0)


@pytest.mark.parametrize("n", range(9))
def test_degeneracy_words_match_the_recursive_reference(n):
    for p in range(n + 1):
        words = list(degeneracy_words(p, n))
        assert words == list(recursive_degeneracy_words(n - p, p, n))
        assert len(words) == math.comb(n, n - p)
        assert all(word_is_valid(w, p) for w in words)


# -- cell and simplex values ------------------------------------------------------


def _random_simplex_fields(rng, k):
    out = []
    for _ in range(k):
        d, i = rng.randrange(4), rng.randrange(5)
        word = tuple(sorted(rng.sample(range(d + 3), rng.randrange(3))))
        out.append(((d, i), word))
    return out


def test_cells_and_simplices_hash_as_their_field_tuples():
    for d in range(4):
        for i in range(6):
            c = CellId(d, i)
            assert hash(c) == hash((d, i))
            for w in [(), (0,), (0, 2), (1, 2, 4)]:
                assert hash(Simplex(c, w)) == hash(((c.dim, c.index), w))


@pytest.mark.parametrize("seed", range(5))
def test_cells_and_simplices_sort_as_their_field_tuples(seed):
    rng = random.Random(seed)
    fields = _random_simplex_fields(rng, 60)
    cells = [CellId(*c) for c, _ in fields]
    assert sorted(cells) == [CellId(*c) for c in sorted(c for c, _ in fields)]
    simplices = [Simplex(CellId(*c), w) for c, w in fields]
    assert sorted(simplices) == [Simplex(CellId(*c), w) for c, w in sorted(fields)]


def test_cell_and_simplex_construction_and_immutability():
    c = CellId(1, 2)
    assert repr(c) == "CellId(1,2)"
    assert repr(Simplex(c)) == "<1.2>"
    assert repr(Simplex(c, (0, 2))) == "<s0,2@1.2>"
    assert Simplex(c).word == ()
    assert Simplex(c, (0,)).dim == 2 and not Simplex(c, (0,)).nondegenerate
    assert Simplex(c).nondegenerate
    assert Simplex(c, ()) == Simplex(c) and CellId(1, 2) == c
    with pytest.raises(AttributeError):
        c.dim = 3
    with pytest.raises(AttributeError):
        Simplex(c).word = (0,)


def test_cell_lists_are_in_dim_index_order_and_copies():
    X = cosk0_complex(3, 2).complex
    expected = [CellId(d, i) for d in range(X.dim + 1) for i in range(X.n_cells(d))]
    assert list(X.all_cells()) == expected == sorted(expected)
    assert [c for d in range(X.dim + 1) for c in X.cells(d)] == expected
    assert X.cells(X.dim + 1) == [] and X.cells(-1) == []
    edges = X.cells(1)
    edges.append(CellId(1, 99))
    edges.reverse()
    X.cells(0).clear()
    assert X.cells(1) == expected[X.n_cells(0) : X.n_cells(0) + X.n_cells(1)]
    assert X.cells(0) == expected[: X.n_cells(0)]
    assert list(X.all_cells()) == expected


def test_star_import_of_core_exports_no_submodule():
    import inspect

    import sskit.core

    assert not [n for n in sskit.core.__all__ if inspect.ismodule(getattr(sskit.core, n))]
    namespace = {}
    exec("from sskit.core import *", namespace)
    assert "complex" not in namespace  # the builtin stays unshadowed
    assert {"ComplexBuilder", "SimplicialSet", "join"} <= set(namespace)


# -- complexes and validation ---------------------------------------------------


def test_builder_rejects_inconsistent_faces():
    b = ComplexBuilder()
    x = b.add_cell(0)
    y = b.add_cell(0)
    z = b.add_cell(0)
    e = b.add_cell(1, (Simplex(y), Simplex(x)))
    f = b.add_cell(1, (Simplex(z), Simplex(y)))
    g = b.add_cell(1, (Simplex(z), Simplex(y)))  # wrong source for a triangle
    b.add_cell(2, (Simplex(f), Simplex(g), Simplex(e)))
    assert validate(b.build())


def test_builder_numbers_each_dimension_in_the_order_cells_are_added():
    b = ComplexBuilder()
    x = b.add_cell(0, label="x")
    e = b.add_cell(1, (Simplex(x), Simplex(x)), "e")
    y = b.add_cell(0)
    f = b.add_cell(1, (Simplex(y), Simplex(x)))
    assert (x, e, y, f) == (CellId(0, 0), CellId(1, 0), CellId(0, 1), CellId(1, 1))
    X = b.build()
    assert X.cell_counts() == (2, 2)
    assert X.labels == {x: "x", e: "e"}
    assert X.cell_faces(f) == (Simplex(y), Simplex(x))


def test_a_vertex_has_no_faces_and_a_non_cell_has_none_to_read():
    X = standard_simplex(1).complex
    assert X.cell_faces(CellId(0, 1)) == ()
    for c in (CellId(0, 2), CellId(1, 1), CellId(2, 0)):
        with pytest.raises(KeyError):
            X.cell_faces(c)


def test_equality_ignores_labels():
    a = ComplexBuilder()
    a.add_cell(0, label="p")
    b = ComplexBuilder()
    b.add_cell(0, label="q")
    assert a.build() == b.build()
    assert hash(a.build()) == hash(b.build())


def test_face_commutes_through_degeneracy_words():
    d2 = standard_simplex(2).complex
    top = Simplex(CellId(2, 0))
    s = degenerate(top, 1)
    # d_1 s_1 = id
    assert d2.face(s, 1) == top
    # d_3 s_1 = s_1 d_2
    assert d2.face(s, 3) == degenerate(d2.face(top, 2), 1)


def test_face_reads_its_cache_first_and_keeps_its_range_check():
    X = cosk0_complex(3, 2).complex
    s = Simplex(CellId(2, 1), (1,))  # a degenerate 3-simplex
    faces = [X.face(s, i) for i in range(4)]
    assert all((s, i) in X._face_cache for i in range(4))
    # a cached answer is the one a complex with an empty cache computes
    assert faces == [cosk0_complex(3, 2).complex.face(s, i) for i in range(4)]
    assert [X.face(s, i) for i in range(4)] == faces
    for i in (-1, 4, 5):
        with pytest.raises(IndexError):
            X.face(s, i)
    v = Simplex(CellId(0, 0))
    for i in (0, 1):
        with pytest.raises(IndexError):
            X.face(v, i)
    assert not any(key[0] == v for key in X._face_cache)


@pytest.mark.parametrize("n", range(6))
def test_standard_simplex_counts_are_binomial(n):
    G = standard_simplex(n)
    assert validate(G.complex) == []
    for k in range(n + 1):
        assert G.complex.n_cells(k) == math.comb(n + 1, k + 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_boundary_and_horn_and_spine_counts(n):
    full = standard_simplex(n).complex
    bd = boundary_complex(n).complex
    assert validate(bd) == []
    assert bd.n_cells(n - 1) == full.n_cells(n - 1)
    assert bd.dim == n - 1 or n == 0
    for i in range(n + 1):
        h = horn_complex(n, i).complex
        assert validate(h) == []
        assert h.n_cells(n - 1) == full.n_cells(n - 1) - 1
    sp = spine_complex(n).complex
    assert sp.cell_counts() == (n + 1, n)


def test_tuple_simplex_peels_repeats_as_degeneracies():
    G = standard_simplex(2)
    s = tuple_simplex((0, 0, 2), G.lookup)
    assert s.base == G.lookup[(0, 2)]
    assert s.word == (0,)
    assert tuple_simplex((1, 1, 1), G.lookup) == constant_simplex(
        G.lookup[(1,)], 2
    )


def test_from_vertex_tuples_closes_under_faces():
    G = from_vertex_tuples([(0, 1, 2, 3)])
    assert G.complex == standard_simplex(3).complex


def test_cosk0_and_j_truncation_validate():
    assert validate(cosk0_complex(3, 3).complex) == []
    J2 = j_truncation(2)
    assert validate(J2.complex) == []
    assert J2.complex.n_cells(0) == 2


@given(st.integers(0, 2**30))
def test_random_tuple_complexes_validate(seed):
    G = random_generator_complex(random.Random(seed))
    assert validate(G.complex) == []


# -- maps, products, joins, pushouts --------------------------------------------


def test_enumerate_maps_counts_simplices_of_the_target():
    d1 = standard_simplex(1).complex
    d2 = standard_simplex(2).complex
    # maps Delta^1 -> Delta^1 are exactly the 1-simplices of Delta^1
    assert sum(1 for _ in enumerate_maps(d1, d1)) == 3
    assert sum(1 for _ in enumerate_maps(d2, d1)) == 4


def test_enumerate_maps_has_no_depth_limit():
    # Delta^9 has 1,023 cells, one level each: past the recursion limit
    maps = list(enumerate_maps(standard_simplex(9).complex, standard_simplex(0).complex))
    assert len(maps) == 1


def recursive_enumerate_maps(X, Y, fixed, constraint, budget, order=None):
    """`enumerate_maps` as it was, with one generator frame per cell,
    assigning the cells in the given order (faces-first by default)."""
    images = dict(fixed)
    todo = [c for c in (X.faces_first if order is None else order) if c not in images]

    def rec(k):
        if k == len(todo):
            yield SimplicialMap(X, Y, images)
            return
        c = todo[k]
        if c.dim == 0:
            cands = [Simplex(v) for v in Y.cells(0)]
        else:
            want = tuple(apply_images(images, s) for s in X.cell_faces(c))
            cands = Y.simplices_with_boundary(c.dim, want)
        for cand in cands:
            if not constraint(c, cand):
                continue
            budget.spend()
            images[c] = cand
            yield from rec(k + 1)
            del images[c]

    yield from rec(0)


@pytest.mark.parametrize("seed", range(4))
def test_enumerate_maps_agrees_with_the_recursive_enumeration(seed):
    rng = random.Random(seed)
    found = 0
    for _ in range(30):
        X, Y = random_generator_complex(rng).complex, random_generator_complex(rng).complex
        fixed = {X.cells(0)[0]: Simplex(rng.choice(Y.cells(0)))}
        banned = rng.choice(Y.cells(0))

        def constraint(c, s):
            return c.dim > 0 or s.base != banned

        budget, ref_budget = Budget(10**6), Budget(10**6)
        maps = list(enumerate_maps(X, Y, fixed, constraint, budget))
        assert maps == list(recursive_enumerate_maps(X, Y, fixed, constraint, ref_budget))
        assert budget.used == ref_budget.used
        found += len(maps)
    assert found > 0


@pytest.mark.parametrize("seed", range(4))
def test_enumerate_maps_between_looped_complexes_agrees_with_the_recursion(seed):
    """Sources with degenerate stored faces, loops and parallel edges."""
    rng = random.Random(seed)
    found = 0
    for _ in range(30):
        X, Y = random_looped_complex(rng), random_looped_complex(rng)
        budget, ref_budget = Budget(10**6), Budget(10**6)
        maps = list(enumerate_maps(X, Y, budget=budget))
        assert maps == list(recursive_enumerate_maps(X, Y, {}, lambda c, s: True, ref_budget))
        assert budget.used == ref_budget.used
        found += len(maps)
    assert found > 0


@pytest.mark.parametrize(
    "source, maps, nodes",
    [(lambda: horn_complex(4, 2), 441, 13_845), (lambda: standard_simplex(3), 225, 4_071)],
)
def test_enumerate_maps_into_a_product_spends_the_pinned_nodes(source, maps, nodes):
    target = product(standard_simplex(2).complex, standard_simplex(2).complex).complex
    budget = Budget(10**7)
    assert sum(1 for _ in enumerate_maps(source().complex, target, budget=budget)) == maps
    assert budget.used == nodes


@pytest.mark.parametrize("seed", range(4))
def test_faces_first_and_dimension_order_yield_the_same_maps(seed):
    rng = random.Random(seed)
    found = 0
    for _ in range(30):
        X, Y = random_generator_complex(rng).complex, random_generator_complex(rng).complex
        order = list(X.faces_first)
        assert sorted(order) == list(X.all_cells())
        assert all(
            order.index(f.base) < order.index(c) for c in order for f in X.cell_faces(c)
        )
        maps = list(enumerate_maps(X, Y))
        by_dim = recursive_enumerate_maps(X, Y, {}, lambda c, s: True, Budget(10**6), sorted(order))
        assert len(set(maps)) == len(maps)
        assert set(maps) == set(by_dim)
        found += len(maps)
    assert found > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_simplices_with_boundary_agrees_with_the_full_scan(seed):
    rng = random.Random(seed)
    X = random_looped_complex(rng)
    assert validate(X) == []
    for n in range(1, X.dim + 2):
        scan = {}
        for s in X.simplices(n):
            scan.setdefault(X.boundary(s), []).append(s)
        for faces, group in scan.items():
            assert X.simplices_with_boundary(n, faces) == sorted(group)
        lower = list(X.simplices(n - 1))
        for _ in range(10):
            faces = tuple(rng.choice(lower) for _ in range(n + 1))
            assert X.simplices_with_boundary(n, faces) == sorted(scan.get(faces, []))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_simplices_with_faces_agrees_with_the_full_scan(seed):
    """Every set of positions, given faces that some simplex has and
    random ones; no position gives every simplex."""
    rng = random.Random(seed)
    X = random_looped_complex(rng)
    for n in range(X.dim + 2):
        assert X.simplices_with_faces(n, (), ()) == list(X.simplices(n))
        lower = list(X.simplices(n - 1)) if n else []
        for size in range(1, n + 2) if n else ():
            for positions in itertools.combinations(range(n + 1), size):
                scan = {}
                for s in X.simplices(n):
                    scan.setdefault(tuple(X.face(s, k) for k in positions), []).append(s)
                tuples = set(scan) | {tuple(rng.choice(lower) for _ in positions) for _ in range(4)}
                for faces in tuples:
                    got = X.simplices_with_faces(n, positions, faces)
                    assert got == sorted(scan.get(faces, [])), (n, positions, faces)


def test_product_of_two_intervals():
    d1 = standard_simplex(1).complex
    P = product(d1, d1)
    assert P.complex.cell_counts() == (4, 5, 2)
    assert validate(P.complex) == []
    assert P.proj1.check() == []
    assert P.proj2.check() == []


def test_product_functor_respects_identities():
    d1 = standard_simplex(1).complex
    P = product(d1, d1)
    f = product_functor(P, P, identity_map(d1), identity_map(d1))
    assert f == identity_map(P.complex)


def test_join_of_interval_and_point_is_a_triangle():
    d1 = standard_simplex(1).complex
    pt = standard_simplex(0).complex
    J = join(d1, pt)
    assert J.complex.cell_counts() == (3, 3, 1)
    assert validate(J.complex) == []
    assert J.inc_x.check() == [] and J.inc_y.check() == []


def test_join_functor_respects_identities():
    d1 = standard_simplex(1).complex
    pt = standard_simplex(0).complex
    J = join(d1, pt)
    f = join_functor(J, J, identity_map(d1), identity_map(pt))
    assert f == identity_map(J.complex)


def test_pushout_of_two_triangles_along_an_edge():
    i = generator_inclusion(standard_simplex(1), standard_simplex(2))
    ps = pushout(i, generator_inclusion(standard_simplex(1), standard_simplex(2)))
    assert ps.complex.cell_counts() == (4, 5, 2)
    assert validate(ps.complex) == []
    assert ps.from_codomain.check() == []
    assert ps.from_total.check() == []
    assert len(ps.new_cells) == 1 + 2 + 1  # a triangle minus a closed edge


def test_sub_complex_requires_face_closure_via_restriction():
    d2 = standard_simplex(2).complex
    part, inc = sub_complex(d2, [c for c in d2.all_cells() if c.dim <= 1])
    assert part.cell_counts() == (3, 3)
    assert inc.is_mono()


# -- mapping spaces ---------------------------------------------------------------


def test_hom_left_of_the_interval_is_a_point():
    d1 = standard_simplex(1).complex
    hs = hom_left(d1, CellId(0, 0), CellId(0, 1), 2)
    assert [len(l) for l in hs.levels] == [1, 1, 1]
    assert hs.space.cell_counts() == (1,)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_hom_left_embeds_in_the_slice(seed):
    # every hom-space level is a subset of the slice level
    X = random_generator_complex(random.Random(seed)).complex
    for x in X.cells(0):
        sl = slice_under(X, x, 2)
        assert validate(sl.space) == []
        for y in X.cells(0):
            hs = hom_left(X, x, y, 2)
            assert validate(hs.space) == []
            for n in range(3):
                assert set(hs.levels[n]) <= set(sl.levels[n])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_slice_projection_is_simplicial(seed):
    d2 = standard_simplex(2).complex
    sl = slice_under(d2, CellId(0, 0), 2)
    assert sl.space.cell_counts() == (3, 3, 1)
    assert sl.projection.check() == []
    X = random_generator_complex(random.Random(seed)).complex
    for x in X.cells(0):
        sl = slice_under(X, x, 2)
        assert validate(sl.space) == []
        assert sl.projection.check() == []


def test_function_complex_with_point_exponent_recovers_the_base():
    d2 = standard_simplex(2).complex
    pt = standard_simplex(0).complex
    fc = function_complex(d2, pt, 2)
    assert [len(l) for l in fc.levels] == [3, 6, 10]  # all simplices per level
    assert fc.space == d2


def test_function_complex_evaluation_lands_in_the_base():
    d1 = standard_simplex(1).complex
    fc = function_complex(d1, d1, 1)
    ev = fc.restrict_to_vertex(CellId(0, 0))
    assert ev.check() == []
    assert ev.target == d1


@pytest.mark.parametrize("up_to, levels, cells, built", [
    (1, [6, 34], (6, 28), 3),
    (2, [6, 34, 110], (6, 28, 48), 11),
])
def test_a_function_complex_builds_each_connecting_map_once(up_to, levels, cells, built, monkeypatch):
    """The vertex maps K x Delta^0 -> K x Delta^1 that restrict the levels
    are also its face maps; the levels are those pinned before each map
    was built once (5 and 13 builds then)."""
    calls = []
    connecting = spaces._connecting

    def counting(deltas, products, n, images):
        calls.append((n, images))
        return connecting(deltas, products, n, images)

    monkeypatch.setattr(spaces, "_connecting", counting)
    fc = restricted_function_complex(build_walking_iso()[0], standard_simplex(1).complex, up_to)
    assert ([len(lv) for lv in fc.levels], fc.space.cell_counts()) == (levels, cells)
    assert len(calls) == len(set(calls)) == built
    calls.clear()
    mapping_path_space(identity_map(standard_simplex(1).complex), 1)
    assert len(calls) == len(set(calls)) == 3


def test_a_cell_label_is_returned_as_given_and_a_missing_one_is_made_up():
    b = ComplexBuilder()
    b.add_cell(0, label="")
    b.add_cell(0)
    X = b.build()
    assert [X.label(v) for v in X.cells(0)] == ["", "c0_1"]


_TRIANGLE_TEXT = """dim 2
cell c0_0 0
cell c0_1 0
cell c0_2 0
cell c1_0 1 faces: c0_1 c0_0
cell c1_1 1 faces: c0_2 c0_0
cell c1_2 1 faces: c0_2 c0_1
cell c2_0 2 faces: c1_2 c1_1 c1_0
"""

_MAPPING_SPACE_TEXTS = {
    "slice_under": _TRIANGLE_TEXT,
    "hom_left": "dim 0\ncell c0_0 0\n",
    "function_complex": _TRIANGLE_TEXT.replace("dim 2", "dim 1").split("cell c2_0")[0],
    "restricted_function_complex": _TRIANGLE_TEXT,
    "mapping_path_space": "dim 1\ncell c0_0 0\ncell c0_1 0\ncell c1_0 1 faces: c0_1 c0_0\n",
}


def _mapping_space(name):
    d1, d2 = standard_simplex(1).complex, standard_simplex(2).complex
    x, y = CellId(0, 0), CellId(0, 2)
    return {
        "slice_under": lambda: slice_under(d2, x, 2).space,
        "hom_left": lambda: hom_left(d2, x, y, 2).space,
        "function_complex": lambda: function_complex(d1, d1, 1).space,
        "restricted_function_complex": lambda: restricted_function_complex(d2, d1, 2).space,
        "mapping_path_space": lambda: mapping_path_space(identity_map(d1), 1).space,
    }[name]()


@pytest.mark.parametrize("name", sorted(_MAPPING_SPACE_TEXTS))
def test_mapping_space_cell_numbering_is_pinned(name):
    assert serialize_complex(_mapping_space(name)) == _MAPPING_SPACE_TEXTS[name]
