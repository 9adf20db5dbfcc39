"""End-to-end checks, one test per shipped guarantee.

Each test asserts both the mathematical content and the stated runtime
envelope.  The random-corpus mapping-space comparison is a strict
expected failure: see test_criterion_05c for the pinned finite
counterexample that makes the general claim unattainable.
"""

import random
import time

import pytest

from sskit.certify import (
    check_two_out_of_three,
    classify_inclusion,
    search_certificate,
    verify_certificate,
)
from sskit.core import (
    NO,
    YES,
    Budget,
    CellId,
    Simplex,
    SimplicialMap,
    boundary_complex,
    compose,
    enumerate_maps,
    hom_left,
    horn_complex,
    identity_map,
    join,
    map_by_vertices,
    product,
    restricted_function_complex,
    spine_complex,
    standard_simplex,
    validate,
)
from sskit.factorize import (
    descend_over_triangle,
    is_prefibrant,
    prefibrantize,
    saturate_prefibrant,
)
from sskit.homotopy import check_categorical_fibration, homotopy_category, pi0
from sskit.lifting import (
    classify_map,
    family_keys,
    generator_inclusion,
    has_rlp,
    key_inclusion,
    solve_lift,
    spine_inclusion,
)

from conftest import (
    build_edges_over_horn,
    build_horn_plus_vertex,
    extension_problem,
    over_horn_is_source,
    random_generator_complex,
    random_mono_pair,
)

import math


def test_criterion_01_generators_products_joins_validate():
    t0 = time.monotonic()
    for n in range(6):
        full = standard_simplex(n).complex
        assert validate(full) == []
        for k in range(n + 1):
            assert full.n_cells(k) == math.comb(n + 1, k + 1)
        if n >= 1:
            bd = boundary_complex(n).complex
            assert validate(bd) == []
            for k in range(n):
                assert bd.n_cells(k) == math.comb(n + 1, k + 1)
            assert validate(spine_complex(n).complex) == []
            for i in range(n + 1):
                assert validate(horn_complex(n, i).complex) == []
    P = product(standard_simplex(2).complex, standard_simplex(1).complex)
    assert validate(P.complex) == []
    J = join(standard_simplex(1).complex, standard_simplex(1).complex)
    assert validate(J.complex) == []
    # the join of two intervals has the cells of a 3-simplex
    for k in range(4):
        assert J.complex.n_cells(k) == math.comb(4, k + 1)
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("n,steps", [(2, 1), (3, 4), (4, 11)])
def test_criterion_02_spine_certificates(n, steps):
    t0 = time.monotonic()
    r = search_certificate(spine_inclusion(n))
    assert r.value == YES
    assert len(r.witness.steps) == steps
    assert verify_certificate(r.witness, spine_inclusion(n))
    assert time.monotonic() - t0 < 30.0


def _square_in_tetrahedron() -> SimplicialMap:
    d1 = standard_simplex(1).complex
    P = product(d1, d1)
    corner = {"0|0": 0, "1|0": 1, "0|1": 2, "1|1": 3}
    vmap = {v: corner[P.complex.label(v)] for v in P.complex.cells(0)}
    return map_by_vertices(P.complex, standard_simplex(3), vmap)


def test_criterion_03_square_in_tetrahedron_is_left_right_but_not_cellular_inner():
    t0 = time.monotonic()
    i = _square_in_tetrahedron()
    assert i.is_mono() and i.is_vertex_bijective()
    assert search_certificate(i, "inner").value == NO
    for family in ("left", "right"):
        r = search_certificate(i, family)
        assert r.value == YES
        assert verify_certificate(r.witness, i)
    assert time.monotonic() - t0 < 10.0


def test_criterion_04_glued_spines_fill_spines_but_not_the_inner_horn(glued_spines):
    t0 = time.monotonic()
    S = glued_spines.complex
    assert S.cell_counts() == (4, 9, 8, 1)
    for n in range(1, 5):
        inc = spine_inclusion(n)
        for alpha in enumerate_maps(inc.source, S):
            assert solve_lift(extension_problem(alpha, inc)).value == YES
    u = compose(
        generator_inclusion(horn_complex(3, 1), boundary_complex(3)),
        glued_spines.from_codomain,
    )
    r = solve_lift(extension_problem(u, key_inclusion((3, 1))))
    assert r.value == NO
    assert u.check() == []  # the witness is a replayable horn map
    assert time.monotonic() - t0 < 10.0


def _hom_vs_category_agrees(S) -> list[tuple]:
    """Vertex pairs where the component count of the one-level mapping
    space disagrees with the exact morphism count."""
    h = homotopy_category(S)
    bad = []
    for x in S.cells(0):
        for y in S.cells(0):
            if not h.exact:
                continue
            n_cat = len(h.hom_set(x, y))
            n_space = len(pi0(hom_left(S, x, y, 1)))
            if n_cat != n_space:
                bad.append((x, y, n_cat, n_space))
    return bad


def test_criterion_05a_mapping_space_components_on_fixed_examples(walking_iso):
    for n in range(4):
        assert _hom_vs_category_agrees(standard_simplex(n).complex) == []
    S, _, _ = walking_iso
    assert _hom_vs_category_agrees(S) == []


def _prefibrant_corpus(seeds):
    corpus = []
    for seed in seeds:
        G = random_generator_complex(random.Random(seed))
        S = prefibrantize(G.complex, stages=2).result
        if S.total_cells() <= 40 and is_prefibrant(S, 3).ok:
            corpus.append((seed, S))
    return corpus


@pytest.mark.xfail(
    strict=True,
    reason="pre-fibrancy does not force agreement: a pre-fibrant complex "
    "can have a disconnected mapping space between vertices whose exact "
    "morphism count is 1 (see test_criterion_05c), and the deterministic "
    "corpus contains such a complex",
)
def test_criterion_05b_mapping_space_components_on_a_random_corpus():
    corpus = _prefibrant_corpus(range(1, 26))
    assert len(corpus) >= 20
    for seed, S in corpus:
        assert _hom_vs_category_agrees(S) == [], f"seed {seed}"


def test_criterion_05c_pinned_counterexample_is_prefibrant(parallel_edge_square):
    S, x, y = parallel_edge_square
    assert validate(S) == []
    assert is_prefibrant(S, 4, node_budget=Budget(10**8)).ok
    h = homotopy_category(S)
    assert h.exact
    assert len(h.hom_set(x, y)) == 1  # both long edges are identified
    assert len(pi0(hom_left(S, x, y, 1))) == 2  # but never homotopic


def test_criterion_06_saturation_preserves_mapping_spaces():
    res = saturate_prefibrant(standard_simplex(2).complex, 3)
    assert res.p2_violations == []
    assert res.hom_levels_equal
    done = 0
    seed = 0
    while done < 2:
        seed += 1
        G = random_generator_complex(random.Random(seed))
        S = prefibrantize(G.complex, stages=2).result
        if S.total_cells() > 25 or not is_prefibrant(S, 3).ok:
            continue
        r = saturate_prefibrant(S, 3)
        assert r.p2_violations == []
        assert r.hom_levels_equal
        done += 1


def test_criterion_07_descent_over_the_open_triangle():
    t0 = time.monotonic()
    fibrations = [
        identity_map(horn_complex(2, 1).complex),
        build_edges_over_horn(),
        build_horn_plus_vertex(),
    ]
    for p in fibrations:
        assert classify_map(p, classes=("inner",)).classes["inner"].value == YES
        res = descend_over_triangle(p, stages=2)
        assert over_horn_is_source(p, res)
        assert len(res.stages) == 3
    assert time.monotonic() - t0 < 60.0


def test_criterion_08_categorical_fibration_classifier(walking_iso):
    d1 = standard_simplex(1).complex
    assert check_categorical_fibration(identity_map(d1)).verdict.value == "yes"
    P = product(d1, d1)
    assert check_categorical_fibration(P.proj1, 2).verdict.value == "yes"
    S, x, _ = walking_iso
    pt = standard_simplex(0).complex
    inc = SimplicialMap(pt, S, {CellId(0, 0): Simplex(x)})
    rep = check_categorical_fibration(inc)
    assert rep.verdict.value == "no"
    # the witness replays: the stranded vertex has no equivalence lift
    base_edge, stranded = rep.isofibration.witness
    assert stranded == CellId(0, 0)
    assert S.has_cell(base_edge)


def test_criterion_09_two_out_of_three_never_alarms():
    t0 = time.monotonic()
    rng = random.Random(2026)
    checked = 0
    while checked < 100:
        pair = random_mono_pair(rng)
        if pair is None:
            continue
        rep = check_two_out_of_three(*pair)
        assert not rep.alarm, rep.pattern
        checked += 1
    assert time.monotonic() - t0 < 300.0


def test_criterion_10_equivalence_restricted_evaluation_is_trivial_kan():
    t0 = time.monotonic()
    d2 = standard_simplex(2).complex
    d1 = standard_simplex(1).complex
    fc = restricted_function_complex(d2, d1, 2)
    ev = fc.restrict_to_vertex(CellId(0, 0))
    assert ev.check() == []
    v = has_rlp(ev, family_keys("trivial_kan", 2), 2)
    assert v.value == YES
    assert v.bound == 2
    assert time.monotonic() - t0 < 60.0
