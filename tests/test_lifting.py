"""Lifting problems, RLP checks, and the fibration-class report."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from sskit import lifting
from sskit.core import generators
from sskit.core import (
    DEFAULT_NODE_BUDGET,
    Budget,
    BudgetExceeded,
    CellId,
    Simplex,
    SimplicialMap,
    boundary_complex,
    compose,
    enumerate_maps,
    horn_complex,
    identity_map,
    map_by_vertices,
    product,
    standard_simplex,
    terminal_map,
)
from sskit.lifting import (
    BUDGET,
    FIBRATION_CLASSES,
    FOUND,
    NO,
    NONE,
    YES,
    LiftingProblem,
    boundary_inclusion,
    classify_map,
    family_keys,
    generator_inclusion,
    has_rlp,
    horn_inclusion,
    key_inclusion,
    solve_lift,
    spine_inclusion,
)

from conftest import (
    build_glued_spines,
    extension_problem,
    ill_posed_squares,
    random_generator_complex,
)

PT = standard_simplex(0).complex


def test_inner_horn_fills_in_its_own_simplex():
    i = horn_inclusion(2, 1)
    u = i  # fill the horn inside Delta^2 itself
    p = identity_map(i.target)
    r = solve_lift(LiftingProblem(i, p, u, p))
    assert r.status == FOUND
    assert compose(i, r.lift) == u


def test_spine_extends_through_the_full_simplex():
    r = solve_lift(extension_problem(spine_inclusion(3), spine_inclusion(3)))
    assert r.status == FOUND


def test_no_lift_when_the_target_lacks_the_filler():
    # extend the identity of the boundary over the full simplex: the
    # interior has nowhere to go
    i = boundary_inclusion(2)
    r = solve_lift(extension_problem(identity_map(i.source), i))
    assert r.status == NONE


def _extensions(f, i, budget):
    """All maps B -> Y with g o i = f, for a mono inclusion i: A -> B,
    enumerated directly: the reference a lift over the point must match."""
    if not i.is_mono():
        raise ValueError("extension requires a mono inclusion")
    fixed = {i.images[a].base: f.images[a] for a in i.source.all_cells()}
    return enumerate_maps(i.target, f.target, fixed, budget=budget)


def _first_extension(f, i, budget):
    """Status and map of the first reference extension."""
    try:
        for g in _extensions(f, i, budget):
            return FOUND, g
    except BudgetExceeded:
        return BUDGET, None
    return NONE, None


def _extension_cases():
    """The extensions that the spine, boundary and horn tests solve as
    lifts over the point: the spine of Delta^3 along itself, the identity
    of the boundary of Delta^2 along its inclusion, the horn of Delta^3
    sent into the shell of the glued spines, and every map from the spine
    of Delta^n (n <= 4) into the glued spines."""
    glued = build_glued_spines()
    cases = [
        (spine_inclusion(3), spine_inclusion(3)),
        (identity_map(boundary_inclusion(2).source), boundary_inclusion(2)),
        (
            compose(
                generator_inclusion(horn_complex(3, 1), boundary_complex(3)),
                glued.from_codomain,
            ),
            horn_inclusion(3, 1),
        ),
    ]
    for n in range(1, 5):
        inc = spine_inclusion(n)
        cases += [(alpha, inc) for alpha in enumerate_maps(inc.source, glued.complex)]
    return cases


@pytest.mark.parametrize("limit", [1, 3, 8, DEFAULT_NODE_BUDGET])
def test_an_extension_is_a_lift_over_the_point_node_for_node(limit):
    statuses = set()
    for f, i in _extension_cases():
        ext_budget, lift_budget = Budget(limit), Budget(limit)
        status, g = _first_extension(f, i, ext_budget)
        r = solve_lift(extension_problem(f, i), lift_budget)
        assert (r.status, r.lift) == (status, g)
        assert lift_budget.used == ext_budget.used
        statuses.add(status)
    # both refutations spend fewer nodes than the smallest limit
    assert statuses == ({FOUND, NONE} if limit == DEFAULT_NODE_BUDGET else {FOUND, NONE, BUDGET})


def _vertex_map(vmap):
    d1 = standard_simplex(1)
    return map_by_vertices(d1.complex, d1, {CellId(0, v): w for v, w in vmap.items()})


@pytest.mark.parametrize("triangle", ["upper", "lower"])
def test_the_lift_self_check_rejects_a_map_that_does_not_fill_the_square(triangle, monkeypatch):
    # vertex 0 of Delta^1 against the point (the upper triangle fails when
    # the edge goes to vertex 1) or against the identity of Delta^1 (the
    # lower one fails when the edge goes to vertex 0)
    i = generator_inclusion(standard_simplex(0), standard_simplex(1))
    if triangle == "upper":
        P, bad = extension_problem(i, i), _vertex_map({0: 1, 1: 1})
    else:
        ident = identity_map(i.target)
        P, bad = LiftingProblem(i, ident, i, ident), _vertex_map({0: 0, 1: 0})
    assert solve_lift(P).status == FOUND
    monkeypatch.setattr(lifting, "enumerate_maps", lambda *args: iter([bad]))
    with pytest.raises(AssertionError, match="^solver produced an invalid lift$"):
        solve_lift(P)


def test_budget_exhaustion_is_a_distinct_outcome():
    p = terminal_map(standard_simplex(2).complex, PT)
    v = has_rlp(p, family_keys("inner", 3), 3, Budget(5))
    assert v.status == BUDGET
    assert str(v) == "Budget"


def test_noncommuting_square_is_rejected():
    i = horn_inclusion(2, 1)
    with pytest.raises(ValueError):
        solve_lift(LiftingProblem(i, identity_map(i.target), i, identity_map(i.target).__class__(
            i.target, i.target, {c: Simplex(CellId(c.dim, 0)) for c in i.target.all_cells()}
        )))


@pytest.mark.parametrize("message", list(ill_posed_squares()))
def test_an_ill_posed_square_is_rejected_with_its_reason(message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_lift(ill_posed_squares()[message])


def test_generating_families_have_the_right_shapes():
    assert [key_inclusion(k).target.dim for k in family_keys("inner", 3)] == [2, 3, 3]
    assert len(list(family_keys("kan", 2))) == 2 + 3
    assert len(list(family_keys("trivial_kan", 2))) == 3
    with pytest.raises(ValueError):
        family_keys("outer", 2)


def test_identity_has_every_lifting_property():
    rep = classify_map(identity_map(standard_simplex(2).complex), 3)
    assert all(v.status == YES for v in rep.classes.values())
    assert rep.mono and rep.vertex_bijective


@pytest.mark.parametrize("limit", [1000, Budget(1000)], ids=["int", "Budget"])
def test_classify_map_spends_one_budget_across_its_classes(limit):
    # the five classes take 571, 370, 375, 0 and 345 nodes (each horn is
    # checked once per call): the first two fit in 1,000, and the third
    # one runs the shared budget out
    rep = classify_map(identity_map(standard_simplex(2).complex), 3, limit)
    assert [v.status for v in rep.classes.values()] == [YES, YES, BUDGET, BUDGET, BUDGET]


def _classify_per_class(p, bound):
    """The classification with nothing shared: each class runs has_rlp over
    its whole generating family on a fresh budget.  Returns the verdicts
    and the nodes spent in total."""
    verdicts, used = {}, 0
    for name in FIBRATION_CLASSES:
        budget = Budget(DEFAULT_NODE_BUDGET)
        verdicts[name] = has_rlp(p, family_keys(name, bound), bound, budget)
        used += budget.used
    return verdicts, used


def _monotone_map(seed):
    """A random generator complex mapped to Delta^1 or Delta^2 by a
    monotone vertex assignment."""
    rng = random.Random(seed)
    G = random_generator_complex(rng)
    top = rng.choice([1, 2])
    cuts = sorted(rng.sample(range(1, 4), top))
    vmap = {c: sum(x <= t[0] for x in cuts) for t, c in G.lookup.items() if len(t) == 1}
    return map_by_vertices(G.complex, standard_simplex(top), vmap)


def _projection(seed):
    rng = random.Random(seed)
    X = random_generator_complex(rng).complex
    P = product(X, standard_simplex(rng.choice([0, 1])).complex)
    return P.proj1 if rng.random() < 0.5 else P.proj2


@pytest.mark.parametrize(
    "make, seeds, max_dim",
    [(_monotone_map, range(30), None), (_projection, range(12), 2)],
    ids=["monotone", "projection"],
)
def test_shared_verdicts_match_the_per_class_checks(make, seeds, max_dim):
    for seed in seeds:
        p = make(seed)
        budget = Budget(DEFAULT_NODE_BUDGET)
        rep = classify_map(p, max_dim, budget)
        want, used = _classify_per_class(p, rep.checked_dim)
        assert budget.used <= used
        for name in FIBRATION_CLASSES:
            got, ref = rep.classes[name], want[name]
            assert got.status == ref.status, (seed, name)
            if ref.status == NO:
                w, r = got.witness, ref.witness
                assert (w.i, w.u.images, w.v.images) == (r.i, r.u.images, r.v.images)


def test_each_generator_is_checked_once_per_call():
    p = identity_map(standard_simplex(2).complex)

    def used(classes):
        budget = Budget(DEFAULT_NODE_BUDGET)
        classify_map(p, 3, budget, classes)
        return budget.used

    assert used(FIBRATION_CLASSES) == 1661  # 4,119 with a check per class
    assert used(("left", "right", "kan")) == used(("left", "right"))
    assert _classify_per_class(p, 3)[1] == 4119


def test_family_keys_name_the_generating_family():
    assert list(family_keys("inner", 3)) == [(2, 1), (3, 1), (3, 2)]
    assert list(family_keys("trivial_kan", 1)) == [(0, None), (1, None)]
    right = [generator_inclusion(horn_complex(n, i), standard_simplex(n))
             for n, i in family_keys("right", 2)]
    assert [key_inclusion(k) for k in family_keys("right", 2)] == right
    assert [key_inclusion(k) for k in family_keys("trivial_kan", 2)] == [
        generator_inclusion(boundary_complex(n), standard_simplex(n)) for n in range(3)
    ]


def test_each_key_names_one_inclusion_per_process():
    for key in [(2, 1), (3, 0), (0, None), (2, None)]:
        assert key_inclusion(key) is key_inclusion(key)
    assert horn_inclusion(3, 2) is key_inclusion((3, 2))
    assert boundary_inclusion(1) is key_inclusion((1, None))


def test_a_second_classification_builds_no_generator(monkeypatch):
    p = identity_map(standard_simplex(2).complex)
    classify_map(p, 3)
    builds = []
    build = generators.from_vertex_tuples
    monkeypatch.setattr(generators, "from_vertex_tuples", lambda ts: builds.append(ts) or build(ts))
    classify_map(p, 3)
    assert builds == []


def test_keys_above_the_bound_are_skipped_unbuilt(monkeypatch):
    p = terminal_map(standard_simplex(1).complex, PT)
    want_budget = Budget(DEFAULT_NODE_BUDGET)
    want = has_rlp(p, family_keys("inner", 3), 3, want_budget)
    looked_up = []
    table = lifting.key_inclusion
    monkeypatch.setattr(lifting, "key_inclusion", lambda k: looked_up.append(k) or table(k))
    budget = Budget(DEFAULT_NODE_BUDGET)
    got = has_rlp(p, family_keys("inner", 4), 3, budget)
    assert (str(got), got.bound, budget.used) == (str(want), 3, want_budget.used)
    assert looked_up == [(2, 1), (3, 1), (3, 2)]


def test_family_keys_are_yielded_lazily():
    # bound 10**6 would name about 5 * 10**11 inner horns
    assert next(family_keys("inner", 10**6)) == (2, 1)
    assert next(family_keys("trivial_kan", 10**6)) == (0, None)


def test_the_filler_d0_face_is_the_last_horn_cell_below_the_top():
    """`from_vertex_tuples` numbers the (n-1)-cells of an inner horn by
    their vertex tuples, so the face on vertices 1..n comes last."""
    for n, i in family_keys("inner", 7):
        inc = key_inclusion((n, i))
        d0 = inc.target.face(Simplex(CellId(n, 0)), 0)
        assert [c for c, s in inc.images.items() if s == d0] == [CellId(n - 1, n - 1)]


def test_each_map_is_scanned_for_mono_once(monkeypatch):
    """Every square of has_rlp still checks its generator, and classify_map
    checks p, but each map's cells are scanned at its first check only."""
    calls, scans = [], []
    is_mono, scan = SimplicialMap.is_mono, SimplicialMap._scan_mono
    monkeypatch.setattr(SimplicialMap, "is_mono", lambda f: calls.append(f) or is_mono(f))
    monkeypatch.setattr(SimplicialMap, "_scan_mono", lambda f: scans.append(f) or scan(f))
    p = identity_map(standard_simplex(2).complex)
    classify_map(p, 3)
    assert scans[0] is p
    assert len({id(f) for f in scans}) == len(scans) <= 14  # p and 13 generators
    del calls[:], scans[:]
    classify_map(p, 3)
    assert (len(calls), scans) == (137, [])  # p and one per square, none scanned


def test_interval_over_point_is_inner_but_not_kan():
    p = terminal_map(standard_simplex(1).complex, PT)
    rep = classify_map(p)
    assert rep.classes["inner"].status == YES
    assert rep.classes["kan"].status == NO
    assert rep.classes["trivial_kan"].status == NO


def test_rlp_refutation_witness_replays_to_none():
    p = terminal_map(standard_simplex(1).complex, PT)
    v = has_rlp(p, family_keys("kan", 2), 2)
    assert v.status == NO
    assert str(v) == "No(witness)"
    assert solve_lift(v.witness).status == NONE


def test_product_projection_is_an_inner_fibration():
    d1 = standard_simplex(1).complex
    P = product(d1, d1)
    rep = classify_map(P.proj1, 2, classes=("inner",))
    assert rep.classes["inner"].status == YES


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_generator_inclusions_are_monos(seed):
    rng = random.Random(seed)
    G = random_generator_complex(rng)
    sub_tuples = {t for t in G.lookup if rng.random() < 0.6} | {
        t for t in G.lookup if len(t) == 1
    }
    from sskit.core import from_vertex_tuples

    i = generator_inclusion(from_vertex_tuples(sub_tuples), G)
    assert i.check() == []
    assert i.is_mono()
