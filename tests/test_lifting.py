"""Lifting problems, RLP checks, and the fibration-class report."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sskit.core import (
    DEFAULT_NODE_BUDGET,
    Budget,
    CellId,
    Simplex,
    compose,
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
    extend_along,
    family_keys,
    generating_family,
    generator_inclusion,
    has_rlp,
    horn_inclusion,
    solve_lift,
    spine_inclusion,
)

from conftest import random_generator_complex

PT = standard_simplex(0).complex


def _square_over_point(i):
    """The square pushing a mono inclusion against the terminal map of
    its own target, with u the inclusion itself."""
    p = terminal_map(i.target, PT)
    return LiftingProblem(i, p, i, terminal_map(i.target, PT))


def test_inner_horn_fills_in_its_own_simplex():
    i = horn_inclusion(2, 1)
    u = i  # fill the horn inside Delta^2 itself
    p = identity_map(i.target)
    r = solve_lift(LiftingProblem(i, p, u, p))
    assert r.status == FOUND
    assert compose(i, r.lift) == u


def test_spine_extends_through_the_full_simplex():
    r = extend_along(spine_inclusion(3), spine_inclusion(3))
    assert r.status == FOUND


def test_no_lift_when_the_target_lacks_the_filler():
    # extend the identity of the boundary over the full simplex: the
    # interior has nowhere to go
    i = boundary_inclusion(2)
    r = extend_along(identity_map(i.source), i)
    assert r.status == NONE


def test_budget_exhaustion_is_a_distinct_outcome():
    p = terminal_map(standard_simplex(2).complex, PT)
    v = has_rlp(p, generating_family("inner", 3), 3, Budget(5))
    assert v.status == BUDGET
    assert str(v) == "Budget"


def test_noncommuting_square_is_rejected():
    i = horn_inclusion(2, 1)
    with pytest.raises(ValueError):
        solve_lift(LiftingProblem(i, identity_map(i.target), i, identity_map(i.target).__class__(
            i.target, i.target, {c: Simplex(CellId(c.dim, 0)) for c in i.target.all_cells()}
        )))


def test_generating_families_have_the_right_shapes():
    assert [i.target.dim for i in generating_family("inner", 3)] == [2, 3, 3]
    assert len(generating_family("kan", 2)) == 2 + 3
    assert len(generating_family("trivial_kan", 2)) == 3
    with pytest.raises(ValueError):
        generating_family("outer", 2)


def test_identity_has_every_lifting_property():
    rep = classify_map(identity_map(standard_simplex(2).complex), 3)
    assert all(v.status == YES for v in rep.classes.values())
    assert rep.mono and rep.vertex_bijective


@pytest.mark.parametrize("limit", [1500, Budget(1500)], ids=["int", "Budget"])
def test_classify_map_spends_one_budget_across_its_classes(limit):
    # the five classes take 941, 558, 558, 0 and 533 nodes (each horn is
    # checked once per call): the first two fit in 1,500, and the third
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
        verdicts[name] = has_rlp(p, generating_family(name, bound), bound, budget)
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

    assert used(FIBRATION_CLASSES) == 2590  # 6,529 with a check per class
    assert used(("left", "right", "kan")) == used(("left", "right"))
    assert _classify_per_class(p, 3)[1] == 6529


def test_family_keys_name_the_generating_family():
    assert family_keys("inner", 3) == [(2, 1), (3, 1), (3, 2)]
    assert family_keys("trivial_kan", 1) == [(0, None), (1, None)]
    right = [horn_inclusion(n, i) for n, i in family_keys("right", 2)]
    assert generating_family("right", 2) == right
    assert generating_family("trivial_kan", 2) == [boundary_inclusion(n) for n in range(3)]


def test_interval_over_point_is_inner_but_not_kan():
    p = terminal_map(standard_simplex(1).complex, PT)
    rep = classify_map(p)
    assert rep.classes["inner"].status == YES
    assert rep.classes["kan"].status == NO
    assert rep.classes["trivial_kan"].status == NO


def test_rlp_refutation_witness_replays_to_none():
    p = terminal_map(standard_simplex(1).complex, PT)
    v = has_rlp(p, generating_family("kan", 2), 2)
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
