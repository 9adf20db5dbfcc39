"""Stage-bounded factorizations: attachment stages, pre-fibrancy,
saturation, descent, and mapping path spaces."""

import ast
import json
import pathlib
import random
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import sskit
from sskit import cli, factorize
from sskit.core import BUDGET, NO, YES, Verdict
from sskit.core import (
    Budget,
    BudgetExceeded,
    CellId,
    ComplexBuilder,
    SimplicialMap,
    Simplex,
    apply_images,
    boundary_complex,
    compose,
    cosk0_complex,
    degeneracy_words,
    enumerate_maps,
    from_vertex_tuples,
    hom_left,
    horn_complex,
    identity_map,
    is_constant,
    spine_complex,
    standard_simplex,
    sub_complex,
    terminal_map,
    validate,
)
from sskit.factorize import (
    Attachment,
    SaturationResult,
    attach_all,
    descend_over_triangle,
    is_prefibrant,
    mapping_path_space,
    prefibrantize,
    saturate_prefibrant,
    search_descent_extension,
    soa_stage,
    _CELL_CAP,
)
from sskit.fileformat import serialize_complex
from sskit.lifting import (
    classify_map,
    family_keys,
    generator_inclusion,
    generator_maps,
    key_inclusion,
    spine_inclusion,
)

from conftest import (
    build_edges_over_horn,
    build_horn_plus_vertex,
    over_horn_is_source,
    random_generator_complex,
    random_looped_complex,
)


def test_attach_all_adds_filler_and_freed_face():
    lam = horn_complex(2, 1)
    att = Attachment(key_inclusion((2, 1)), identity_map(lam.complex))
    out, inc = attach_all(lam.complex, [att])
    assert out.cell_counts() == (3, 3, 1)
    assert validate(out) == []
    assert inc.is_mono()
    assert sorted(c.dim for c in att.new_cells) == [1, 2]
    assert att.total_map.check() == []


def test_accept_all_stage_on_the_open_triangle():
    # maps from the 2-horn to itself are composable edge pairs, with
    # degenerate edges allowed: 8 in total, each attaching two cells
    lam = horn_complex(2, 1).complex
    out, inc, atts = soa_stage(lam, [(2, 1)], lambda k, a: True)
    assert len(atts) == 8
    assert out.total_cells() - lam.total_cells() == 16
    assert validate(out) == []
    assert inc.is_mono()


def test_full_simplices_are_prefibrant():
    for n in range(4):
        assert is_prefibrant(standard_simplex(n).complex, 4).ok


def test_spine_is_not_prefibrant_and_the_witness_is_the_open_horn():
    # the 2-horns at index 1 are checked whatever the bound
    for max_dim in (3, 1):
        rep = is_prefibrant(spine_complex(2).complex, max_dim)
        assert not rep.ok
        assert rep.verdicts == {2: Verdict(NO)}
        assert rep.witness is not None


def test_prefibrantize_is_idempotent_on_prefibrant_input():
    d2 = standard_simplex(2).complex
    tr = prefibrantize(d2, stages=3)
    assert tr.stages == [d2]
    assert tr.composite_inclusion() == identity_map(d2)


def test_prefibrantize_closes_the_spine_to_a_triangle():
    tr = prefibrantize(spine_complex(2).complex, stages=2)
    assert [s.cell_counts() for s in tr.stages] == [(3, 2), (3, 3, 1)]
    assert is_prefibrant(tr.result, 4).ok
    assert tr.composite_inclusion().is_mono()


def test_factorizations_record_their_bound():
    sp = spine_complex(2).complex
    assert prefibrantize(sp).bound == 3  # the default for a 1-dimensional input
    assert prefibrantize(standard_simplex(3).complex).bound == 4
    assert prefibrantize(sp, max_dim=2).bound == 2
    p = identity_map(horn_complex(2, 1).complex)
    assert descend_over_triangle(p).bound == 3
    assert descend_over_triangle(p, max_dim=0).bound == 0
    i = generator_inclusion(horn_complex(2, 1), standard_simplex(2))
    assert search_descent_extension(p, i).verdict.bound == 3  # the target's dimension plus one
    assert search_descent_extension(p, i, max_dim=1).verdict.bound == 1


def test_saturation_of_the_triangle():
    res = saturate_prefibrant(standard_simplex(2).complex, 3)
    assert res.truncation.cell_counts() == (3, 3, 15, 14)
    assert len(res.steps) == 14
    assert res.p2_violations == []
    assert res.hom_levels_equal
    assert validate(res.truncation) == []
    # every attached cell keeps a nondegenerate initial face
    T = res.truncation
    for n, hi, top in res.steps:
        from sskit.core import Simplex

        assert not is_constant(T.face(Simplex(top), 0))


def test_saturation_rejects_non_prefibrant_input():
    with pytest.raises(ValueError):
        saturate_prefibrant(spine_complex(2).complex, 3)


def test_a_starved_saturation_pre_check_is_a_budget_overrun_not_a_refutation():
    # cosk0(3, 2) is pre-fibrant, and its pre-check answers "budget" at 5 nodes
    with pytest.raises(BudgetExceeded):
        saturate_prefibrant(cosk0_complex(3, 2).complex, 3, 5)
    assert is_prefibrant(cosk0_complex(3, 2).complex, 3, 5).verdicts == {2: Verdict(BUDGET)}


def test_saturation_on_random_prefibrant_truncations():
    done = 0
    seed = 0
    while done < 2:
        seed += 1
        G = random_generator_complex(random.Random(seed))
        S = prefibrantize(G.complex, stages=2).result
        if S.total_cells() > 25 or not is_prefibrant(S, 3).ok:
            continue
        res = saturate_prefibrant(S, 3)
        assert res.p2_violations == []
        assert res.hom_levels_equal
        done += 1


def test_descent_of_the_identity_over_the_open_triangle():
    p = identity_map(horn_complex(2, 1).complex)
    res = descend_over_triangle(p, stages=2)
    assert over_horn_is_source(p, res)
    assert [s.total_cells() for s in res.stages] == [5, 7, 37]
    for q in res.base_maps:
        assert q.check() == []


def test_descent_of_disjoint_edges_is_a_fixed_point():
    p = build_edges_over_horn()
    res = descend_over_triangle(p, stages=2)
    # no horn in the total complex covers both end vertices, so nothing
    # is ever attached
    assert [s.cell_counts() for s in res.stages] == [(4, 2)] * 3


def test_descent_with_an_extra_fiber_vertex():
    p = build_horn_plus_vertex()
    res = descend_over_triangle(p, stages=2)
    assert over_horn_is_source(p, res)
    assert res.stages[1].cell_counts() == (4, 3, 1)


def test_mapping_path_space_factorization():
    pt = standard_simplex(0).complex
    f = generator_inclusion(standard_simplex(0), standard_simplex(1))
    res = mapping_path_space(f, 1)
    assert res.space.cell_counts() == (1,)
    assert compose(res.section, res.projection) == f
    assert compose(res.section, res.to_source) == identity_map(pt)


def test_mapping_path_space_checks_its_bound_before_enumerating():
    # at 50 nodes the function complex of Delta^2 would run out of budget
    with pytest.raises(ValueError, match="^truncation bound too small for the source complex$"):
        mapping_path_space(identity_map(standard_simplex(2).complex), 1, Budget(50))


def test_descent_extension_search_finds_the_minimal_filler():
    lam = horn_complex(2, 1)
    i = generator_inclusion(lam, standard_simplex(2))
    res = search_descent_extension(identity_map(lam.complex), i)
    assert res.verdict.value == YES
    assert res.extension.cell_counts() == (3, 3, 1)
    assert res.inclusion.is_mono()
    assert res.base_map.check() == []


def test_descent_extension_search_over_the_spine():
    sp = spine_complex(2)
    i = generator_inclusion(sp, standard_simplex(2))
    res = search_descent_extension(identity_map(sp.complex), i)
    assert res.verdict.value == YES
    assert res.extension.cell_counts() == (3, 3, 1)


def test_descent_extension_search_rejects_a_non_mono_inclusion():
    # the pullback of the identity of Delta^1 over Delta^0 along the
    # collapse Delta^1 -> Delta^0 is Delta^1 x Delta^1, not Delta^1, so no
    # extension of it can be an answer
    d1, pt = standard_simplex(1).complex, standard_simplex(0).complex
    with pytest.raises(ValueError, match="mono inclusion"):
        search_descent_extension(identity_map(d1), terminal_map(d1, pt))


@pytest.mark.parametrize("target, needed", [
    # cosk0(3,2) is no nerve, so every candidate's inner check searches
    (cosk0_complex(3, 2), 743),
    # over Delta^2 the found extension is a nerve and its check is free
    (standard_simplex(2), 292),
], ids=["cosk0", "nerve"])
@pytest.mark.parametrize("limit", [50, 200, 1000, 1500])
def test_descent_search_spends_no_more_than_its_budget(limit, target, needed, monkeypatch):
    spent = []
    spend = Budget.spend

    def counting_spend(self, n=1):
        spent.append(n)
        spend(self, n)

    monkeypatch.setattr(Budget, "spend", counting_spend)
    sp = spine_complex(2)
    i = generator_inclusion(sp, target)
    res = search_descent_extension(identity_map(sp.complex), i, node_budget=limit)
    assert sum(spent) <= limit + 1
    # the unbounded search finds its extension after the needed nodes
    assert res.verdict.value == (YES if limit >= needed else BUDGET)


# The node counts below pin the faces-first search order; the results were
# recorded before the pre-fibrancy code shared one inner-horn table.
PIN_COMPLEXES = {
    "simplex2": lambda: standard_simplex(2).complex,
    "spine2": lambda: spine_complex(2).complex,
    "simplex3": lambda: standard_simplex(3).complex,
    "cosk0_3_2": lambda: cosk0_complex(3, 2).complex,
    "simplex3_1skeleton": lambda: from_vertex_tuples(combinations(range(4), 2)).complex,
}


def _images(f):
    return repr([f.images[c] for c in sorted(f.images)])


@pytest.mark.parametrize(
    "name, used, lambda21, constant, witness",
    [
        ("simplex2", 2164, Verdict(YES), {3: Verdict(YES), 4: Verdict(YES)}, None),
        ("spine2", 21, Verdict(NO), {}, "[<0.0>, <0.1>, <0.2>, <1.0>, <1.1>]"),
        ("simplex3", 5468, Verdict(YES), {3: Verdict(YES), 4: Verdict(YES)}, None),
        ("cosk0_3_2", 9834, Verdict(YES), {3: Verdict(YES), 4: Verdict(YES)}, None),
        ("simplex3_1skeleton", 27, Verdict(NO), {}, "[<0.0>, <0.1>, <0.2>, <1.0>, <1.3>]"),
    ],
)
def test_is_prefibrant_results_and_node_counts_are_pinned(
    name, used, lambda21, constant, witness
):
    budget = Budget(10**6)
    rep = is_prefibrant(PIN_COMPLEXES[name](), 4, budget)
    assert budget.used == used
    assert rep.verdicts == {2: lambda21, **constant}
    if witness is None:
        assert rep.witness is None
    else:
        assert _images(rep.witness) == witness


@pytest.mark.parametrize(
    "name, used, counts, attached",
    [
        ("simplex2", 123, [(3, 3, 1)], []),
        ("spine2", 205, [(3, 2), (3, 3, 1)], [1]),
        ("simplex3", 265, [(4, 6, 4, 1)], []),
        ("cosk0_3_2", 459, [(3, 6, 12)], []),
        ("simplex3_1skeleton", 588, [(4, 6), (4, 10, 4), (4, 12, 6)], [4, 2]),
    ],
)
def test_prefibrantize_results_and_node_counts_are_pinned(name, used, counts, attached):
    budget = Budget(10**6)
    tr = prefibrantize(PIN_COMPLEXES[name](), 2, 3, budget)
    assert budget.used == used
    assert [s.cell_counts() for s in tr.stages] == counts
    assert [len(a) for a in tr.attachments] == attached
    assert all(validate(s) == [] for s in tr.stages)
    assert all(a.total_map.check() == [] for atts in tr.attachments for a in atts)


def test_saturation_result_and_node_count_are_pinned():
    budget = Budget(10**6)
    res = saturate_prefibrant(cosk0_complex(3, 2).complex, 3, budget)
    assert budget.used == 1728
    assert res.truncation.cell_counts() == (3, 6, 120, 108)
    assert len(res.steps) == 108
    assert res.p2_violations == []
    assert res.hom_levels_equal


def test_saturation_spends_one_budget_across_its_pre_check_and_attachments():
    # the pre-check and the attachments take 1,728 nodes together, so the
    # saturation of cosk0(3, 2) at 3,000 nodes answers; one node fewer runs
    # out in the attachments, which a budget per phase would not
    S = cosk0_complex(3, 2).complex
    assert saturate_prefibrant(S, 3, 1728).truncation.cell_counts() == (3, 6, 120, 108)
    assert is_prefibrant(S, 3, 1727).ok
    with pytest.raises(BudgetExceeded):
        saturate_prefibrant(S, 3, 1727)


def listed_saturation(S, up_to_dim, budget):
    """Saturation as its own list-and-attach loop, the reference for the
    `soa_stage` one: per dimension n, the horns are listed into the
    sub-complex of the cells of S of dimension <= n and of those attached
    of dimension <= n - 1, pushed into the stage by one `compose` each, and
    attached at once; the mapping spaces are compared pair by pair."""
    pre = is_prefibrant(S, up_to_dim, budget)
    if Verdict(BUDGET) in pre.verdicts.values():
        raise BudgetExceeded("pre-check", budget.used, budget.limit)
    if not pre.ok:
        raise ValueError("not pre-fibrant")
    cur, s_cells, attached, steps = S, set(S.all_cells()), set(), []
    for n in range(3, up_to_dim + 1):
        allowed = [
            c
            for c in cur.all_cells()
            if (c in s_cells and c.dim <= n) or (c in attached and c.dim <= n - 1)
        ]
        part, part_inc = sub_complex(cur, allowed)
        atts = []
        for hi in range(1, n):
            for alpha in generator_maps((n, hi), part, budget):
                img = alpha.images[CellId(n - 1, n - 1)]
                if is_constant(img) or is_constant(part.face(img, hi - 1)):
                    continue
                atts.append((hi, Attachment(key_inclusion((n, hi)), compose(alpha, part_inc))))
        cur, _ = attach_all(cur, [a for _, a in atts])
        for hi, att in atts:
            attached.update(att.new_cells)
            steps.append((n, hi, next(c for c in att.new_cells if c.dim == n)))
    p2 = [c for c in attached if c.dim >= 1 and is_constant(cur.face(Simplex(c), 0))]
    lev = max(up_to_dim - 2, 0)
    return SaturationResult(
        cur, None, steps, p2, per_pair_hom_levels_equal(S, cur, lev), up_to_dim
    )


def per_pair_hom_levels_equal(S, T, lev):
    return all(
        set(hom_left(S, x, y, lev).levels[k]) == set(hom_left(T, x, y, lev).levels[k])
        for x in S.cells(0)
        for y in S.cells(0)
        for k in range(lev + 1)
    )


def saturation_outcome(saturate, S, up_to_dim, limit):
    budget = Budget(limit)
    try:
        res = saturate(S, up_to_dim, budget)
    except (BudgetExceeded, ValueError) as e:
        return type(e), budget.used
    return (
        serialize_complex(res.truncation),
        res.steps,
        res.p2_violations,
        res.hom_levels_equal,
        budget.used,
    )


def saturation_inputs():
    yield standard_simplex(2).complex, 3
    yield standard_simplex(2).complex, 4
    yield standard_simplex(3).complex, 3
    yield cosk0_complex(3, 2).complex, 3
    for seed in range(1, 9):
        G = random_generator_complex(random.Random(seed))
        yield prefibrantize(G.complex, stages=2).result, 3


@pytest.mark.parametrize("limit, kinds", [
    (500, {BudgetExceeded}),
    (3000, {BudgetExceeded, "answer"}),
    (10**6, {"answer"}),
])
def test_saturation_matches_its_list_and_attach_reference(limit, kinds):
    """The same truncation bytes, steps, P-2 list, hom-level flag and
    nodes, or the same exception at the same node count."""
    outcomes = set()
    for S, up_to_dim in saturation_inputs():
        got = saturation_outcome(saturate_prefibrant, S, up_to_dim, limit)
        assert got == saturation_outcome(listed_saturation, S, up_to_dim, limit)
        outcomes.add(got[0] if len(got) == 2 else "answer")
    assert outcomes == kinds


def test_the_hom_level_check_matches_the_per_pair_one():
    """T is one stage of inner-horn attachments on S with a random
    selector, so it holds S under the same ids and has no other vertex."""
    rng = random.Random(34)
    seen = []
    for _ in range(200):
        S = random_generator_complex(rng).complex
        share = rng.random()
        T, _, _ = soa_stage(
            S, family_keys("inner", 3), lambda key, alpha: rng.random() < share, 10**6
        )
        lev = rng.choice([0, 1])
        same = factorize._same_hom_levels(S, T, lev)
        assert same == per_pair_hom_levels_equal(S, T, lev)
        seen.append(same)
    assert True in seen and False in seen


@pytest.mark.parametrize("name, steps, violations", [("d2", 30, 28), ("cosk0", 162, 72)])
def test_saturation_reports_the_violations_of_a_stage_that_keeps_every_horn(
    name, steps, violations, monkeypatch, tmp_path, capsys
):
    X = {"d2": standard_simplex(2).complex, "cosk0": cosk0_complex(3, 2).complex}[name]
    every_horn = factorize.soa_stage

    def keep_all(S, keys, selector, budget):
        return every_horn(S, keys, lambda key, alpha: True, budget)

    monkeypatch.setattr(factorize, "soa_stage", keep_all)
    expected = (steps, violations, False)
    res = saturate_prefibrant(X, 3)
    assert (len(res.steps), len(res.p2_violations), res.hom_levels_equal) == expected
    path = tmp_path / "x.txt"
    path.write_text(serialize_complex(X))
    assert cli.main(["--format", "structured", "saturate", str(path), "--up-to", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["steps"], report["p2_violations"], report["hom_levels_equal"]) == expected


def test_descent_result_and_node_count_are_pinned():
    budget = Budget(10**6)
    lam = horn_complex(2, 1).complex
    res = descend_over_triangle(identity_map(lam), 2, 3, budget)
    assert budget.used == 166
    assert [s.cell_counts() for s in res.stages] == [(3, 2), (3, 3, 1), (3, 6, 16, 12)]


@pytest.mark.parametrize("limit", range(1, 12))
def test_a_starved_prefibrancy_check_answers_budget(limit):
    rep = is_prefibrant(standard_simplex(2).complex, node_budget=limit)
    assert rep.verdicts == {2: Verdict(BUDGET)}
    assert rep.witness is None


@pytest.mark.parametrize("limit", [500, Budget(500)], ids=["int", "Budget"])
def test_prefibrantize_spends_one_budget_across_its_stages(limit):
    # the stages take 200 and 388 nodes: each fits in 500, the two
    # together take 588
    S = PIN_COMPLEXES["simplex3_1skeleton"]()
    second = prefibrantize(S, 1, 3, 500).result
    assert len(prefibrantize(second, 1, 3, 500).stages) == 2
    with pytest.raises(BudgetExceeded):
        prefibrantize(S, 2, 3, limit)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30))
def test_a_starved_stage_attaches_nothing_or_the_whole_stage(seed):
    """At a random limit, a stage accepting every horn (as `complete`) or
    only those with no filler (as `prefibrantize`, whose selector spends
    the same budget) either raises before any cell is attached or is the
    stage the unlimited budget gives."""
    rng = random.Random(seed)
    S = rng.choice([random_looped_complex, random_generator_complex])(rng)
    S = getattr(S, "complex", S)
    keys = list(family_keys("inner", 3))
    needs_filler = rng.random() < 0.5

    def stage(budget):
        choose = (partial(factorize._needs_filler, budget=budget) if needs_filler
                  else lambda k, a: True)
        attached = []

        def attach(T, atts):
            attached.append(len(atts))
            return attach_all(T, atts)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(factorize, "attach_all", attach)
            try:
                out, _, atts = soa_stage(S, keys, choose, budget)
            except BudgetExceeded:
                assert attached == []
                return None
        return serialize_complex(out), [a.map.images for a in atts], budget.used

    full = stage(Budget(10**7))
    limit = rng.randint(1, full[2] + 1)
    got = stage(Budget(limit))
    assert got == (None if limit < full[2] else full)


@pytest.mark.parametrize("limit", [122])
def test_a_starved_filler_search_attaches_nothing(limit):
    # the triangle is pre-fibrant, so no stage may attach a filler; the
    # stage takes 123 nodes, the last for the filler its last horn finds,
    # so this limit runs out inside the last filler lookup of the stage
    with pytest.raises(BudgetExceeded):
        prefibrantize(standard_simplex(2).complex, 1, 3, limit)


# -- the descent search against its recursive predecessor --------------------------


def recursive_descent_search(p, i, max_dim, budget):
    """`search_descent_extension` as it was, with a recursive `grow` that
    re-listed and re-mapped the simplices below for every candidate image
    and built the table of images outside A for every dimension up front."""
    A, B = i.source, i.target
    X = p.source
    bound = B.dim + 1 if max_dim is None else max_dim
    a_cells = {i.images[a].base for a in A.all_cells()}
    q = {c: i.apply(p.images[c]) for c in X.all_cells()}
    new = [[] for _ in range(bound + 1)]
    outside = {
        d: sorted(
            (s for s in B.simplices(d) if s.base not in a_cells),
            key=lambda s: (len(s.word), s),
        )
        for d in range(bound + 1)
    }

    def new_cell(d, idx):
        return CellId(d, X.n_cells(d) + idx)

    def try_build():
        builder = ComplexBuilder()
        for c in X.all_cells():
            builder.add_cell(c.dim, X.cell_faces(c) if c.dim > 0 else ())
        for d, cells in enumerate(new):
            for _, fs in cells:
                builder.add_cell(d, fs)
        Y = builder.build()
        if validate(Y):
            return None
        qm = SimplicialMap(Y, B, q)
        rep = classify_map(qm, bound, budget, classes=("inner",))
        status = rep.classes["inner"].value
        if status == BUDGET:
            raise BudgetExceeded("budget")
        return (Y, qm) if status == YES else None

    def simplices_so_far(d):
        out = list(X.simplices(d))
        for k in range(min(d, bound) + 1):
            for idx in range(len(new[k])):
                c = new_cell(k, idx)
                out.extend(Simplex(c, w) for w in degeneracy_words(k, d))
        return out

    def face_choices(d, img):
        below = simplices_so_far(d - 1)
        opts_per_face = []
        for j in range(d + 1):
            want = B.face(img, j)
            opts = [s for s in below if apply_images(q, s) == want]
            if not opts:
                return []
            opts_per_face.append(opts)
        return list(product(*opts_per_face))

    def grow(d):
        budget.spend()
        if d > bound:
            return try_build()
        found = grow(d + 1)
        if found is not None or len(new[d]) >= _CELL_CAP:
            return found
        last = new[d][-1] if new[d] else None
        for img in outside[d]:
            for fs in face_choices(d, img) if d > 0 else [()]:
                cand = (img, fs)
                if last is not None and cand < last:
                    continue
                c = new_cell(d, len(new[d]))
                new[d].append(cand)
                q[c] = img
                found = grow(d)
                if found is not None:
                    return found
                new[d].pop()
                del q[c]
        return None

    try:
        found = grow(0)
    except BudgetExceeded:
        return BUDGET, None, None
    if found is None:
        return NO, None, None
    Y, qm = found
    return YES, serialize_complex(Y), _images(qm)


def _descent_inclusions():
    incs = [key_inclusion((n, k)) for n in range(1, 4) for k in range(n + 1)]
    incs += [key_inclusion((n, None)) for n in range(4)]
    incs += [spine_inclusion(2), spine_inclusion(3)]
    for n in (1, 2):
        D = standard_simplex(n).complex
        incs += [sub_complex(D, [v])[1] for v in D.cells(0)]
    return incs


def _descent_inputs(seed):
    """(p, i) per inclusion: the identity over its domain, and one seeded
    map into the domain from a vertex or an edge."""
    rng = random.Random(seed)
    sources = [standard_simplex(0).complex, standard_simplex(1).complex]
    out = []
    for i in _descent_inclusions():
        A = i.source
        out.append((identity_map(A), i))
        maps = list(enumerate_maps(rng.choice(sources), A))
        if maps:
            out.append((rng.choice(maps), i))
    return out


@pytest.mark.parametrize(
    "max_dim, statuses", [(None, {YES, BUDGET}), (1, {YES}), (2, {YES, NO, BUDGET})]
)
def test_descent_search_agrees_with_the_recursive_search(max_dim, statuses):
    # with max_dim 1 no inner horn is checked, so the first candidate is found
    seen = set()
    for p, i in _descent_inputs(15):
        for limit in (50, 400, 1393, 1394, 5000, 40000):
            budget, ref_budget = Budget(limit), Budget(limit)
            res = search_descent_extension(p, i, max_dim, budget)
            assert res.cell_cap == _CELL_CAP == 2
            got = (res.verdict.value, None, None)
            if res.verdict.value == YES:
                got = (YES, serialize_complex(res.extension), _images(res.base_map))
            assert got == recursive_descent_search(p, i, max_dim, ref_budget)
            assert budget.used == ref_budget.used
            seen.add(res.verdict.value)
    assert seen == statuses


def test_a_descent_search_past_a_thousand_dimensions_answers_budget():
    # the boundary of Delta^2 is no nerve, so the inner checks search
    i = sub_complex(boundary_complex(2).complex, [CellId(0, 0)])[1]
    res = search_descent_extension(identity_map(i.source), i, 1100, 3000)
    assert (res.verdict.value, res.verdict.bound) == (BUDGET, 1100)


def test_a_descent_over_nerves_past_a_thousand_dimensions_is_found():
    """Every candidate over Delta^1 is a nerve, so none of the 1100-bound
    inner checks builds a horn."""
    i = sub_complex(standard_simplex(1).complex, [CellId(0, 0)])[1]
    res = search_descent_extension(identity_map(i.source), i, 1100, 3000)
    assert (res.verdict.value, res.verdict.bound) == (YES, 1100)
    assert validate(res.extension) == []
    assert res.inclusion.check() == res.base_map.check() == []


def recursive_spenders(package):
    """(module, function) for every function under the package, nested ones
    included, that spends budget nodes and calls itself."""
    out = []
    for path in sorted(package.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [n.func for n in ast.walk(fn) if isinstance(n, ast.Call)]
            spends = any(isinstance(f, ast.Attribute) and f.attr == "spend" for f in calls)
            if spends and any(
                (isinstance(f, ast.Name) and f.id == fn.name)
                or (isinstance(f, ast.Attribute) and f.attr == fn.name and getattr(f.value, "id", None) == "self")
                for f in calls
            ):
                out.append((path.relative_to(package).as_posix(), fn.name))
    return out


def test_no_search_that_spends_budget_recurses():
    """Every budgeted search keeps its path on an explicit stack, so none
    has a depth limit."""
    assert recursive_spenders(pathlib.Path(sskit.__file__).parent) == []


# -- the filler lookup against the filler search --------------------------------


def reference_needs_filler(key, alpha, budget):
    """`_needs_filler` as a search: the first map Delta^n -> S extending
    the horn alpha, found by `enumerate_maps`."""
    n = key[0]
    if n > 2 and not is_constant(alpha.images[CellId(n - 1, n - 1)]):
        return False
    inc = key_inclusion(key)
    fixed = {inc.images[a].base: alpha.images[a] for a in inc.source.all_cells()}
    fillers = enumerate_maps(inc.target, alpha.target, fixed, budget=budget)
    return next(fillers, None) is None


def _prefibrancy(rep):
    return rep.verdicts, rep.witness and _images(rep.witness)


@pytest.mark.parametrize("seed", range(6))
def test_the_filler_lookup_answers_as_the_filler_search(seed, monkeypatch):
    rng = random.Random(seed)
    needed = set()
    for _ in range(10):
        S = random_looped_complex(rng)
        for key in family_keys("inner", 3):
            for alpha in enumerate_maps(key_inclusion(key).source, S):
                budget, ref_budget = Budget(10**6), Budget(10**6)
                got = factorize._needs_filler(key, alpha, budget)
                assert got == reference_needs_filler(key, alpha, ref_budget)
                assert budget.used <= ref_budget.used
                needed.add(got)
        full = is_prefibrant(S, 3)
        # at a starved budget only a BUDGET answer may become definite
        for limit in (10**6, rng.randint(1, 60)):
            budget, ref_budget = Budget(limit), Budget(limit)
            got = is_prefibrant(S, 3, budget)
            with monkeypatch.context() as m:
                m.setattr(factorize, "_needs_filler", reference_needs_filler)
                ref = is_prefibrant(S, 3, ref_budget)
            assert budget.used <= ref_budget.used
            if Verdict(BUDGET) not in ref.verdicts.values():
                assert _prefibrancy(got) == _prefibrancy(ref)
            if Verdict(BUDGET) not in got.verdicts.values():
                assert _prefibrancy(got) == _prefibrancy(full)
    assert needed == {True, False}
