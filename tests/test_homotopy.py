"""Homotopy categories, equivalence edges, and fibration checks on them."""

import functools
import hashlib
import itertools
import random

import pytest

from hypothesis import example, given, settings, strategies as st

from sskit.core import NO, UNKNOWN, Verdict
from sskit.core import (
    CellId,
    ComplexBuilder,
    Simplex,
    SimplicialMap,
    cosk0_complex,
    identity_map,
    product,
    spine_complex,
    standard_simplex,
    sub_complex,
)
from sskit import homotopy
from sskit.homotopy import (
    check_categorical_fibration,
    check_isofibration,
    collapses_to_point,
    dwyer_kan_check,
    homotopy_category,
    pi0,
)

from conftest import build_loop_over_iso, parallel_edges_map, random_generator_complex


def test_triangle_presentation_is_exact_with_one_composite():
    d2 = standard_simplex(2).complex
    h = homotopy_category(d2)
    assert h.exact and h.confluent
    # the long edge is identified with the composite of the two short ones
    assert len(h.hom_set(CellId(0, 0), CellId(0, 2))) == 1
    assert h.hom_set(CellId(0, 2), CellId(0, 0)) == []


def test_identity_words_are_empty():
    d1 = standard_simplex(1).complex
    h = homotopy_category(d1)
    for v in d1.cells(0):
        assert h.hom_set(v, v) == [()]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30))
def test_triangle_relations_hold_under_normal_form(seed):
    X = random_generator_complex(random.Random(seed)).complex
    h = homotopy_category(X)
    for lhs, rhs in h.relations:
        assert h.nf(lhs) == h.nf(rhs)


def leftmost_normal_form(w, rules):
    """Reference rewriting: apply the first rule (in rule order) that
    matches at the leftmost position where any rule matches, then scan
    again from position 0."""
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 10000:
            raise RuntimeError("rewrite did not terminate")
        for i in range(len(w) + 1):
            for l, r in rules:
                if w[i : i + len(l)] == l and len(l) > 0:
                    w = w[:i] + r + w[i + len(l) :]
                    changed = True
                    break
            if changed:
                break
    return w


def random_triangle_subset(n, k, rng):
    """All vertices and edges of cosk0(n, 2) and k of its triangles."""
    X = cosk0_complex(n, 2).complex
    return sub_complex(X, X.cells(0) + X.cells(1) + sorted(rng.sample(X.cells(2), k)))[0]


def random_word(h, rng, max_len):
    """A composable edge word of length at most max_len from a random object."""
    at = rng.choice(h.objects)
    w = ()
    for _ in range(rng.randint(0, max_len)):
        out = [e for e, (src, _) in h.edges.items() if src == at]
        if not out:
            break
        e = rng.choice(out)
        w += (e,)
        at = h.edges[e][1]
    return w


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**30))
def test_normal_forms_and_hom_sets_match_leftmost_rewriting(n, seed):
    rng = random.Random(seed)
    X = random_triangle_subset(n, rng.randint(0, n * (n - 1) ** 2), rng)
    h = homotopy_category(X, 4)
    rules = list(h.rules)
    for _ in range(60):
        w = random_word(h, rng, 8)
        assert h.nf(w) == leftmost_normal_form(w, rules)
    # the hom-sets are exactly the irreducible words within the budget
    words = 0
    for x in h.objects:
        frontier = [()]
        for _ in range(4):
            frontier = [
                w + (e,)
                for w in frontier
                for e, (src, _) in h.edges.items()
                if src == (h.edges[w[-1]][1] if w else x)
                and leftmost_normal_form(w + (e,), rules) == w + (e,)
            ]
            words += len(frontier)
    assert sum(len(ws) for ws in h.hom.values()) == words + len(h.objects)
    for ws in h.hom.values():
        for w in ws:
            assert h.nf(w) == w == leftmost_normal_form(w, rules)


def reference_hom_words(h, word_budget):
    """The hom-word search from before the suffix test was inlined: a word
    is dropped when any left side of the completed rules is a suffix of it.
    Returns (hom, exact)."""
    lefts = {l for l, _ in h.rules}
    lengths = sorted({len(l) for l in lefts})
    out = {x: [] for x in h.objects}
    for e, (src, _) in h.edges.items():
        out[src].append(e)
    hom = {}
    exhausted = True
    for x in h.objects:
        hom.setdefault((x, x), []).append(())
        frontier = [(x, ())]
        for _ in range(word_budget):
            nxt = []
            for at, w in frontier:
                for e in out[at]:
                    w2 = w + (e,)
                    if any(w2[len(w2) - n :] in lefts for n in lengths if n <= len(w2)):
                        continue
                    tgt = h.edges[e][1]
                    hom.setdefault((x, tgt), []).append(w2)
                    nxt.append((tgt, w2))
            frontier = nxt
            if not frontier:
                break
        if frontier:
            exhausted = False
    return hom, h.confluent and exhausted


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.integers(1, 4), st.integers(0, 2**30))
def test_hom_words_are_listed_as_by_the_any_suffix_search(n, word_budget, seed):
    # inverse_of returns the first inverse in this order as the witness of
    # an is_equivalence YES, so the order of each hom list is pinned too
    rng = random.Random(seed)
    X = random_triangle_subset(n, rng.randint(0, n * (n - 1) ** 2), rng)
    h = homotopy_category(X, word_budget)
    hom, exact = reference_hom_words(h, word_budget)
    assert list(h.hom.items()) == list(hom.items())
    assert h.exact == exact


@functools.lru_cache(maxsize=None)
def triangle_subset_categories(n, word_budget, max_rules=homotopy._MAX_RULES):
    """(rules, confluent, exact, hom-set sizes) of the homotopy categories of
    seeds 0-199 of the scheme above, completed under a rule cap of max_rules."""
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homotopy, "_MAX_RULES", max_rules)
        for seed in range(200):
            rng = random.Random(seed)
            X = random_triangle_subset(n, rng.randint(0, n * (n - 1) ** 2), rng)
            h = homotopy_category(X, word_budget)
            sizes = tuple(len(h.hom_set(x, y)) for x in h.objects for y in h.objects)
            rows.append((list(h.rules), h.confluent, h.exact, sizes))
    return rows


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# (n, confluent, exact, digest) over seeds 0-199 of the scheme above at word
# budget 4; the digest covers every (confluent, exact, hom-set sizes) triple
TRIANGLE_SUBSET_CATEGORIES = [
    (3, 200, 122, "4c96c81fd8c0b78a"),
    (4, 200, 133, "d3c2e0817fbab745"),
    (5, 200, 138, "7577241fe5df8ec6"),
    (6, 200, 148, "f32e28eefa8c1635"),
]


@pytest.mark.parametrize(
    "n, confluent, exact, digest",
    TRIANGLE_SUBSET_CATEGORIES,
    ids=[f"n{c[0]}" for c in TRIANGLE_SUBSET_CATEGORIES],
)
def test_random_triangle_subsets_keep_their_hom_set_sizes(n, confluent, exact, digest):
    rows = [row[1:] for row in triangle_subset_categories(n, 4)]
    assert sum(r[0] for r in rows) == confluent
    assert sum(r[1] for r in rows) == exact
    assert _digest(rows) == digest


# (n, word budget, rule cap, rules, confluent, digest) over the same seeds; the
# digest covers every (rule list in order, confluent) pair.  Word budget 1
# stops 29 completions at a 3-letter left side and cap 8 stops 149 at the
# cap; every row mixes 2- and 3-letter left sides in some completion
TRIANGLE_SUBSET_RULES = [
    (3, 4, 300, 1549, 200, "4084ceed1c9c22ff"),
    (4, 4, 300, 5438, 200, "c741185ece0bb2b1"),
    (5, 4, 300, 13003, 200, "9995a5d2e722f69c"),
    (6, 4, 300, 25889, 200, "e600839bb6fbfa3d"),
    (4, 1, 300, 5291, 171, "0314e126ebd615e7"),
    (5, 4, 8, 9611, 51, "78961ec5a8754187"),
]


@pytest.mark.parametrize(
    "n, word_budget, max_rules, rules, confluent, digest",
    TRIANGLE_SUBSET_RULES,
    ids=[f"n{c[0]}-budget{c[1]}-cap{c[2]}" for c in TRIANGLE_SUBSET_RULES],
)
def test_random_triangle_subsets_keep_their_rule_lists(n, word_budget, max_rules, rules, confluent, digest):
    rows = [row[:2] for row in triangle_subset_categories(n, word_budget, max_rules)]
    assert sum(len(r[0]) for r in rows) == rules
    assert sum(r[1] for r in rows) == confluent
    assert _digest(rows) == digest


def reference_critical_pairs(r1, r2):
    l1, o1 = r1
    l2, o2 = r2
    for k in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - k :] == l2[:k]:
            yield (o1 + l2[k:], l1[: len(l1) - k] + o2)
    if len(l2) < len(l1):
        for i in range(len(l1) - len(l2) + 1):
            if l1[i : i + len(l2)] == l2:
                yield (o1, l1[:i] + o2 + l1[i + len(l2) :])


def reference_complete(relations, max_len, max_rules):
    """The completion loop from before the letter indexes: every rule
    against itself and every earlier rule, in rule order, with leftmost
    rewriting for normal forms."""
    rules = []
    cap = len(relations) + max_rules

    def add(a, b):
        a, b = leftmost_normal_form(a, rules), leftmost_normal_form(b, rules)
        if a == b:
            return True
        if (len(a), a) < (len(b), b):
            a, b = b, a
        rules.append((a, b))
        return len(rules) <= cap and len(a) <= max_len

    for a, b in relations:
        if not add(a, b):
            return rules, False
    for i, new in enumerate(rules):
        for old in rules[: i + 1]:
            pairs = [(new, old)] if old is not new and old[0][0] in new[0] else []
            if new[0][0] in old[0]:
                pairs.append((old, new))
            for r1, r2 in pairs:
                for a, b in reference_critical_pairs(r1, r2):
                    if not add(a, b):
                        return rules, False
    return rules, True


def _table(*lefts):
    rules = homotopy.RuleTable()
    for l in lefts:
        rules.add(l, ())
    return rules


def test_the_partner_indexes_draw_every_pair_with_a_critical_pair():
    """Over every pair of left sides up to length 4 over three letters, the
    indexes draw (l1, l2), as (i, j) with l1 the newer rule and as (j, i)
    with l2 the newer one, exactly when l2[0] occurs in l1 after its first
    letter or l2 is shorter and starts as l1 does.  A pair they never draw
    has no critical pair, and every pair that has one is drawn."""
    letters = [CellId(1, k) for k in range(3)]
    words = [w for n in range(1, 5) for w in itertools.product(letters, repeat=n)]
    skipped = 0
    for l1 in words:
        for l2 in words:
            if l1 == l2:
                as_new = as_old = 0 in homotopy._partners(_table(l1), 0)[1]
            else:
                as_new = 0 in homotopy._partners(_table(l2, l1), 1)[0]
                as_old = 0 in homotopy._partners(_table(l1, l2), 1)[1]
            may = l2[0] in l1[1:] or (len(l2) < len(l1) and l2[0] == l1[0])
            assert as_new == as_old == may, (l1, l2)
            if not as_new:
                skipped += 1
                assert list(reference_critical_pairs((l1, ()), (l2, ()))) == [], (l1, l2)
    assert skipped > len(words) ** 2 // 4


@st.composite
def relation_lists(draw, max_letters=6, max_relations=8):
    letters = [CellId(1, k) for k in range(draw(st.integers(2, 4)))]
    words = st.lists(st.sampled_from(letters), max_size=max_letters).map(tuple)
    return draw(st.lists(st.tuples(words, words), min_size=1, max_size=max_relations))


_A, _B = CellId(1, 0), CellId(1, 1)


@settings(max_examples=200, deadline=None)
@given(relation_lists(), st.integers(2, 8), st.integers(0, 40))
# a self-overlap (j = i), a containment, a stop at the rule cap and a stop at
# the length bound
@example([((_A, _B, _A), (_B,))], 8, 40)
@example([((_A, _B, _A, _B, _B), (_A,)), ((_B, _A), (_B,))], 8, 40)
@example([((_A, _B, _A), (_B,))], 8, 0)
@example([((_B, _A, _B), (_A, _B, _A))], 6, 40)
def test_completion_gives_the_rules_of_the_unindexed_pair_loop(relations, max_len, max_rules):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homotopy, "_MAX_RULES", max_rules)
        rules, confluent = homotopy.complete(relations, max_len)
    assert (list(rules), confluent) == reference_complete(relations, max_len, max_rules)


@settings(max_examples=150, deadline=None)
@given(
    relation_lists(max_letters=4, max_relations=4),
    st.integers(0, 12),
    st.lists(st.lists(st.sampled_from([CellId(1, k) for k in range(4)]), max_size=8).map(tuple),
             min_size=1, max_size=12),
)
def test_normal_forms_match_leftmost_rewriting_mid_completion(relations, max_rules, words):
    # a small rule cap stops completion part of the way, a large one lets it end
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homotopy, "_MAX_RULES", max_rules)
        rules, _ = homotopy.complete(relations, 8)
    for w in words:
        assert homotopy.normal_form(w, rules) == leftmost_normal_form(w, list(rules)), w
    # a rule added after a word was normalised rewrites it the next time
    for w in words:
        v = homotopy.normal_form(w, rules)
        if v:
            rules.add(v, ())
            assert homotopy.normal_form(w, rules) == leftmost_normal_form(w, list(rules))
            assert homotopy.normal_form(v, rules) == ()


# the indiscrete groupoid on n objects: n (n - 1)^2 triangle relations, already
# complete; digests of the rule lists recorded before the rule table was indexed
COSK0_CATEGORIES = [
    (4, 4, 36, 16, "a7af1807564d9096"),
    (5, 4, 80, 25, "f6cff93fdf12b798"),
    (6, 4, 150, 36, "6b82564952f4f217"),
    (7, 3, 252, 49, "698e02e67d420756"),
]


@pytest.mark.parametrize(
    "n, word_budget, rules, words, digest", COSK0_CATEGORIES, ids=[f"n{c[0]}" for c in COSK0_CATEGORIES]
)
def test_indiscrete_groupoid_presentations_are_pinned(n, word_budget, rules, words, digest):
    h = homotopy_category(cosk0_complex(n, 2).complex, word_budget)
    assert h.confluent and h.exact
    assert len(h.rules) == rules
    assert sum(len(ws) for ws in h.hom.values()) == words
    text = repr([(l, r) for l, r in h.rules])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_the_rule_cap_counts_only_rules_beyond_the_relations():
    # 392 relations: a cap on all rules stopped at 301, before any critical pair
    X = cosk0_complex(8, 2).complex
    h = homotopy_category(X, 3)
    assert h.confluent and h.exact
    assert len(h.rules) == 392
    assert all(h.is_equivalence(Simplex(e)).value == "yes" for e in X.cells(1))


def _five_triangles_of_cosk0_3():
    X = cosk0_complex(3, 2).complex
    tris = [X.cell_by_label(t) for t in ("010", "012", "020", "021", "101")]
    return sub_complex(X, X.cells(0) + X.cells(1) + tris)[0]


def test_a_capped_completion_answers_unknown_where_the_full_one_says_no(monkeypatch):
    S = _five_triangles_of_cosk0_3()
    edges = [Simplex(e) for e in S.cells(1)]
    full = homotopy_category(S)
    assert len(full.relations) == 5 and len(full.rules) == 8
    assert full.confluent and full.exact
    refuted = [e for e in edges if full.is_equivalence(e).value == "no"]
    assert len(refuted) == 4

    # no rule beyond one per relation: the first critical pair hits the cap
    monkeypatch.setattr(homotopy, "_MAX_RULES", 0)
    capped = homotopy_category(S)
    assert not capped.confluent and not capped.exact
    assert [capped.is_equivalence(e).value for e in refuted] == ["unknown"] * 4
    for e in edges:
        if e not in refuted:
            assert capped.is_equivalence(e).value == full.is_equivalence(e).value


def test_a_long_rule_stops_completion_short_of_a_wrong_no():
    # four triangles of cosk0(4, 2) whose completion grows long left sides;
    # at word budget 4 it stops at the first one longer than 8 letters
    X = cosk0_complex(4, 2).complex
    tris = [X.cell_by_label(t) for t in ("031", "120", "203", "312")]
    S = sub_complex(X, X.cells(0) + X.cells(1) + tris)[0]
    h = homotopy_category(S, 4)
    assert not h.confluent and not h.exact
    assert max(len(l) for l, _ in h.rules) == 9
    assert all(h.is_equivalence(Simplex(e)).value != "no" for e in S.cells(1))


def test_the_braid_relation_stops_at_the_length_bound():
    # bab = aba has no finite complete system under shortlex
    a, b = CellId(1, 0), CellId(1, 1)
    rules, confluent = homotopy.complete([((b, a, b), (a, b, a))], 16)
    assert not confluent
    assert max(len(l) for l, _ in rules) == 17
    assert all(len(l) <= 16 for l, _ in rules.rules[:-1])


def test_mutually_inverse_edges_are_equivalences(walking_iso):
    S, x, y = walking_iso
    h = homotopy_category(S)
    assert h.exact
    assert h.iso_exists(x, y)
    f = S.cell_by_label("f")
    assert homotopy_category(S).is_equivalence(Simplex(f)).value == "yes"


def test_directed_edge_is_not_an_equivalence():
    d1 = standard_simplex(1).complex
    v = homotopy_category(d1).is_equivalence(Simplex(CellId(1, 0)))
    assert v.value == "no"


def test_degenerate_edges_are_equivalences():
    d1 = standard_simplex(1).complex
    from sskit.core import constant_simplex

    assert homotopy_category(d1).is_equivalence(constant_simplex(CellId(0, 0), 1)).value == "yes"


def test_pi0_counts_connected_components(walking_iso):
    S, _, _ = walking_iso
    assert len(pi0(S)) == 1
    two_points = standard_simplex(0).complex
    from sskit.core import ComplexBuilder

    b = ComplexBuilder()
    b.add_cell(0)
    b.add_cell(0)
    assert len(pi0(b.build())) == 2


def test_collapse_heuristic_on_a_simplex_and_a_circle():
    assert collapses_to_point(standard_simplex(3).complex)
    from sskit.core import boundary_complex

    assert not collapses_to_point(boundary_complex(2).complex)


def greedy_collapse(X):
    """The elementary-collapse loop `collapses_to_point` ran before it was
    a certificate search: remove the least free face with its coface
    until none is left."""
    if X.n_cells(0) == 0:
        return False
    present = set(X.all_cells())
    while True:
        occurrences = {}
        for c in present:
            if c.dim == 0:
                continue
            for f in X.cell_faces(c):
                occurrences.setdefault(f.base, []).append(c)
        pair = None
        for tau, cos in sorted(occurrences.items()):
            if tau not in present or len(cos) != 1:
                continue
            sigma = cos[0]
            if Simplex(tau) in X.cell_faces(sigma):
                pair = (tau, sigma)
                break
        if pair is None:
            break
        present.discard(pair[0])
        present.discard(pair[1])
    return len(present) == 1 and next(iter(present)).dim == 0


def test_collapse_agrees_with_the_greedy_collapse():
    rng = random.Random(5)
    answers = []
    for _ in range(300):
        X = random_generator_complex(rng).complex
        answers.append(collapses_to_point(X))
        assert answers[-1] == greedy_collapse(X)
    for n in range(3, 6):
        assert collapses_to_point(standard_simplex(n).complex) == greedy_collapse(standard_simplex(n).complex)
    assert 0 < sum(answers) < len(answers)


def test_a_long_spine_collapses():
    # 4,001 cells: the search descends 2,000 steps, past the recursion limit
    assert collapses_to_point(spine_complex(2000).complex)
    assert not collapses_to_point(ComplexBuilder().build())


def test_identity_is_an_isofibration(walking_iso):
    S, _, _ = walking_iso
    assert check_isofibration(identity_map(S)).value == "yes"


def test_vertex_inclusion_strands_an_equivalence(walking_iso):
    S, x, _ = walking_iso
    pt = standard_simplex(0).complex
    inc = SimplicialMap(pt, S, {CellId(0, 0): Simplex(x)})
    rep = check_isofibration(inc)
    assert rep.value == "no"
    assert rep.witness is not None
    base_edge, stranded = rep.witness
    assert stranded == CellId(0, 0)


def test_an_undecided_lift_leaves_the_isofibration_unknown():
    # u lifts 01 from a, but X's presentation is not exact, so whether u
    # is an equivalence stays unknown, and so does the isofibration
    p, _ = build_loop_over_iso()
    assert not homotopy_category(p.source, 4).exact
    assert check_isofibration(p, 4) == Verdict(UNKNOWN, 4)


def test_an_edge_from_another_vertex_lifts_nothing_at_a_stray_one():
    # u lies over 01 but starts at a, so it is no lift at c, which no edge
    # leaves: c is stranded whatever u is
    p, c = build_loop_over_iso(stray_vertex=True)
    v = check_isofibration(p, 4)
    assert v.value == NO
    assert v.witness == (CellId(1, 0), c)
    assert p.target.label(v.witness[0]) == "01"


def test_categorical_fibration_combines_both_checks(walking_iso):
    S, x, _ = walking_iso
    d1 = standard_simplex(1).complex
    P = product(d1, d1)
    assert check_categorical_fibration(identity_map(d1)).verdict.value == "yes"
    assert check_categorical_fibration(P.proj1, 2).verdict.value == "yes"
    pt = standard_simplex(0).complex
    inc = SimplicialMap(pt, S, {CellId(0, 0): Simplex(x)})
    assert check_categorical_fibration(inc).verdict.value == "no"


def test_dwyer_kan_check_accepts_identities():
    d2 = standard_simplex(2).complex
    rep = dwyer_kan_check(identity_map(d2))
    assert rep.essentially_surjective.value == "yes"
    assert rep.fully_faithful.value == "yes"


@pytest.mark.parametrize("m, n", [(1, 2), (2, 1)], ids=["missed", "merged"])
def test_dwyer_kan_check_refutes_on_components_of_mapping_spaces(m, n):
    # the hom-spaces from the first vertex to the second are discrete, one
    # point per edge; the map misses a point or merges two
    rep = dwyer_kan_check(parallel_edges_map(m, n))
    assert rep.essentially_surjective.value == "yes"
    assert rep.fully_faithful.value == "no"
    assert rep.fully_faithful.witness == (CellId(0, 0), CellId(0, 1))


def test_dwyer_kan_check_flags_a_missing_object():
    pt = standard_simplex(0).complex
    d1 = standard_simplex(1).complex
    inc = SimplicialMap(pt, d1, {CellId(0, 0): Simplex(CellId(0, 0))})
    rep = dwyer_kan_check(inc)
    assert rep.essentially_surjective.value == "no"


def parallel_edges_with_homotopies(k):
    """The inclusion of an edge e: x -> y into a complex with a second
    edge e': x -> y and k triangles (s0 y, e', e), faces listed d0, d1, d2.
    Each triangle is an edge from e to e' in the hom-space from x to y:
    one makes it an interval, two make it a circle."""
    b = ComplexBuilder()
    x, y = b.add_cell(0, label="x"), b.add_cell(0, label="y")
    e = b.add_cell(1, (Simplex(y), Simplex(x)), "e")
    e2 = b.add_cell(1, (Simplex(y), Simplex(x)), "e'")
    for _ in range(k):
        b.add_cell(2, (Simplex(y, (0,)), Simplex(e2), Simplex(e)))
    D = b.build()
    return SimplicialMap(standard_simplex(1).complex, D, {
        CellId(0, 0): Simplex(x), CellId(0, 1): Simplex(y), CellId(1, 0): Simplex(e)})


def _spy_on_collapse(monkeypatch):
    calls = []

    def spy(X):
        calls.append((X.cell_counts(), collapses_to_point(X)))
        return calls[-1][1]

    monkeypatch.setattr(homotopy, "collapses_to_point", spy)
    return calls


def test_dwyer_kan_check_accepts_hom_spaces_that_collapse(monkeypatch):
    calls = _spy_on_collapse(monkeypatch)
    rep = dwyer_kan_check(parallel_edges_with_homotopies(1))
    # a point, and an interval from e to e'
    assert calls == [((1,), True), ((2, 1), True)]
    assert rep.essentially_surjective.value == "yes"
    assert rep.fully_faithful.value == "yes"
    assert rep.fully_faithful.witness is None


def test_dwyer_kan_check_is_unknown_on_a_hom_space_circle(monkeypatch):
    calls = _spy_on_collapse(monkeypatch)
    rep = dwyer_kan_check(parallel_edges_with_homotopies(2))
    # a point, and two edges from e to e'
    assert calls == [((1,), True), ((2, 2), False)]
    assert rep.essentially_surjective.value == "yes"
    assert rep.fully_faithful.value == "unknown"
    assert rep.fully_faithful.witness == (CellId(0, 0), CellId(0, 1))
