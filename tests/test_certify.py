"""Anodyne certificates: replay, search, classification, consistency."""

import dataclasses
import json
import random

import pytest

from sskit import cli
from sskit.core import (
    BUDGET,
    NO,
    YES,
    Budget,
    BudgetExceeded,
    ComplexBuilder,
    Simplex,
    from_vertex_tuples,
    identity_map,
    standard_simplex,
    sub_complex,
)
from sskit.certify import (
    AnodyneCertificate,
    _legal_step,
    _step_table,
    _unmatched_cell,
    check_two_out_of_three,
    classify_inclusion,
    search_certificate,
    verify_certificate,
)
from sskit.fileformat import name_table, serialize_complex, serialize_map
from sskit.factorize import prefibrantize, saturate_prefibrant
from sskit.lifting import (
    HORN_RANGES,
    generator_inclusion,
    key_inclusion,
    spine_inclusion,
)
from sskit.core import horn_complex, spine_complex

from conftest import random_mono_pair


def test_single_step_certificate_for_the_open_triangle():
    i = key_inclusion((2, 1))
    top = standard_simplex(2).lookup[(0, 1, 2)]
    cert = AnodyneCertificate("inner", [(2, 1, top)])
    assert verify_certificate(cert, i)
    # replaying against the wrong inclusion fails on content, not shape
    assert not verify_certificate(cert, identity_map(i.target))


def test_malformed_steps_raise_and_bad_family_raises():
    i = key_inclusion((2, 1))
    top = standard_simplex(2).lookup[(0, 1, 2)]
    with pytest.raises(ValueError):
        verify_certificate(AnodyneCertificate("outer", [(2, 1, top)]), i)
    with pytest.raises(ValueError):
        verify_certificate(AnodyneCertificate("inner", [(0, 0, top)]), i)
    with pytest.raises(ValueError):
        verify_certificate(AnodyneCertificate("inner", [(2, 1, "x")]), i)


def test_out_of_range_horn_index_is_a_content_failure():
    i = key_inclusion((2, 1))
    top = standard_simplex(2).lookup[(0, 1, 2)]
    assert not verify_certificate(AnodyneCertificate("inner", [(2, 0, top)]), i)
    assert verify_certificate(AnodyneCertificate("left", [(2, 0, top)]), i) is False
    # index 0 is fine for the left class when the free face matches
    i0 = key_inclusion((2, 0))
    assert verify_certificate(AnodyneCertificate("left", [(2, 0, top)]), i0)


def _unmatched(r):
    """The cell that the matching check of a NO left unmatched, if any."""
    return r.witness if r.value == NO else None


def test_search_finds_spine_certificates():
    for n, steps in ((2, 1), (3, 4)):
        r = search_certificate(spine_inclusion(n))
        assert r.value == YES
        assert len(r.witness.steps) == steps
        assert verify_certificate(r.witness, spine_inclusion(n))


def test_identity_has_the_empty_certificate():
    r = search_certificate(identity_map(standard_simplex(2).complex))
    assert r.value == YES
    assert r.witness.steps == []


def test_parity_shortcut_refutes_odd_cell_deficits():
    # the boundary inclusion adds a single cell: no sequence of
    # two-cell steps can account for it
    r = search_certificate(key_inclusion((2, None)), "kan")
    assert r.value == NO


def test_search_respects_the_node_budget():
    r = search_certificate(spine_inclusion(4), node_budget=Budget(3))
    assert r.value == BUDGET


def test_inner_certificates_verify_under_every_wider_class():
    r = search_certificate(spine_inclusion(3))
    for family in ("left", "right", "kan"):
        cert = dataclasses.replace(r.witness, family=family)
        assert verify_certificate(cert, spine_inclusion(3))


def test_stage_inclusions_carry_replayable_certificates():
    # each attachment of a pre-fibrantization stage is a horn pushout;
    # the horn index is recovered as the face of the filler whose base
    # is the other attached cell
    tr = prefibrantize(spine_complex(2).complex, stages=2)
    for inc, atts in zip(tr.inclusions, tr.attachments):
        steps = []
        T = inc.target
        for att in atts:
            n = att.inclusion.target.dim
            top = next(c for c in att.new_cells if c.dim == n)
            freed = next(c for c in att.new_cells if c.dim == n - 1)
            hi = next(
                j
                for j in range(n + 1)
                if T.face(Simplex(top), j) == Simplex(freed)
            )
            steps.append((n, hi, top))
        assert verify_certificate(AnodyneCertificate("inner", steps), inc)


def test_saturation_steps_verify_as_a_certificate():
    res = saturate_prefibrant(standard_simplex(2).complex, 3)
    assert verify_certificate(res.certificate(), res.inclusion)


def test_classifier_confirms_an_inner_horn():
    v = classify_inclusion(key_inclusion((3, 2)))
    assert v.verdict.value == YES
    assert verify_certificate(v.verdict.witness, key_inclusion((3, 2)))


def test_classifier_refutes_the_interval_boundary():
    # vertex-bijective, so the refutation has to come from the
    # homotopy-category invariants
    v = classify_inclusion(key_inclusion((1, None)))
    assert v.verdict.value == NO
    assert v.reason == "equivalence-refuted"


def test_classifier_refutes_on_vertex_count():
    i = generator_inclusion(standard_simplex(0), standard_simplex(1))
    v = classify_inclusion(i)
    assert v.verdict.value == NO
    assert v.reason == "not-vertex-bijective"


def test_two_out_of_three_on_a_factored_horn():
    u = generator_inclusion(spine_complex(3), horn_complex(3, 1))
    v = generator_inclusion(horn_complex(3, 1), standard_simplex(3))
    rep = check_two_out_of_three(u, v)
    assert rep.pattern == (YES,) * 3
    assert not rep.alarm


def test_two_out_of_three_rejects_non_composable_pairs():
    with pytest.raises(ValueError):
        check_two_out_of_three(key_inclusion((2, 1)), key_inclusion((2, 1)))


def test_random_mono_pairs_never_alarm():
    rng = random.Random(7)
    checked = 0
    while checked < 15:
        pair = random_mono_pair(rng)
        if pair is None:
            continue
        rep = check_two_out_of_three(*pair)
        assert not rep.alarm
        for report, inc in zip((rep.u, rep.v), pair):
            if report.verdict.value == YES:
                assert verify_certificate(report.verdict.witness, inc)
        checked += 1


# -- the matching check at the root, and the search behind it ---------------------


def reference_search(i, family, budget):
    """The certificate search before its step table and matching check:
    every node runs `_legal_step` on every missing cell and horn index.
    Returns (status, steps)."""
    B = i.target
    allc = frozenset(B.all_cells())
    start = frozenset(i.images[a].base for a in i.source.all_cells())
    if (len(allc) - len(start)) % 2:
        return NO, None
    dead = set()

    def moves(present):
        for top in sorted(allc - present):
            if top.dim < 1:
                continue
            for hi in HORN_RANGES[family](top.dim):
                r = _legal_step(B, set(present), family, (top.dim, hi, top))
                if not isinstance(r, str):
                    yield (top.dim, hi, top), r

    def dfs(present, path):
        budget.spend()
        if present == allc:
            return list(path)
        if present in dead:
            return None
        for step, created in moves(present):
            r = dfs(present | frozenset(created), path + [step])
            if r is not None:
                return r
        dead.add(present)
        return None

    try:
        found = dfs(start, [])
    except BudgetExceeded:
        return BUDGET, None
    return (NO, None) if found is None else (YES, found)


def spine_into_simplex(n, rng, blocked):
    """The spine of Delta^n included into Delta^n; for n = 3 some cells
    above the spine may be missing, and a blocked target has one more
    edge, from vertex 0 to a new vertex n + 1."""
    keep = [t for t in standard_simplex(n).lookup if len(t) == 1 or n > 3 or rng.random() < 0.85]
    extra = [(v, v + 1) for v in range(n)] + ([(0, n + 1)] if blocked else [])
    G = from_vertex_tuples(keep + extra)
    return generator_inclusion(spine_complex(n), G), G


def loops_and_two_triangles():
    """One vertex v, three loops a, b, c and the triangles U = (a, b, c)
    and L = (c, b, a), with faces listed d0, d1, d2; included from {v, a}.
    Returns the inclusion and the two triangles."""
    cx = ComplexBuilder()
    v = cx.add_cell(0, label="v")
    a, b, c = (cx.add_cell(1, (Simplex(v), Simplex(v)), lab) for lab in "abc")
    U = cx.add_cell(2, (Simplex(a), Simplex(b), Simplex(c)), "U")
    L = cx.add_cell(2, (Simplex(c), Simplex(b), Simplex(a)), "L")
    return sub_complex(cx.build(), [v, a])[1], U, L


def test_a_matching_without_an_order_is_left_to_the_search():
    # Kan: b-U and c-L match, but U frees b only once c is present and
    # L frees c only once b is, so no order starts
    i, U, L = loops_and_two_triangles()
    budget = Budget(100)
    r = search_certificate(i, "kan", budget)
    assert r.value == NO and _unmatched(r) is None
    assert budget.used > 0
    assert reference_search(i, "kan", Budget(100)) == (NO, None)


def test_two_fillers_of_one_face_leave_a_cell_unmatched():
    # inner: both triangles can only free b, so c has no partner
    i, U, L = loops_and_two_triangles()
    budget = Budget(100)
    r = search_certificate(i, "inner", budget)
    assert r.value == NO
    assert _unmatched(r) == L
    assert budget.used == 0
    v = classify_inclusion(i)
    assert v.diagnostics[0] == "no horn matching: L"


def test_a_face_the_filler_also_needs_is_never_freed():
    # T = (a, e, e): freeing d1 = e would leave the horn without d2 = e
    b = ComplexBuilder()
    x, y = b.add_cell(0), b.add_cell(0)
    a = b.add_cell(1, (Simplex(y), Simplex(y)))
    e = b.add_cell(1, (Simplex(y), Simplex(x)))
    T = b.add_cell(2, (Simplex(a), Simplex(e), Simplex(e)), "T")
    _, i = sub_complex(b.build(), [x, y, a])
    r = search_certificate(i, "inner")
    assert r.value == NO and _unmatched(r) == T


def test_the_blocked_spine_of_delta5_names_the_new_vertex(tmp_path, capsys):
    i, G = spine_into_simplex(5, random.Random(0), blocked=True)
    budget = Budget(3000)
    r = search_certificate(i, "inner", budget)
    assert r.value == NO
    assert _unmatched(r) == G.lookup[(6,)]
    assert budget.used <= 1
    sp, amb = tmp_path / "spine.txt", tmp_path / "amb.txt"
    sp.write_text(serialize_complex(i.source))
    amb.write_text(serialize_complex(i.target))
    m = tmp_path / "inc.map"
    m.write_text(serialize_map(i, "spine.txt", "amb.txt"))
    argv = ["--format", "structured", "--node-budget", "3000", "certify", str(m), "--class", "inner"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "none"
    assert report["unmatched"] == name_table(i.target)[G.lookup[(6,)]]


def _pinned_inclusions():
    rng = random.Random(10)
    for _ in range(3):
        for n in (3, 4):
            for family in ("inner", "left", "kan"):
                for blocked in (False, True):
                    yield spine_into_simplex(n, rng, blocked)[0], family
    seen = 0
    while seen < 30:
        pair = random_mono_pair(rng)
        if pair is None:
            continue
        for inc in pair:
            yield inc, ("inner", "left", "kan")[seen % 3]
            seen += 1


def test_search_agrees_with_the_reference_search():
    budget = 400
    outcomes = set()
    for i, family in _pinned_inclusions():
        r = search_certificate(i, family, budget)
        want, steps = reference_search(i, family, Budget(budget))
        outcomes.add((r.value, _unmatched(r) is not None, want))
        if _unmatched(r) is None:
            assert r.value == want
        else:
            assert r.value == NO and want in (NO, BUDGET)
        if r.value == YES:
            assert r.witness.steps == steps
            new = frozenset(i.target.all_cells()) - {i.images[a].base for a in i.source.all_cells()}
            B = i.target
            pairs = [(top, B.face(Simplex(top), hi).base) for _, hi, top in r.witness.steps]
            assert {c for p in pairs for c in p} == new
            assert _unmatched_cell(new, pairs) is None
    # the sample reaches a certificate, a matching refutation, and a
    # reference search that runs out where the matching refutes
    assert {(YES, False, YES), (NO, True, BUDGET)} <= outcomes


# -- the search on explicit stacks --------------------------------------------------


def recursive_unmatched_cell(new, pairs):
    """`_unmatched_cell` as it was with recursive augmenting paths."""
    partners = {c: [] for c in new if c.dim % 2 == 0}
    for top, free in pairs:
        even, odd = (top, free) if top.dim % 2 == 0 else (free, top)
        partners[even].append(odd)
    mate = {}

    def augment(c, seen):
        for d in partners[c]:
            if d not in seen:
                seen.add(d)
                if d not in mate or augment(mate[d], seen):
                    mate[d] = c
                    return True
        return False

    for c in sorted(partners):
        if not augment(c, set()):
            return c
    return next((c for c in sorted(new) if c.dim % 2 and c not in mate), None)


def recursive_search(i, family, budget):
    """`search_certificate` as it was with a recursive DFS that copied the
    path at every node.  Returns (status, unmatched, steps)."""
    B = i.target
    allc = frozenset(B.all_cells())
    start = frozenset(i.images[a].base for a in i.source.all_cells())
    if (len(allc) - len(start)) % 2:
        return NO, None, None
    new = allc - start
    table = _step_table(B, new, family)
    unmatched = recursive_unmatched_cell(new, (created for _, created, _ in table))
    if unmatched is not None:
        return NO, unmatched, None
    dead = set()

    def moves(present):
        for step, (top, free), required in table:
            if top not in present and free not in present and required <= present:
                yield step, (top, free)

    def dfs(present, path):
        budget.spend()
        if present == allc:
            return list(path)
        if present in dead:
            return None
        for step, created in moves(present):
            r = dfs(present | frozenset(created), path + [step])
            if r is not None:
                return r
        dead.add(present)
        return None

    try:
        found = dfs(start, [])
    except BudgetExceeded:
        return BUDGET, None, None
    return (NO, None, None) if found is None else (YES, None, found)


def _seeded_inclusions(seed, count):
    rng = random.Random(seed)
    incs = []
    while len(incs) < count:
        pair = random_mono_pair(rng)
        if pair is not None:
            incs.extend(pair)
    for _ in range(count // 4):
        incs.append(spine_into_simplex(rng.choice([3, 4]), rng, rng.random() < 0.3)[0])
    return incs


@pytest.mark.parametrize("family", sorted(HORN_RANGES))
def test_search_agrees_with_the_recursive_search(family):
    outcomes = set()
    for i in _seeded_inclusions(12, 80):
        for limit in (3, 20000):
            budget, ref_budget = Budget(limit), Budget(limit)
            r = search_certificate(i, family, budget)
            steps = r.witness.steps if r.value == YES else None
            assert (r.value, _unmatched(r), steps) == recursive_search(i, family, ref_budget)
            assert budget.used == ref_budget.used
            outcomes.add((r.value, _unmatched(r) is not None))
    assert {(YES, False), (NO, True), (BUDGET, False)} <= outcomes


def test_spine_inclusions_past_a_thousand_steps_are_found():
    i = spine_inclusion(10)
    budget = Budget(10**6)
    r = search_certificate(i, "inner", budget)
    assert r.value == YES
    assert len(r.witness.steps) == 1013
    assert budget.used == 1014  # one descent, no backtracking
    assert verify_certificate(r.witness, i)


def test_a_long_augmenting_path_gets_an_answer():
    # edge k of the spine is numbered n - k, so every vertex first takes
    # the edge away from vertex 0, and the last vertex's augmenting path
    # runs back through all n of them
    n = 1500
    cx = ComplexBuilder()
    V = [cx.add_cell(0) for _ in range(n + 1)]
    for k in range(n, 0, -1):
        cx.add_cell(1, (Simplex(V[k]), Simplex(V[k - 1])))
    _, i = sub_complex(cx.build(), [V[0]])
    r = search_certificate(i, "kan")
    assert r.value == YES
    assert len(r.witness.steps) == n
