"""Homotopy categories as presentations, with budgeted word problems.

The category of a complex has its vertices as objects and its
nondegenerate edges as generators; every nondegenerate triangle imposes
one relation, and degenerate edges are identities structurally.  Words
are composable edge sequences in diagrammatic order.  Completion is
length-lexicographic Knuth-Bendix; Exact status is claimed only on
confluent termination with the irreducible-word enumeration exhausted
inside the word budget.

The rules live in a `RuleTable` that indexes their left sides.  Rewriting
is leftmost, with the lowest rule position among the rules matching
there, in one left-to-right pass.  Completion has two bounds and no pass
limit: more than `_MAX_RULES` rules beyond one per relation, and a left
side longer than twice the word budget, the longest word a presentation
normalises (an inverse check joins two hom words).  Hitting either makes
the presentation inexact: answers turn "unknown", never into a wrong "no".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .core import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_WORD_BUDGET,
    CellId,
    SimplicialMap,
    SimplicialSet,
    Simplex,
    SliceSpace,
    hom_left,
    sub_complex,
)
from .lifting import FOUND, NO, RlpVerdict, YES, classify_map

Word = tuple[CellId, ...]

_MAX_RULES = 300


def _key(w: Word) -> tuple:
    return (len(w), w)


class RuleTable:
    """Rewriting rules in the order they were added, left sides indexed.

    Left sides are distinct (each new one is irreducible under the rules
    before it), so `position` maps a left side to its rule; `lengths` holds
    the distinct left-side lengths in increasing order.
    """

    def __init__(self) -> None:
        self.rules: list[tuple[Word, Word]] = []
        self.position: dict[Word, int] = {}
        self.lengths: list[int] = []

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def add(self, l: Word, r: Word) -> None:
        self.position[l] = len(self.rules)
        self.rules.append((l, r))
        if len(l) not in self.lengths:
            bisect.insort(self.lengths, len(l))

    def has_suffix_rule(self, w: Word) -> bool:
        """Is some left side a suffix of w?"""
        return any(w[len(w) - n :] in self.position for n in self.lengths if n <= len(w))


def normal_form(w: Word, rules: RuleTable) -> Word:
    """Reduce a word to normal form.

    Rewrites at the leftmost position where a left side matches, with the
    lowest-positioned rule among those matching there.  Only windows of
    the indexed left-side lengths are looked up, and after a rewrite at i
    the scan resumes at i - maxlen + 1: windows ending before i did not
    change, and none of them matched.  Rewrites lower shortlex order.
    """
    position, lengths = rules.position, rules.lengths
    back = lengths[-1] - 1 if lengths else 0
    i = 0
    while i < len(w):
        hits = [
            position[u]
            for n in lengths
            if i + n <= len(w) and (u := w[i : i + n]) in position
        ]
        if not hits:
            i += 1
            continue
        l, r = rules.rules[min(hits)]
        w = w[:i] + r + w[i + len(l) :]
        i = max(0, i - back)
    return w


def _critical_pairs(r1: tuple[Word, Word], r2: tuple[Word, Word]):
    l1, o1 = r1
    l2, o2 = r2
    # overlap: proper suffix of l1 equals proper prefix of l2
    for k in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - k :] == l2[:k]:
            yield (o1 + l2[k:], l1[: len(l1) - k] + o2)
    # containment: l2 occurs strictly inside l1
    if len(l2) < len(l1):
        for i in range(len(l1) - len(l2) + 1):
            if l1[i : i + len(l2)] == l2:
                yield (o1, l1[:i] + o2 + l1[i + len(l2) :])


def complete(relations: list[tuple[Word, Word]], max_len: int) -> tuple[RuleTable, bool]:
    """Knuth-Bendix completion under the shortlex order.

    Each ordered pair of rules is examined once, when the later one comes
    up.  Returns (rules, confluent) with sound rules; it stops, confluent
    False, at more than `_MAX_RULES` rules beyond one per relation or at a
    left side longer than `max_len`.  The two bounds keep the loop finite.
    """
    rules = RuleTable()
    cap = len(relations) + _MAX_RULES

    def add(a: Word, b: Word) -> bool:
        a, b = normal_form(a, rules), normal_form(b, rules)
        if a == b:
            return True
        if _key(a) < _key(b):
            a, b = b, a
        rules.add(a, b)
        return len(rules) <= cap and len(a) <= max_len

    for a, b in relations:
        if not add(a, b):
            return rules, False
    # the loop also reaches the rules added inside it
    for i, new in enumerate(rules):
        for old in rules.rules[: i + 1]:
            # a left side overlapping another, or inside it, starts with a letter of it
            pairs = [(new, old)] if old is not new and old[0][0] in new[0] else []
            if new[0][0] in old[0]:
                pairs.append((old, new))
            for r1, r2 in pairs:
                for a, b in _critical_pairs(r1, r2):
                    if not add(a, b):
                        return rules, False
    return rules, True


@dataclass
class EquivalenceVerdict:
    value: str  # "yes" | "no" | "unknown"
    witness: Word | None = None


@dataclass
class CategoryPresentation:
    objects: list[CellId]
    edges: dict[CellId, tuple[CellId, CellId]]  # generator -> (src, tgt)
    relations: list[tuple[Word, Word]]
    rules: RuleTable
    confluent: bool
    hom: dict[tuple[CellId, CellId], list[Word]] = field(default_factory=dict)
    exact: bool = False

    def hom_set(self, x: CellId, y: CellId) -> list[Word]:
        return self.hom.get((x, y), [])

    def nf(self, w: Word) -> Word:
        return normal_form(w, self.rules)

    def inverse_of(self, w: Word, src: CellId, tgt: CellId) -> Word | None:
        """An inverse word among irreducible representatives, if any."""
        for g in self.hom_set(tgt, src):
            if self.nf(w + g) == () and self.nf(g + w) == ():
                return g
        return None

    def iso_exists(self, x: CellId, y: CellId) -> bool:
        if x == y:
            return True
        return any(
            self.inverse_of(w, x, y) is not None for w in self.hom_set(x, y)
        )

    def is_equivalence(self, e: Simplex) -> EquivalenceVerdict:
        """Is the class of an edge invertible?"""
        if e.dim != 1:
            raise ValueError("equivalence test takes an edge")
        if not e.nondegenerate:
            return EquivalenceVerdict("yes", ())
        src, tgt = self.edges[e.base]
        g = self.inverse_of((e.base,), src, tgt)
        if g is not None:
            return EquivalenceVerdict("yes", g)
        return EquivalenceVerdict("no" if self.exact else "unknown")


def _edge_endpoints(S: SimplicialSet, e: CellId) -> tuple[CellId, CellId]:
    fs = S.cell_faces(e)
    return fs[1].base, fs[0].base  # (source, target)


def _path_of(*faces: Simplex) -> Word:
    return tuple(f.base for f in faces if f.nondegenerate)


def homotopy_category(S: SimplicialSet, word_budget: int = DEFAULT_WORD_BUDGET) -> CategoryPresentation:
    objects = S.cells(0)
    edges = {e: _edge_endpoints(S, e) for e in S.cells(1)}
    relations = []
    for t in S.cells(2):
        d0, d1, d2 = S.cell_faces(t)
        relations.append((_path_of(d2, d0), _path_of(d1)))
    rules, confluent = complete(relations, 2 * word_budget)
    pres = CategoryPresentation(objects, edges, relations, rules, confluent)

    out: dict[CellId, list[CellId]] = {x: [] for x in objects}
    for e, (src, _) in edges.items():
        out[src].append(e)
    exhausted = True
    for x in objects:
        pres.hom.setdefault((x, x), []).append(())
        frontier: list[tuple[CellId, Word]] = [(x, ())]
        for _ in range(word_budget):
            nxt = []
            for at, w in frontier:
                for e in out[at]:
                    w2 = w + (e,)
                    if rules.has_suffix_rule(w2):
                        continue
                    tgt = edges[e][1]
                    pres.hom.setdefault((x, tgt), []).append(w2)
                    nxt.append((tgt, w2))
            frontier = nxt
            if not frontier:
                break
        if frontier:
            exhausted = False
    pres.exact = confluent and exhausted
    return pres


# -- pi0 -----------------------------------------------------------------------


def pi0(space) -> list[frozenset[CellId]]:
    """Vertex set modulo the edge relation (1-truncation only)."""
    X: SimplicialSet = getattr(space, "space", space)
    parent = {v: v for v in X.cells(0)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in X.cells(1):
        a, b = _edge_endpoints(X, e)
        parent[find(a)] = find(b)
    classes: dict[CellId, set[CellId]] = {}
    for v in X.cells(0):
        classes.setdefault(find(v), set()).add(v)
    return [frozenset(c) for c in classes.values()]


# -- isofibrations and categorical fibrations ----------------------------------


@dataclass
class IsofibrationReport:
    verdict: str  # "yes" | "no" | "unknown"
    witness: tuple[CellId, CellId] | None = None  # (base edge, stranded vertex)


def check_isofibration(
    p: SimplicialMap, word_budget: int = DEFAULT_WORD_BUDGET
) -> IsofibrationReport:
    """Every equivalence edge of the base lifts, with prescribed source,
    to an equivalence edge of the total complex."""
    X, S = p.source, p.target
    hx, hs = homotopy_category(X, word_budget), homotopy_category(S, word_budget)
    unknown = False
    for f in S.cells(1):
        vf = hs.is_equivalence(Simplex(f))
        if vf.value == "no":
            continue
        f_src = _edge_endpoints(S, f)[0]
        for x in X.cells(0):
            if p.images[x].base != f_src:
                continue
            lifted = False
            lift_unknown = False
            for u in X.cells(1):
                if p.images[u] != Simplex(f):
                    continue
                if _edge_endpoints(X, u)[0] != x:
                    continue
                vu = hx.is_equivalence(Simplex(u))
                if vu.value == "yes":
                    lifted = True
                    break
                if vu.value == "unknown":
                    lift_unknown = True
            if lifted:
                continue
            if vf.value == "yes" and not lift_unknown:
                return IsofibrationReport("no", (f, x))
            unknown = True
    return IsofibrationReport("unknown" if unknown else "yes")


@dataclass
class CategoricalFibrationReport:
    inner: RlpVerdict
    isofibration: IsofibrationReport
    verdict: str  # "yes" (bounded) | "no" | "unknown"
    bound: int


def check_categorical_fibration(
    p: SimplicialMap,
    max_dim: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> CategoricalFibrationReport:
    rep = classify_map(p, max_dim, node_budget, classes=("inner",))
    inner = rep.classes["inner"]
    iso = check_isofibration(p, word_budget)
    if inner.status == NO or iso.verdict == "no":
        verdict = "no"
    elif inner.status == YES and iso.verdict == "yes":
        verdict = "yes"
    else:
        verdict = "unknown"
    return CategoricalFibrationReport(inner, iso, verdict, rep.checked_dim)


# -- Dwyer-Kan conditions -------------------------------------------------------


@dataclass
class DwyerKanReport:
    essentially_surjective: str
    fully_faithful: str
    failing_pair: tuple[CellId, CellId] | None = None


def collapses_to_point(X: SimplicialSet) -> bool:
    """Whether Kan horn fillings, elementary collapses read backwards,
    rebuild X from vertex 0; True certifies contractibility.  The search
    gets one node per step, so it gives up soon after its first descent
    gets stuck: a False return is inconclusive."""
    from .certify import search_certificate  # deferred: avoids module cycle
    if X.n_cells(0) == 0:
        return False
    _, v = sub_complex(X, [CellId(0, 0)])
    steps = (X.total_cells() - 1) // 2
    return search_certificate(v, "kan", steps + 1).status == FOUND


def dwyer_kan_check(
    f: SimplicialMap,
    dims: int = 1,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> DwyerKanReport:
    """Essential surjectivity on homotopy categories, and a three-valued
    fully-faithfulness check on left mapping spaces."""
    C, D = f.source, f.target
    hd = homotopy_category(D, word_budget)
    image_objs = {f.images[c].base for c in C.cells(0)}
    ess = "yes"
    for d in D.cells(0):
        if any(hd.iso_exists(a, d) for a in image_objs):
            continue
        ess = "no" if hd.exact else "unknown"
        break

    ff = "yes"
    failing = None
    for c in C.cells(0):
        for c2 in C.cells(0):
            hc = hom_left(C, c, c2, dims)
            hdm = hom_left(D, f.images[c].base, f.images[c2].base, dims)
            level_bij = all(
                _level_bijection(f, hc.levels[n], hdm.levels[n])
                for n in range(dims + 1)
            )
            if level_bij:
                continue
            if not _pi0_bijection(f, hc, hdm):
                return DwyerKanReport(ess, "no", (c, c2))
            if collapses_to_point(hc.space) and collapses_to_point(hdm.space):
                continue
            ff = "unknown"
            failing = failing or (c, c2)
    return DwyerKanReport(ess, ff, failing)


def _level_bijection(f: SimplicialMap, src_level, tgt_level) -> bool:
    images = [f.apply(u) for u in src_level]
    return len(set(images)) == len(images) and sorted(images) == sorted(tgt_level)


def _pi0_bijection(f: SimplicialMap, hc: SliceSpace, hdm: SliceSpace) -> bool:
    cls_c = pi0(hc)
    cls_d = pi0(hdm)
    rep_of = {}
    for k, cls in enumerate(cls_d):
        for v in cls:
            rep_of[v] = k
    seen = set()
    for cls in cls_c:
        v = next(iter(cls))
        u = hc.element_of(v)  # ambient edge representing this vertex
        img = f.apply(u)
        tgt_vertex = hdm.normalize(0, img).base
        k = rep_of[tgt_vertex]
        if k in seen:
            return False
        seen.add(k)
    return len(seen) == len(cls_d)
