"""Homotopy categories as presentations, with budgeted word problems.

The category of a complex has its vertices as objects and its
nondegenerate edges as generators; every nondegenerate triangle imposes
one relation, and degenerate edges are identities structurally.  Words
are composable edge sequences in diagrammatic order.  Completion is
length-lexicographic Knuth-Bendix; Exact status is claimed only on
confluent termination with the irreducible-word enumeration exhausted
inside the word budget.

The rules live in a `RuleTable` that indexes their left sides, as words
and by their first letter and the letters after it.  Rewriting is
leftmost, with the lowest rule position among the rules matching there,
in one left-to-right pass; a word no longer than the shortest left side
takes at most one lookup per step.  Completion visits exactly the rule
pairs that can give a critical pair by their letters, drawn from the
letter indexes in the order of a loop over all pairs; the loop itself
finds their critical pairs and joins each as found, normalising through
the table, not the module-level `normal_form`.  It has two bounds and no
pass limit: more than `_MAX_RULES` rules beyond one per relation, and a
left side longer than twice the word budget, the longest word a
presentation normalises (an inverse check joins two hom words).  Hitting
either makes the presentation inexact: answers turn UNKNOWN, never into
a wrong NO.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .core import NO, UNKNOWN, YES, Verdict, all_of
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
from .lifting import classify_map

Word = tuple[CellId, ...]

_MAX_RULES = 300


class RuleTable:
    """Rewriting rules in the order they were added, left sides indexed.

    Left sides are distinct (each new one is irreducible under the rules
    before it), so `position` maps a left side to its rule; `lengths` holds
    the distinct left-side lengths in increasing order.  `starts[a]` and
    `after[a]` list, in increasing order, the positions of the rules whose
    left side starts with the letter a and holds it after its first letter;
    `_partners` reads the pairs completion visits from these two indexes.
    `normal_form` rewrites with the table, as the module function does;
    `homotopy_category` looks the suffixes of hom words up in `position`.
    """

    def __init__(self) -> None:
        self.rules: list[tuple[Word, Word]] = []
        self.position: dict[Word, int] = {}
        self.lengths: list[int] = []
        self.starts: dict[CellId, list[int]] = {}
        self.after: dict[CellId, list[int]] = {}

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def add(self, l: Word, r: Word) -> None:
        p = len(self.rules)
        self.position[l] = p
        self.rules.append((l, r))
        if len(l) not in self.lengths:
            bisect.insort(self.lengths, len(l))
        self.starts.setdefault(l[0], []).append(p)
        for a in set(l[1:]):
            self.after.setdefault(a, []).append(p)

    def normal_form(self, w: Word) -> Word:
        """The normal form of w; see the module function `normal_form`."""
        lengths, position = self.lengths, self.position
        if not lengths or len(w) <= lengths[0]:
            # only a left side of w's own length can match, at 0
            p = position.get(w)
            while p is not None:
                w = self.rules[p][1]
                p = position.get(w)
            return w
        back = lengths[-1] - 1
        i = 0
        while i < len(w):
            hit = None
            for n in lengths:
                if i + n > len(w):
                    break
                p = position.get(w[i : i + n])
                if p is not None and (hit is None or p < hit):
                    hit = p
            if hit is None:
                i += 1
                continue
            l, r = self.rules[hit]
            w = w[:i] + r + w[i + len(l) :]
            i = max(0, i - back)
        return w


def normal_form(w: Word, rules: RuleTable) -> Word:
    """Reduce a word to normal form.

    Rewrites at the leftmost position where a left side matches, with the
    lowest-positioned rule among those matching there.  A word shorter
    than every left side is already normal, and one of the shortest
    left-side length is one lookup (a hit goes on with its right side).
    Longer words look up only windows of the indexed left-side lengths,
    shortest first, up to the end of the word, and after a rewrite at i
    the scan resumes at i - maxlen + 1: windows ending before i did not
    change, and none of them matched.  Rewrites lower shortlex order.
    """
    return rules.normal_form(w)


def _partners(rules: RuleTable, i: int) -> tuple[set[int], set[int]]:
    """The earlier rules j that can give rule i a critical pair (i, j), and
    the rules j <= i that can give one as (j, i).  For l2 to overlap the
    end of l1 or lie inside it, l2[0] must occur in l1 after its first
    letter, or l2 must be shorter and start as l1 does."""
    table, starts = rules.rules, rules.starts
    l = table[i][0]
    front: set[int] = set()
    for a in set(l[1:]):
        js = starts.get(a, [])
        front.update(js[: bisect.bisect_left(js, i)])
    js = rules.after.get(l[0], [])
    back = set(js[: bisect.bisect_right(js, i)])
    for j in starts[l[0]]:
        if j >= i:
            break
        n = len(table[j][0])
        if n < len(l):
            front.add(j)
        elif n > len(l):
            back.add(j)
    return front, back


def complete(relations: list[tuple[Word, Word]], max_len: int) -> tuple[RuleTable, bool]:
    """Knuth-Bendix completion under the shortlex order.

    Each rule i is paired, when it comes up, with itself and each earlier
    rule j that can give it a critical pair (`_partners`, drawn from the
    indexes by first letter and by the letters after the first), visited
    in increasing order of j, (i, j) before (j, i), as a loop over all
    pairs would.  The critical pairs of (l1 -> r1, l2 -> r2), where a
    proper suffix of l1 is a proper prefix of l2 by increasing length, then
    where a shorter l2 lies inside l1 by position, are each joined by `add`
    as found.  Returns (rules, confluent) with sound rules; it stops,
    confluent False, at the first join past `_MAX_RULES` rules beyond one
    per relation or with a left side longer than `max_len`.  The two
    bounds keep the loop finite.
    """
    rules = RuleTable()
    cap = len(relations) + _MAX_RULES
    nf = rules.normal_form

    def add(a: Word, b: Word) -> bool:
        a, b = nf(a), nf(b)
        if a == b:
            return True
        if len(a) < len(b) or len(a) == len(b) and a < b:
            a, b = b, a
        rules.add(a, b)
        return len(rules) <= cap and len(a) <= max_len

    for a, b in relations:
        if not add(a, b):
            return rules, False
    # the loop also reaches the rules added inside it
    for i, new in enumerate(rules):
        front, back = _partners(rules, i)
        for j in sorted(front | back):
            old = rules.rules[j]
            for (l1, r1), (l2, r2), visit in (new, old, j in front), (old, new, j in back):
                if not visit:
                    continue
                n, m = len(l1), len(l2)
                for k in range(1, n if n < m else m):
                    if l1[n - k :] == l2[:k] and not add(r1 + l2[k:], l1[: n - k] + r2):
                        return rules, False
                if m < n:
                    for p in range(n - m + 1):
                        if l1[p : p + m] == l2 and not add(r1, l1[:p] + r2 + l1[p + m :]):
                            return rules, False
    return rules, True


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

    def is_equivalence(self, e: Simplex) -> Verdict:
        """Is the class of an edge invertible?  YES has an inverse word
        as its witness."""
        if e.dim != 1:
            raise ValueError("equivalence test takes an edge")
        if not e.nondegenerate:
            return Verdict(YES, witness=())
        src, tgt = self.edges[e.base]
        g = self.inverse_of((e.base,), src, tgt)
        if g is not None:
            return Verdict(YES, witness=g)
        return Verdict(NO if self.exact else UNKNOWN)


def _edge_endpoints(S: SimplicialSet, e: CellId) -> tuple[CellId, CellId]:
    fs = S.cell_faces(e)
    return fs[1].base, fs[0].base  # (source, target)


def _path_of(*faces: Simplex) -> Word:
    return tuple(f.base for f in faces if f.nondegenerate)


def homotopy_category(S: SimplicialSet, word_budget: int = DEFAULT_WORD_BUDGET) -> CategoryPresentation:
    """The presentation of S's homotopy category, with `hom[(x, y)]` the
    irreducible words from x to y of at most word_budget letters.  They
    are listed by length, () first; the words one letter longer extend
    those in their order by the edges out of their end in `S.cells(1)`
    order, dropping a word that ends in a left side.  `inverse_of` returns
    the first inverse in this order.  `exact`: completion ended confluent
    and no irreducible word has word_budget letters, so every morphism has
    exactly one listed word and a missing inverse is a NO."""
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
    # the words of k + 1 letters are irreducible up to their last letter
    position = rules.position
    suffixes = [[-n for n in rules.lengths if n <= k + 1] for k in range(word_budget)]
    exhausted = True
    for x in objects:
        pres.hom.setdefault((x, x), []).append(())
        frontier: list[tuple[CellId, Word]] = [(x, ())]
        for k in range(word_budget):
            nxt = []
            for at, w in frontier:
                for e in out[at]:
                    w2 = w + (e,)
                    for n in suffixes[k]:
                        if w2[n:] in position:
                            break
                    else:
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


def check_isofibration(
    p: SimplicialMap, word_budget: int = DEFAULT_WORD_BUDGET
) -> Verdict:
    """Every equivalence edge of the base lifts, with prescribed source,
    to an equivalence edge of the total complex.  Equivalences are found
    within the word budget, so YES holds up to it; NO is witnessed by a
    (base edge, stranded vertex) pair."""
    X, S = p.source, p.target
    hx, hs = homotopy_category(X, word_budget), homotopy_category(S, word_budget)
    unknown = False
    for f in S.cells(1):
        vf = hs.is_equivalence(Simplex(f))
        if vf.value == NO:
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
                if vu.value == YES:
                    lifted = True
                    break
                if vu.value == UNKNOWN:
                    lift_unknown = True
            if lifted:
                continue
            if vf.value == YES and not lift_unknown:
                return Verdict(NO, witness=(f, x))
            unknown = True
    return Verdict(UNKNOWN if unknown else YES, word_budget)


@dataclass
class CategoricalFibrationReport:
    inner: Verdict
    isofibration: Verdict

    @property
    def verdict(self) -> Verdict:
        """Both conditions at once, up to the dimension the inner one
        was checked to."""
        return all_of((self.inner, self.isofibration), self.inner.bound)


def check_categorical_fibration(
    p: SimplicialMap,
    max_dim: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> CategoricalFibrationReport:
    """Joyal's pair of conditions on p: an inner fibration, checked up to
    the dimension bound (the inner class of `classify_map`), and an
    isofibration, checked up to the word budget (`check_isofibration`).
    The pair characterizes the categorical fibrations when the target is
    a quasi-category (Joyal, "The theory of quasi-categories and its
    applications", 2008; Lurie, Higher Topos Theory, Cor. 2.4.6.5).
    Whether the target is one is not checked."""
    rep = classify_map(p, max_dim, node_budget, classes=("inner",))
    return CategoricalFibrationReport(rep.classes["inner"], check_isofibration(p, word_budget))


# -- Dwyer-Kan conditions -------------------------------------------------------


@dataclass
class DwyerKanReport:
    essentially_surjective: Verdict
    fully_faithful: Verdict  # witnessed by the first failing pair of objects

    @property
    def verdict(self) -> Verdict:
        """Both conditions at once, up to the mapping-space truncation."""
        return all_of(
            (self.essentially_surjective, self.fully_faithful), self.fully_faithful.bound
        )


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
    return search_certificate(v, "kan", steps + 1).value == YES


def dwyer_kan_check(
    f: SimplicialMap,
    dims: int = 1,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> DwyerKanReport:
    """Essential surjectivity on homotopy categories, and a three-valued
    fully-faithfulness check on left mapping spaces truncated at `dims`."""
    C, D = f.source, f.target
    hd = homotopy_category(D, word_budget)
    image_objs = {f.images[c].base for c in C.cells(0)}
    ess = Verdict(YES)
    for d in D.cells(0):
        if any(hd.iso_exists(a, d) for a in image_objs):
            continue
        ess = Verdict(NO if hd.exact else UNKNOWN)
        break

    ff = YES
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
                return DwyerKanReport(ess, Verdict(NO, dims, (c, c2)))
            if collapses_to_point(hc.space) and collapses_to_point(hdm.space):
                continue
            ff = UNKNOWN
            failing = failing or (c, c2)
    return DwyerKanReport(ess, Verdict(ff, dims, failing))


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
