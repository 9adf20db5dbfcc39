"""Stage-bounded factorizations: horn attachment stages, pre-fibrancy,
saturation, descent over the 2-horn, mapping path spaces, and a
brute-force descent-extension search.

Every construction here is truncation-bounded and records its bound;
attachment enumeration ranges over ALL maps from the generator domains,
degenerate images included, which is why even a point grows under a
stage of inner-horn attachments.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

from .certify import AnodyneCertificate
from .core import (
    Attachment,
    Budget,
    BudgetExceeded,
    DEFAULT_NODE_BUDGET,
    DEFAULT_WORD_BUDGET,
    CellId,
    ComplexBuilder,
    LevelwiseSpace,
    SimplicialMap,
    SimplicialSet,
    Simplex,
    apply_images,
    attach_all,
    compose,
    degeneracy_words,
    degenerate,
    enumerate_maps,
    hom_left,
    identity_map,
    is_constant,
    map_by_vertices,
    restricted_function_complex,
    simplex_as_map,
    standard_simplex,
    sub_complex,
    validate,
)
from .lifting import (
    BUDGET,
    FOUND,
    NONE,
    YES,
    Key,
    classify_map,
    family_keys,
    key_inclusion,
)

# -- small-object stages (one pushout per stage) -------------------------------


@dataclass
class SoaTrace:
    stages: list[SimplicialSet]
    inclusions: list[SimplicialMap]  # S(m) -> S(m+1)
    attachments: list[list[Attachment]]  # per stage
    bound: int  # top dimension of the horns filled

    @property
    def result(self) -> SimplicialSet:
        return self.stages[-1]

    def composite_inclusion(self) -> SimplicialMap:
        return functools.reduce(compose, self.inclusions, identity_map(self.stages[0]))


def soa_stage(
    S: SimplicialSet,
    keys: Iterable[Key],
    selector,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> tuple[SimplicialSet, SimplicialMap, list[Attachment]]:
    """One stage of the small object argument: enumerate every map from the
    domain of each keyed generator into S, keep those the selector passes
    with their key, attach all of them as a single pushout.  All-or-nothing:
    a budget overrun raises before any cell is attached."""
    budget = Budget.of(node_budget)
    attachments = [
        Attachment(key_inclusion(key), alpha)
        for key in keys
        for alpha in enumerate_maps(key_inclusion(key).source, S, budget=budget)
        if selector(key, alpha)
    ]
    out, inc = attach_all(S, attachments)
    return out, inc, attachments


# -- pre-fibrancy ---------------------------------------------------------------


@dataclass
class PreFibrantReport:
    # "yes" | "no" | "budget" for each dimension the check entered; key 2
    # holds the 2-horns at index 1, keys n >= 3 the constant-d_0 horns
    verdicts: dict[int, str]
    witness: SimplicialMap | None = None  # the horn behind a "no"

    @property
    def ok(self) -> bool:
        return all(v == "yes" for v in self.verdicts.values())


def _needs_filler(key: Key, alpha: SimplicialMap, budget: Budget) -> bool:
    """Whether the inner horn alpha is one pre-fibrancy asks to fill (a
    2-horn, or a higher one whose d_0 face, the horn's last (n-1)-cell,
    maps to a constant simplex) and has no filler.  Raises BudgetExceeded
    when the filler search runs out of budget."""
    n = key[0]
    if n > 2 and not is_constant(alpha.images[CellId(n - 1, n - 1)]):
        return False
    inc = key_inclusion(key)
    fixed = {inc.images[a].base: alpha.images[a] for a in inc.source.all_cells()}
    fillers = enumerate_maps(inc.target, alpha.target, fixed, budget=budget)
    return next(fillers, None) is None


def _default_bound(S: SimplicialSet) -> int:
    return S.dim + 1 if S.dim >= 2 else 3


def is_prefibrant(
    S: SimplicialSet,
    max_dim: int | None = None,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> PreFibrantReport:
    """Condition (i): every 2-horn at index 1 fills.  Condition (ii): every
    inner horn of dimension 3..max_dim whose d_0 face maps to a constant
    simplex fills."""
    bound = _default_bound(S) if max_dim is None else max_dim
    budget = Budget.of(node_budget)
    report = PreFibrantReport({})
    try:
        for key in family_keys("inner", max(bound, 2)):
            n = key[0]
            report.verdicts[n] = "yes"
            for alpha in enumerate_maps(key_inclusion(key).source, S, budget=budget):
                if _needs_filler(key, alpha, budget):
                    report.verdicts[n], report.witness = "no", alpha
                    return report
    except BudgetExceeded:
        report.verdicts[n] = "budget"
    return report


def prefibrantize(
    S: SimplicialSet,
    stages: int = 2,
    max_dim: int | None = None,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> SoaTrace:
    """Attach fillers for the 2-horns at index 1 and for the higher inner
    horns with constant d_0 face, for the given number of stages.

    Horns that already extend are skipped, so pre-fibrant complexes are
    fixed points and the trace stops early once a stage attaches nothing.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    bound = _default_bound(S) if max_dim is None else max_dim
    budget = Budget.of(node_budget)
    selector = functools.partial(_needs_filler, budget=budget)
    trace = SoaTrace([S], [], [], bound)
    cur = S
    for _ in range(stages):
        nxt, step_inc, atts = soa_stage(cur, family_keys("inner", bound), selector, budget)
        if not atts:
            break
        cur = nxt
        trace.stages.append(cur)
        trace.inclusions.append(step_inc)
        trace.attachments.append(atts)
    return trace


# -- saturation of a pre-fibrant complex ----------------------------------------


@dataclass
class SaturationResult:
    truncation: SimplicialSet
    inclusion: SimplicialMap
    steps: list[tuple[int, int, CellId]]  # (n, horn index, attached n-cell)
    p2_violations: list[CellId]
    hom_levels_equal: bool
    bound: int

    def certificate(self) -> AnodyneCertificate:
        return AnodyneCertificate("inner", list(self.steps))


def saturate_prefibrant(
    S: SimplicialSet,
    up_to_dim: int,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> SaturationResult:
    """Skeletal completion of a pre-fibrant complex by attaching, in each
    dimension n = 3..up_to_dim, every inner n-horn with NON-constant d_0
    face whose image lies in the already-built part.  Verifies that every
    attached cell has non-constant d_0 and that the left mapping spaces
    are unchanged in levels <= up_to_dim - 2.  It keeps its own
    enumerate-and-attach loop: horns map into the part built so far but
    attach to the whole stage, which `soa_stage` could do only through a
    target restriction that no other caller needs.  The pre-check and the
    attachments spend one budget.  A pre-check that runs out of it raises
    BudgetExceeded, as the attachments do: it refutes nothing."""
    budget = Budget.of(node_budget)
    pre = is_prefibrant(S, up_to_dim, budget)
    if "budget" in pre.verdicts.values():
        raise BudgetExceeded("the pre-fibrancy check ran out of budget")
    if not pre.ok:
        raise ValueError("saturation requires a pre-fibrant input up to the bound")

    cur = S
    s_cells = set(S.all_cells())
    attached: set[CellId] = set()
    steps: list[tuple[int, int, CellId]] = []
    higher = (k for k in family_keys("inner", up_to_dim) if k[0] >= 3)
    for n, keys in itertools.groupby(higher, lambda k: k[0]):
        allowed = [
            c
            for c in cur.all_cells()
            if (c in s_cells and c.dim <= n) or (c in attached and c.dim <= n - 1)
        ]
        part, part_inc = sub_complex(cur, allowed)
        atts = []
        for _, hi in keys:
            inc = key_inclusion((n, hi))
            for alpha in enumerate_maps(inc.source, part, budget=budget):
                img = alpha.images[CellId(n - 1, n - 1)]  # the d_0 face
                # both cells created by the pushout must satisfy (P-2):
                # the filler has d_0 = img, the freed face has
                # d_0 = d_{hi-1}(img)
                if is_constant(img) or is_constant(part.face(img, hi - 1)):
                    continue
                atts.append((hi, Attachment(inc, compose(alpha, part_inc))))
        nxt, _ = attach_all(cur, [a for _, a in atts])
        for hi, att in atts:
            attached.update(att.new_cells)
            top = next(c for c in att.new_cells if c.dim == n)
            steps.append((n, hi, top))
        cur = nxt

    T = cur
    inc = SimplicialMap(S, T, {c: Simplex(c) for c in S.all_cells()})
    p2 = [
        c
        for c in attached
        if c.dim >= 1 and is_constant(T.face(Simplex(c), 0))
    ]

    levels_ok = True
    lev = max(up_to_dim - 2, 0)
    for x in S.cells(0):
        for y in S.cells(0):
            hs = hom_left(S, x, y, lev)
            ht = hom_left(T, x, y, lev)
            if any(
                set(hs.levels[k]) != set(ht.levels[k]) for k in range(lev + 1)
            ):
                levels_ok = False
    return SaturationResult(T, inc, steps, p2, levels_ok, up_to_dim)


# -- descent over the 2-horn -----------------------------------------------------


@dataclass
class TriangleDescentResult:
    stages: list[SimplicialSet]
    inclusions: list[SimplicialMap]
    base_maps: list[SimplicialMap]  # q_m : C(m) -> Delta^2
    bound: int  # top dimension of the horns filled


def descend_over_triangle(
    p: SimplicialMap,
    stages: int = 1,
    max_dim: int = 3,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> TriangleDescentResult:
    """Modified small object argument for an inner fibration over the
    2-horn at index 1: only horns whose base simplex hits both endpoint
    vertices 0 and 2 are filled, and after every stage the part of the
    stage complex sitting over the horn must be exactly the input."""
    lam_in_d2 = key_inclusion((2, 1))
    d2 = standard_simplex(2)
    if p.target != lam_in_d2.source:
        raise ValueError("descent input must be a map to the 2-horn at index 1")
    lam_cells = {c.base for c in lam_in_d2.images.values()}

    X = p.source
    q = compose(p, lam_in_d2)
    cur = X
    res = TriangleDescentResult([X], [], [q], max_dim)
    budget = Budget.of(node_budget)

    def spans_the_ends(key: Key, alpha: SimplicialMap) -> bool:
        """Whether the base simplex of the filler, read off on vertices
        through the current stage's base map q, hits vertices 0 and 2."""
        return {0, 2} <= {
            q.apply(alpha.images[v]).base.index for v in alpha.source.cells(0)
        }

    for _ in range(stages):
        keys = family_keys("inner", max_dim)
        nxt, inc_step, _ = soa_stage(cur, keys, spans_the_ends, budget)
        # a horn of dimension >= 2 has every vertex, so the stage adds no
        # vertex, and a map into Delta^2 is fixed by its vertex images
        q = map_by_vertices(nxt, d2, {v: q.images[v].base.index for v in nxt.cells(0)})
        if q.check():
            raise AssertionError("descent stage produced a non-simplicial base map")
        cur = nxt
        res.stages.append(cur)
        res.inclusions.append(inc_step)
        res.base_maps.append(q)

        over_horn = {c for c in cur.all_cells() if q.images[c].base in lam_cells}
        if over_horn != set(X.all_cells()):
            raise AssertionError(
                "descent pullback check failed: the part over the horn "
                "is not the original complex"
            )
    return res


# -- mapping path space -----------------------------------------------------------


@dataclass
class PathSpaceResult:
    space: SimplicialSet
    section: SimplicialMap  # i : C -> Q(f)
    projection: SimplicialMap  # pi : Q(f) -> D
    to_source: SimplicialMap  # Q(f) -> C, first factor
    bound: int


def mapping_path_space(
    f: SimplicialMap,
    up_to: int,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> PathSpaceResult:
    """Level n of Q(f): pairs (c, u) of an n-simplex of the source and an
    equivalence-restricted homotopy u: Delta^1 x Delta^n -> D whose
    0-endpoint is f(c).  The section embeds via constant homotopies and
    the projection evaluates the 1-endpoint; f factors as pi o i."""
    C, D = f.source, f.target
    if C.dim > up_to:
        raise ValueError("truncation bound too small for the source complex")
    budget = Budget.of(node_budget)
    rfc = restricted_function_complex(D, standard_simplex(1).complex, up_to, budget, word_budget)
    start, end = CellId(0, 0), CellId(0, 1)

    levels = [
        [
            (c, u)
            for c in C.simplices(n)
            for u in rfc.levels[n]
            if rfc.evaluate(n, u, start) == f.apply(c)
        ]
        for n in range(up_to + 1)
    ]

    lw = LevelwiseSpace(
        levels,
        lambda n, e, i: (C.face(e[0], i), rfc.face_map(n, e[1], i)),
        lambda n, e, j: (degenerate(e[0], j), rfc.deg_map(n, e[1], j)),
    )
    Q = lw.space

    sec_imgs = {}
    for c in C.all_cells():
        P = rfc.products[c.dim]
        hom = compose(compose(P.proj2, simplex_as_map(C, Simplex(c))), f)
        sec_imgs[c] = lw.normalize(c.dim, (Simplex(c), hom))
    section = SimplicialMap(C, Q, sec_imgs)

    proj_imgs = {}
    src_imgs = {}
    for c in Q.all_cells():
        ce, u = lw.element_of(c)
        proj_imgs[c] = rfc.evaluate(c.dim, u, end)
        src_imgs[c] = ce
    projection = SimplicialMap(Q, D, proj_imgs)
    to_source = SimplicialMap(Q, C, src_imgs)
    if any(projection.apply(s) != f.images[c] for c, s in sec_imgs.items()):
        raise AssertionError("mapping path space factorization failed")
    return PathSpaceResult(Q, section, projection, to_source, up_to)


# -- brute-force descent extension ------------------------------------------------


@dataclass
class DescentSearchResult:
    status: str  # FOUND | NONE | BUDGET
    bound: int  # top dimension of the new cells
    extension: SimplicialSet | None = None
    inclusion: SimplicialMap | None = None
    base_map: SimplicialMap | None = None


_CELL_CAP = 2  # new cells tried per dimension by the descent search


def search_descent_extension(
    p: SimplicialMap,
    i: SimplicialMap,
    max_dim: int | None = None,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> DescentSearchResult:
    """Exhaustive bounded search for Y over the codomain of a mono
    inclusion i pulling back to the given complex over its domain.

    New cells sit over simplices whose base lies outside the image of i;
    at most two new cells are tried per dimension.  NONE is a bounded
    refutation (the caps are part of the verdict); BUDGET is a distinct
    outcome.  The inner-fibration check of each candidate spends the same
    budget as the search.
    """
    A, B = i.source, i.target
    X = p.source
    if p.target != A:
        raise ValueError("p must land in the domain of i")
    if not i.is_mono():
        raise ValueError("descent search requires a mono inclusion")
    bound = B.dim + 1 if max_dim is None else max_dim
    budget = Budget.of(node_budget)

    a_cells = {i.images[a].base for a in A.all_cells()}
    # the partial extension: the new cells chosen so far, as (image in B,
    # face tuple) per dimension, and the image of every cell.  q lists X's
    # cells and then the new ones in the order they were added, which is
    # (dim, index) order, so the newest cell is q's last item
    q = {c: i.apply(p.images[c]) for c in X.all_cells()}
    new: list[list[tuple[Simplex, tuple[Simplex, ...]]]] = [[] for _ in range(bound + 1)]

    @functools.cache
    def outside(d: int) -> list[Simplex]:
        """The d-simplices of B outside A, nondegenerate images first."""
        return sorted(
            (s for s in B.simplices(d) if s.base not in a_cells),
            key=lambda s: (len(s.word), s),
        )

    def try_build():
        builder = ComplexBuilder()
        for c in X.all_cells():
            builder.add_cell(c.dim, X.cell_faces(c))
        for d, cells in enumerate(new):
            for _, fs in cells:
                builder.add_cell(d, fs)
        Y = builder.build()
        if validate(Y):
            return None
        qm = SimplicialMap(Y, B, q)
        if qm.check():
            raise AssertionError("descent candidate has a non-simplicial base map")
        rep = classify_map(qm, bound, budget, classes=("inner",))
        status = rep.classes["inner"].status
        if status == BUDGET:
            raise BudgetExceeded(f"node budget {budget.limit} exceeded")
        if status != YES:
            return None
        inc = SimplicialMap(X, Y, {c: Simplex(c) for c in X.all_cells()})
        return Y, inc, qm

    def candidates(d: int):
        """The new d-cells (image, faces) that may follow those chosen at d,
        up to the cap, in nondecreasing order.  The faces are (d-1)-simplices
        of the partial extension, grouped once by their image."""
        if len(new[d]) >= _CELL_CAP:
            return
        last = new[d][-1] if new[d] else None
        below: dict[Simplex, list[Simplex]] = {}
        for c in [c for c in q if c.dim < d]:
            for s in (Simplex(c, w) for w in degeneracy_words(c.dim, d - 1)):
                below.setdefault(apply_images(q, s), []).append(s)
        for img in outside(d):
            opts = []
            for j in range(d + 1 if d else 0):
                opts.append(below.get(B.face(img, j), ()))
                if not opts[-1]:
                    break
            for fs in itertools.product(*opts):
                if last is None or (img, fs) >= last:
                    yield img, fs

    # the path: one frame [d, the untried candidates at d, or None while the
    # search is above d] per dimension climbed or new cell added
    path: list[list] = []

    def climb(d: int):
        """Enter dimensions d .. bound + 1, one node each, and try the
        partial extension as it stands."""
        for _ in range(d, bound + 2):
            budget.spend()
        path.extend([e, None] for e in range(d, bound + 1))
        return try_build()

    try:
        found = climb(0)
        while path and found is None:
            d, untried = frame = path[-1]
            if untried is None:
                frame[1] = untried = candidates(d)
            else:
                new[d].pop()
                q.popitem()
            cand = next(untried, None)
            if cand is None:
                path.pop()
            else:
                q[CellId(d, X.n_cells(d) + len(new[d]))] = cand[0]
                new[d].append(cand)
                found = climb(d)
    except BudgetExceeded:
        return DescentSearchResult(BUDGET, bound)
    if found is None:
        return DescentSearchResult(NONE, bound)
    return DescentSearchResult(FOUND, bound, *found)
