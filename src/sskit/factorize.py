"""Stage-bounded factorizations: horn attachment stages, pre-fibrancy,
saturation, descent over the 2-horn and mapping path spaces.

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
from .core import BUDGET, NO, YES, Verdict
from .core import (
    Attachment,
    Budget,
    BudgetExceeded,
    DEFAULT_NODE_BUDGET,
    DEFAULT_WORD_BUDGET,
    CellId,
    LevelwiseSpace,
    SimplicialMap,
    SimplicialSet,
    Simplex,
    attach_all,
    compose,
    degenerate,
    enumerate_maps,
    identity_map,
    is_constant,
    map_by_vertices,
    restricted_function_complex,
    simplex_as_map,
    standard_simplex,
    word_label,
)
from .lifting import (
    Key,
    family_keys,
    generator_maps,
    key_cells,
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
    """One stage of the small object argument: list every map from the
    domain of each keyed generator into S (`generator_maps`), keep those
    the selector passes with their key, attach all of them as a single
    pushout.  All-or-nothing: a budget overrun raises before any cell is
    attached."""
    budget = Budget.of(node_budget)
    attachments = [
        Attachment(key_inclusion(key), alpha)
        for key in keys
        for alpha in generator_maps(key, S, budget)
        if selector(key, alpha)
    ]
    out, inc = attach_all(S, attachments)
    return out, inc, attachments


# -- pre-fibrancy ---------------------------------------------------------------


@dataclass
class PreFibrantReport:
    # YES, NO or BUDGET for each dimension the check entered; key 2 holds
    # the 2-horns at index 1, keys n >= 3 the constant-d_0 horns
    verdicts: dict[int, Verdict]
    witness: SimplicialMap | None = None  # the horn behind a NO
    horn: Key | None = None  # its (n, i)

    @property
    def ok(self) -> bool:
        return all(v.value == YES for v in self.verdicts.values())


def _needs_filler(key: Key, alpha: SimplicialMap, budget: Budget) -> bool:
    """Whether the inner horn alpha is one pre-fibrancy asks to fill (a
    2-horn, or a higher one whose d_0 face maps to a constant simplex) and
    has no filler.  The fillers are looked up by the horn's faces
    (`horn_fillers`); a filler found costs one node, and raises
    BudgetExceeded when the budget has none left."""
    n, h = key
    given = key_cells(key)[0]  # the faces d_j, j != h: d_0 first, as h > 0
    if n > 2 and not is_constant(alpha.images[given[0]]):
        return False
    faces = tuple([alpha.images[c] for c in given])
    if next(alpha.target.horn_fillers(n, h, faces), None) is None:
        return True
    budget.spend()
    return False


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
            report.verdicts[n] = Verdict(YES)
            for alpha in enumerate_maps(key_inclusion(key).source, S, budget=budget):
                if _needs_filler(key, alpha, budget):
                    report.verdicts[n], report.witness, report.horn = Verdict(NO), alpha, key
                    return report
    except BudgetExceeded:
        report.verdicts[n] = Verdict(BUDGET)
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
    face, as one `soa_stage` per dimension.  The n-horn is a complex of
    dimension n - 1, so its maps only meet cells of dimension <= n - 1:
    those of S and those attached below n, the part built so far.
    Verifies that every attached cell has non-constant d_0 and that the
    left mapping spaces are unchanged in levels <= up_to_dim - 2.  The
    pre-check and the attachments spend one budget.  A pre-check that
    runs out of it raises BudgetExceeded, as the attachments do: it
    refutes nothing."""
    budget = Budget.of(node_budget)
    pre = is_prefibrant(S, up_to_dim, budget)
    if Verdict(BUDGET) in pre.verdicts.values():
        raise BudgetExceeded(
            "the pre-fibrancy check ran out of budget", budget.used, budget.limit
        )
    if not pre.ok:
        n, i = pre.horn
        js = [j for j in range(n + 1) if j != i]
        faces = [pre.witness.images[c] for c in key_cells(pre.horn)[0]]
        named = ", ".join(f"d{j} = {word_label(S.names[s.base], s.word)}" for j, s in zip(js, faces))
        raise ValueError(
            "saturation requires a pre-fibrant input up to the bound: the inner "
            f"horn of dimension {n} at index {i} with faces {named} has no filler"
        )

    def keeps_p2(key: Key, alpha: SimplicialMap) -> bool:
        """Whether both cells the pushout creates satisfy (P-2): the filler
        has d_0 = img, the freed face has d_0 = d_{i-1}(img)."""
        _, i = key
        img = alpha.images[key_cells(key)[0][0]]  # the d_0 face
        return not (is_constant(img) or is_constant(alpha.target.face(img, i - 1)))

    cur = S
    attached: set[CellId] = set()
    steps: list[tuple[int, int, CellId]] = []
    higher = (k for k in family_keys("inner", up_to_dim) if k[0] >= 3)
    for n, keys in itertools.groupby(higher, lambda k: k[0]):
        cur, _, atts = soa_stage(cur, keys, keeps_p2, budget)
        for att in atts:
            face, top = att.new_cells  # the freed face d_i, then the filler
            attached.update(att.new_cells)
            steps.append((n, cur.cell_faces(top).index(Simplex(face)), top))

    T = cur
    inc = SimplicialMap(S, T, {c: Simplex(c) for c in S.all_cells()})
    p2 = [c for c in attached if c.dim >= 1 and is_constant(T.face(Simplex(c), 0))]
    levels_ok = _same_hom_levels(S, T, max(up_to_dim - 2, 0))
    return SaturationResult(T, inc, steps, p2, levels_ok, up_to_dim)


def _same_hom_levels(S: SimplicialSet, T: SimplicialSet, up_to: int) -> bool:
    """Whether levels 0..up_to of every left mapping space `hom_left(S, x,
    y, up_to)` are those of T's, for T holding S under the same cell ids
    and no other vertex.  Level k of all of them at once is the
    (k+1)-simplices with constant d_0, each in the space of its initial
    vertex and of its d_0's vertex."""

    def constant_d0(X: SimplicialSet, k: int) -> set[Simplex]:
        return {u for u in X.simplices(k + 1) if is_constant(X.face(u, 0))}

    return all(constant_d0(S, k) == constant_d0(T, k) for k in range(up_to + 1))


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
    interval = standard_simplex(1)
    rfc = restricted_function_complex(D, interval.complex, up_to, budget, word_budget)
    start, end = interval.lookup[(0,)], interval.lookup[(1,)]

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

