"""Cellular anodyne certificates: replay verification, exhaustive order
search, a classifier for vertex-bijective inclusions, and a
two-out-of-three consistency check.

A certificate is an ordered list of horn fillings located inside the
target complex; replaying a step adds exactly two cells, the filler and
its freed face.  Exhausting all step orders refutes CELLULAR membership
only (the saturated classes also contain retracts), so the classifier
treats exhaustion as evidence and refutes definitively only through
invariants preserved by categorical equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import BUDGET, NO, UNKNOWN, YES, Verdict
from .core import (
    Budget,
    BudgetExceeded,
    CellId,
    DEFAULT_NODE_BUDGET,
    DEFAULT_WORD_BUDGET,
    SimplicialMap,
    Simplex,
    compose,
)
from .homotopy import homotopy_category, pi0
from .lifting import HORN_RANGES

Step = tuple[int, int, CellId]  # (dimension, horn index, filler cell)


@dataclass
class AnodyneCertificate:
    family: str  # "inner" | "left" | "right" | "kan"
    steps: list[Step]


def _check_step_shape(step) -> Step:
    try:
        n, hi, top = step
    except (TypeError, ValueError):
        raise ValueError(f"malformed certificate step {step!r}") from None
    if not isinstance(top, CellId) or n < 1 or not 0 <= hi <= n:
        raise ValueError(f"malformed certificate step {step!r}")
    return n, hi, top


def _legal_step(B, present: set[CellId], family: str, step: Step):
    """The two cells the step creates, or a reason string if illegal.

    Shape errors raise; content mismatches (wrong cell, wrong codomain,
    face not yet present, face not free) report a reason instead.
    """
    n, hi, top = _check_step_shape(step)
    if hi not in HORN_RANGES[family](n):
        return f"horn index {hi} is outside the {family} range in dimension {n}"
    if top.dim != n or not B.has_cell(top):
        return f"the target has no {n}-cell {top}"
    if top in present:
        return f"filler {top} is already present"
    free = B.face(Simplex(top), hi)
    if free.word or free.base in present:
        return f"face {hi} of {top} is not free"
    for j in range(n + 1):
        if j != hi and B.face(Simplex(top), j).base not in present:
            return f"face {j} of {top} is missing from the horn image"
    return top, free.base


def verify_certificate(cert: AnodyneCertificate, i: SimplicialMap) -> bool:
    """Replay the steps from the image of i; True iff they reconstruct
    the whole target."""
    if cert.family not in HORN_RANGES:
        raise ValueError(f"unknown anodyne class {cert.family!r}")
    if not i.is_mono():
        return False
    B = i.target
    present = {i.images[a].base for a in i.source.all_cells()}
    for step in cert.steps:
        r = _legal_step(B, present, cert.family, step)
        if isinstance(r, str):
            return False
        present.update(r)
    return present == set(B.all_cells())


# -- exhaustive search ---------------------------------------------------------


def _step_table(B, new: frozenset[CellId], family: str):
    """Every step that some present-set could make legal, in search order.

    Entries are (step, the two cells it creates, the new cells among the
    faces it requires).  A step is dropped when its freed face is
    degenerate, is not new, or is also the base of another face of the
    filler: no present-set makes such a step legal.
    """
    table = []
    for top in sorted(new):
        if top.dim < 1:
            continue
        faces = B.cell_faces(top)
        for hi in HORN_RANGES[family](top.dim):
            free = faces[hi]
            others = {f.base for j, f in enumerate(faces) if j != hi}
            if free.word or free.base not in new or free.base in others:
                continue
            table.append(((top.dim, hi, top), (top, free.base), frozenset(others & new)))
    return table


def _unmatched_cell(new: frozenset[CellId], pairs) -> CellId | None:
    """The first new cell that Kuhn's augmenting paths cannot match along
    the (filler, freed face) pairs, or None when the pairs hold a perfect
    matching of the new cells.

    Every pair joins an even- and an odd-dimensional cell; paths start
    from the even-dimensional cells in order.  A path is a stack of frames
    (even cell, its untried partners, the odd cell taken to reach it).
    """
    partners: dict[CellId, list[CellId]] = {c: [] for c in new if c.dim % 2 == 0}
    for top, free in pairs:
        even, odd = (top, free) if top.dim % 2 == 0 else (free, top)
        partners[even].append(odd)
    mate: dict[CellId, CellId] = {}  # odd cell -> its even partner

    for root in sorted(partners):
        seen: set[CellId] = set()
        frames = [(root, iter(partners[root]), None)]
        while frames:
            c, untried, _ = frames[-1]
            d = next((d for d in untried if d not in seen), None)
            if d is None:
                frames.pop()
            elif d in mate:
                seen.add(d)
                frames.append((mate[d], iter(partners[mate[d]]), d))
            else:
                # a free odd cell: flip the matching back along the path
                mate[d] = c
                for (prev, _, _), (_, _, via) in zip(frames, frames[1:]):
                    mate[via] = prev
                break
        else:
            return root  # no augmenting path from root
    return next((c for c in sorted(new) if c.dim % 2 and c not in mate), None)


def search_certificate(
    i: SimplicialMap,
    family: str = "inner",
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Depth-first search over attachment orders, lex-least step first;
    YES has the certificate found as its witness.

    A certificate pairs each new cell with another: every filler with its
    freed face.  So before searching, the new cells must admit a perfect
    matching along the steps' (filler, freed face) pairs.  When none
    exists the answer is NO, witnessed by the cell that augmenting paths
    could not match, and no node is spent.  A matching is necessary, not
    sufficient (the certificates are its acyclic cases), so the search
    still decides.  NO is order-complete: failed present-sets are
    memoized, so it is returned only once no order of horn fillings can
    reach the target.
    """
    if family not in HORN_RANGES:
        raise ValueError(f"unknown anodyne class {family!r}")
    if not i.is_mono():
        raise ValueError("certificate search requires a mono inclusion")
    budget = Budget.of(node_budget)
    B = i.target
    allc = frozenset(B.all_cells())
    start = frozenset(i.images[a].base for a in i.source.all_cells())
    if (len(allc) - len(start)) % 2:
        return Verdict(NO)  # steps add two cells each
    new = allc - start
    table = _step_table(B, new, family)
    unmatched = _unmatched_cell(new, (created for _, created, _ in table))
    if unmatched is not None:
        return Verdict(NO, witness=unmatched)
    dead: set[frozenset[CellId]] = set()

    def moves(present: frozenset[CellId]):
        for step, (top, free), required in table:
            if top not in present and free not in present and required <= present:
                yield step, (top, free)

    # the path: each present-set with its untried moves, and the steps between
    path, steps = [(start, moves(start))], []
    try:
        budget.spend()
        while path and path[-1][0] != allc:
            present, untried = path[-1]
            move = next(untried, None)
            if move is None:
                dead.add(present)
                path.pop()
                del steps[-1:]
                continue
            budget.spend()
            child = present | frozenset(move[1])
            if child not in dead:
                path.append((child, moves(child)))
                steps.append(move[0])
    except BudgetExceeded:
        return Verdict(BUDGET)
    if not path:
        return Verdict(NO)
    cert = AnodyneCertificate(family, steps)
    if not verify_certificate(cert, i):
        raise AssertionError("search produced a non-verifying certificate")
    return Verdict(YES, witness=cert)


# -- classifier for vertex-bijective inclusions ---------------------------------


@dataclass
class ClassifierReport:
    verdict: Verdict  # YES with a certificate, NO, or UNKNOWN
    reason: str | None = None  # "not-vertex-bijective" | "equivalence-refuted"
    diagnostics: list[str] = field(default_factory=list)


def _equivalence_refutation(
    i: SimplicialMap, word_budget: int
) -> str | None:
    """A reason string when a category-level invariant rules the
    inclusion out, None otherwise.

    Both invariants are preserved by any map inducing an isomorphism of
    homotopy categories, which covers the whole saturated class and not
    just its cellular part: component counts, and hom-set cardinalities
    read off exact presentations under the vertex bijection.
    """
    A, B = i.source, i.target
    ca, cb = pi0(A), pi0(B)
    if len(ca) != len(cb):
        return f"component counts differ: {len(ca)} vs {len(cb)}"
    ha = homotopy_category(A, word_budget)
    hb = homotopy_category(B, word_budget)
    if ha.exact and hb.exact:
        for x in A.cells(0):
            for y in A.cells(0):
                na = len(ha.hom_set(x, y))
                nb = len(
                    hb.hom_set(i.images[x].base, i.images[y].base)
                )
                if na != nb:
                    return (
                        f"hom-set sizes differ at "
                        f"({A.label(x)}, {A.label(y)}): {na} vs {nb}"
                    )
    return None


def classify_inclusion(
    i: SimplicialMap,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> ClassifierReport:
    """Semi-decide whether a mono inclusion is inner anodyne.

    Pipeline: vertex bijectivity (hard refutation), cellular certificate
    search (hard confirmation), equivalence-invariant refutation; the
    remainder is Unknown with the search outcome in the diagnostics.
    """
    if not i.is_mono():
        raise ValueError("classifier takes a mono inclusion")
    if not i.is_vertex_bijective():
        return ClassifierReport(Verdict(NO), "not-vertex-bijective")
    sr = search_certificate(i, "inner", node_budget)
    if sr.value == YES:
        return ClassifierReport(sr)
    if sr.witness is not None:
        diags = [f"no horn matching: {i.target.label(sr.witness)}"]
    elif sr.value == NO:
        diags = ["exhausted-cellular-search"]
    else:
        diags = ["certificate search hit the node budget"]
    reason = _equivalence_refutation(i, word_budget)
    if reason is not None:
        return ClassifierReport(
            Verdict(NO, witness=reason), "equivalence-refuted", diags + [reason]
        )
    return ClassifierReport(Verdict(UNKNOWN), diagnostics=diags)


# -- two-out-of-three consistency -------------------------------------------------


@dataclass
class TwoOutOfThreeReport:
    u: ClassifierReport
    v: ClassifierReport
    vu: ClassifierReport
    alarm: bool

    @property
    def pattern(self) -> tuple[str, str, str]:
        return (self.u.verdict.value, self.v.verdict.value, self.vu.verdict.value)

    @property
    def verdict(self) -> Verdict:
        """NO when the alarm is raised, YES when the three are consistent
        and decided, UNKNOWN otherwise."""
        if self.alarm:
            return Verdict(NO, witness=self.pattern)
        return Verdict(UNKNOWN if UNKNOWN in self.pattern else YES)


def check_two_out_of_three(
    u: SimplicialMap,
    v: SimplicialMap,
    node_budget: int | Budget = DEFAULT_NODE_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> TwoOutOfThreeReport:
    """Classify u, v and their composite; two definite positives plus a
    definite negative is impossible, so that pattern raises the alarm."""
    if u.target != v.source:
        raise ValueError("u and v are not composable")
    if not (u.is_mono() and v.is_mono()):
        raise ValueError("both inclusions must be monos")
    budget = Budget.of(node_budget)
    verdicts = [
        classify_inclusion(f, budget, word_budget)
        for f in (u, v, compose(u, v))
    ]
    values = [r.verdict.value for r in verdicts]
    alarm = values.count(YES) == 2 and values.count(NO) == 1
    return TwoOutOfThreeReport(*verdicts, alarm)
