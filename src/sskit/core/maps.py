"""Simplicial maps and the constructions built on them.

A map is stored by its images on nondegenerate cells; the action on
degenerate simplices is forced by naturality.  Cell attachment and
pushouts, products, joins, subcomplexes, and exhaustive map enumeration
all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .budget import Budget
from .complex import ComplexBuilder, SimplicialSet, UniqueNames
from .generators import GeneratorComplex, standard_simplex, tuple_simplex
from .simplex import CellId, Simplex, constant_simplex, degenerate, degenerate_by, face_word


def apply_images(images: dict[CellId, Simplex], s: Simplex) -> Simplex:
    """Image of a (possibly degenerate) simplex under a cell-image table.

    A nondegenerate image of a cell of its own dimension takes the word
    of s as it is: applying the degeneracies of a normal-form word one by
    one gives that word back.
    """
    base, word = s
    r = images[base]
    if not word:
        return r
    if not r.word and r.base.dim == base.dim:
        return Simplex(r.base, word)
    for j in word:
        r = degenerate(r, j)
    return r


class SimplicialMap:
    """A simplicial map, given by images of nondegenerate source cells.

    A map never changes after construction, so what is read off it once,
    such as `is_mono`, holds for good.
    """

    def __init__(
        self,
        source: SimplicialSet,
        target: SimplicialSet,
        images: dict[CellId, Simplex],
    ) -> None:
        self.source = source
        self.target = target
        self.images = dict(images)
        self._mono: bool | None = None
        counts = target.cell_counts()
        for c in source.all_cells():
            img = self.images.get(c)
            if img is None:
                raise ValueError(f"no image for cell {source.label(c)}")
            (d, k), word = img
            if d + len(word) != c.dim:
                raise ValueError(
                    f"image of {source.label(c)} has dim {img.dim}, want {c.dim}"
                )
            if not (0 <= d < len(counts) and 0 <= k < counts[d]):
                raise ValueError(f"image of {source.label(c)} not in target")

    def apply(self, s: Simplex) -> Simplex:
        return apply_images(self.images, s)

    def check(self) -> list[str]:
        """Face-compatibility violations; empty means the map is simplicial.

        The faces of a source cell, and of a nondegenerate image, are their
        stored rows; only a degenerate image goes through `face`.
        """
        out = []
        source, target, images = self.source, self.target, self.images
        for c in source.all_cells():
            if c.dim == 0:
                continue
            img = images[c]
            img_faces = None if img.word else target.cell_faces(img.base)
            for i, f in enumerate(source.cell_faces(c)):
                want = apply_images(images, f)
                got = target.face(img, i) if img_faces is None else img_faces[i]
                if want != got:
                    out.append(
                        f"cell {source.label(c)}, face {i}: "
                        f"image face {got} != face image {want}"
                    )
        return out

    def is_mono(self) -> bool:
        """Injective on nondegenerate cells in every dimension; the cells
        are scanned at the first call only."""
        if self._mono is None:
            self._mono = self._scan_mono()
        return self._mono

    def _scan_mono(self) -> bool:
        for d in range(self.source.dim + 1):
            seen = set()
            for c in self.source.cells(d):
                img = self.images[c]
                if not img.nondegenerate or img in seen:
                    return False
                seen.add(img)
        return True

    def is_vertex_bijective(self) -> bool:
        imgs = {self.images[c].base for c in self.source.cells(0)}
        return (
            len(imgs) == self.source.n_cells(0)
            and len(imgs) == self.target.n_cells(0)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (
            self.source.cell_counts() == other.source.cell_counts()
            and self.target.cell_counts() == other.target.cell_counts()
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.images.items())))

    def __repr__(self) -> str:
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, X, {c: Simplex(c) for c in X.all_cells()})


def require_composable(f: SimplicialMap, g: SimplicialMap) -> None:
    """Raise ValueError unless f's target is g's source."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("maps do not compose")


def compose(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """f followed by g (diagrammatic order)."""
    require_composable(f, g)
    return SimplicialMap(
        f.source, g.target, {c: g.apply(img) for c, img in f.images.items()}
    )


def terminal_map(X: SimplicialSet, pt: SimplicialSet) -> SimplicialMap:
    """The unique map to a one-vertex complex with no other cells."""
    v = CellId(0, 0)
    return SimplicialMap(
        X, pt, {c: constant_simplex(v, c.dim) for c in X.all_cells()}
    )


# -- subcomplexes -----------------------------------------------------------


def sub_complex(
    X: SimplicialSet, keep: Iterable[CellId]
) -> tuple[SimplicialSet, SimplicialMap]:
    """Face-closed subcomplex on the given cells, with its inclusion."""
    kept = set(keep)
    if not all(X.has_cell(c) for c in kept):
        raise ValueError("cell set names a cell outside the complex")
    reindex: dict[CellId, CellId] = {}
    builder = ComplexBuilder()
    for c in X.all_cells():
        if c not in kept:
            continue
        fs = X.cell_faces(c)
        if any(f.base not in kept for f in fs):
            raise ValueError(f"cell set not face-closed at {X.label(c)}")
        reindex[c] = builder.add_cell(
            c.dim, (Simplex(reindex[f.base], f.word) for f in fs), X.label(c)
        )
    sub = builder.build()
    inc = SimplicialMap(sub, X, {new: Simplex(old) for old, new in reindex.items()})
    return sub, inc


# -- cell attachment and pushouts -------------------------------------------


@dataclass
class Attachment:
    inclusion: SimplicialMap  # generator A -> B
    map: SimplicialMap  # attaching map A -> S
    new_cells: list[CellId] = field(default_factory=list)  # cells of the result
    # the result and the images of the cells of B, set by `attach_all`
    _total: tuple[SimplicialSet, dict[CellId, Simplex]] = field(init=False, repr=False)

    @cached_property
    def total_map(self) -> SimplicialMap:
        """B -> result, built and checked when first read."""
        out, images = self._total
        return SimplicialMap(self.inclusion.target, out, images)


def attach_all(
    S: SimplicialSet, attachments: list[Attachment]
) -> tuple[SimplicialSet, SimplicialMap]:
    """Pushout of the coproduct of all attachments into S, at once.

    The cells of each generator outside the image of its inclusion become
    new cells in (dim, index) order, labelled by the generator's label,
    primed until unused among the labels of S and of the cells attached
    before it (`UniqueNames`).  Each distinct inclusion object is read
    once per call (`_attachment_plan`), so an attachment only reads the
    images of its attaching map.  The cost is linear in the cells of S
    and of the generators attached, plus the length of the primed labels.
    """
    builder = ComplexBuilder()
    add_cell = builder.add_cell
    for c in S.all_cells():
        add_cell(c.dim, S.cell_faces(c), S.labels.get(c))
    take = UniqueNames(S.labels.values()).take
    plans: dict[int, list[_PlanRow]] = {}
    totals: list[dict[CellId, Simplex]] = []

    for att in attachments:
        i = att.inclusion
        plan = plans.get(id(i))
        if plan is None:
            plan = plans[id(i)] = _attachment_plan(i)
        images, new = att.map.images, att.new_cells
        g: dict[CellId, Simplex] = {}
        for b, a, fs, lab in plan:
            if a is not None:
                g[b] = images[a]
                continue
            nc = add_cell(b.dim, [apply_images(g, s) for s in fs], take(lab))
            g[b] = Simplex(nc)
            new.append(nc)
        totals.append(g)

    out = builder.build()
    inc = SimplicialMap(S, out, {c: Simplex(c) for c in S.all_cells()})
    for att, g in zip(attachments, totals):
        att._total = (out, g)
    return out, inc


# a cell of B, the cell of A sent onto it or None, its stored faces, its label
_PlanRow = tuple[CellId, CellId | None, tuple[Simplex, ...], str]


def _attachment_plan(i: SimplicialMap) -> list[_PlanRow]:
    """The cells of B, for an inclusion i: A -> B, in (dim, index) order,
    each with the cell of A that i sends onto it (None if there is none),
    its stored faces and its label."""
    B = i.target
    hit = {i.images[a].base: a for a in i.source.all_cells()}
    return [(b, hit.get(b), B.cell_faces(b), B.label(b)) for b in B.all_cells()]


@dataclass
class Pushout:
    complex: SimplicialSet
    from_codomain: SimplicialMap  # C -> D
    from_total: SimplicialMap  # B -> D
    new_cells: list[CellId]  # cells of D attached from B minus A


def pushout(i: SimplicialMap, f: SimplicialMap) -> Pushout:
    """Pushout of B <-i- A -f-> C along a mono inclusion i."""
    if i.source != f.source:
        raise ValueError("pushout legs must share their source")
    if not i.is_mono():
        raise ValueError("pushout requires a mono inclusion")
    att = Attachment(i, f)
    D, inc_c = attach_all(f.target, [att])
    return Pushout(D, inc_c, att.total_map, att.new_cells)


# -- products ---------------------------------------------------------------


@dataclass
class Product:
    """X x Y by Eilenberg-Zilber index arithmetic.  The n-cells are the
    pairs (s_I x, s_J y) with disjoint words, in sorted order: dim p of x,
    x, I among the (n - p)-subsets of range(n), then q >= n - p, y, J
    among the (n - q)-subsets of the indices not in I.  The cells with
    the words (I, J) form a block (first, width, stride), and
    (s_I x, s_J y) is n-cell first + index(x) * width + index(y) * stride.
    Face i of every cell of a block follows one recipe, read off the face
    identities of I and J (`face_word`): the stored face of x and of y to
    take, and the block one dimension down that the pair of faces lies
    in.  The pair tables and the projections are built when first read."""

    x: SimplicialSet
    y: SimplicialSet
    complex: SimplicialSet = field(init=False)

    def __post_init__(self) -> None:
        X, Y = self.x, self.y
        nx, ny = X.cell_counts(), Y.cell_counts()
        xdims = tuple(p for p, k in enumerate(nx) if k)
        ydims = tuple(q for q, k in enumerate(ny) if k)
        xcells, xrows, xlabels = _factor_rows(X)
        ycells, yrows, ylabels = _factor_rows(Y)
        # per dimension: the block of each pair of words with the bounds
        # of its cells x and y, and the cells
        self._blocks: list[dict[tuple[tuple[int, ...], tuple[int, ...]], tuple]] = []
        self._simplices: list[list[Simplex]] = []
        builder, normal = ComplexBuilder(), self.simplex_of_pair
        add_cell, below, face = builder.add_cell, {}, [].__getitem__
        for n in range(X.dim + Y.dim + 1):
            layout = _shuffles(n, xdims, ydims)
            blocks, first = {}, 0
            for p, rows in layout:
                width = len(rows) * sum(ny[q] * len(Js) for q, Js in rows[0][1])
                for I, qs in rows:
                    for q, Js in qs:
                        for b, (J, _) in enumerate(Js):
                            blocks[I, J] = (first + b, width, len(Js), nx[p], q, ny[q])
                        first += ny[q] * len(Js)
                first += (nx[p] - 1) * width
            cells: list[CellId] = []
            vlabels: dict[tuple[int, tuple[int, ...]], list[str]] = {}  # of s_J y, per q and J
            for p, rows in layout:
                # per I and q: the cells y, and per J: the x part of the
                # face indices of each x and the y part of each y (None
                # when a factor has a degenerate stored face in this
                # dimension), the names s_J y and the face identities
                plan = []
                for I, qs in rows:
                    per_q = []
                    for q, Js in qs:
                        per_J = []
                        for J, faces in Js:
                            xo = yo = None
                            rec = _recipe(faces, below)
                            if rec is not None and xrows[p] is not None and yrows[q] is not None:
                                xo = _index_parts(xrows[p], rec[0])
                                yo = _index_parts(yrows[q], rec[1])
                            if (q, J) not in vlabels:
                                vlabels[q, J] = list(map(word_label, ylabels[q], repeat(J)))
                            per_J.append((xo, yo, vlabels[q, J], faces))
                        per_q.append((ycells[q], per_J))
                    plan.append((I, per_q))
                for i, (xc, xlab) in enumerate(zip(xcells[p], xlabels[p])):
                    for I, per_q in plan:
                        ulab = word_label(xlab, I) + "|"
                        for ys, per_J in per_q:
                            for j, yc in enumerate(ys):
                                for xo, yo, vlabs, faces in per_J:
                                    if xo is None:  # a degenerate stored face
                                        fs = [normal(*_face_pair(X, Y, xc, yc, f)) for f in faces]
                                    else:
                                        fs = map(face, map(add, xo[i], yo[j]))
                                    cells.append(add_cell(n, fs, ulab + vlabs[j]))
            self._blocks.append(blocks)
            # Simplex(c) for each cell, made without a Python-level call
            self._simplices.append(
                list(map(tuple.__new__, repeat(Simplex), zip(cells, repeat(()))))
            )
            below, face = blocks, self._simplices[-1].__getitem__
        self.complex = builder.build()

    @cached_property
    def cell_pair(self) -> dict[CellId, tuple[Simplex, Simplex]]:
        """The pair (s_I x, s_J y) of each cell, in cell order, read off the
        blocks: cell first + i * width + j * stride of the block of (I, J)
        is (s_I x_i, s_J y_j)."""
        X, Y = self.x, self.y
        out: dict[CellId, tuple[Simplex, Simplex]] = {}
        for n, (blocks, simplices) in enumerate(zip(self._blocks, self._simplices)):
            pairs: list = [None] * len(simplices)
            for (I, J), (first, width, stride, _, q, _) in blocks.items():
                vs = [Simplex(y, J) for y in Y.cells(q)]
                for x in X.cells(n - len(I)):
                    u = Simplex(x, I)
                    pairs[first : first + len(vs) * stride : stride] = [(u, v) for v in vs]
                    first += width
            out.update(zip([s.base for s in simplices], pairs))
        return out

    @cached_property
    def pair_cell(self) -> dict[tuple[Simplex, Simplex], CellId]:
        return {pair: c for c, pair in self.cell_pair.items()}

    @cached_property
    def proj1(self) -> SimplicialMap:
        return SimplicialMap(self.complex, self.x, {c: p[0] for c, p in self.cell_pair.items()})

    @cached_property
    def proj2(self) -> SimplicialMap:
        return SimplicialMap(self.complex, self.y, {c: p[1] for c, p in self.cell_pair.items()})

    def simplex_of_pair(self, u: Simplex, v: Simplex) -> Simplex:
        """Normal form of (u, v) in the product: s_K of the cell of the
        pair whose words drop the indices K they share, shifting each
        index above one down.  A pair that names no cell raises KeyError."""
        ((p, i), I), ((q, j), J) = u, v
        n = p + len(I)
        try:
            # a block holds only disjoint words, of cells x of dim p and y of dim qb
            first, width, stride, nxp, qb, nyq = self._blocks[n][I, J]
        except (IndexError, KeyError):
            return self._shared_normal_form(u, v)
        if q != qb or not (0 <= i < nxp and 0 <= j < nyq):
            raise KeyError((u, v))
        return self._simplices[n][first + i * width + j * stride]

    def _shared_normal_form(self, u: Simplex, v: Simplex) -> Simplex:
        """`simplex_of_pair` of a pair whose words share the indices K."""
        (x, I), (y, J) = u, v
        K = tuple([k for k in I if k in J])
        if not K:
            raise KeyError((u, v))
        I = tuple([m - sum(k < m for k in K) for m in I if m not in K])
        J = tuple([m - sum(k < m for k in K) for m in J if m not in K])
        try:
            s = self.simplex_of_pair(Simplex(x, I), Simplex(y, J))
        except KeyError:
            raise KeyError((u, v)) from None
        return Simplex(s.base, K)


@lru_cache(maxsize=256)
def _shuffles(n: int, xdims: tuple[int, ...], ydims: tuple[int, ...]) -> tuple:
    """The pairs of disjoint words of dimension n in sorted order, for
    factors with cells in the dimensions xdims and ydims: per p in xdims
    with a pair, the rows (I, ((q, Js), ...)) for the (n - p)-subsets I of
    range(n), with q in ydims from n - p to n, and Js the (n - q)-subsets
    of the indices not in I, each with the face identities of the pair
    (`_pair_faces`).  The same for all factors with cells in the same
    dimensions, so kept; a tuple of tuples, so no caller can change it."""
    layout = []
    for p in xdims:
        rows = []
        for I in combinations(range(n), n - p) if p <= n else ():
            free = [j for j in range(n) if j not in I]
            rows.append((I, tuple(
                (q, tuple((J, _pair_faces(I, J, n)) for J in combinations(free, n - q)))
                for q in ydims
                if n - p <= q <= n
            )))
        if rows and rows[0][1]:
            layout.append((p, tuple(rows)))
    return tuple(layout)


def _pair_faces(I: tuple[int, ...], J: tuple[int, ...], n: int) -> tuple:
    """Per face i of (s_I x, s_J y), by `face_word`: the pair of face words,
    and for x and for y 0 when d_i cancels a degeneracy, k + 1 when it
    passes through to stored face k; none for n = 0."""
    out = []
    for i in range(n + 1) if n else ():
        (w1, k1), (w2, k2) = face_word(I, i), face_word(J, i)
        out.append(((w1, w2), 0 if k1 is None else k1 + 1, 0 if k2 is None else k2 + 1))
    return tuple(out)


def _recipe(faces: tuple, below: dict) -> tuple[list, list] | None:
    """Per face (`_pair_faces`), the parts of its index in the block one
    dimension down that holds it: (first, width, kx) for x and
    (0, stride, ky) for y.  Face words of disjoint words are disjoint, so
    a face lies in no block only when a factor has no cell in the
    dimension of a stored face it takes, and that stored face is
    degenerate: then None."""
    xs, ys = [], []
    for words, kx, ky in faces:
        block = below.get(words)
        if block is None:
            return None
        first, width, stride = block[:3]
        xs.append((first, width, kx))
        ys.append((0, stride, ky))
    return xs, ys


def _index_parts(rows: list, parts: list) -> list[list[int]]:
    """For each cell of a factor dimension, given by its row
    (`_factor_rows`), the part first + m * scale of the index of each
    face, for the parts (first, scale, k) of a recipe, m entry k of the
    row."""
    return [[f + r[k] * w for f, w, k in parts] for r in rows]


def _factor_rows(Z: SimplicialSet) -> tuple[list, list, list]:
    """Per dimension of a factor: its cells; for each cell the row of its
    index and the indices of the bases of its stored faces, or None for
    the whole dimension when a stored face of a cell is degenerate; and
    the labels."""
    cells = [Z.cells(d) for d in range(Z.dim + 1)]
    rows: list[list | None] = []
    bases = Z.face_bases
    for d, cs in enumerate(cells):
        fbs = [bases.get(c) for c in cs] if d else [()] * len(cs)
        # a degenerate stored face sends the whole dimension to `simplex_of_pair`
        rows.append(
            None if None in fbs else [(i, *[f.index for f in fb]) for i, fb in enumerate(fbs)]
        )
    return cells, rows, [[Z.label(c) for c in cs] for cs in cells]


def _face_pair(
    X: SimplicialSet, Y: SimplicialSet, x: CellId, y: CellId, face: tuple
) -> tuple[Simplex, Simplex]:
    """The face of (s_I x, s_J y) that one entry of `_pair_faces` gives."""
    (w1, w2), kx, ky = face
    u = Simplex(x, w1) if not kx else degenerate_by(X.cell_faces(x)[kx - 1], w1)
    v = Simplex(y, w2) if not ky else degenerate_by(Y.cell_faces(y)[ky - 1], w2)
    return u, v


def product(X: SimplicialSet, Y: SimplicialSet) -> Product:
    """Binary product; nondegenerate cells are word-disjoint simplex pairs."""
    return Product(X, Y)


def product_functor(P: Product, Q: Product, f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """Induced map P -> Q for f: P.x -> Q.x and g: P.y -> Q.y."""
    return SimplicialMap(
        P.complex,
        Q.complex,
        {
            c: Q.simplex_of_pair(f.apply(u), g.apply(v))
            for c, (u, v) in P.cell_pair.items()
        },
    )


def word_label(name: str, word: tuple[int, ...]) -> str:
    """The name of s_word applied to the cell called `name`."""
    if not word:
        return name
    return "s" + ",".join(map(str, word)) + "@" + name


# -- joins ------------------------------------------------------------------


@dataclass
class Join:
    x: SimplicialSet
    y: SimplicialSet
    x_cell: dict[CellId, CellId] = field(init=False)  # cell of X -> its copy
    y_cell: dict[CellId, CellId] = field(init=False)  # cell of Y -> its copy
    pair_cell: dict[tuple[CellId, CellId], CellId] = field(init=False)
    complex: SimplicialSet = field(init=False)
    inc_x: SimplicialMap = field(init=False)
    inc_y: SimplicialMap = field(init=False)

    def __post_init__(self) -> None:
        """Cells of X, then cells of Y, then one cell per pair (cx, cy);
        every face of a cell names a cell allocated before it."""
        X, Y = self.x, self.y
        self.x_cell, self.y_cell, self.pair_cell = {}, {}, {}
        builder = ComplexBuilder()
        for c in X.all_cells():
            fs = X.cell_faces(c)
            self.x_cell[c] = builder.add_cell(c.dim, map(self.embed_x, fs), X.label(c))
        for c in Y.all_cells():
            fs = Y.cell_faces(c)
            self.y_cell[c] = builder.add_cell(c.dim, map(self.embed_y, fs), Y.label(c) + "~")
        for cx in X.all_cells():
            for cy in Y.all_cells():
                self.pair_cell[(cx, cy)] = builder.add_cell(
                    cx.dim + cy.dim + 1,
                    self._pair_faces(Simplex(cx), Simplex(cy)),
                    X.label(cx) + "*" + Y.label(cy),
                )
        self.complex = builder.build()
        self.inc_x = SimplicialMap(
            X, self.complex, {c: Simplex(jc) for c, jc in self.x_cell.items()}
        )
        self.inc_y = SimplicialMap(
            Y, self.complex, {c: Simplex(jc) for c, jc in self.y_cell.items()}
        )

    def _pair_faces(self, a: Simplex, b: Simplex) -> list[Simplex]:
        """d_0 ... d_{p+q+1} of a * b for nondegenerate a, b."""
        p, q = a.dim, b.dim
        fs = []
        for i in range(p + q + 2):
            if i <= p:
                if p == 0:
                    fs.append(self.embed_y(b))
                else:
                    fs.append(self.join_simplex(self.x.face(a, i), b))
            else:
                if q == 0:
                    fs.append(self.embed_x(a))
                else:
                    fs.append(self.join_simplex(a, self.y.face(b, i - p - 1)))
        return fs

    def embed_x(self, s: Simplex) -> Simplex:
        return Simplex(self.x_cell[s.base], s.word)

    def embed_y(self, s: Simplex) -> Simplex:
        return Simplex(self.y_cell[s.base], s.word)

    def join_simplex(self, a: Simplex, b: Simplex) -> Simplex:
        """Normal form of a * b: the pair base with b's word shifted past a."""
        base = self.pair_cell[(a.base, b.base)]
        return Simplex(base, a.word + tuple(j + a.dim + 1 for j in b.word))


def join(X: SimplicialSet, Y: SimplicialSet) -> Join:
    """Join: cells of X, cells of Y, and one (p+q+1)-cell per cell pair."""
    return Join(X, Y)


# -- maps out of standard simplices ----------------------------------------


def simplex_as_map(X: SimplicialSet, s: Simplex) -> SimplicialMap:
    """The map Delta^n -> X classifying an n-simplex."""
    G = standard_simplex(s.dim)
    images = {
        c: X.restrict(s, t) for t, c in G.lookup.items()
    }
    return SimplicialMap(G.complex, X, images)


def map_by_vertices(
    X: SimplicialSet, G: GeneratorComplex, vmap: dict[CellId, int]
) -> SimplicialMap:
    """Map into a tuple-indexed complex determined by a vertex assignment.

    The image vertex tuple of each cell must be weakly increasing and
    name a simplex of G.
    """
    images = {}
    for c in X.all_cells():
        t = tuple(vmap[v] for v in X.vertices_of(Simplex(c)))
        images[c] = tuple_simplex(t, G.lookup)
    return SimplicialMap(X, G.complex, images)


# -- exhaustive map enumeration ---------------------------------------------


def enumerate_maps(
    X: SimplicialSet,
    Y: SimplicialSet,
    fixed: dict[CellId, Simplex] | None = None,
    constraint: Callable[[CellId, Simplex], bool] | None = None,
    budget: Budget | None = None,
) -> Iterator[SimplicialMap]:
    """All simplicial maps X -> Y extending a partial assignment.

    Cells are assigned in `X.faces_first` order, so each cell comes
    right after its faces and a vertex is chosen only when a cell above
    it needs it; a candidate for a cell of dim >= 1 must have exactly the
    face tuple forced by the images already chosen, so consistency never
    needs re-checking afterwards.
    """
    images: dict[CellId, Simplex] = dict(fixed or {})
    todo = [c for c in X.faces_first if c not in images]
    vertices = [Simplex(v) for v in Y.cells(0)]
    face_bases = X.face_bases

    def candidates(c: CellId) -> Iterator[Simplex]:
        if c.dim == 0:
            cands: Sequence[Simplex] = vertices
        else:
            bases = face_bases.get(c)
            if bases is None:
                want = tuple(apply_images(images, s) for s in X.cell_faces(c))
            else:  # the image of a nondegenerate face is the image of its base
                want = tuple([images[b] for b in bases])
            cands = Y.simplices_with_boundary(c.dim, want)
        if constraint is None:
            return iter(cands)
        return filter(lambda s: constraint(c, s), cands)

    if not todo:
        yield SimplicialMap(X, Y, images)
        return
    # untried[k] holds the candidates of todo[k] not tried yet, for k up to
    # the current cell; images of later cells are stale and never read
    untried: list[Iterator[Simplex]] = [iter(())] * len(todo)
    untried[0] = candidates(todo[0])
    last, k = len(todo) - 1, 0
    while k >= 0:
        c = todo[k]
        for cand in untried[k]:
            if budget is not None:
                budget.spend()
            images[c] = cand
            if k == last:
                yield SimplicialMap(X, Y, images)
            else:
                k += 1
                untried[k] = candidates(todo[k])
                break
        else:
            k -= 1

