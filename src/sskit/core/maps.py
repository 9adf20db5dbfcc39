"""Simplicial maps and the constructions built on them.

A map is stored by its images on nondegenerate cells; the action on
degenerate simplices is forced by naturality.  Cell attachment and
pushouts, products, joins, subcomplexes, and exhaustive map enumeration
all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .budget import Budget
from .complex import ComplexBuilder, SimplicialSet
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
    total_map: SimplicialMap = field(init=False, repr=False)  # B -> result


def attach_all(
    S: SimplicialSet, attachments: list[Attachment]
) -> tuple[SimplicialSet, SimplicialMap]:
    """Pushout of the coproduct of all attachments into S, at once.

    The cells of each generator outside the image of its inclusion become
    new cells in (dim, index) order, labelled by the generator's label,
    primed until unique.
    """
    builder = ComplexBuilder()
    for c in S.all_cells():
        builder.add_cell(c.dim, S.cell_faces(c), S.labels.get(c))
    used = set(S.labels.values())
    totals: list[dict[CellId, Simplex]] = []

    for att in attachments:
        i, alpha = att.inclusion, att.map
        B = i.target
        hit = {i.images[a].base: a for a in i.source.all_cells()}
        g: dict[CellId, Simplex] = {}
        for b in B.all_cells():
            if b in hit:
                g[b] = alpha.images[hit[b]]
                continue
            lab = B.label(b)
            while lab in used:
                lab += "'"
            used.add(lab)
            fs = B.cell_faces(b)
            nc = builder.add_cell(b.dim, (apply_images(g, s) for s in fs), lab)
            g[b] = Simplex(nc)
            att.new_cells.append(nc)
        totals.append(g)

    out = builder.build()
    inc = SimplicialMap(S, out, {c: Simplex(c) for c in S.all_cells()})
    for att, g in zip(attachments, totals):
        att.total_map = SimplicialMap(att.inclusion.target, out, g)
    return out, inc


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
    """X x Y by Eilenberg-Zilber index arithmetic: the n-cells are the pairs
    (s_I x, s_J y) with disjoint words, a face of s_I x is read off the
    stored faces of x by the face identity of I (`face_word`), and a pair
    of faces is s_K of a cell, K the indices the words share
    (`simplex_of_pair`).  The projections are built when first read."""

    x: SimplicialSet
    y: SimplicialSet
    cell_pair: dict[CellId, tuple[Simplex, Simplex]] = field(init=False)
    pair_cell: dict[tuple[Simplex, Simplex], CellId] = field(init=False)
    complex: SimplicialSet = field(init=False)

    def __post_init__(self) -> None:
        """The cells come in sorted order: dim p of x, x, I among the
        (n - p)-subsets of range(n), then q >= n - p, y, J among the
        (n - q)-subsets of the indices not in I."""
        X, Y = self.x, self.y
        cell_pair, pair_cell = self.cell_pair, self.pair_cell = {}, {}
        xnames = {c: X.label(c) for c in X.all_cells()}
        ynames = {c: Y.label(c) for c in Y.all_cells()}
        builder, normal = ComplexBuilder(), self.simplex_of_pair
        cells: dict[tuple[Simplex, Simplex], Simplex] = {}  # pair_cell, each cell a simplex
        for n in range(X.dim + Y.dim + 1):
            recipes, seconds = {}, {}  # face identities by word; s_J y, its label and faces
            for p in range(min(n, X.dim) + 1):
                firsts = []  # per word I: the second factors with words disjoint from it
                for I in combinations(range(n), n - p):
                    free = [j for j in range(n) if j not in I]
                    vs = []
                    for q in range(n - p, min(n, Y.dim) + 1):
                        Js = list(combinations(free, n - q))
                        for v in [Simplex(y, J) for y in Y.cells(q) for J in Js]:
                            if v not in seconds:
                                vlab = word_label(ynames[v.base], v.word)
                                seconds[v] = (v, vlab, _word_faces(Y, v, recipes))
                            vs.append(seconds[v])
                    firsts.append((I, vs))
                for x in X.cells(p):
                    for I, vs in firsts:
                        u = Simplex(x, I)
                        ulab = word_label(xnames[x], I) + "|"
                        ufaces = _word_faces(X, u, recipes)
                        for v, vlab, vfaces in vs:
                            fs = [cells.get(f) or normal(*f) for f in zip(ufaces, vfaces)]
                            c = builder.add_cell(n, fs, ulab + vlab)
                            cell_pair[c] = pair = (u, v)
                            pair_cell[pair] = c
                            cells[pair] = Simplex(c)
        self.complex = builder.build()

    @cached_property
    def proj1(self) -> SimplicialMap:
        return SimplicialMap(self.complex, self.x, {c: p[0] for c, p in self.cell_pair.items()})

    @cached_property
    def proj2(self) -> SimplicialMap:
        return SimplicialMap(self.complex, self.y, {c: p[1] for c, p in self.cell_pair.items()})

    def simplex_of_pair(self, u: Simplex, v: Simplex) -> Simplex:
        """Normal form of (u, v) in the product: s_K of the pair whose words
        drop the indices K they share, shifting each index above one down.
        A pair with disjoint words that names no cell raises KeyError."""
        c = self.pair_cell.get((u, v))
        if c is not None:
            return Simplex(c)
        K = sorted(set(u.word).intersection(v.word))

        def drop(s: Simplex) -> Simplex:
            return Simplex(s.base, tuple(j - sum(k < j for k in K) for j in s.word if j not in K))

        return Simplex(self.pair_cell[(drop(u), drop(v))], tuple(K))


def _word_faces(Z: SimplicialSet, s: Simplex, recipes: dict) -> Sequence[Simplex]:
    """The faces of s, read off the stored faces of its base by the face
    identity of its word; `recipes` keeps each word's identities."""
    z, W = s
    fs = Z.cell_faces(z)
    if not W:
        return fs
    if W not in recipes:
        recipes[W] = [face_word(W, i) for i in range(z.dim + len(W) + 1)]
    return [Simplex(z, w) if k is None else degenerate_by(fs[k], w) for w, k in recipes[W]]


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


def join_functor(J: Join, K: Join, f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """Induced map J -> K for f: J.x -> K.x and g: J.y -> K.y."""
    images = {jc: K.embed_x(f.images[c]) for c, jc in J.x_cell.items()}
    for c, jc in J.y_cell.items():
        images[jc] = K.embed_y(g.images[c])
    for (cx, cy), jc in J.pair_cell.items():
        images[jc] = K.join_simplex(f.images[cx], g.images[cy])
    return SimplicialMap(J.complex, K.complex, images)


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

