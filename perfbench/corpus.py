"""Seeded query corpora for the benchmark workloads.

Each workload is a list of `sskit` CLI queries over files written into a
corpus directory, plus a `manifest.json` that lists the queries in order.
Generation uses only sskit's constructors and serializers, never a search
call, so a faster search shows in the measured passes and not in set-up.

The same (workload, seed) pair gives a byte-identical corpus.  Within one
corpus no subject complex repeats: every complex a query is about differs
from the others in its cell counts or face tuples, which is what
`SimplicialSet.__eq__` compares and so what the `lru_cache` on
`homotopy_category` keys on (a copy with its cells renumbered counts as
different).  Generator shapes that only serve as the domain or codomain of
an inclusion or a classified map (horns, spines, boundaries, simplices)
are written once and shared.
"""

from __future__ import annotations

import json
import os
import random

from sskit.core import (
    CellId,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary_complex,
    cosk0_complex,
    from_vertex_tuples,
    horn_complex,
    identity_map,
    map_by_vertices,
    product,
    spine_complex,
    standard_simplex,
    sub_complex,
)
from sskit.fileformat import serialize_complex, serialize_map

MANIFEST = "manifest.json"
OUT_DIR = "out"


class Duplicate(Exception):
    """A generated subject complex equals one already in the corpus."""


def structure_key(X: SimplicialSet) -> tuple:
    return X.cell_counts(), tuple(X.cell_faces(c) for c in X.all_cells() if c.dim > 0)


class Corpus:
    """Writes complex and map files and collects the query list."""

    def __init__(self, root: str, flags: list[str]) -> None:
        self.root = root
        self.flags = flags
        self.queries: list[dict] = []
        self._files = 0
        self._subjects: set[tuple] = set()
        self._shared: dict[tuple, str] = {}
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    def _write(self, suffix: str, text: str) -> str:
        name = f"f{self._files:03d}.{suffix}"
        self._files += 1
        with open(os.path.join(self.root, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def claim(self, *complexes: SimplicialSet) -> None:
        """Reserve subject complexes; raise Duplicate if one is taken."""
        keys = [structure_key(X) for X in complexes]
        if len(set(keys)) < len(keys) or any(k in self._subjects for k in keys):
            raise Duplicate
        self._subjects.update(keys)

    def complex_file(self, X: SimplicialSet) -> str:
        return self._write("txt", serialize_complex(X))

    def shared(self, key: tuple, write) -> str:
        """The file `write()` makes the first time `key` is asked for; generator
        shapes get one file that every query reuses."""
        if key not in self._shared:
            self._shared[key] = write()
        return self._shared[key]

    def map_file(self, f: SimplicialMap, src: str, tgt: str) -> str:
        return self._write("map", serialize_map(f, src, tgt))

    def out(self, ext: str = "txt") -> str:
        return f"{OUT_DIR}/q{len(self.queries):03d}.{ext}"

    def query(self, cls: str, args: list, opts: list = (), **files: str) -> None:
        """Add a query of input class `cls`: `args` starts with the
        subcommand, `opts` are global options."""
        self.queries.append(
            {
                "id": f"q{len(self.queries):03d}",
                "class": cls,
                "command": args[0],
                "argv": ["--format", "structured", *self.flags, *map(str, opts),
                         *map(str, args)],
                "files": files,
            }
        )

    def write_manifest(self) -> None:
        with open(os.path.join(self.root, MANIFEST), "w", encoding="utf-8") as fh:
            json.dump(self.queries, fh, indent=1, sort_keys=True)
            fh.write("\n")


# -- complexes from seeded randomness ---------------------------------------------


def shuffled(X: SimplicialSet, rng: random.Random) -> tuple[SimplicialSet, dict]:
    """An isomorphic copy with cell indices permuted within each dimension.

    Returns the copy and the old-cell -> new-cell table.  Labels move with
    their cells, so files differ only in record order.
    """
    new: dict[CellId, CellId] = {}
    for d in range(X.dim + 1):
        order = list(range(X.n_cells(d)))
        rng.shuffle(order)
        for old, idx in enumerate(order):
            new[CellId(d, old)] = CellId(d, idx)
    faces = {
        new[c]: tuple(Simplex(new[f.base], f.word) for f in X.cell_faces(c))
        for c in X.all_cells()
        if c.dim > 0
    }
    labels = {new[c]: X.label(c) for c in X.all_cells()}
    return SimplicialSet(X.cell_counts(), faces, labels), new


def vertex_cells(G) -> dict[int, CellId]:
    return {t[0]: c for t, c in G.lookup.items() if len(t) == 1}


def random_triangle_subset(n: int, k: int, rng: random.Random) -> SimplicialSet:
    """All vertices and edges of cosk0(n, 2) and k of its triangles at random."""
    X = cosk0_complex(n, 2).complex
    return sub_complex(X, X.cells(0) + X.cells(1) + sorted(rng.sample(X.cells(2), k)))[0]


def random_subcomplex(rng: random.Random, n: int, counts: tuple[int, ...]):
    """A subcomplex of Delta^n with all vertices and counts[d - 1] random
    d-cells for each d >= 1 (faces of the chosen cells come along)."""
    top = tuple(range(n + 1))
    picked = [(v,) for v in top]
    for d, k in enumerate(counts, 1):
        picked += rng.sample(sorted(t for t in standard_simplex(n).lookup if len(t) == d + 1), k)
    return from_vertex_tuples(picked)


def distinct(make, tries: int = 200):
    """Call `make` until it returns without hitting a Duplicate, or a
    LookupError from a draw with nothing to choose from or a vertex map
    that names a missing simplex."""
    for _ in range(tries):
        try:
            return make()
        except (Duplicate, LookupError):
            continue
    raise RuntimeError("could not draw a distinct input")


# -- generator shapes --------------------------------------------------------------


def _shape(kind: str, *ps: int):
    return {
        "simplex": standard_simplex,
        "horn": horn_complex,
        "spine": spine_complex,
        "boundary": boundary_complex,
    }[kind](*ps)


def inclusion_file(corpus: Corpus, kind: str, *ps: int):
    """The shared map file of a generator inclusion A -> Delta^n, and A."""
    GA, GB = _shape(kind, *ps), standard_simplex(ps[0])
    a = corpus.shared((kind, *ps), lambda: corpus.complex_file(GA.complex))
    b = corpus.shared(("simplex", ps[0]), lambda: corpus.complex_file(GB.complex))
    inc = SimplicialMap(GA.complex, GB.complex,
                        {c: Simplex(GB.lookup[t]) for t, c in GA.lookup.items()})
    return corpus.shared(("inc", kind, *ps), lambda: corpus.map_file(inc, a, b)), a, GA


# -- workloads ---------------------------------------------------------------------
#
# Each workload is a fixed number of queries per input class.  Inputs within
# a class are drawn at random with the same shape (cell counts), so every
# seed asks for about the same work.  In `rlp-enum` and `construct` every
# seed also gets the same number of failed and undecided answers; in
# `kb-words` the `equiv-edge` verdicts on random edges are undecided for a
# number of queries that varies with the seed (16 to 20 of 100 over the
# shipped seeds).

# (a, b, max_dim): classify the projection Delta^a x Delta^b -> Delta^a
RLP_PROJECTIONS = [(1, 1, 4), (2, 1, 3), (1, 2, 3), (3, 1, 3)]
LIFT_SHAPES = [("horn", 2, 1), ("horn", 2, 0), ("horn", 2, 2), ("horn", 3, 1),
               ("horn", 3, 2), ("horn", 3, 0), ("spine", 2), ("spine", 3),
               ("boundary", 2), ("boundary", 3)]


def rlp_enum(corpus: Corpus, rng: random.Random) -> None:
    for a, b, d in RLP_PROJECTIONS:
        P = product(standard_simplex(a).complex, standard_simplex(b).complex)
        X, new = shuffled(P.complex, rng)
        corpus.claim(X)
        S = corpus.shared(("simplex", a), lambda: corpus.complex_file(P.x))
        src = corpus.complex_file(X)
        p = SimplicialMap(X, P.x, {new[c]: img for c, img in P.proj1.images.items()})
        m = corpus.map_file(p, src, S)
        corpus.query("projection", ["classify", m, "--classes", "inner"], ["--max-dim", d],
                     map=m)

    # every horn class on monotone maps from random 2-dimensional complexes
    # on five vertices (all edges, half the triangles) to Delta^1 or Delta^2
    for k in range(24):
        top = 1 + k % 2

        def make():
            G = random_subcomplex(rng, 4, (10, 5))
            cuts = sorted(rng.sample(range(1, 5), top))
            T = standard_simplex(top)
            p = map_by_vertices(G.complex, T, {c: sum(x <= v for x in cuts)
                                               for v, c in vertex_cells(G).items()})
            corpus.claim(G.complex)
            src = corpus.complex_file(G.complex)
            tgt = corpus.shared(("simplex", top), lambda: corpus.complex_file(T.complex))
            return corpus.map_file(p, src, tgt)
        m = distinct(make)
        corpus.query("classify", ["classify", m, "--classes", "inner,left,right,kan"], map=m)

    # lifts of horn, spine and boundary inclusions into random 3-dimensional
    # complexes on six vertices, against the map to a point
    for k in range(76):
        kind, *ps = LIFT_SHAPES[k % len(LIFT_SHAPES)]
        inc, a, GA = inclusion_file(corpus, kind, *ps)
        n = ps[0]

        def make():
            G = random_subcomplex(rng, 5, (15, 12, 5))
            vs = sorted(rng.choice(range(6)) for _ in range(n + 1))
            u = map_by_vertices(GA.complex, G, {c: vs[v] for v, c in vertex_cells(GA).items()})
            corpus.claim(G.complex)
            return corpus.map_file(u, a, corpus.complex_file(G.complex))
        u = distinct(make)
        corpus.query(f"lift-{kind}", ["lift", "--along", inc, u], along=inc, map=u)


# (objects, triangles kept): dense subsets of cosk0(n, 2) give exact
# presentations; sparse ones leave free words that outrun the word budget
DENSE4, SPARSE4, DENSE5 = (4, 26), (4, 5), (5, 56)


def kb_words(corpus: Corpus, rng: random.Random) -> None:
    words = ["--word-budget", 4]

    def subset(n, k):
        def make():
            X = random_triangle_subset(n, k, rng)
            corpus.claim(X)
            return X
        return distinct(make)

    plan = [("homcat", DENSE4)] * 26 + [("homcat", SPARSE4)] * 10 + [("homcat", DENSE5)] * 8
    plan += [("equiv", DENSE4)] * 25 + [("equiv", SPARSE4)] * 8 + [("equiv", DENSE5)] * 7
    plan += [("isofib", DENSE4)] * 14
    rng.shuffle(plan)
    for what, (n, k) in plan:
        cls = f"{what}-{n}-{k}"
        if what == "isofib":
            def make():
                X = random_triangle_subset(n, k, rng)
                A, inc = sub_complex(X, X.cells(0) + X.cells(1)
                                     + sorted(rng.sample(X.cells(2), k * 7 // 10)))
                corpus.claim(X, A)
                fa, fx = corpus.complex_file(A), corpus.complex_file(X)
                return corpus.map_file(inc, fa, fx)
            m = distinct(make)
            corpus.query(cls, ["isofib", m], words, map=m)
            continue
        X = subset(n, k)
        f = corpus.complex_file(X)
        if what == "homcat":
            corpus.query(cls, ["homcat", f], words)
        else:
            corpus.query(cls, ["equiv-edge", f, X.label(rng.choice(X.cells(1)))], words)

    X = subset(6, 105)
    corpus.query("homcat-6-105", ["homcat", corpus.complex_file(X)], words)
    # a dense subset of the 8-object indiscrete groupoid: past the rule cap
    X = subset(8, 350)
    corpus.query("homcat-8-350", ["homcat", corpus.complex_file(X)], ["--word-budget", 3])


def construct(corpus: Corpus, rng: random.Random) -> None:
    """Each class's outcome is set by its shape at the workload budget of
    3000 nodes, so every seed has the same failed and undecided queries."""

    def draw(n, counts):
        def make():
            X, _ = shuffled(random_subcomplex(rng, n, counts).complex, rng)
            corpus.claim(X)
            return X
        return distinct(make)

    def copy_of(X):
        def make():
            Y, _ = shuffled(X, rng)
            corpus.claim(Y)
            return Y
        return distinct(make)

    # products and joins of random complexes on four vertices (six edges,
    # two triangles) with random complexes on four vertices (three edges, or
    # six edges and two triangles)
    ops = [("product", (3, (3,)))] * 30 + [("product", (3, (6, 2)))] * 20
    ops += [("join", (3, (3,)))] * 6
    rng.shuffle(ops)
    for op, shape in ops:
        A, B = draw(3, (6, 2)), draw(*shape)
        fa, fb = corpus.complex_file(A), corpus.complex_file(B)
        out = corpus.out()
        corpus.query(f"{op}-{B.dim}", ["op", op, fa, fb, "-o", out], output=out)

    # prefibrantize: two edges on three vertices fit the budget; the
    # 1-skeleton of Delta^3 does not (BudgetExceeded escapes main, a known
    # defect)
    skeleton3 = from_vertex_tuples([(i, j) for i in range(4) for j in range(i + 1, 4)])
    for X in [draw(2, (2,)) for _ in range(8)] + [copy_of(skeleton3.complex) for _ in range(2)]:
        f = corpus.complex_file(X)
        corpus.query("prefibrantize", ["prefibrantize", f, "-o", corpus.out("pre")],
                     ["--stages", 3])

    # complete: 2-dimensional inputs fit the budget, Delta^3 does not
    for X in [draw(3, (6, 2)) for _ in range(8)] + [copy_of(standard_simplex(3).complex)]:
        f, out = corpus.complex_file(X), corpus.out()
        corpus.query("complete", ["complete", f, "-o", out], ["--stages", 1], output=out)

    # certify: spine inclusions into Delta^n (for n = 3 minus random cells,
    # which can make the search exhaust); an extra edge to a new vertex cannot
    # be reached by inner horns, so the inner search must exhaust every
    # order, which for Delta^5 runs past the budget
    jobs = [(3 + k % 2, ("inner", "left", "kan")[k % 3], k % 3 > 0 and k % 4 == 0)
            for k in range(20)]
    jobs += [(5, "inner", True)] * 3
    rng.shuffle(jobs)
    for n, family, blocked in jobs:
        def make():
            full = [t for t in standard_simplex(n).lookup
                    if len(t) == 1 or n > 3 or rng.random() < 0.85]
            extra = [(v, v + 1) for v in range(n)] + ([(0, n + 1)] if blocked else [])
            G = from_vertex_tuples(full + extra)
            X, new = shuffled(G.complex, rng)
            corpus.claim(X)
            Sp = spine_complex(n)
            inc = SimplicialMap(Sp.complex, X,
                                {c: Simplex(new[G.lookup[t]]) for t, c in Sp.lookup.items()})
            sp = corpus.shared(("spine", n), lambda: corpus.complex_file(Sp.complex))
            return corpus.map_file(inc, sp, corpus.complex_file(X))
        m = distinct(make)
        cls = f"certify-{family}{n}" + ("-blocked" if blocked else "")
        corpus.query(cls, ["certify", m, "--class", family], map=m)

    for k in range(12):
        X = draw(3, (5, 2))
        f = corpus.complex_file(X)
        x, y = sorted(rng.sample(X.cells(0), 2))
        corpus.query("mapspace", ["mapspace", f, X.label(x), X.label(y), "--up-to", 1 + k % 2])

    # pathspace: given the budget they need, 1-dimensional sources on three
    # vertices answer and 2-dimensional ones exit 3 at level 2 (the restrict
    # face-index defect); four vertices at the workload budget raise
    # BudgetExceeded out of main
    enough = ["--node-budget", 20000]
    cases = [(draw(2, (1 + k % 2,)), 1, enough) for k in range(4)]
    cases += [(draw(3, (3,)), 2, []) for _ in range(2)]
    cases += [(copy_of(standard_simplex(2).complex), 2, enough) for _ in range(2)]
    for X, up_to, opts in cases:
        f = corpus.complex_file(X)
        m = corpus.map_file(identity_map(X), f, f)
        out = corpus.out()
        corpus.query(f"pathspace-{X.dim}", ["pathspace", m, "--up-to", up_to, "-o", out],
                     opts, output=out)

    X = copy_of(cosk0_complex(3, 2).complex)
    f, out = corpus.complex_file(X), corpus.out()
    corpus.query("saturate", ["saturate", f, "--up-to", 3, "-o", out], output=out)


WORKLOADS = {
    "rlp-enum": (rlp_enum, ["--node-budget", "200000"]),
    "kb-words": (kb_words, ["--node-budget", "200000"]),
    "construct": (construct, ["--node-budget", "3000"]),
}


def generate(workload: str, seed: int, root: str) -> Corpus:
    """Write the corpus of one workload and seed into `root`."""
    build, flags = WORKLOADS[workload]
    corpus = Corpus(root, flags)
    build(corpus, random.Random(f"{workload}:{seed}"))
    corpus.write_manifest()
    return corpus
