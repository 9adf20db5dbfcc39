"""Every constructor that numbers cells one at a time builds through
ComplexBuilder.  Each reference below is the constructor as it was with
its own per-dimension counter; on seeded inputs both must give the same
cell counts, face tuples, labels, lookup tables and maps."""

import ast
import copy
import pathlib
import random
from functools import partial
from itertools import product as iproduct

import pytest

import sskit
from sskit.core import (
    Attachment,
    CellId,
    ComplexBuilder,
    LevelwiseSpace,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    apply_images,
    attach_all,
    cosk0_complex,
    degenerate,
    enumerate_maps,
    from_vertex_tuples,
    function_complex,
    j_truncation,
    join,
    product,
    slice_under,
    spine_complex,
    standard_simplex,
    sub_complex,
    tuple_simplex,
    validate,
)
from sskit.core.generators import tuple_label
from sskit.core.simplex import apply_degeneracy, degenerate_by, face_word
from sskit.fileformat import ParseError, _parse_token, parse_complex, serialize_complex
from sskit.lifting import key_inclusion

from conftest import (
    build_horn_plus_vertex,
    random_generator_complex,
    random_tuple_family,
    reference_face,
)

# -- the constructors with their own counters -------------------------------------


def ref_from_vertex_tuples(tuples):
    closed = set()
    stack = [tuple(t) for t in tuples]
    while stack:
        t = stack.pop()
        if t in closed or not t:
            continue
        closed.add(t)
        if len(t) > 1:
            stack.extend(t[:i] + t[i + 1 :] for i in range(len(t)))
    by_dim = {}
    for t in closed:
        by_dim.setdefault(len(t) - 1, []).append(t)
    lookup = {}
    counts = [0] * (max(by_dim, default=-1) + 1)
    for d, ts in by_dim.items():
        ts.sort()
        counts[d] = len(ts)
        for idx, t in enumerate(ts):
            lookup[t] = CellId(d, idx)
    faces = {
        lookup[t]: tuple(Simplex(lookup[t[:i] + t[i + 1 :]]) for i in range(len(t)))
        for t in closed
        if len(t) > 1
    }
    labels = {c: tuple_label(t) for t, c in lookup.items()}
    return SimplicialSet(counts, faces, labels), lookup


def ref_cosk0_complex(n_vertices, bound):
    lookup = {}
    counts = []
    for k in range(bound + 1):
        ts = [
            t
            for t in iproduct(range(n_vertices), repeat=k + 1)
            if all(t[j] != t[j + 1] for j in range(k))
        ]
        counts.append(len(ts))
        for idx, t in enumerate(ts):
            lookup[t] = CellId(k, idx)
    faces = {
        c: tuple(tuple_simplex(t[:i] + t[i + 1 :], lookup) for i in range(len(t)))
        for t, c in lookup.items()
        if c.dim > 0
    }
    labels = {c: tuple_label(t) for t, c in lookup.items()}
    return SimplicialSet(counts, faces, labels), lookup


def ref_sub_complex(X, keep):
    kept = set(keep)
    reindex = {}
    counts = []
    for d in range(X.dim + 1):
        cs = [c for c in X.cells(d) if c in kept]
        counts.append(len(cs))
        for idx, c in enumerate(cs):
            reindex[c] = CellId(d, idx)
    faces = {}
    for c in kept:
        if c.dim == 0:
            continue
        fs = []
        for f in X.cell_faces(c):
            if f.base not in kept:
                raise ValueError(f"cell set not face-closed at {X.label(c)}")
            fs.append(Simplex(reindex[f.base], f.word))
        faces[reindex[c]] = tuple(fs)
    labels = {reindex[c]: X.label(c) for c in kept}
    return SimplicialSet(counts, faces, labels), {new: Simplex(old) for old, new in reindex.items()}


def ref_join(X, Y):
    """(complex, x_cell, y_cell, pair_cell)."""
    allocated = {}

    def alloc(d):
        allocated[d] = allocated.get(d, 0) + 1
        return CellId(d, allocated[d] - 1)

    x_cell = {c: alloc(c.dim) for c in X.all_cells()}
    y_cell = {c: alloc(c.dim) for c in Y.all_cells()}
    pair_cell = {
        (cx, cy): alloc(cx.dim + cy.dim + 1) for cx in X.all_cells() for cy in Y.all_cells()
    }

    def embed_x(s):
        return Simplex(x_cell[s.base], s.word)

    def embed_y(s):
        return Simplex(y_cell[s.base], s.word)

    def join_simplex(a, b):
        return Simplex(pair_cell[(a.base, b.base)], a.word + tuple(j + a.dim + 1 for j in b.word))

    labels = {jc: X.label(c) for c, jc in x_cell.items()}
    labels.update((jc, Y.label(c) + "~") for c, jc in y_cell.items())
    labels.update((jc, X.label(cx) + "*" + Y.label(cy)) for (cx, cy), jc in pair_cell.items())
    counts = [0] * (max(X.dim, Y.dim, X.dim + Y.dim + 1) + 1)
    for jc in labels:
        counts[jc.dim] += 1
    faces = {}
    for c, jc in x_cell.items():
        if c.dim > 0:
            faces[jc] = tuple(embed_x(s) for s in X.cell_faces(c))
    for c, jc in y_cell.items():
        if c.dim > 0:
            faces[jc] = tuple(embed_y(s) for s in Y.cell_faces(c))
    for (cx, cy), jc in pair_cell.items():
        a, b = Simplex(cx), Simplex(cy)
        p, q = cx.dim, cy.dim
        fs = []
        for i in range(p + q + 2):
            if i <= p:
                fs.append(embed_y(b) if p == 0 else join_simplex(X.face(a, i), b))
            else:
                fs.append(embed_x(a) if q == 0 else join_simplex(a, Y.face(b, i - p - 1)))
        faces[jc] = tuple(fs)
    return SimplicialSet(counts, faces, labels), x_cell, y_cell, pair_cell


def ref_attach_all(S, attachments):
    """(complex, new cells per attachment, total-map images per attachment)."""
    counts = [S.n_cells(d) for d in range(S.dim + 1)]
    faces = {c: S.cell_faces(c) for c in S.all_cells() if c.dim > 0}
    labels = dict(S.labels)
    used = set(labels.values())
    news, totals = [], []
    for i, alpha in attachments:
        B = i.target
        hit = {i.images[a].base: a for a in i.source.all_cells()}
        g, new = {}, []
        for b in B.all_cells():
            if b in hit:
                g[b] = alpha.images[hit[b]]
                continue
            while len(counts) <= b.dim:
                counts.append(0)
            nc = CellId(b.dim, counts[b.dim])
            counts[b.dim] += 1
            g[b] = Simplex(nc)
            new.append(nc)
            if b.dim > 0:
                faces[nc] = tuple(apply_images(g, s) for s in B.cell_faces(b))
            lab = B.label(b)
            while lab in used:
                lab += "'"
            used.add(lab)
            labels[nc] = lab
        news.append(new)
        totals.append(g)
    return SimplicialSet(counts, faces, labels), news, totals


def ref_label(X, s):
    lab = X.label(s.base)
    return lab if s.nondegenerate else "s" + ",".join(str(j) for j in s.word) + "@" + lab


def ref_simplex_of_pair(X, Y, pair_cell, u, v):
    """The normal form of (u, v) in X x Y, by taking the largest common
    degeneracy out of both and recursing on the pair of faces below it."""
    common = set(u.word) & set(v.word)
    if not common:
        return Simplex(pair_cell[(u, v)])
    j = max(common)
    inner = ref_simplex_of_pair(X, Y, pair_cell, reference_face(X, u, j), reference_face(Y, v, j))
    return Simplex(inner.base, apply_degeneracy(inner.word, j))


def ref_product(X, Y):
    """(complex, cell_pair, pair_cell, proj1 images, proj2 images)."""
    cell_pair = {}
    for n in range(X.dim + Y.dim + 1):
        pairs = sorted(
            (u, v) for u in X.simplices(n) for v in Y.simplices(n) if not set(u.word) & set(v.word)
        )
        for idx, p in enumerate(pairs):
            cell_pair[CellId(n, idx)] = p
    pair_cell = {p: c for c, p in cell_pair.items()}
    counts = [0] * (X.dim + Y.dim + 1)
    faces, labels = {}, {}
    for c, (u, v) in cell_pair.items():
        counts[c.dim] += 1
        labels[c] = f"{ref_label(X, u)}|{ref_label(Y, v)}"
        if c.dim > 0:
            fu = [reference_face(X, u, i) for i in range(c.dim + 1)]
            fv = [reference_face(Y, v, i) for i in range(c.dim + 1)]
            faces[c] = tuple(ref_simplex_of_pair(X, Y, pair_cell, a, b) for a, b in zip(fu, fv))
    proj1 = {c: p[0] for c, p in cell_pair.items()}
    proj2 = {c: p[1] for c, p in cell_pair.items()}
    return SimplicialSet(counts, faces, labels), cell_pair, pair_cell, proj1, proj2


def _strip(raw):
    """A line without its comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


def ref_parse_complex(text):
    declared = None
    counts, faces, labels, byname = [], {}, {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        toks = line.split()
        if toks[0] == "dim":
            if declared is not None or len(toks) != 2:
                raise ParseError(lineno, "malformed or repeated dim header")
            try:
                declared = int(toks[1])
            except ValueError:
                raise ParseError(lineno, f"bad dimension {toks[1]!r}") from None
        elif toks[0] == "cell":
            if declared is None:
                raise ParseError(lineno, "cell record before the dim header")
            if len(toks) < 3:
                raise ParseError(lineno, "cell record needs a name and a dimension")
            name = toks[1]
            try:
                d = int(toks[2])
            except ValueError:
                raise ParseError(lineno, f"bad cell dimension {toks[2]!r}") from None
            if d < 0 or d > declared:
                raise ParseError(lineno, f"cell dimension {d} outside 0..{declared}")
            if name in byname:
                raise ParseError(lineno, f"duplicate cell name {name!r}")
            while len(counts) <= d:
                counts.append(0)
            c = CellId(d, counts[d])
            counts[d] += 1
            byname[name] = c
            labels[c] = name
            if d == 0:
                if len(toks) != 3:
                    raise ParseError(lineno, "a vertex record takes no faces")
                continue
            if len(toks) < 4 or toks[3] != "faces:":
                raise ParseError(lineno, "expected 'faces:' after the dimension")
            ftoks = toks[4:]
            if len(ftoks) != d + 1:
                raise ParseError(
                    lineno, f"cell of dimension {d} needs {d + 1} faces, got {len(ftoks)}"
                )
            fs = []
            for tok in ftoks:
                f = _parse_token(tok, byname, lineno)
                if f.dim != d - 1:
                    raise ParseError(
                        lineno, f"face {tok!r} has dimension {f.dim}, expected {d - 1}"
                    )
                fs.append(f)
            faces[c] = tuple(fs)
        else:
            raise ParseError(lineno, f"unknown record {toks[0]!r}")
    if declared is None:
        raise ParseError(1, "missing dim header")
    try:
        X = SimplicialSet(counts, faces, labels)
    except ValueError as e:
        raise ParseError(0, str(e)) from None
    if X.dim != declared:
        raise ParseError(1, f"declared dim {declared} but top cell has dim {X.dim}")
    bad = validate(X)
    if bad:
        raise ParseError(0, "; ".join(bad))
    return X


def ref_levelwise(levels, face_fn, deg_fn):
    """(space, normal form of an element at a level, nondegenerate elements)."""
    levels = [list(lev) for lev in levels]
    cell_of, elements = {}, []

    def is_degenerate(n, e):
        return n > 0 and any(deg_fn(n - 1, face_fn(n, e, j), j) == e for j in range(n))

    def normalize(n, e):
        c = cell_of.get((n, e))
        if c is not None:
            return Simplex(c)
        for j in range(n):
            down = face_fn(n, e, j)
            if deg_fn(n - 1, down, j) == e:
                inner = normalize(n - 1, down)
                return Simplex(inner.base, apply_degeneracy(inner.word, j))
        raise ValueError(f"element not found at level {n}: {e!r}")

    counts = []
    for n, lev in enumerate(levels):
        nondeg = [e for e in lev if not is_degenerate(n, e)]
        elements.append(nondeg)
        counts.append(len(nondeg))
        for idx, e in enumerate(nondeg):
            cell_of[(n, e)] = CellId(n, idx)
    faces = {}
    for n, nondeg in enumerate(elements[1:], start=1):
        for idx, e in enumerate(nondeg):
            faces[CellId(n, idx)] = tuple(
                normalize(n - 1, face_fn(n, e, i)) for i in range(n + 1)
            )
    return SimplicialSet(counts, faces), normalize, elements


# -- comparisons --------------------------------------------------------------------


def assert_same_complex(X, R):
    assert X.cell_counts() == R.cell_counts()
    assert list(X.all_cells()) == list(R.all_cells())
    for c in X.all_cells():
        if c.dim > 0:
            assert X.cell_faces(c) == R.cell_faces(c)
    assert X.labels == R.labels
    assert validate(X) == []


def assert_same_normal_forms(L, normalize, elements):
    """Same nondegenerate elements, and the same normal form for every
    element of every level, degenerate ones included."""
    assert L.elements == elements
    for n, lev in enumerate(L.levels):
        for e in lev:
            assert L.normalize(n, e) == normalize(n, e)


def seeded_complexes(seed, count):
    rng = random.Random(seed)
    out = [standard_simplex(0).complex, spine_complex(3).complex, build_horn_plus_vertex().source]
    out += [random_generator_complex(rng).complex for _ in range(count)]
    return out


@pytest.mark.parametrize("seed", range(4))
def test_from_vertex_tuples_matches_the_counting_constructor(seed):
    rng = random.Random(seed)
    families = [[], [(0, 1, 2, 3)], [(3,), (0, 5), (1, 12)]]
    families += [random_tuple_family(rng, rng.choice([3, 4, 5]), rng.choice([1, 3, 5])) for _ in range(25)]
    for ts in families:
        G = from_vertex_tuples(ts)
        R, lookup = ref_from_vertex_tuples(ts)
        assert_same_complex(G.complex, R)
        assert G.lookup == lookup


@pytest.mark.parametrize("n, bound", [(1, 0), (1, 2), (2, 3), (3, 2), (4, 1), (4, 2)])
def test_cosk0_complex_matches_the_counting_constructor(n, bound):
    G = cosk0_complex(n, bound)
    R, lookup = ref_cosk0_complex(n, bound)
    assert_same_complex(G.complex, R)
    assert G.lookup == lookup


@pytest.mark.parametrize("seed", range(4))
def test_sub_complex_matches_the_counting_constructor(seed):
    rng = random.Random(seed)
    for X in seeded_complexes(seed, 10):
        keep = [c for c in X.cells(0) if rng.random() < 0.8]
        for d in range(1, X.dim + 1):
            kept = set(keep)
            keep += [
                c for c in X.cells(d)
                if rng.random() < 0.7 and all(f.base in kept for f in X.cell_faces(c))
            ]
        rng.shuffle(keep)
        sub, inc = sub_complex(X, keep)
        R, images = ref_sub_complex(X, keep)
        assert_same_complex(sub, R)
        assert inc.images == images and inc.check() == []
        if X.dim > 0:
            with pytest.raises(ValueError, match="not face-closed"):
                sub_complex(X, X.cells(X.dim))
        with pytest.raises(ValueError, match="outside the complex"):
            sub_complex(X, [*X.cells(0), CellId(0, X.n_cells(0))])


@pytest.mark.parametrize("seed", range(3))
def test_join_matches_the_counting_constructor(seed):
    Xs = seeded_complexes(seed, 3)
    for X in Xs:
        for Y in Xs[:3] + [SimplicialSet([], {})]:
            for A, B in ((X, Y), (Y, X)):
                J = join(A, B)
                R, x_cell, y_cell, pair_cell = ref_join(A, B)
                assert_same_complex(J.complex, R)
                assert (J.x_cell, J.y_cell, J.pair_cell) == (x_cell, y_cell, pair_cell)
                assert J.inc_x.check() == [] and J.inc_y.check() == []


def _relabelled(X, labels):
    """X with the labels of some cells replaced."""
    return SimplicialSet(
        X.cell_counts(), {c: X.cell_faces(c) for c in X.all_cells() if c.dim > 0}, {**X.labels, **labels}
    )


def assert_attach_all_matches(S, pairs):
    """attach_all and the reference give the same complex, labels, new
    cells and total maps; returns the attached complex."""
    atts = [Attachment(i, alpha) for i, alpha in pairs]
    out, inc = attach_all(S, atts)
    R, news, totals = ref_attach_all(S, pairs)
    assert_same_complex(out, R)
    assert inc.images == {c: Simplex(c) for c in S.all_cells()}
    assert [att.new_cells for att in atts] == news
    assert [att.total_map.images for att in atts] == totals
    return out


@pytest.mark.parametrize("seed", range(4))
def test_attach_all_matches_the_counting_constructor(seed):
    rng = random.Random(seed)
    gens = [key_inclusion((2, 1)), key_inclusion((2, 0)), key_inclusion((3, 2)), key_inclusion((1, None))]
    # a space without labels and one whose labels are not in cell order
    spaces = seeded_complexes(seed, 6) + [slice_under(spine_complex(2).complex, CellId(0, 0), 2).space]
    for S in spaces:
        pairs = []
        for i in gens:
            maps = list(enumerate_maps(i.source, S))
            pairs += [(i, alpha) for alpha in rng.sample(maps, min(2, len(maps)))]
        rng.shuffle(pairs)
        assert_attach_all_matches(S, pairs)


def test_attachment_total_maps_are_built_and_checked_when_first_read():
    S = spine_complex(3).complex
    pairs = [(i, alpha) for i in (key_inclusion((2, 1)), key_inclusion((1, None)))
             for alpha in list(enumerate_maps(i.source, S))[:2]]
    atts = [Attachment(i, alpha) for i, alpha in pairs]
    attach_all(S, atts)
    assert all("total_map" not in vars(att) for att in atts)
    _, _, totals = ref_attach_all(S, pairs)
    assert [att.total_map.images for att in atts] == totals
    assert all(att.total_map is att.total_map and att.total_map.check() == [] for att in atts)
    # read through the checked constructor: a cell without an image fails
    att = Attachment(*pairs[0])
    attach_all(S, [att])
    del att._total[1][CellId(0, 0)]
    with pytest.raises(ValueError, match="no image for cell"):
        att.total_map


def test_attach_all_matches_over_hundreds_of_same_label_attachments():
    """Every outer and inner 2-horn of cosk0(5, 2), then 400 inner
    2-horns of the result: each attachment asks for the labels of the
    cells of Delta^2 again."""
    S = cosk0_complex(5, 2).complex
    pairs = [(i, alpha) for i in (key_inclusion((2, 1)), key_inclusion((2, 0)))
             for alpha in enumerate_maps(i.source, S)]
    assert len(pairs) == 250
    T = assert_attach_all_matches(S, pairs)
    i = key_inclusion((2, 1))
    pairs = [(i, alpha) for alpha, _ in zip(enumerate_maps(i.source, T), range(400))]
    U = assert_attach_all_matches(T, pairs)
    # the edge 02 of S, then one per inner horn: 125 in the first stage
    # and 400 in the second
    assert {lab for lab in U.labels.values() if lab.rstrip("'") == "02"} == {
        "02" + "'" * m for m in range(526)
    }


def test_attach_all_skips_the_primed_labels_already_taken():
    """Labels of S that carry primes, with gaps, are skipped; the gaps
    are filled in order."""
    X = cosk0_complex(3, 2).complex
    edges = X.cells(1)
    S = _relabelled(X, {edges[0]: "02", edges[1]: "02'", edges[2]: "02'''",
                        X.cells(2)[0]: "012''", X.cells(0)[0]: "012"})
    i = key_inclusion((2, 1))
    pairs = [(i, alpha) for alpha in enumerate_maps(i.source, S)]
    out = assert_attach_all_matches(S, pairs)
    first = [out.labels[c] for c in out.cells(1)[S.n_cells(1):][:3]]
    assert first == ["02''", "02''''", "02'''''"]


def test_attach_all_reads_equal_inclusions_each_on_its_own():
    """Two equal inclusion objects, and a third equal one with its own
    complexes, attached in turns in one call."""
    S = spine_complex(3).complex
    i = key_inclusion((2, 1))
    copies = [i, SimplicialMap(i.source, i.target, i.images), copy.deepcopy(i)]
    assert copies[0] == copies[1] == copies[2]
    pairs = [(copies[k % 3], alpha) for k, alpha in enumerate(enumerate_maps(i.source, S))]
    assert len(pairs) > 6
    assert_attach_all_matches(S, pairs)


def ref_names(X):
    """SimplicialSet.names as a loop that probes every primed form."""
    names, used = {}, set()
    for c in X.all_cells():
        nm = X.labels.get(c)
        if nm is None or nm.split() != [nm]:
            nm = f"c{c.dim}_{c.index}"
        while nm in used:
            nm += "'"
        used.add(nm)
        names[c] = nm
    return names


@pytest.mark.parametrize("seed", range(3))
def test_names_match_the_probing_loop(seed):
    """Many cells with one label, primed labels with gaps, positional names
    that collide with labels, and labels a file cannot hold."""
    rng = random.Random(seed)
    X = cosk0_complex(4, 2).complex
    pool = ["a", "a", "a'", "a'''", "a''''''", "c1_3", "c1_3'", "", "b c", None, "b"]
    labels = {c: rng.choice(pool) for c in X.all_cells()}
    S = SimplicialSet(
        X.cell_counts(), {c: X.cell_faces(c) for c in X.all_cells() if c.dim > 0},
        {c: lab for c, lab in labels.items() if lab is not None},
    )
    assert S.names == ref_names(S)
    assert len(set(S.names.values())) == S.total_cells()


def _reordered(text, rng):
    """The same complex file with each cell record moved to a random place
    after every cell it names."""
    header, *records = text.splitlines()
    out = []
    for rec in records:
        names = {tok.rsplit("@", 1)[-1] for tok in rec.split()[4:]}
        earliest = max((i + 1 for i, r in enumerate(out) if r.split()[1] in names), default=0)
        out.insert(rng.randint(earliest, len(out)), rec)
    return "\n".join([header, *out]) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_parse_complex_matches_the_counting_parser(seed):
    rng = random.Random(seed)
    for X in seeded_complexes(seed, 8) + [cosk0_complex(3, 2).complex]:
        text = serialize_complex(X)
        for t in (text, _reordered(text, rng)):
            assert_same_complex(parse_complex(t), ref_parse_complex(t))


@pytest.mark.parametrize("text", [
    "",
    "dim 1\ncell a 0\ncell b 0\ncell e 1 faces: b\n",
    "dim 1\ncell a 0\ncell e 1 faces: a x\n",
    "dim 1\ncell a 0 faces: a\n",
    "dim 1\ncell a 0\ncell a 0\n",
    "dim 2\ncell a 0\ncell e 1 faces: a a\ncell t 2 faces: a e e\n",
    "dim 2\ncell a 0\ncell e 1 faces: a a\n",
    "dim 1\ncell a 0\ncell e 1 a a\n",
    "dim 1\ncell a 0\ncell e 3 faces: a a\n",
    "dim 2\ncell a 0\ncell b 0\ncell e 1 faces: a b\ncell f 1 faces: b a\ncell t 2 faces: e f e\n",
])
def test_parse_complex_rejects_bad_files_with_the_counting_parser_message(text):
    with pytest.raises(ParseError) as ref:
        ref_parse_complex(text)
    with pytest.raises(ParseError) as got:
        parse_complex(text)
    assert str(got.value) == str(ref.value)


def test_a_cell_naming_itself_as_a_face_is_an_unknown_reference():
    # the one parse message that moved: a cell is allocated once its faces
    # are read, so its own name is not yet known
    text = "dim 1\ncell a 0\ncell e 1 faces: e a\n"
    with pytest.raises(ParseError, match="face 'e' has dimension 1, expected 0"):
        ref_parse_complex(text)
    with pytest.raises(ParseError, match="line 3: unknown cell reference 'e'"):
        parse_complex(text)


@pytest.mark.parametrize("seed", range(3))
def test_levelwise_space_matches_the_counting_constructor(seed):
    rng = random.Random(seed)
    for X in seeded_complexes(seed, 4):
        for x in X.cells(0)[:2]:
            S = slice_under(X, x, 2)
            R, normalize, elements = ref_levelwise(
                S.levels, lambda n, u, i: X.face(u, i + 1), lambda n, u, j: degenerate(u, j + 1)
            )
            assert_same_complex(S.space, R)
            assert_same_normal_forms(S, normalize, elements)
    for C, K in ((standard_simplex(1).complex, standard_simplex(1).complex),
                 (random_generator_complex(rng).complex, standard_simplex(0).complex)):
        F = function_complex(C, K, 2)
        R, normalize, elements = ref_levelwise(F.levels, F.face_map, F.deg_map)
        assert_same_complex(F.space, R)
        assert_same_normal_forms(F, normalize, elements)
    # a level with no nondegenerate element below one that has some
    levels = [["a"], ["a0"], ["a00", "t"]]
    face = {("a0", i): "a" for i in range(2)} | {("a00", i): "a0" for i in range(3)}
    face |= {("t", i): "a0" for i in range(3)}
    deg = {("a", 0): "a0", ("a0", 0): "a00", ("a0", 1): "a00"}
    L = LevelwiseSpace(levels, lambda n, e, i: face[(e, i)], lambda n, e, j: deg[(e, j)])
    R, normalize, elements = ref_levelwise(levels, lambda n, e, i: face[(e, i)], lambda n, e, j: deg[(e, j)])
    assert L.space.cell_counts() == R.cell_counts() == (1, 0, 1)
    assert_same_complex(L.space, R)
    assert_same_normal_forms(L, normalize, elements)
    assert L.normalize(2, "a00") == Simplex(CellId(0, 0), (0, 1))
    with pytest.raises(ValueError, match="element not found at level 1: 'b0'"):
        L.normalize(1, "b0")
    # a degenerate element whose face is not an element is rejected at
    # construction, as a nondegenerate one always was
    with pytest.raises(ValueError, match="element not found at level 0: 'b'"):
        LevelwiseSpace([["a"], ["a0", "b0"]], lambda n, e, i: e[0], lambda n, e, j: e + "0")


def loop_with_triangle():
    """One vertex, a loop a on it, and a triangle with faces (a, a, a)."""
    b = ComplexBuilder()
    v = b.add_cell(0, label="v")
    a = b.add_cell(1, (Simplex(v), Simplex(v)), "a")
    b.add_cell(2, (Simplex(a),) * 3, "t")
    return b.build()


def sphere():
    """Delta^2 with its boundary collapsed: one vertex, no edge, and a
    triangle whose faces are all degenerate."""
    b = ComplexBuilder()
    v = b.add_cell(0, label="v")
    b.add_cell(2, (Simplex(v, (0,)),) * 3, "t")
    return b.build()


def assert_same_product(X, Y):
    P = product(X, Y)
    R, cell_pair, pair_cell, proj1, proj2 = ref_product(X, Y)
    assert_same_complex(P.complex, R)
    assert list(P.cell_pair.items()) == list(cell_pair.items())
    assert P.pair_cell == pair_cell
    assert (P.proj1.images, P.proj2.images) == (proj1, proj2)
    assert P.proj1.check() == [] and P.proj2.check() == []


@pytest.mark.parametrize("seed", range(3))
def test_product_matches_the_counting_constructor(seed):
    Xs = seeded_complexes(seed, 3) + [SimplicialSet([], {})]
    for X in Xs:
        for Y in Xs[:2] + Xs[-1:] + [standard_simplex(2).complex]:
            assert_same_product(X, Y)
    # degenerate stored faces and loops, in both argument orders
    odd = [cosk0_complex(3, 2).complex, j_truncation(2).complex, loop_with_triangle(), sphere()]
    for Z in odd:
        for W in odd:
            assert_same_product(Z, W)
        assert_same_product(Z, Xs[3])
        assert_same_product(Xs[3], Z)
    # a pair with disjoint words that names no cell is no simplex of the product
    P = product(standard_simplex(1).complex, standard_simplex(1).complex)
    with pytest.raises(KeyError):
        P.simplex_of_pair(Simplex(CellId(0, 0), (0,)), Simplex(CellId(1, 7)))


ODD_FACTORS = {
    "simplex2": lambda: standard_simplex(2).complex,
    "cosk0": lambda: cosk0_complex(3, 2).complex,
    "j2": lambda: j_truncation(2).complex,
    "loop": loop_with_triangle,
    "sphere": sphere,
}


@pytest.mark.parametrize("name", sorted(ODD_FACTORS))
def test_the_face_identity_gives_the_faces_of_the_one_step_rule(name):
    """Every face of every degenerate simplex up to dimension 4, by
    `face_word` and by `SimplicialSet.face`, is the face that commuting
    d_i through the word one degeneracy at a time gives."""
    X = ODD_FACTORS[name]()
    for n in range(1, 5):
        for s in X.simplices(n):
            if s.nondegenerate:
                continue
            fs = X.cell_faces(s.base)
            for i in range(n + 1):
                w, k = face_word(s.word, i)
                got = Simplex(s.base, w) if k is None else degenerate_by(fs[k], w)
                assert got == reference_face(X, s, i) == X.face(s, i), (s, i)


@pytest.mark.parametrize("first", sorted(ODD_FACTORS))
def test_simplex_of_pair_is_the_recursive_normal_form(first):
    """Every pair of n-simplices, n <= 3, shared degeneracies included,
    has the normal form the recursion on common degeneracies gives; every
    pair of simplices of different dimensions names no simplex, and both
    raise KeyError."""
    X = ODD_FACTORS[first]()
    for Y in (f() for f in ODD_FACTORS.values()):
        P = product(X, Y)
        firsts = {n: list(X.simplices(n)) for n in range(4)}
        seconds = {n: list(Y.simplices(n)) for n in range(4)}
        shared = 0
        for n in range(4):
            for u in firsts[n]:
                for v in seconds[n]:
                    shared += bool(set(u.word) & set(v.word))
                    want = ref_simplex_of_pair(X, Y, P.pair_cell, u, v)
                    assert P.simplex_of_pair(u, v) == want, (u, v)
        assert shared > 0
        for m, n in iproduct(range(4), repeat=2):
            if m == n:
                continue
            for u, v in iproduct(firsts[m], seconds[n]):
                for normal_form in (P.simplex_of_pair, partial(ref_simplex_of_pair, X, Y, P.pair_cell)):
                    try:
                        normal_form(u, v)
                    except KeyError:
                        continue
                    raise AssertionError(f"{(u, v)} names a simplex")


def test_product_projections_are_built_and_checked_when_first_read():
    X, Y = cosk0_complex(3, 2).complex, loop_with_triangle()
    P = product(X, Y)
    assert "proj1" not in vars(P) and "proj2" not in vars(P)
    _, _, _, proj1, proj2 = ref_product(X, Y)
    assert (P.proj1.images, P.proj2.images) == (proj1, proj2)
    assert P.proj1 is P.proj1 and P.proj2 is P.proj2
    assert P.proj1.check() == [] and P.proj2.check() == []
    # read through the checked constructor: a cell without an image fails
    Q = product(X, Y)
    del Q.cell_pair[CellId(0, 0)]
    with pytest.raises(ValueError, match="no image for cell"):
        Q.proj1


@pytest.mark.parametrize("seed", range(2))
def test_the_block_formula_gives_the_cell_of_each_pair(seed):
    """(s_I x, s_J y) is n-cell first + index(x) * width + index(y) * stride
    of the block of (I, J), for every cell of the products of the odd
    factors (degenerate stored faces and loops) and the seeded complexes,
    in both orders; `simplex_of_pair` gives that cell."""
    factors = [make() for make in ODD_FACTORS.values()] + seeded_complexes(seed, 2)
    for X in factors:
        for Y in factors:
            P = product(X, Y)
            for c, ((x, I), (y, J)) in P.cell_pair.items():
                first, width, stride = P._blocks[c.dim][I, J][:3]
                assert c.index == first + x.index * width + y.index * stride
                assert P.simplex_of_pair(Simplex(x, I), Simplex(y, J)) == Simplex(c)


def test_simplex_of_pair_reads_no_pair_table():
    """`simplex_of_pair` answers by block arithmetic before any pair
    table is read, and the tables are built when first read."""
    X, Y = cosk0_complex(3, 2).complex, loop_with_triangle()
    P = product(X, Y)
    _, cell_pair, pair_cell, _, _ = ref_product(X, Y)
    for c, (u, v) in cell_pair.items():
        assert P.simplex_of_pair(u, v) == Simplex(c)
    for n in range(4):
        for u in X.simplices(n):
            for v in Y.simplices(n):
                assert P.simplex_of_pair(u, v) == ref_simplex_of_pair(X, Y, pair_cell, u, v)
    # a cell one past the last of its dimension, on either side, is none
    for u, v in cell_pair.values():
        (x, I), (y, J) = u, v
        past_x = Simplex(CellId(x.dim, X.n_cells(x.dim)), I)
        past_y = Simplex(CellId(y.dim, Y.n_cells(y.dim)), J)
        for bad in (past_x, v), (u, past_y):
            with pytest.raises(KeyError):
                P.simplex_of_pair(*bad)
    assert "cell_pair" not in vars(P) and "pair_cell" not in vars(P)
    assert P.pair_cell == pair_cell
    assert list(vars(P)["cell_pair"].items()) == list(cell_pair.items())


def library_calls(names):
    """(module, enclosing function, callee) for every call inside the
    library to a function or method named in `names`, sorted."""
    package = pathlib.Path(sskit.__file__).parent
    calls = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                scopes[child] = node
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                owner, where = node, []
                while owner in scopes:
                    owner = scopes[owner]
                    if isinstance(owner, (ast.FunctionDef, ast.ClassDef)):
                        where.append(owner.name)
                module = path.relative_to(package).as_posix()
                calls.append((module, ".".join(reversed(where)), name))
    return sorted(calls)


def test_only_the_builder_constructs_a_simplicial_set():
    """Inside the library, `SimplicialSet(...)` is called only by
    `ComplexBuilder.build`: every complex is numbered by the builder."""
    assert library_calls({"SimplicialSet"}) == [
        ("core/complex.py", "ComplexBuilder.build", "SimplicialSet")
    ]


def test_only_the_generator_table_builds_horns_and_boundaries():
    """Inside the library, horns and boundaries are built only by
    `key_inclusion`, so every consumer shares its cached inclusions."""
    assert library_calls({"horn_complex", "boundary_complex"}) == [
        ("lifting.py", "key_inclusion", "boundary_complex"),
        ("lifting.py", "key_inclusion", "horn_complex"),
    ]


def test_only_the_small_object_stage_lists_and_attaches_cells():
    """Inside the library, cells are attached only by `soa_stage` and by
    the single `pushout`, and maps out of generators are listed only by
    `soa_stage`: saturation runs one stage per dimension."""
    assert library_calls({"attach_all", "generator_maps"}) == [
        ("core/maps.py", "pushout", "attach_all"),
        ("factorize.py", "soa_stage", "attach_all"),
        ("factorize.py", "soa_stage", "generator_maps"),
    ]
    saturation = [
        name
        for _, where, name in library_calls(
            {"sub_complex", "compose", "hom_left", "attach_all", "generator_maps"}
        )
        if where.startswith("saturate_prefibrant")
    ]
    assert saturation == []
