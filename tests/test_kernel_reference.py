"""The normal-form kernel against reference copies of its general code.

`face`, `apply_images`, `has_cell` and the input checks of
`SimplicialSet` and `SimplicialMap` are compared with test-local copies
that run every simplex through the degeneracy-word arithmetic and every
check through the `Simplex.dim` property and `has_cell`.  Answers,
exceptions and messages must be equal.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sskit.core import (
    CellId,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    apply_images,
    degenerate,
    map_by_vertices,
    standard_simplex,
    word_is_valid,
)

from conftest import random_generator_complex, random_looped_complex, reference_face

SEEDS = st.integers(0, 2**30)
SIXTY = settings(max_examples=60, deadline=None)


def reference_apply_images(images, s):
    r = images[s.base]
    for j in s.word:
        r = degenerate(r, j)
    return r


def reference_has_cell(counts, c):
    return 0 <= c.dim <= len(counts) - 1 and 0 <= c.index < counts[c.dim]


def reference_complex_error(counts, faces):
    """The message of the first structural violation, or None."""
    cells = [[CellId(d, i) for i in range(n)] for d, n in enumerate(counts)]
    for d in range(1, len(counts)):
        for c in cells[d]:
            fs = faces.get(c)
            if fs is None or len(fs) != d + 1:
                return f"cell {c} lacks a full face tuple"
            for f in fs:
                if f.dim != d - 1:
                    return f"face {f} of {c} has wrong dimension"
                if not reference_has_cell(counts, f.base):
                    return f"face {f} of {c} targets a missing cell"
                if not word_is_valid(f.word, f.base.dim):
                    return f"face {f} of {c} is not in normal form"
    return None


def reference_map_error(source, target, images):
    for c in source.all_cells():
        img = images.get(c)
        if img is None:
            return f"no image for cell {source.label(c)}"
        if img.dim != c.dim:
            return f"image of {source.label(c)} has dim {img.dim}, want {c.dim}"
        if not reference_has_cell(target.cell_counts(), img.base):
            return f"image of {source.label(c)} not in target"
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except (IndexError, KeyError) as exc:
        return type(exc), str(exc)


def random_complex(rng):
    """A generator complex (every stored face nondegenerate) or a looped
    complex (degenerate stored faces, loops, parallel edges)."""
    if rng.random() < 0.5:
        return random_generator_complex(rng).complex
    return random_looped_complex(rng)


def every_simplex(X):
    """Every simplex up to dimension dim + 1, degenerate ones included."""
    return [s for n in range(X.dim + 2) for s in X.simplices(n)]


@SIXTY
@given(SEEDS)
def test_face_agrees_with_the_word_arithmetic(seed):
    rng = random.Random(seed)
    X = random_complex(rng)
    queries = [(s, i) for s in every_simplex(X) for i in range(-1, s.dim + 2)]
    rng.shuffle(queries)
    # twice, so that the second round reads whatever the first one cached
    for s, i in queries + queries:
        assert outcome(X.face, s, i) == outcome(reference_face, X, s, i)


def test_faces_of_vertices_and_out_of_range_indices_raise_the_same_error():
    X = standard_simplex(2).complex
    for s, i in [
        (Simplex(CellId(0, 0)), 0),
        (Simplex(CellId(0, 1)), -1),
        (Simplex(CellId(2, 0)), 3),
        (Simplex(CellId(2, 0)), -1),
        (Simplex(CellId(1, 0), (0,)), 3),
    ]:
        got, want = outcome(X.face, s, i), outcome(reference_face, X, s, i)
        assert got == want and got[0] is IndexError


@SIXTY
@given(SEEDS)
def test_has_cell_agrees_with_the_reference(seed):
    X = random_complex(random.Random(seed))
    for d in range(-2, X.dim + 3):
        for k in range(-2, max(X.cell_counts()) + 3):
            c = CellId(d, k)
            assert X.has_cell(c) == reference_has_cell(X.cell_counts(), c)


@SIXTY
@given(SEEDS)
def test_apply_images_agrees_with_the_degeneracy_loop(seed):
    """On random image tables (any simplex of the right dimension per
    cell, so degenerate images of lower cells too) and on maps into a
    standard simplex given by monotone vertex assignments."""
    rng = random.Random(seed)
    X, Y = random_complex(rng), random_complex(rng)
    table = {c: rng.choice(list(Y.simplices(c.dim))) for c in X.all_cells()}
    G = random_generator_complex(rng)
    top = rng.randint(0, 3)
    vmap = sorted(rng.randint(0, top) for _ in G.complex.cells(0))
    monotone = map_by_vertices(
        G.complex, standard_simplex(top), dict(zip(G.complex.cells(0), vmap))
    )
    for source, target, images in [(X, Y, table), (G.complex, monotone.target, monotone.images)]:
        assert reference_map_error(source, target, images) is None
        f = SimplicialMap(source, target, images)
        for s in every_simplex(source):
            want = outcome(reference_apply_images, images, s)
            assert outcome(apply_images, images, s) == want
            assert outcome(f.apply, s) == want
    # a table that is no map: each image a simplex of any dimension
    anything = every_simplex(Y)
    loose = {c: rng.choice(anything) for c in X.all_cells()}
    for s in every_simplex(X):
        assert outcome(apply_images, loose, s) == outcome(reference_apply_images, loose, s)


def malformed_faces(rng, X):
    """The face table of X with one to three random cells broken: a face
    tuple dropped or cut short, a face of the wrong dimension, a face on a
    missing cell, or a word out of normal form."""
    counts = X.cell_counts()
    faces = {c: X.cell_faces(c) for c in X.all_cells() if c.dim > 0}
    for _ in range(rng.randint(1, 3)):
        broken = [c for c in sorted(faces) if faces[c]]
        if not broken:
            break
        c = rng.choice(broken)
        fs, k = list(faces[c]), rng.randrange(len(faces[c]))
        f = fs[k]
        how = rng.choice(["drop", "short", "dim", "missing", "word"])
        if how == "drop":
            del faces[c]
            continue
        if how == "short":
            fs.pop()
        elif how == "dim":
            fs[k] = Simplex(f.base, tuple(range(len(f.word) + 1)))
        elif how == "missing":
            d = rng.choice([f.base.dim, len(counts), -1])
            index = counts[d] if 0 <= d < len(counts) else 0
            fs[k] = Simplex(CellId(d, rng.choice([index, -1])), f.word)
        elif len(f.word) > 1:
            fs[k] = Simplex(f.base, tuple(reversed(f.word)))
        elif f.dim > 0:  # s_1 ... s_dim over a vertex: past the bound at once
            fs[k] = Simplex(CellId(0, 0), tuple(range(1, f.dim + 1)))
        faces[c] = tuple(fs)
    return counts, faces


@SIXTY
@given(SEEDS)
def test_malformed_complexes_raise_the_reference_message(seed):
    rng = random.Random(seed)
    X = random_complex(rng)
    if X.dim < 1:
        X = standard_simplex(rng.randint(1, 3)).complex
    counts, faces = malformed_faces(rng, X)
    want = reference_complex_error(counts, faces)
    if want is None:
        assert SimplicialSet(counts, faces) is not None
        return
    with pytest.raises(ValueError) as info:
        SimplicialSet(counts, faces)
    assert str(info.value) == want


def test_each_structural_violation_has_its_message():
    X = standard_simplex(2).complex
    faces = {c: X.cell_faces(c) for c in X.all_cells() if c.dim > 0}
    top = CellId(2, 0)
    d0, d1, d2 = faces[top]
    cases = {
        "lacks a full face tuple": {**faces, top: (d0, d1)},
        "has wrong dimension": {**faces, top: (d0, Simplex(d1.base, (0,)), d2)},
        "targets a missing cell": {**faces, top: (d0, Simplex(CellId(1, 3)), d2)},
        "is not in normal form": {**faces, top: (d0, Simplex(CellId(0, 0), (1,)), d2)},
    }
    for tail, table in cases.items():
        want = reference_complex_error(X.cell_counts(), table)
        assert want.endswith(tail)
        with pytest.raises(ValueError) as info:
            SimplicialSet(X.cell_counts(), table)
        assert str(info.value) == want
    missing = dict(faces)
    del missing[top]
    with pytest.raises(ValueError, match=r"^cell CellId\(2,0\) lacks a full face tuple$"):
        SimplicialSet(X.cell_counts(), missing)


@SIXTY
@given(SEEDS)
@example(26344)  # X is one vertex: a "drop" leaves no image to mutate
def test_malformed_maps_raise_the_reference_message(seed):
    rng = random.Random(seed)
    X, Y = random_complex(rng), random_complex(rng)
    images = {c: rng.choice(list(Y.simplices(c.dim))) for c in X.all_cells()}
    counts = Y.cell_counts()
    for _ in range(rng.randint(1, 3)):
        if not images:
            break
        c = rng.choice(sorted(images))
        img = images[c]
        how = rng.choice(["drop", "dim", "outside", "outside"])
        if how == "drop":
            del images[c]
        elif how == "dim":
            images[c] = Simplex(img.base, img.word + (img.dim,))
        else:
            d = rng.choice([img.base.dim, len(counts), -1])
            index = counts[d] if 0 <= d < len(counts) else 0
            images[c] = Simplex(CellId(d, rng.choice([index, -1])), img.word)
    want = reference_map_error(X, Y, images)
    if want is None:
        assert SimplicialMap(X, Y, images).images == images
        return
    with pytest.raises(ValueError) as info:
        SimplicialMap(X, Y, images)
    assert str(info.value) == want


def test_each_map_violation_has_its_message():
    X, Y = standard_simplex(1).complex, standard_simplex(2).complex
    good = {c: Simplex(c) for c in X.all_cells()}
    edge = CellId(1, 0)
    cases = {
        "no image for cell": {c: s for c, s in good.items() if c != edge},
        "has dim 2, want 1": {**good, edge: Simplex(CellId(2, 0))},
        "not in target": {**good, edge: Simplex(CellId(1, 3))},
    }
    for tail, images in cases.items():
        want = reference_map_error(X, Y, images)
        assert tail in want
        with pytest.raises(ValueError) as info:
            SimplicialMap(X, Y, images)
        assert str(info.value) == want
