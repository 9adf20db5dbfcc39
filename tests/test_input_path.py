"""The input path against a reference copy of the parser and checks it
replaced.

The reference below is the line-by-line parser, the face-by-face checks
and the list-based face identity as they stood before the one-pass input
path.  Random complexes and maps, their files, and one-line mutations of
those files must give the same complex with the same labels, or the same
`ParseError` text and line number, and the same violation lists in the
same order.
"""

import random
import re
from itertools import combinations, islice

from hypothesis import given, settings, strategies as st

from sskit.core import (
    CellId,
    ComplexBuilder,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    enumerate_maps,
    horn_complex,
    identity_map,
    product,
    standard_simplex,
    validate,
)
from sskit.core.simplex import face_word, word_is_valid
from sskit.fileformat import ParseError, parse_complex, parse_map, serialize_complex, serialize_map

from conftest import random_generator_complex, random_looped_complex, random_mono_pair

SEEDS = st.integers(0, 2**30)
COMPLEX_MUTATIONS = (
    "none", "drop_face", "wrong_dim", "bad_word", "duplicate_name",
    "comment", "face_first", "other_face",
)
MAP_MUTATIONS = (
    "none", "drop_image", "repeat_image", "other_image", "bad_word",
    "unknown_cell", "comment", "header_late",
)


# -- the reference ------------------------------------------------------------------

_DEGENERATE = re.compile(r"s(\d+(?:,\d+)*)@(.+)")


def ref_strip(raw):
    return raw.split("#", 1)[0].strip()


def ref_records(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = ref_strip(raw)
        if line:
            yield lineno, line, line.split()


def ref_parse_token(tok, byname, lineno):
    if tok in byname:
        return Simplex(byname[tok])
    m = _DEGENERATE.fullmatch(tok)
    if m and m.group(2) in byname:
        word = tuple(int(j) for j in m.group(1).split(","))
        return Simplex(byname[m.group(2)], word)
    raise ParseError(lineno, f"unknown cell reference {tok!r}")


def ref_name_table(X):
    names, used = {}, set()
    for c in X.all_cells():
        nm = X.label(c)
        if nm.split() != [nm]:
            nm = f"c{c.dim}_{c.index}"
        while nm in used:
            nm += "'"
        used.add(nm)
        names[c] = nm
    return names


def ref_structural_check(cell_counts, faces):
    """`SimplicialSet._structural_check` on the counts and faces given to
    the constructor."""
    counts = list(cell_counts)
    while counts and counts[-1] == 0:
        counts.pop()
    for d in range(1, len(counts)):
        for k in range(counts[d]):
            c = CellId(d, k)
            fs = faces.get(c)
            if fs is None or len(fs) != d + 1:
                raise ValueError(f"cell {c} lacks a full face tuple")
            for f in fs:
                (fd, fk), word = f
                if fd + len(word) != d - 1:
                    raise ValueError(f"face {f} of {c} has wrong dimension")
                if not (0 <= fd < len(counts) and 0 <= fk < counts[fd]):
                    raise ValueError(f"face {f} of {c} targets a missing cell")
                if word and not word_is_valid(word, fd):
                    raise ValueError(f"face {f} of {c} is not in normal form")


def ref_validate(X):
    violations = []
    for d in range(2, X.dim + 1):
        for c in X.cells(d):
            s = Simplex(c)
            for j in range(1, d + 1):
                for i in range(j):
                    lhs = X.face(X.face(s, j), i)
                    rhs = X.face(X.face(s, i), j - 1)
                    if lhs != rhs:
                        violations.append(
                            f"cell {X.label(c)} (dim {d}): "
                            f"d_{i} d_{j} = {lhs} but d_{j-1} d_{i} = {rhs}"
                        )
    return violations


def ref_map_check(f):
    out = []
    for c in f.source.all_cells():
        if c.dim == 0:
            continue
        s = Simplex(c)
        for i in range(c.dim + 1):
            want = f.apply(f.source.face(s, i))
            got = f.target.face(f.images[c], i)
            if want != got:
                out.append(
                    f"cell {f.source.label(c)}, face {i}: "
                    f"image face {got} != face image {want}"
                )
    return out


def ref_parse_complex(text):
    declared = None
    counts, faces, labels, byname = [], {}, {}, {}
    for lineno, _, toks in ref_records(text):
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
            ftoks = toks[4:]
            if d == 0:
                if len(toks) != 3:
                    raise ParseError(lineno, "a vertex record takes no faces")
            elif len(toks) < 4 or toks[3] != "faces:":
                raise ParseError(lineno, "expected 'faces:' after the dimension")
            elif len(ftoks) != d + 1:
                raise ParseError(
                    lineno, f"cell of dimension {d} needs {d + 1} faces, got {len(ftoks)}"
                )
            fs = []
            for tok in ftoks:
                f = ref_parse_token(tok, byname, lineno)
                if f.dim != d - 1:
                    raise ParseError(
                        lineno, f"face {tok!r} has dimension {f.dim}, expected {d - 1}"
                    )
                fs.append(f)
            while len(counts) <= d:
                counts.append(0)
            c = CellId(d, counts[d])
            counts[d] += 1
            if d > 0:
                faces[c] = tuple(fs)
            byname[name] = c
            labels[c] = name
        else:
            raise ParseError(lineno, f"unknown record {toks[0]!r}")

    if declared is None:
        raise ParseError(1, "missing dim header")
    try:
        ref_structural_check(counts, faces)
    except ValueError as e:
        raise ParseError(0, str(e)) from None
    X = SimplicialSet(counts, faces, labels)
    if X.dim != declared:
        raise ParseError(1, f"declared dim {declared} but top cell has dim {X.dim}")
    bad = ref_validate(X)
    if bad:
        raise ParseError(0, "; ".join(bad))
    return X


def ref_parse_map(text, resolve):
    src = tgt = None
    src_byname, tgt_byname, images = {}, {}, {}
    for lineno, _, toks in ref_records(text):
        if toks[0] == "map":
            if src is not None or len(toks) != 3:
                raise ParseError(lineno, "malformed or repeated map header")
            src, tgt = resolve(toks[1]), resolve(toks[2])
            src_byname = {v: k for k, v in ref_name_table(src).items()}
            tgt_byname = {v: k for k, v in ref_name_table(tgt).items()}
        elif toks[0] == "image":
            if src is None or tgt is None:
                raise ParseError(lineno, "image record before the map header")
            if len(toks) != 3:
                raise ParseError(lineno, "image record takes a cell and a token")
            if toks[1] not in src_byname:
                raise ParseError(lineno, f"unknown source cell {toks[1]!r}")
            c = src_byname[toks[1]]
            if c in images:
                raise ParseError(lineno, f"repeated image for cell {toks[1]!r}")
            s = ref_parse_token(toks[2], tgt_byname, lineno)
            if s.dim != c.dim:
                raise ParseError(
                    lineno,
                    f"image of {toks[1]!r} has dimension {s.dim}, expected {c.dim}",
                )
            images[c] = s
        else:
            raise ParseError(lineno, f"unknown record {toks[0]!r}")
    if src is None or tgt is None:
        raise ParseError(1, "missing map header")
    try:
        f = SimplicialMap(src, tgt, images)
    except ValueError as e:
        raise ParseError(0, str(e)) from None
    bad = ref_map_check(f)
    if bad:
        raise ParseError(0, "; ".join(bad))
    return f


def ref_face_word(word, i):
    e = i if i in word or i - 1 not in word else i - 1
    below = [j for j in word if j < e]
    w = tuple(below + [j - 1 for j in word if j > e])
    return w, (None if len(w) < len(word) else e - len(below))


# -- outcomes ---------------------------------------------------------------------


def outcome(fn, *args):
    """What a call gives: its value, or its exception's type, text and
    line number."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc), getattr(exc, "lineno", None)


def complex_outcome(fn, text):
    out = outcome(fn, text)
    if out[0] != "ok":
        return out
    X = out[1]
    return (
        "ok", X.cell_counts(), {c: X.cell_faces(c) for c in X.all_cells()}, X.labels,
    )


def map_outcome(fn, text, resolve):
    out = outcome(fn, text, resolve)
    if out[0] != "ok":
        return out
    f = out[1]
    return "ok", f.source, f.target, f.images


# -- random inputs ----------------------------------------------------------------


def random_complex(rng):
    """A generator complex, a looped complex (degenerate faces, no labels)
    or a small product (labels holding '@' and '|')."""
    kind = rng.choice(["generator", "looped", "product"])
    if kind == "generator":
        return random_generator_complex(rng).complex
    if kind == "looped":
        return random_looped_complex(rng)
    small = [standard_simplex(0), standard_simplex(1), horn_complex(2, 1)]
    return product(rng.choice(small).complex, rng.choice(small).complex).complex


def mutate_complex(text, kind, rng):
    """The complex file with one line changed as `kind` says; unchanged when
    no line fits."""
    lines = text.splitlines()
    cells = [k for k, line in enumerate(lines) if line.startswith("cell ")]
    with_faces = [k for k in cells if "faces:" in lines[k]]
    names = [lines[k].split()[1] for k in cells]
    if kind == "comment":
        k = rng.randrange(len(lines))
        p = rng.randint(0, len(lines[k]))
        lines[k] = lines[k][:p] + rng.choice(["#", " # note", "#x "]) + lines[k][p:]
    elif kind == "face_first" and with_faces:
        k = rng.choice(with_faces)
        line = lines.pop(k)
        lines.insert(rng.randint(1, k), line)
    elif kind == "duplicate_name" and len(cells) > 1:
        k = rng.choice(cells[1:])
        toks = lines[k].split()
        toks[1] = rng.choice(names[: cells.index(k)])
        lines[k] = " ".join(toks)
    elif kind == "wrong_dim" and cells:
        k = rng.choice(cells)
        toks = lines[k].split()
        toks[2] = rng.choice(["-1", "0", "1", "2", "3", "4", "x"])
        lines[k] = " ".join(toks)
    elif kind in ("drop_face", "bad_word", "other_face") and with_faces:
        k = rng.choice(with_faces)
        toks = lines[k].split()
        p = rng.randrange(4, len(toks))
        if kind == "drop_face":
            del toks[p]
        elif kind == "bad_word":
            word = ",".join(str(j) for j in sorted(rng.sample(range(6), rng.randint(1, 2))))
            toks[p] = f"s{word}@{rng.choice(names + ['x'])}"
        else:
            toks[p] = rng.choice(names)
        lines[k] = " ".join(toks)
    return "\n".join(lines) + "\n"


def random_map(rng):
    """An inclusion, an identity, or a map into a looped complex (so with
    degenerate images)."""
    kind = rng.choice(["inclusion", "identity", "looped"])
    if kind == "inclusion":
        pair = None
        while pair is None:
            pair = random_mono_pair(rng)
        return rng.choice(pair)
    if kind == "identity":
        return identity_map(random_complex(rng))
    target = random_looped_complex(rng)
    source = rng.choice([standard_simplex(1), horn_complex(2, 1), standard_simplex(2)]).complex
    maps = list(islice(enumerate_maps(source, target), 20))
    return rng.choice(maps) if maps else identity_map(target)


def mutate_map(text, names, kind, rng):
    """The map file with one line changed as `kind` says; `names` are the
    target's cell names."""
    header, *images = text.splitlines()
    lines = [header, *images]
    if kind == "comment":
        k = rng.randrange(len(lines))
        p = rng.randint(0, len(lines[k]))
        lines[k] = lines[k][:p] + "#" + lines[k][p:]
    elif kind == "header_late" and images:
        lines.insert(rng.randint(1, len(images)), lines.pop(0))
    elif kind == "drop_image" and images:
        del lines[rng.randint(1, len(images))]
    elif kind == "repeat_image" and images:
        k = rng.randint(1, len(images))
        lines.insert(rng.randint(1, len(lines)), lines[k])
    elif kind in ("other_image", "bad_word", "unknown_cell") and images:
        k = rng.randint(1, len(images))
        toks = lines[k].split()
        if kind == "other_image":
            toks[2] = rng.choice(names)
        elif kind == "bad_word":
            toks[2] = f"s{rng.randrange(6)}@{rng.choice(names)}"
        else:
            toks[1] = "nope"
        lines[k] = " ".join(toks)
    return "\n".join(lines) + "\n"


# -- the differential tests --------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.sampled_from(COMPLEX_MUTATIONS))
def test_parse_complex_matches_the_reference(seed, kind):
    rng = random.Random(seed)
    text = mutate_complex(serialize_complex(random_complex(rng)), kind, rng)
    assert complex_outcome(parse_complex, text) == complex_outcome(ref_parse_complex, text)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.sampled_from(MAP_MUTATIONS))
def test_parse_map_matches_the_reference(seed, kind):
    rng = random.Random(seed)
    f = random_map(rng)
    complexes = {"src.txt": f.source, "tgt.txt": f.target}
    names = list(ref_name_table(f.target).values())
    text = mutate_map(serialize_map(f, "src.txt", "tgt.txt"), names, kind, rng)
    got = map_outcome(parse_map, text, complexes.__getitem__)
    want = map_outcome(ref_parse_map, text, complexes.__getitem__)
    if got[0] == "ParseError" and got[1].endswith("is not in normal form"):
        # an image word out of normal form, which the reference takes and
        # fails on later: inside `face` (a KeyError or IndexError), or on
        # the face checks of the whole map (line 0)
        assert kind == "bad_word"
        assert want[0] in ("KeyError", "IndexError") or (want[0], want[2]) == ("ParseError", 0)
        line = text.splitlines()[got[2] - 1].split()
        assert line[0] == "image" and f"image {line[2]!r} is" in got[1]
    else:
        assert got == want


def random_faces(rng, counts, valid_share):
    """Face tuples for the given cell counts: each face is, with the given
    probability, a nondegenerate cell one dimension down; otherwise any
    simplex over any cell, maybe missing or with a word not in normal
    form.  A few tuples are short, long or missing."""
    faces = {}
    for d in range(1, len(counts)):
        for k in range(counts[d]):
            r = rng.random()
            if r < 0.03:
                continue
            n = d + 1 + (rng.choice([-1, 1]) if r < 0.06 else 0)
            fs = []
            for _ in range(n):
                if rng.random() < valid_share and counts[d - 1]:
                    fs.append(Simplex(CellId(d - 1, rng.randrange(counts[d - 1]))))
                else:
                    fd = rng.randint(-1, len(counts))
                    fk = rng.randint(-1, 3)
                    word = tuple(sorted(rng.sample(range(d + 1), rng.randint(0, min(d, 2)))))
                    if rng.random() < 0.2:
                        word = word[::-1]
                    fs.append(Simplex(CellId(fd, fk), word))
            faces[CellId(d, k)] = tuple(fs)
    return faces


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_structural_check_matches_the_reference(seed):
    rng = random.Random(seed)
    counts = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    faces = random_faces(rng, counts, rng.choice([0.9, 0.99, 1.0]))
    got = outcome(SimplicialSet, counts, faces)
    want = outcome(ref_structural_check, counts, faces)
    if want[0] == "ok":
        assert got[0] == "ok"
    else:
        assert got == want


def random_unchecked_complex(rng):
    """Cells whose faces have the right dimensions but are drawn at
    random, so the simplicial identities mostly fail; degenerate faces
    included."""
    builder = ComplexBuilder()
    n_vertices = rng.randint(1, 3)
    for _ in range(n_vertices):
        builder.add_cell(0, label=rng.choice(["v", "w", None]))
    X = builder.build()
    for n in range(1, rng.randint(2, 4)):
        lower = list(X.simplices(n - 1))
        for _ in range(rng.randint(1, 3)):
            builder.add_cell(n, [rng.choice(lower) for _ in range(n + 1)])
        X = builder.build()
    return X


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_validate_matches_the_reference(seed):
    X = random_unchecked_complex(random.Random(seed))
    assert validate(X) == ref_validate(X)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_map_check_matches_the_reference(seed):
    """Maps with images drawn at random among the simplices of the right
    dimension, degenerate ones included, so most faces disagree."""
    rng = random.Random(seed)
    source = random_complex(rng)
    target = rng.choice([random_looped_complex, random_unchecked_complex])(rng)
    images = {}
    for c in source.all_cells():
        choices = list(target.simplices(c.dim))
        images[c] = rng.choice(choices)
    f = SimplicialMap(source, target, images)
    assert f.check() == ref_map_check(f)


def test_face_word_matches_the_reference():
    for length in range(1, 6):
        for dim in range(length, length + 4):
            for word in combinations(range(dim), length):
                for i in range(dim + 1):
                    assert face_word(word, i) == ref_face_word(word, i)
