"""Line-oriented text formats for complexes and maps.

Complex files: a `dim N` header, then one `cell <name> <dim>` record per
nondegenerate cell in (dim, index) order, with `faces: <f0> ... <fk>`
for dim >= 1.  A face token is a cell name, or `s<j1>,<j2>,...@<name>`
for a degenerate face.  `#` starts a comment.  Map files name the two
complex files and give one `image <cell> <token>` line per cell of the
source, each image word in normal form.  Certificate files give a
`class <family>` header and one `step <n> <horn index> <filler cell>`
record per horn filling, naming cells of the target complex.  All parse
failures carry the offending line number, 0 for a defect of the file as
a whole.
"""

from __future__ import annotations

import re
from typing import Callable

from .certify import AnodyneCertificate
from .core import (
    CellId, ComplexBuilder, Simplex, SimplicialMap, SimplicialSet, validate, word_is_valid,
    word_label,
)

_DEGENERATE = re.compile(r"s(\d+(?:,\d+)*)@(.+)")


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# -- serialization -------------------------------------------------------------


def name_table(X: SimplicialSet) -> dict[CellId, str]:
    """Unique whitespace-free file names for the cells, from the labels
    (`SimplicialSet.names`, built once per complex)."""
    return X.names


def serialize_complex(X: SimplicialSet) -> str:
    """A nondegenerate face is written as its name; only a degenerate face
    goes through `word_label`."""
    names = name_table(X)
    lines = [f"dim {X.dim}"]
    for c in X.all_cells():
        if c.dim == 0:
            lines.append(f"cell {names[c]} 0")
        else:
            toks = " ".join([
                word_label(names[f.base], f.word) if f.word else names[f.base]
                for f in X.cell_faces(c)
            ])
            lines.append(f"cell {names[c]} {c.dim} faces: {toks}")
    return "\n".join(lines) + "\n"


def serialize_map(f: SimplicialMap, src_ref: str, tgt_ref: str) -> str:
    src_names = name_table(f.source)
    tgt_names = name_table(f.target)
    lines = [f"map {src_ref} {tgt_ref}"]
    for c in f.source.all_cells():
        img = f.images[c]
        lines.append(f"image {src_names[c]} {word_label(tgt_names[img.base], img.word)}")
    return "\n".join(lines) + "\n"


def serialize_certificate(cert: AnodyneCertificate, B: SimplicialSet) -> str:
    """A certificate for an inclusion into B, naming cells of B."""
    names = name_table(B)
    lines = [f"class {cert.family}"]
    for n, hi, top in cert.steps:
        lines.append(f"step {n} {hi} {names[top]}")
    return "\n".join(lines) + "\n"


# -- parsing ---------------------------------------------------------------------


def _parse_token(tok: str, byname: dict[str, CellId], lineno: int) -> Simplex:
    # an exact name wins over the degeneracy reading, so generated names
    # containing '@' survive a round trip
    if tok in byname:
        return Simplex(byname[tok])
    m = _DEGENERATE.fullmatch(tok)
    if m and m.group(2) in byname:
        word = tuple(int(j) for j in m.group(1).split(","))
        return Simplex(byname[m.group(2)], word)
    raise ParseError(lineno, f"unknown cell reference {tok!r}")


def parse_complex(text: str) -> SimplicialSet:
    declared: int | None = None
    builder = ComplexBuilder()
    byname: dict[str, CellId] = {}
    # by dimension, the nondegenerate simplex of each named cell, so that
    # a face naming a cell of the right dimension takes one lookup
    named: list[dict[str, Simplex]] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not toks:
            continue
        head = toks[0]
        if head == "cell":
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
            fs = []
            if d == 0:
                if len(toks) != 3:
                    raise ParseError(lineno, "a vertex record takes no faces")
            elif len(toks) < 4 or toks[3] != "faces:":
                raise ParseError(lineno, "expected 'faces:' after the dimension")
            elif len(toks) != d + 5:
                raise ParseError(
                    lineno, f"cell of dimension {d} needs {d + 1} faces, got {len(toks) - 4}"
                )
            else:
                below = named[d - 1] if d <= len(named) else {}
                for tok in toks[4:]:
                    f = below.get(tok)
                    if f is None:  # a degenerate face, or a defect
                        f = _parse_token(tok, byname, lineno)
                        if f.dim != d - 1:
                            raise ParseError(
                                lineno, f"face {tok!r} has dimension {f.dim}, expected {d - 1}"
                            )
                    fs.append(f)
            c = byname[name] = builder.add_cell(d, fs, name)
            while len(named) <= d:
                named.append({})
            named[d][name] = Simplex(c)
        elif head == "dim":
            if declared is not None or len(toks) != 2:
                raise ParseError(lineno, "malformed or repeated dim header")
            try:
                declared = int(toks[1])
            except ValueError:
                raise ParseError(lineno, f"bad dimension {toks[1]!r}") from None
        else:
            raise ParseError(lineno, f"unknown record {head!r}")

    if declared is None:
        raise ParseError(1, "missing dim header")
    try:
        X = builder.build()
    except ValueError as e:
        raise ParseError(0, str(e)) from None
    if X.dim != declared:
        raise ParseError(1, f"declared dim {declared} but top cell has dim {X.dim}")
    bad = validate(X)
    if bad:
        raise ParseError(0, "; ".join(bad))
    return X


def parse_map(
    text: str, resolve: Callable[[str], SimplicialSet]
) -> SimplicialMap:
    """Parse a map file; complex references are resolved by the callback."""
    src = tgt = None
    src_byname: dict[str, CellId] = {}
    tgt_byname: dict[str, CellId] = {}
    images: dict[CellId, Simplex] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not toks:
            continue
        head = toks[0]
        if head == "image":
            if src is None or tgt is None:
                raise ParseError(lineno, "image record before the map header")
            if len(toks) != 3:
                raise ParseError(lineno, "image record takes a cell and a token")
            c = src_byname.get(toks[1])
            if c is None:
                raise ParseError(lineno, f"unknown source cell {toks[1]!r}")
            if c in images:
                raise ParseError(lineno, f"repeated image for cell {toks[1]!r}")
            s = _parse_token(toks[2], tgt_byname, lineno)
            if s.dim != c.dim:
                raise ParseError(
                    lineno,
                    f"image of {toks[1]!r} has dimension {s.dim}, expected {c.dim}",
                )
            if s.word and not word_is_valid(s.word, s.base.dim):
                raise ParseError(lineno, f"image {toks[2]!r} is not in normal form")
            images[c] = s
        elif head == "map":
            if src is not None or len(toks) != 3:
                raise ParseError(lineno, "malformed or repeated map header")
            src, tgt = resolve(toks[1]), resolve(toks[2])
            src_byname = src.cells_by_name
            tgt_byname = tgt.cells_by_name
        else:
            raise ParseError(lineno, f"unknown record {head!r}")

    if src is None or tgt is None:
        raise ParseError(1, "missing map header")
    try:
        f = SimplicialMap(src, tgt, images)
    except ValueError as e:
        raise ParseError(0, str(e)) from None
    bad = f.check()
    if bad:
        raise ParseError(0, "; ".join(bad))
    return f


def parse_certificate(text: str, B: SimplicialSet) -> AnodyneCertificate:
    """Parse a certificate whose steps name cells of B."""
    family = None
    steps = []
    byname = B.cells_by_name
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        toks = line.split()
        if not toks:
            continue
        if toks[0] == "class" and len(toks) == 2:
            if family is not None:
                raise ParseError(lineno, "repeated class header")
            family = toks[1]
        elif toks[0] == "step" and len(toks) == 4:
            if toks[3] not in byname:
                raise ParseError(lineno, f"unknown cell {toks[3]!r}")
            try:
                n, hi = int(toks[1]), int(toks[2])
            except ValueError:
                raise ParseError(lineno, f"bad step numbers {toks[1]!r} {toks[2]!r}") from None
            steps.append((n, hi, byname[toks[3]]))
        else:
            raise ParseError(lineno, f"bad certificate record {line.strip()!r}")
    if family is None:
        raise ParseError(1, "missing class header")
    return AnodyneCertificate(family, steps)
