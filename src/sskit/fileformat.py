"""Line-oriented text formats for complexes and maps.

Complex files: a `dim N` header, then one `cell <name> <dim>` record per
nondegenerate cell in (dim, index) order, with `faces: <f0> ... <fk>`
for dim >= 1.  A face token is a cell name, or `s<j1>,<j2>,...@<name>`
for a degenerate face.  `#` starts a comment.  Map files name the two
complex files and give one `image <cell> <token>` line per cell of the
source.  Certificate files give a `class <family>` header and one
`step <n> <horn index> <filler cell>` record per horn filling, naming
cells of the target complex.  All parse failures carry the offending
line number, 0 for a defect of the file as a whole.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

from .certify import AnodyneCertificate
from .core import CellId, ComplexBuilder, Simplex, SimplicialMap, SimplicialSet, validate

_DEGENERATE = re.compile(r"s(\d+(?:,\d+)*)@(.+)")


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# -- serialization -------------------------------------------------------------


def name_table(X: SimplicialSet) -> dict[CellId, str]:
    """Unique whitespace-free file names for the cells, from the labels."""
    names: dict[CellId, str] = {}
    used: set[str] = set()
    for c in X.all_cells():
        nm = X.label(c)
        if not nm or any(ch.isspace() for ch in nm):
            nm = f"c{c.dim}_{c.index}"
        while nm in used:
            nm += "'"
        used.add(nm)
        names[c] = nm
    return names


def _simplex_token(names: dict[CellId, str], s: Simplex) -> str:
    if s.nondegenerate:
        return names[s.base]
    return "s" + ",".join(str(j) for j in s.word) + "@" + names[s.base]


def serialize_complex(X: SimplicialSet) -> str:
    names = name_table(X)
    lines = [f"dim {X.dim}"]
    for c in X.all_cells():
        if c.dim == 0:
            lines.append(f"cell {names[c]} 0")
        else:
            toks = " ".join(_simplex_token(names, f) for f in X.cell_faces(c))
            lines.append(f"cell {names[c]} {c.dim} faces: {toks}")
    return "\n".join(lines) + "\n"


def serialize_map(f: SimplicialMap, src_ref: str, tgt_ref: str) -> str:
    src_names = name_table(f.source)
    tgt_names = name_table(f.target)
    lines = [f"map {src_ref} {tgt_ref}"]
    for c in f.source.all_cells():
        lines.append(
            f"image {src_names[c]} {_simplex_token(tgt_names, f.images[c])}"
        )
    return "\n".join(lines) + "\n"


def serialize_certificate(cert: AnodyneCertificate, B: SimplicialSet) -> str:
    """A certificate for an inclusion into B, naming cells of B."""
    names = name_table(B)
    lines = [f"class {cert.family}"]
    for n, hi, top in cert.steps:
        lines.append(f"step {n} {hi} {names[top]}")
    return "\n".join(lines) + "\n"


# -- parsing ---------------------------------------------------------------------


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Line number, text and tokens of each line left non-empty by _strip."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if line:
            yield lineno, line, line.split()


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

    for lineno, _, toks in _records(text):
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
                f = _parse_token(tok, byname, lineno)
                if f.dim != d - 1:
                    raise ParseError(
                        lineno, f"face {tok!r} has dimension {f.dim}, expected {d - 1}"
                    )
                fs.append(f)
            byname[name] = builder.add_cell(d, fs, name)
        else:
            raise ParseError(lineno, f"unknown record {toks[0]!r}")

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

    for lineno, _, toks in _records(text):
        if toks[0] == "map":
            if src is not None or len(toks) != 3:
                raise ParseError(lineno, "malformed or repeated map header")
            src, tgt = resolve(toks[1]), resolve(toks[2])
            src_byname = {v: k for k, v in name_table(src).items()}
            tgt_byname = {v: k for k, v in name_table(tgt).items()}
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
            s = _parse_token(toks[2], tgt_byname, lineno)
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
    bad = f.check()
    if bad:
        raise ParseError(0, "; ".join(bad))
    return f


def parse_certificate(text: str, B: SimplicialSet) -> AnodyneCertificate:
    """Parse a certificate whose steps name cells of B."""
    family = None
    steps = []
    byname = {v: k for k, v in name_table(B).items()}
    for lineno, line, toks in _records(text):
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
            raise ParseError(lineno, f"bad certificate record {line!r}")
    if family is None:
        raise ParseError(1, "missing class header")
    return AnodyneCertificate(family, steps)
