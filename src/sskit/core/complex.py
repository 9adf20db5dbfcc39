"""Finite simplicial sets with face data in degeneracy normal form."""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .simplex import (
    CellId,
    Simplex,
    degeneracy_words,
    degenerate,
    degenerate_by,
    face_word,
    word_is_valid,
)


class SimplicialSet:
    """A finite simplicial set.

    Nondegenerate cells are stored per dimension; each cell of dimension
    k >= 1 carries a tuple of k+1 face simplices (d_0 ... d_k) in normal
    form.  Instances are immutable after construction; all operations are
    pure functions of their inputs.
    """

    def __init__(
        self,
        cell_counts: Sequence[int],
        faces: dict[CellId, tuple[Simplex, ...]],
        labels: dict[CellId, str] | None = None,
    ) -> None:
        counts = list(cell_counts)
        while counts and counts[-1] == 0:
            counts.pop()
        self._counts: tuple[int, ...] = tuple(counts)
        # CellId(d, i) for each cell, made without a Python-level call
        self._cells: tuple[tuple[CellId, ...], ...] = tuple(
            tuple(map(tuple.__new__, repeat(CellId), zip(repeat(d, n), range(n))))
            for d, n in enumerate(counts)
        )
        self._all_cells: tuple[CellId, ...] = sum(self._cells, ())
        self._faces: dict[CellId, tuple[Simplex, ...]] = dict(faces)
        self.labels: dict[CellId, str] = dict(labels or {})
        self._face_cache: dict[tuple[Simplex, int], Simplex] = {}
        self._boundary_index: dict[int, dict[tuple[Simplex, ...], list[Simplex]]] = {}
        self._face_index: dict[
            tuple[int, tuple[int, ...]], dict[tuple[Simplex, ...], list[Simplex]]
        ] = {}
        self._structural_check()

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Top dimension with a nondegenerate cell; -1 for the empty complex."""
        return len(self._counts) - 1

    def n_cells(self, dim: int) -> int:
        if 0 <= dim <= self.dim:
            return self._counts[dim]
        return 0

    def cell_counts(self) -> tuple[int, ...]:
        return self._counts

    def total_cells(self) -> int:
        return sum(self._counts)

    def cells(self, dim: int) -> list[CellId]:
        """A fresh list of the cells of one dimension, in index order."""
        return list(self._cells[dim]) if 0 <= dim <= self.dim else []

    def all_cells(self) -> Iterator[CellId]:
        return iter(self._all_cells)

    def has_cell(self, c: CellId) -> bool:
        d, k = c
        return 0 <= d < len(self._counts) and 0 <= k < self._counts[d]

    def cell_faces(self, c: CellId) -> tuple[Simplex, ...]:
        """Stored face tuple (d_0 ... d_k) of a nondegenerate cell; () for a vertex."""
        return () if c.dim == 0 and self.has_cell(c) else self._faces[c]

    def label(self, c: CellId) -> str:
        lab = self.labels.get(c)
        return f"c{c.dim}_{c.index}" if lab is None else lab

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        return self._counts == other._counts and self._faces == other._faces

    def __hash__(self) -> int:
        return hash((self._counts, tuple(sorted(self._faces.items()))))

    def __repr__(self) -> str:
        return f"SimplicialSet(cells={self._counts})"

    # -- face and vertex computation --------------------------------------

    def face(self, s: Simplex, i: int) -> Simplex:
        """The i-th face of a simplex, in normal form.

        A nondegenerate simplex reads its stored face tuple.  A degenerate
        one takes the face identity of its word (`face_word`): d_i cancels
        a degeneracy, or passes through to a stored face of the base; only
        these answers are cached.  The cache is read first: a cached key
        passed the range check when its answer was computed.
        """
        base, word = s
        if not word:
            d = base.dim
            if not 0 <= i <= d or d == 0:
                raise IndexError(f"face index {i} out of range for dim {d}")
            return self._faces[base][i]
        key = (s, i)
        cached = self._face_cache.get(key)
        if cached is not None:
            return cached
        d = base.dim + len(word)
        if not 0 <= i <= d or d == 0:
            raise IndexError(f"face index {i} out of range for dim {d}")
        w, k = face_word(word, i)
        result = Simplex(base, w) if k is None else degenerate_by(self._faces[base][k], w)
        self._face_cache[key] = result
        return result

    def boundary(self, s: Simplex) -> tuple[Simplex, ...]:
        return tuple(self.face(s, i) for i in range(s.dim + 1))

    def vertex(self, s: Simplex, j: int) -> CellId:
        """The j-th vertex of a simplex."""
        if not 0 <= j <= s.dim:
            raise IndexError(f"vertex index {j} out of range for dim {s.dim}")
        return self.restrict(s, (j,)).base

    def vertices_of(self, s: Simplex) -> tuple[CellId, ...]:
        return tuple(self.vertex(s, j) for j in range(s.dim + 1))

    def restrict(self, s: Simplex, positions: Sequence[int]) -> Simplex:
        """Iterated face keeping only the given vertex positions (increasing)."""
        cur = s
        for j in range(s.dim, -1, -1):
            if j not in positions:
                cur = self.face(cur, j)
        return cur

    # -- simplex enumeration ----------------------------------------------

    def simplices(self, n: int) -> Iterator[Simplex]:
        """All n-simplices, degenerate ones included."""
        for p in range(min(n, self.dim) + 1):
            words = list(degeneracy_words(p, n))
            for base in self._cells[p]:
                for word in words:
                    yield Simplex(base, word)

    def simplices_with_boundary(
        self, n: int, faces: tuple[Simplex, ...]
    ) -> list[Simplex]:
        """All n-simplices whose face tuple equals the given one (n >= 1),
        sorted.

        The nondegenerate ones are the n-cells stored with exactly these
        faces.  A degenerate s with outermost degeneracy s_j has
        d_j s = d_{j+1} s = t and s = s_j t, so the degenerate ones are
        among the s_j(faces[j]) with faces[j] == faces[j+1].  Answers are
        memoised per dimension.
        """
        index = self._boundary_index.get(n)
        if index is None:
            index = self._boundary_index[n] = {}
        found = index.get(faces)
        if found is None:
            found = [Simplex(c) for c in self._cells_by_faces.get(faces, ())]
            for j in range(n):
                if faces[j] == faces[j + 1]:
                    s = degenerate(faces[j], j)
                    if s not in found and self.boundary(s) == faces:
                        found.append(s)
            found.sort()
            index[faces] = found
        return found

    def simplices_with_faces(
        self, n: int, positions: tuple[int, ...], faces: tuple[Simplex, ...]
    ) -> list[Simplex]:
        """The n-simplices, degenerate ones included, whose faces d_k for
        the k in positions are the given ones, sorted; every n-simplex when
        no position is given.  The n-simplices are grouped by those faces
        once per dimension and positions, at the first call."""
        index = self._face_index.get((n, positions))
        if index is None:
            index = self._face_index[n, positions] = {}
            face = self.face
            for s in self.simplices(n):
                index.setdefault(tuple([face(s, k) for k in positions]), []).append(s)
        return index.get(faces, [])

    def horn_fillers(
        self, n: int, i: int | None, faces: tuple[Simplex, ...]
    ) -> Iterator[Simplex]:
        """The n-simplices, degenerate ones included, whose faces d_j for
        j != i are the given ones (all n + 1 faces when i is None), in
        (d_i, simplex) order: the fillers of a horn, or of a boundary.

        They are read off the boundary index.  By d_k d_i s = d_{i-1} d_k s
        for k < i and d_k d_i s = d_i d_{k+1} s for k >= i, the given faces
        fix the boundary of the missing face d_i s, so the fillers are the
        n-simplices with boundary faces[:i] + (t,) + faces[i:] for each t
        with that boundary; every vertex is a candidate t when n = 1, and
        every vertex is a filler of the boundary when n = 0.
        """
        if i is None:
            if n == 0:
                return map(Simplex, self.cells(0))
            return iter(self.simplices_with_boundary(n, faces))
        if not 0 <= i <= n or n < 1:
            raise ValueError(f"no horn ({n},{i})")
        if n == 1:
            missing: Iterable[Simplex] = map(Simplex, self.cells(0))
        else:
            face = self.face
            want = tuple([face(f, i - 1 if k < i else i) for k, f in enumerate(faces)])
            missing = self.simplices_with_boundary(n - 1, want)
        head, tail = faces[:i], faces[i:]
        with_boundary = self.simplices_with_boundary
        return (s for t in missing for s in with_boundary(n, head + (t,) + tail))

    @cached_property
    def _cells_by_faces(self) -> dict[tuple[Simplex, ...], list[CellId]]:
        """The cells of dimension >= 1 grouped by their stored face tuples."""
        out: dict[tuple[Simplex, ...], list[CellId]] = {}
        for cells in self._cells[1:]:
            for c in cells:
                out.setdefault(self._faces[c], []).append(c)
        return out

    @cached_property
    def face_bases(self) -> dict[CellId, tuple[CellId, ...]]:
        """The base cells of the stored faces (d_0 first) of each cell of
        dimension >= 1 whose stored faces are all nondegenerate."""
        out: dict[CellId, tuple[CellId, ...]] = {}
        for cells in self._cells[1:]:
            for c in cells:
                fs = self._faces[c]
                if not any(f.word for f in fs):
                    out[c] = tuple(f.base for f in fs)
        return out

    @cached_property
    def faces_first(self) -> tuple[CellId, ...]:
        """Every cell once, each after its faces: a depth-first walk down
        each cell's faces (d_0 first), taking the cells top dimension
        first and in index order within a dimension."""
        order: list[CellId] = []
        seen: set[CellId] = set()
        for top in reversed(self._cells):
            for c in top:
                if c in seen:
                    continue
                seen.add(c)
                stack = [(c, iter(self.cell_faces(c)))]
                while stack:
                    cell, faces = stack[-1]
                    for f in faces:
                        if f.base not in seen:
                            seen.add(f.base)
                            stack.append((f.base, iter(self.cell_faces(f.base))))
                            break
                    else:
                        stack.pop()
                        order.append(cell)
        return tuple(order)

    @cached_property
    def names(self) -> dict[CellId, str]:
        """Unique names of the cells with no whitespace and no `#` (which
        starts a comment), as the file formats write them: the label, or
        c<dim>_<index> for a cell whose label is missing, empty or holds
        whitespace or `#`, primed until unused in cell order
        (`UniqueNames`).  One pass over the cells, each name probed once
        unless it repeats.  Built once per complex; callers must not change
        it."""
        names: dict[CellId, str] = {}
        take = UniqueNames().take
        labels = self.labels
        for c in self._all_cells:
            nm = labels.get(c)
            if nm is None or "#" in nm or nm.split() != [nm]:
                nm = f"c{c.dim}_{c.index}"
            names[c] = take(nm)
        return names

    @cached_property
    def cells_by_name(self) -> dict[str, CellId]:
        """The inverse of `names`."""
        return {nm: c for c, nm in self.names.items()}

    @cached_property
    def is_nerve(self) -> bool:
        """Whether this is the nerve of a category: the finite Segal test.

        The n-simplices of a nerve are its chains of n composable arrows,
        the degenerate ones being the chains with an identity.  By
        Eilenberg-Zilber it is enough that every nondegenerate k-cell
        (k >= 2) has a spine (its edges j -> j+1) of nondegenerate edges,
        that distinct cells have distinct spines, and that for k = 1 ..
        dim+1 there are as many chains of k composable nondegenerate edges
        as k-cells, none past the top dimension.  A nerve has a unique
        filler for every inner horn.
        """
        spines: set[tuple[Simplex, ...]] = set()
        for k in range(2, self.dim + 1):
            for c in self._cells[k]:
                spine = tuple(self.restrict(Simplex(c), (j, j + 1)) for j in range(k))
                if any(e.word for e in spine) or spine in spines:
                    return False
                spines.add(spine)
        # d_1 -> d_0 of each edge; chains[v] counts the chains ending at v
        arrows = [(self._faces[e][1].base, self._faces[e][0].base) for e in self.cells(1)]
        chains = dict.fromkeys(self.cells(0), 1)
        for k in range(1, self.dim + 2):
            longer = dict.fromkeys(chains, 0)
            for a, b in arrows:
                longer[b] += chains[a]
            chains = longer
            if sum(chains.values()) != self.n_cells(k):
                return False
        return True

    # -- internal ----------------------------------------------------------

    def _structural_check(self) -> None:
        """Every cell of dimension d >= 1 has d + 1 faces of dimension
        d - 1, on cells that exist, with words in normal form.  A
        nondegenerate face on a cell of dimension d - 1 in range, the
        common case, passes the first test; any other face takes each
        check in turn, so a defect gets its own message."""
        counts = self._counts
        for d in range(1, len(counts)):
            below = counts[d - 1]
            for c in self._cells[d]:
                fs = self._faces.get(c)
                if fs is None or len(fs) != d + 1:
                    raise ValueError(f"cell {c} lacks a full face tuple")
                for f in fs:
                    (fd, fk), word = f
                    if not word and fd == d - 1 and 0 <= fk < below:
                        continue
                    if fd + len(word) != d - 1:
                        raise ValueError(f"face {f} of {c} has wrong dimension")
                    if not (0 <= fd < len(counts) and 0 <= fk < counts[fd]):
                        raise ValueError(f"face {f} of {c} targets a missing cell")
                    if word and not word_is_valid(word, fd):
                        raise ValueError(f"face {f} of {c} is not in normal form")


class UniqueNames:
    """Hands out names unused so far: a requested name, with primes
    appended until it is not among the names taken or handed out.

    A repeated name does not probe its primed forms again from the
    start.  `_primes[name]` is a count m such that the name with 0 .. m-1
    primes is already taken, so the search resumes at m primes; since
    taken names are never released, it finds the same name as the search
    from zero primes would.  A request costs one probe, plus one for each
    primed form it meets that was taken in another way: given at the
    start, or handed out for a different name.
    """

    def __init__(self, taken: Iterable[str] = ()) -> None:
        self._used: set[str] = set(taken)
        self._primes: dict[str, int] = {}

    def take(self, name: str) -> str:
        used = self._used
        if name not in used:
            used.add(name)
            return name
        m = self._primes.get(name, 1)
        lab = name + "'" * m
        while lab in used:
            lab += "'"
            m += 1
        used.add(lab)
        self._primes[name] = m + 1
        return lab


class ComplexBuilder:
    """Incremental construction of a SimplicialSet, one cell at a time.

    The library's one cell allocator: every complex built cell by cell
    goes through it.  A new d-cell takes the next free index in dimension
    d, so each dimension is numbered in the order its cells are added.
    Faces are read only for d >= 1 and must name cells added earlier;
    labels are optional.
    """

    def __init__(self) -> None:
        self._counts: list[int] = []
        self._faces: dict[CellId, tuple[Simplex, ...]] = {}
        self._labels: dict[CellId, str] = {}

    def add_cell(
        self,
        dim: int,
        faces: Iterable[Simplex] = (),
        label: str | None = None,
    ) -> CellId:
        while len(self._counts) <= dim:
            self._counts.append(0)
        c = CellId(dim, self._counts[dim])
        self._counts[dim] += 1
        if dim > 0:
            self._faces[c] = tuple(faces)
        if label is not None:
            self._labels[c] = label
        return c

    def build(self) -> SimplicialSet:
        return SimplicialSet(self._counts, self._faces, self._labels)


def validate(X: SimplicialSet) -> list[str]:
    """Check every SimplicialSet invariant; return a list of violations.

    Structural problems (missing cells, malformed words) are caught at
    construction time; this checks the simplicial identities
    d_i d_j = d_{j-1} d_i (i < j) on every cell after normalization.  The
    faces of a cell, and of a nondegenerate face, are its stored rows;
    only a degenerate face goes through `face`.
    """
    violations: list[str] = []
    rows, face = X._faces, X.face
    for d in range(2, X.dim + 1):
        for c in X._cells[d]:
            fs = rows[c]
            for j in range(1, d + 1):
                fj = fs[j]
                row_j = None if fj.word else rows[fj.base]
                for i in range(j):
                    fi = fs[i]
                    lhs = face(fj, i) if row_j is None else row_j[i]
                    rhs = face(fi, j - 1) if fi.word else rows[fi.base][j - 1]
                    if lhs != rhs:
                        violations.append(
                            f"cell {X.label(c)} (dim {d}): "
                            f"d_{i} d_{j} = {lhs} but d_{j-1} d_{i} = {rhs}"
                        )
    return violations
