"""Normal-form simplices over a cell complex.

Every simplex is represented as a nondegenerate base cell together with a
strictly increasing word of degeneracy indices (Eilenberg-Zilber normal
form): ``word = (j1, ..., jk)`` with ``j1 < ... < jk`` denotes
``s_{jk} ... s_{j1}`` applied to the base.  Equality of simplices is then
a plain pair comparison.

Cells and simplices are named tuples, so hashing, equality and order are
tuple operations run in C, with the hash values of their field tuples:
``hash(CellId(d, i)) == hash((d, i))``.  They also compare equal to plain
tuples of the same fields, so never key one table by both cells and
plain int pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterator, NamedTuple


class CellId(NamedTuple):
    """Reference to a nondegenerate cell: (dimension, index in that dimension)."""

    dim: int
    index: int

    def __repr__(self) -> str:
        return f"CellId({self.dim},{self.index})"


class Simplex(NamedTuple):
    """A possibly-degenerate simplex in normal form."""

    base: CellId
    word: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return self.base.dim + len(self.word)

    @property
    def nondegenerate(self) -> bool:
        return not self.word

    def __repr__(self) -> str:
        if not self.word:
            return f"<{self.base.dim}.{self.base.index}>"
        w = ",".join(str(j) for j in self.word)
        return f"<s{w}@{self.base.dim}.{self.base.index}>"


def word_is_valid(word: tuple[int, ...], base_dim: int) -> bool:
    """Check strict increase and the index bound j_m <= base_dim + m - 1."""
    prev = -1
    for m, j in enumerate(word):
        if j <= prev or j < 0 or j > base_dim + m:
            return False
        prev = j
    return True


def apply_degeneracy(word: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Normal-form word for ``s_a`` applied on the outside of ``s_word``.

    Uses s_a s_j = s_{j+1} s_a for a <= j to push s_a inward until the
    word is strictly increasing again.
    """
    w = list(word)
    pos = len(w)
    while pos > 0 and a <= w[pos - 1]:
        w[pos - 1] += 1
        pos -= 1
    w.insert(pos, a)
    return tuple(w)


def face_word(word: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int | None]:
    """The face identity: d_i s_word = s_w, given as (w, None), when d_i
    cancels a degeneracy, and d_i s_word = s_w d_k, given as (w, k), when it
    passes through to face k of the base.  The index e that goes is i, or
    i - 1 if only that is in the word; w keeps the indices below e and
    shifts those above it down, and k is e less the number below it."""
    n = bisect_left(word, i)  # the indices below i
    if n < len(word) and word[n] == i:  # d_i s_i = id
        return word[:n] + tuple([j - 1 for j in word[n + 1:]]), None
    if n and word[n - 1] == i - 1:  # d_i s_{i-1} = id
        return word[:n - 1] + tuple([j - 1 for j in word[n:]]), None
    return word[:n] + tuple([j - 1 for j in word[n:]]), i - n


def degenerate_by(s: Simplex, word: tuple[int, ...]) -> Simplex:
    """s_word applied on the outside of s, for a normal-form word."""
    base, w = s
    if not w:
        return Simplex(base, word)
    for a in word:
        w = apply_degeneracy(w, a)
    return Simplex(base, w)


def degenerate(s: Simplex, a: int) -> Simplex:
    """Apply the degeneracy s_a (0 <= a <= dim(s)) to a simplex."""
    if not 0 <= a <= s.dim:
        raise IndexError(f"degeneracy index {a} out of range for dim {s.dim}")
    return Simplex(s.base, apply_degeneracy(s.word, a))


def constant_simplex(vertex: CellId, n: int) -> Simplex:
    """The constant n-simplex s_0^n(v) at a vertex; normal form word (0..n-1)."""
    if vertex.dim != 0:
        raise ValueError("constant simplices sit over a vertex")
    return Simplex(vertex, tuple(range(n)))


def is_constant(s: Simplex) -> bool:
    """A simplex is constant when it is an iterated s_0 of a vertex.

    Any valid degeneracy word over a 0-dimensional base is forced to be
    (0, 1, ..., k-1), so this is just a base-dimension check.
    """
    return s.base.dim == 0


def degeneracy_words(base_dim: int, n: int) -> Iterator[tuple[int, ...]]:
    """All normal-form words taking a base_dim-cell to an n-simplex, in
    lexicographic order.

    These are exactly the strictly increasing (n - base_dim)-tuples below
    n: the m-th index (from 0) of such a tuple is at most
    n - (n - base_dim) + m = base_dim + m, so the normal-form bound holds
    by itself, and `combinations` yields the tuples in lexicographic order.
    """
    return combinations(range(n), n - base_dim)
