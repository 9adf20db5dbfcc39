"""The nerve recogniser and the inner-horn fast path it gives has_rlp.

`SimplicialSet.is_nerve` is compared with its definition: every inner
horn has exactly one filler, checked by brute force up to two dimensions
past the top.  `classify_map` must give the verdicts of the full search
on maps between nerves, where it searches no inner square.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from sskit.core import (
    ComplexBuilder,
    Simplex,
    SimplicialSet,
    boundary_complex,
    cosk0_complex,
    enumerate_maps,
    horn_complex,
    identity_map,
    j_truncation,
    join,
    product,
    spine_complex,
    standard_simplex,
)
from sskit.core import BUDGET, NO, YES
from sskit.lifting import FIBRATION_CLASSES, classify_map, key_inclusion

from conftest import (
    build_glued_spines,
    build_walking_iso,
    random_generator_complex,
    random_looped_complex,
)

SEEDS = st.integers(0, 2**30)


def unique_inner_fillers(X):
    """Whether every inner horn in X of dimension at most dim X + 2 has
    exactly one filler, by enumerating the horns and their fillers."""
    for n in range(2, X.dim + 3):
        for h in range(1, n):
            inc = key_inclusion((n, h))
            for u in enumerate_maps(inc.source, X):
                fixed = {inc.images[a].base: s for a, s in u.images.items()}
                if len(list(islice(enumerate_maps(inc.target, X, fixed), 2))) != 1:
                    return False
    return True


def _simplex(n):
    return standard_simplex(n).complex


def _beside_an_open_horn(two_fillers):
    """Edges 0 -> 1 -> 2 with no 2-cell, beside either edges a: 3 -> 4,
    c: 4 -> 5, ac: 3 -> 5 and two 2-cells on the chain a c, or else edges
    a, b: 3 -> 4 and one 2-cell from b to a through the degenerate edge at
    4.  Either way there are as many 2-cells as chains of two
    nondegenerate edges and no chain of three, so only the spines tell
    that it is no nerve."""
    builder = ComplexBuilder()
    v = [Simplex(builder.add_cell(0)) for _ in range(6)]
    builder.add_cell(1, (v[1], v[0]))
    builder.add_cell(1, (v[2], v[1]))
    a = Simplex(builder.add_cell(1, (v[4], v[3])))
    if two_fillers:
        c = Simplex(builder.add_cell(1, (v[5], v[4])))
        ac = Simplex(builder.add_cell(1, (v[5], v[3])))
        for _ in range(2):
            builder.add_cell(2, (c, ac, a))
    else:
        b = Simplex(builder.add_cell(1, (v[4], v[3])))
        builder.add_cell(2, (Simplex(v[4].base, (0,)), a, b))
    return builder.build()


NAMED = {
    "empty": lambda: SimplicialSet([], {}),
    "point": lambda: _simplex(0),
    "simplex3": lambda: _simplex(3),
    "square": lambda: product(_simplex(1), _simplex(1)).complex,
    "prism": lambda: product(_simplex(2), _simplex(1)).complex,
    "horn_x_interval": lambda: product(horn_complex(2, 1).complex, _simplex(1)).complex,
    "join_point_edge": lambda: join(_simplex(0), _simplex(1)).complex,
    "join_two_points": lambda: join(boundary_complex(1).complex, _simplex(0)).complex,
    "join_horn_point": lambda: join(horn_complex(2, 1).complex, _simplex(0)).complex,
    "horn21": lambda: horn_complex(2, 1).complex,
    "horn30": lambda: horn_complex(3, 0).complex,
    "horn31": lambda: horn_complex(3, 1).complex,
    "boundary1": lambda: boundary_complex(1).complex,
    "boundary2": lambda: boundary_complex(2).complex,
    "boundary3": lambda: boundary_complex(3).complex,
    "spine1": lambda: spine_complex(1).complex,
    "spine3": lambda: spine_complex(3).complex,
    "cosk0_2_1": lambda: cosk0_complex(2, 1).complex,
    "cosk0_3_2": lambda: cosk0_complex(3, 2).complex,
    "jtrunc1": lambda: j_truncation(1).complex,
    "jtrunc2": lambda: j_truncation(2).complex,
    "walking_iso": lambda: build_walking_iso()[0],
    "glued_spines": lambda: build_glued_spines().complex,
    "two_fillers": lambda: _beside_an_open_horn(True),
    "degenerate_spine": lambda: _beside_an_open_horn(False),
}

NERVES = {"empty", "point", "simplex3", "square", "prism", "join_point_edge",
          "join_two_points", "boundary1", "spine1"}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_complexes_are_nerves_exactly_when_inner_fillers_are_unique(name):
    X = NAMED[name]()
    assert X.is_nerve == unique_inner_fillers(X) == (name in NERVES)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_random_complexes_are_nerves_exactly_when_inner_fillers_are_unique(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        X = random_generator_complex(rng).complex
    else:
        X = random_looped_complex(rng)
    if rng.random() < 0.3:
        X = product(X, _simplex(1)).complex if X.dim < 2 else join(X, _simplex(0)).complex
    assert X.is_nerve == unique_inner_fillers(X)


def _small_nerve(rng):
    while True:
        X = random_generator_complex(rng).complex
        if X.is_nerve:
            return X


NERVE_TARGETS = [
    lambda: _simplex(1),
    lambda: _simplex(2),
    lambda: product(_simplex(1), _simplex(1)).complex,
    lambda: join(boundary_complex(1).complex, _simplex(0)).complex,
]


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_classification_between_nerves_gives_the_verdicts_of_the_search(seed):
    rng = random.Random(seed)
    X = _small_nerve(rng)
    Y = rng.choice(NERVE_TARGETS)() if rng.random() < 0.7 else _small_nerve(rng)
    maps = list(islice(enumerate_maps(X, Y), 50))
    if not maps:
        return
    p = rng.choice(maps)
    bound = rng.randint(1, 4)
    got = classify_map(p, bound)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(SimplicialSet, "is_nerve", property(lambda X: False))
        want = classify_map(p, bound)
    assert (got.mono, got.vertex_bijective, got.checked_dim) == (
        want.mono, want.vertex_bijective, want.checked_dim)
    for name in FIBRATION_CLASSES:
        g, w = got.classes[name], want.classes[name]
        # the only move allowed: a search that ran out is decided
        assert g.value == w.value or w.value == BUDGET, (name, g, w)
        if w.value == NO:
            assert (g.witness.i, g.witness.u.images, g.witness.v.images) == (
                w.witness.i, w.witness.u.images, w.witness.v.images)



def test_the_inner_class_between_nerves_walks_no_key():
    """A bound of a million names about 5 * 10**11 inner keys; between
    nerves the class is answered without visiting one."""
    rep = classify_map(identity_map(_simplex(2)), 10**6, classes=("inner",))
    verdict = rep.classes["inner"]
    assert (verdict.value, verdict.bound, rep.checked_dim) == (YES, 10**6, 10**6)
