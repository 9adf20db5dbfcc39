"""Property tests: every complex a constructor builds validates and every
map it returns is simplicial, on small random complexes."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sskit.core import (
    compose,
    function_complex,
    identity_map,
    join,
    product,
    product_functor,
    pushout,
    restricted_function_complex,
    simplex_as_map,
    standard_simplex,
    sub_complex,
    terminal_map,
    validate,
)
from sskit.factorize import mapping_path_space, soa_stage
from sskit.lifting import family_keys

from conftest import random_generator_complex, random_mono_pair

SEEDS = st.integers(0, 2**30)
FORTY = settings(max_examples=40, deadline=None)


def _mono_pair(seed):
    """A composable pair of inclusions drawn from the seed, retrying
    until the sampler returns one."""
    rng = random.Random(seed)
    while True:
        pair = random_mono_pair(rng)
        if pair is not None:
            return pair


@FORTY
@given(SEEDS)
def test_product_projections_and_functor_are_simplicial(seed):
    rng = random.Random(seed)
    X = random_generator_complex(rng).complex
    Y = random_generator_complex(rng).complex
    P = product(X, Y)
    assert validate(P.complex) == []
    assert P.proj1.check() == [] and P.proj2.check() == []

    u, _ = _mono_pair(seed)
    PA, PB = product(u.source, Y), product(u.target, Y)
    assert product_functor(PA, PB, u, identity_map(Y)).check() == []


@FORTY
@given(SEEDS)
def test_join_and_its_inclusions_are_simplicial(seed):
    rng = random.Random(seed)
    X = random_generator_complex(rng).complex
    Y = random_generator_complex(rng).complex
    J = join(X, Y)
    assert validate(J.complex) == []
    assert J.inc_x.check() == [] and J.inc_y.check() == []


@FORTY
@given(SEEDS)
def test_both_pushout_legs_are_simplicial(seed):
    u, v = _mono_pair(seed)
    pt = standard_simplex(0).complex
    for f in (compose(u, v), terminal_map(u.source, pt)):
        po = pushout(u, f)
        assert validate(po.complex) == []
        assert po.from_codomain.check() == []
        assert po.from_total.check() == []


@FORTY
@given(SEEDS)
def test_soa_stage_inclusion_and_attachments_are_simplicial(seed):
    S = random_generator_complex(random.Random(seed)).complex
    keys = [*family_keys("inner", 2), *family_keys("trivial_kan", 1)]
    out, inc, atts = soa_stage(S, keys, lambda k, a: True)
    assert validate(out) == []
    assert inc.check() == []
    assert atts
    for att in atts:
        assert att.total_map.check() == []


@FORTY
@given(SEEDS)
def test_sub_complex_inclusions_are_simplicial(seed):
    rng = random.Random(seed)
    G = random_generator_complex(rng)
    chosen = [t for t in G.lookup if rng.random() < 0.5]
    closed = {
        sub
        for t in chosen
        for k in range(1, len(t) + 1)
        for sub in itertools.combinations(t, k)
    }
    sub, inc = sub_complex(G.complex, (G.lookup[t] for t in closed))
    assert validate(sub) == []
    assert inc.check() == []


@FORTY
@given(SEEDS)
def test_function_complex_evaluation_is_simplicial(seed):
    C = random_generator_complex(random.Random(seed)).complex
    K = standard_simplex(1).complex
    for fc in (function_complex(C, K, 1), restricted_function_complex(C, K, 1)):
        assert validate(fc.space) == []
        for v in K.cells(0):
            assert fc.restrict_to_vertex(v).check() == []


def test_mapping_path_space_of_an_identity_factors_it():
    cases = 0
    for seed in range(40):
        C = random_generator_complex(random.Random(seed)).complex
        if C.dim > 1:
            continue
        f = identity_map(C)
        res = mapping_path_space(f, 1)
        assert validate(res.space) == []
        for m in (res.section, res.projection, res.to_source):
            assert m.check() == []
        assert compose(res.section, res.projection) == f
        cases += 1
    assert cases == 15


@pytest.mark.parametrize("n, cells", [(1, [2, 1]), (2, [3, 3, 1]), (3, [4, 6, 4, 1])])
def test_mapping_path_space_of_a_simplex_reaches_its_top_dimension(n, cells):
    f = identity_map(standard_simplex(n).complex)
    res = mapping_path_space(f, n)
    assert [res.space.n_cells(d) for d in range(res.space.dim + 1)] == cells
    assert compose(res.section, res.projection) == f


def test_mapping_path_space_of_an_identity_answers_up_to_the_source_dimension():
    for seed in range(40):
        C = random_generator_complex(random.Random(seed)).complex
        f = identity_map(C)
        res = mapping_path_space(f, C.dim)
        assert validate(res.space) == []
        for m in (res.section, res.projection, res.to_source):
            assert m.check() == []
        assert compose(res.section, res.projection) == f


def test_simplex_as_map_is_simplicial():
    bad = []
    for seed in range(40):
        X = random_generator_complex(random.Random(seed)).complex
        for d in range(X.dim + 1):
            for s in X.simplices(d):
                if simplex_as_map(X, s).check():
                    bad.append((seed, s))
    assert bad == []
