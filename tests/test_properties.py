"""Property tests: projection onto the manipulation domain and the
sparse-dataset and policy file round trips."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from malrobust.data import (Dataset, ManipulationPolicy, admissible, project_to_m,
                            read_policy, read_sparse, write_policy, write_sparse)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

dims = st.integers(1, 40)


@st.composite
def projection_cases(draw):
    """(x, x_cont, policy): a binary origin, any finite continuous point
    and a random policy over one dimension."""
    dim = draw(dims)
    bits = arrays(bool, dim)
    x = draw(bits).astype(float)
    x_cont = draw(arrays(float, dim, elements=st.floats(-2.0, 3.0)))
    return x, x_cont, ManipulationPolicy(draw(bits), draw(bits))


@st.composite
def datasets(draw):
    """Datasets with arbitrary finite cell values, many of them zero."""
    dim, classes, n = draw(dims), draw(st.integers(1, 4)), draw(st.integers(0, 12))
    values = st.one_of(st.just(0.0), st.just(1.0),
                       st.floats(allow_nan=False, allow_infinity=False))
    X = draw(arrays(float, (n, dim), elements=values))
    y = draw(arrays(int, n, elements=st.integers(0, classes - 1)))
    return Dataset(X, y, classes)


@SETTINGS
@given(projection_cases())
def test_project_to_m_is_admissible_and_idempotent(case):
    x, x_cont, policy = case
    once = project_to_m(x, x_cont, policy)
    assert admissible(x, once, policy)
    assert np.array_equal(project_to_m(x, once, policy), once)


@SETTINGS
@given(datasets())
def test_sparse_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.txt")
        write_sparse(path, ds)
        back = read_sparse(path)
    assert (back.dim, back.class_count) == (ds.dim, ds.class_count)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


@SETTINGS
@given(dims.flatmap(lambda d: st.tuples(arrays(bool, d), arrays(bool, d))))
def test_policy_round_trip(flags):
    policy = ManipulationPolicy(*flags)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "policy.txt")
        write_policy(path, policy)
        back = read_policy(path)
    assert np.array_equal(back.addition_allowed, policy.addition_allowed)
    assert np.array_equal(back.removal_allowed, policy.removal_allowed)
