"""The vectorised regression split search equals a per-sample scan exactly.

``_best_split_regression`` scores every candidate feature at once; the
reference below is the sequential scan over sorted samples that keeps a
split only when its gain is strictly better.  Hypothesis draws matrices
with many ties, NaNs and tiny nodes, where the two could disagree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.models.tree import _best_split_regression, _is_constant, _mean_and_variance


def reference_split(X, y, feature_indices, min_samples_leaf):
    n_samples = X.shape[0]
    total_sum = y.sum()
    total_sq = float(np.sum(y * y))
    parent_sse = total_sq - total_sum * total_sum / n_samples
    best = None
    best_gain = 1e-12
    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="mergesort")
        values = X[order, feature]
        targets = y[order]
        left_sum = 0.0
        left_sq = 0.0
        for i in range(n_samples - 1):
            left_sum += targets[i]
            left_sq += targets[i] * targets[i]
            if values[i] == values[i + 1]:
                continue
            n_left = i + 1
            n_right = n_samples - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            left_sse = left_sq - left_sum * left_sum / n_left
            right_sse = right_sq - right_sum * right_sum / n_right
            gain = parent_sse - (left_sse + right_sse)
            if gain > best_gain:
                best_gain = gain
                best = (feature, 0.5 * (values[i] + values[i + 1]), gain)
    return best


#: few distinct values (ties), a spread of magnitudes, and NaN
values = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, -1.0]),
    st.floats(min_value=-100.0, max_value=100.0),
    st.just(np.nan),
)


@st.composite
def split_problems(draw):
    n_samples = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 5))
    X = draw(arrays(np.float64, (n_samples, n_features), elements=values))
    y = draw(arrays(np.float64, n_samples, elements=values))
    features = draw(st.permutations(range(n_features)))
    n_candidates = draw(st.integers(1, n_features))
    leaf = draw(st.integers(1, 4))
    return X, y, np.array(features[:n_candidates]), leaf


def same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@given(problem=split_problems())
@settings(max_examples=300, deadline=None)
def test_split_matches_sequential_scan(problem):
    X, y, feature_indices, leaf = problem
    expected = reference_split(X, y, feature_indices, leaf)
    got = _best_split_regression(X, y, feature_indices, leaf)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] == expected[0]
        assert same(got[1], expected[1])
        assert same(got[2], expected[2])


@given(y=arrays(np.float64, st.integers(1, 12), elements=st.one_of(
    st.sampled_from([1.0, 1.0 + 1e-9, 1.0 + 1e-4, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True))))
@settings(max_examples=300, deadline=None)
def test_is_constant_matches_allclose(y):
    assert _is_constant(y) == np.allclose(y, y[0])


@given(y=arrays(np.float64, st.integers(0, 40), elements=values))
@settings(max_examples=200, deadline=None)
def test_mean_and_variance_match_numpy(y):
    mean, variance = _mean_and_variance(y)
    if not y.size:
        assert (mean, variance) == (0.0, 0.0)
    else:
        assert same(mean, float(y.mean()))
        assert same(variance, float(np.var(y)))
