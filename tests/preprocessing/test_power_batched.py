"""The batched PowerTransformer equals a per-feature loop bit for bit.

``PowerTransformer`` fits every feature in one batched Brent search and
transforms all features with one power call.  The reference below is the
straightforward per-feature loop: scipy's bounded Brent search on the 1-D
profile log-likelihood, then the 1-D transform, mean and std of each
column.  Every comparison is exact (``==``), not approximate.
"""

import numpy as np
import pytest
from scipy import optimize

from repro.preprocessing import PowerTransformer
from repro.preprocessing.power import (
    yeo_johnson_log_likelihood,
    yeo_johnson_transform,
)

COLUMNS = {
    "constant": lambda rng, n: np.full(n, 2.5),
    "negative_only": lambda rng, n: -rng.exponential(scale=3.0, size=n),
    "mixed_sign": lambda rng, n: rng.normal(loc=0.3, scale=2.0, size=n),
    "integer": lambda rng, n: rng.integers(0, 6, size=n).astype(float),
    "near_constant": lambda rng, n: 3.0 + 1e-9 * rng.normal(size=n),
    "heavy_tailed": lambda rng, n: 100.0 * rng.standard_t(2, size=n),
}


def reference_fit(X):
    """Per-feature lambdas, means and stds, one column at a time."""
    lambdas, means, stds = [], [], []
    for col in X.T:
        if np.all(col == col[0]):
            lambdas.append(1.0)
            means.append(yeo_johnson_transform(col, 1.0).mean())
            stds.append(1.0)
            continue
        lmbda = float(optimize.minimize_scalar(
            lambda lam, col=col: -yeo_johnson_log_likelihood(col, lam),
            bounds=(-4.0, 4.0), method="bounded").x)
        transformed = yeo_johnson_transform(col, lmbda)
        lambdas.append(lmbda)
        means.append(transformed.mean())
        std = transformed.std()
        stds.append(std if std > 0 else 1.0)
    return np.array(lambdas), np.array(means), np.array(stds)


def reference_transform(X, transformer):
    out = np.empty_like(X)
    for j in range(X.shape[1]):
        out[:, j] = yeo_johnson_transform(X[:, j], transformer.lambdas_[j])
    if transformer.standardize:
        out = (out - transformer.means_) / transformer.stds_
    return out


def make_block(rng, n_samples):
    """Every column kind twice, in a shuffled feature order."""
    kinds = sorted(COLUMNS) * 2
    rng.shuffle(kinds)
    return np.column_stack([COLUMNS[kind](rng, n_samples) for kind in kinds])


@pytest.mark.parametrize("n_samples", [2, 5, 17, 60, 250])
def test_fit_matches_per_feature_loop(n_samples):
    rng = np.random.default_rng(n_samples)
    X = make_block(rng, n_samples)
    transformer = PowerTransformer().fit(X)
    lambdas, means, stds = reference_fit(X)
    assert np.array_equal(transformer.lambdas_, lambdas)
    assert np.array_equal(transformer.means_, means)
    assert np.array_equal(transformer.stds_, stds)


@pytest.mark.parametrize("standardize", [True, False])
def test_transform_matches_per_feature_loop(standardize):
    rng = np.random.default_rng(7)
    transformer = PowerTransformer(standardize=standardize).fit(make_block(rng, 80))
    # unseen rows, in both memory orders
    X = 1.5 * make_block(np.random.default_rng(8), 40)
    for layout in (np.ascontiguousarray(X), np.asfortranarray(X)):
        out = transformer.transform(layout)
        expected = reference_transform(layout, transformer)
        assert np.array_equal(out, expected)
        assert out.flags.c_contiguous == expected.flags.c_contiguous


@pytest.mark.parametrize("lmbda", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_transform_at_shortcut_lambdas(lmbda):
    """numpy's power takes sqrt/square/log shortcuts at these lambdas."""
    rng = np.random.default_rng(3)
    transformer = PowerTransformer(standardize=False).fit(make_block(rng, 30))
    transformer.lambdas_ = np.full(transformer.lambdas_.shape, lmbda)
    X = make_block(rng, 50)
    assert np.array_equal(transformer.transform(X), reference_transform(X, transformer))
