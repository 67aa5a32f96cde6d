"""Tests for PowerTransformer (Yeo-Johnson) and QuantileTransformer."""

import numpy as np
import pytest
from scipy import optimize, stats

from repro.exceptions import ValidationError
from repro.preprocessing import PowerTransformer, QuantileTransformer
from repro.preprocessing.power import (
    optimal_lambda,
    yeo_johnson_log_likelihood,
    yeo_johnson_transform,
)

FIGURE1_COLUMN = np.array([-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0]).reshape(-1, 1)


class TestYeoJohnsonFunction:
    def test_identity_at_lambda_one(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(yeo_johnson_transform(x, 1.0), x, atol=1e-12)

    def test_lambda_zero_is_log1p_for_positive(self):
        x = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(yeo_johnson_transform(x, 0.0), np.log1p(x))

    def test_lambda_two_is_neg_log1p_for_negative(self):
        x = np.array([-1.0, -3.0])
        np.testing.assert_allclose(yeo_johnson_transform(x, 2.0), -np.log1p(-x))

    def test_paper_example_value(self):
        """Equation 1 example: Yeo-Johnson(-1.5) with lambda=1.22 ~= -1.34."""
        value = yeo_johnson_transform(np.array([-1.5]), 1.22)[0]
        assert value == pytest.approx(-1.34, abs=0.01)

    def test_monotonicity(self, rng):
        x = np.sort(rng.normal(size=50))
        for lmbda in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            out = yeo_johnson_transform(x, lmbda)
            assert np.all(np.diff(out) >= -1e-12)

    def test_log_likelihood_finite_for_reasonable_data(self, rng):
        x = rng.normal(size=100)
        assert np.isfinite(yeo_johnson_log_likelihood(x, 0.7))

    def test_optimal_lambda_reduces_skew(self, rng):
        x = rng.exponential(size=400)  # strongly right-skewed
        lmbda = optimal_lambda(x)
        transformed = yeo_johnson_transform(x, lmbda)
        assert abs(stats.skew(transformed)) < abs(stats.skew(x))


class TestOptimalLambdaMatchesScipy:
    """``optimal_lambda`` ports scipy's bounded Brent search bit for bit."""

    COLUMNS = {
        "skewed": lambda rng, n: rng.lognormal(sigma=1.5, size=n),
        "exponential": lambda rng, n: rng.exponential(scale=5.0, size=n),
        "negative": lambda rng, n: -rng.exponential(scale=3.0, size=n),
        "integer": lambda rng, n: rng.integers(0, 6, size=n).astype(float),
        "near_constant": lambda rng, n: 3.0 + 1e-9 * rng.normal(size=n),
        "heavy_tailed": lambda rng, n: 100.0 * rng.standard_t(2, size=n),
    }

    @pytest.mark.parametrize("kind", sorted(COLUMNS))
    def test_bit_identical_to_minimize_scalar(self, kind):
        rng = np.random.default_rng(sorted(self.COLUMNS).index(kind))
        for n in (5, 17, 60, 250) * 5:
            x = self.COLUMNS[kind](rng, n)
            reference = optimize.minimize_scalar(
                lambda lmbda: -yeo_johnson_log_likelihood(x, lmbda),
                bounds=(-4.0, 4.0), method="bounded",
            ).x
            assert optimal_lambda(x) == float(reference)


class TestPowerTransformer:
    def test_reduces_skewness_of_exponential_data(self, rng):
        X = rng.exponential(scale=2.0, size=(400, 3))
        out = PowerTransformer().fit_transform(X)
        for j in range(3):
            assert abs(stats.skew(out[:, j])) < abs(stats.skew(X[:, j]))

    def test_standardize_gives_zero_mean_unit_variance(self, rng):
        X = rng.exponential(size=(300, 2))
        out = PowerTransformer(standardize=True).fit_transform(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-6)

    def test_no_standardize_keeps_raw_transform(self, rng):
        X = rng.exponential(size=(100, 1)) + 5.0
        out = PowerTransformer(standardize=False).fit_transform(X)
        assert out.mean() != pytest.approx(0.0, abs=0.1)

    def test_constant_feature_handled(self):
        X = np.full((20, 2), 3.0)
        out = PowerTransformer().fit_transform(X)
        assert np.all(np.isfinite(out))

    def test_per_feature_lambdas_learned(self, rng):
        X = np.column_stack([rng.exponential(size=200), rng.normal(size=200)])
        transformer = PowerTransformer().fit(X)
        assert transformer.lambdas_.shape == (2,)
        assert transformer.lambdas_[0] != pytest.approx(transformer.lambdas_[1], abs=1e-3)

    def test_transform_is_monotone_per_feature(self, rng):
        X = rng.normal(size=(100, 1))
        transformer = PowerTransformer(standardize=False).fit(X)
        ordered = np.sort(X, axis=0)
        out = transformer.transform(ordered)
        assert np.all(np.diff(out[:, 0]) >= -1e-9)


class TestQuantileTransformer:
    def test_figure1_example(self):
        """Figure 1(g): ranks 0/6 .. 6/6 for the seven example values."""
        out = QuantileTransformer(n_quantiles=7).fit_transform(FIGURE1_COLUMN)
        expected = np.array([0, 1, 2, 3, 4, 5, 6]) / 6.0
        np.testing.assert_allclose(out.ravel(), expected, atol=1e-9)

    def test_uniform_output_range(self, rng):
        X = rng.normal(scale=40.0, size=(300, 4))
        out = QuantileTransformer(n_quantiles=100).fit_transform(X)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_uniform_output_is_flat(self, rng):
        X = rng.exponential(size=(1000, 1))
        out = QuantileTransformer(n_quantiles=500).fit_transform(X)
        # Kolmogorov-Smirnov distance to uniform should be small.
        statistic, _ = stats.kstest(out.ravel(), "uniform")
        assert statistic < 0.05

    def test_normal_output_distribution(self, rng):
        X = rng.exponential(size=(800, 1))
        out = QuantileTransformer(n_quantiles=400,
                                  output_distribution="normal").fit_transform(X)
        assert abs(out.mean()) < 0.15
        assert abs(out.std() - 1.0) < 0.2

    def test_normal_output_is_norm_ppf_of_uniform_output(self, rng):
        X = np.column_stack([rng.exponential(size=300), rng.normal(size=300),
                             rng.integers(0, 4, size=300)])
        uniform = QuantileTransformer(n_quantiles=120).fit_transform(X)
        normal = QuantileTransformer(
            n_quantiles=120, output_distribution="normal").fit_transform(X)
        clip = QuantileTransformer._NORMAL_CLIP
        expected = stats.norm.ppf(np.clip(uniform, clip, 1.0 - clip))
        np.testing.assert_array_equal(normal, expected)

    def test_n_quantiles_clipped_to_sample_count(self, rng):
        X = rng.normal(size=(10, 2))
        transformer = QuantileTransformer(n_quantiles=1000).fit(X)
        assert transformer.n_quantiles_ == 10

    def test_monotone_per_feature(self, rng):
        X = rng.normal(size=(200, 1))
        transformer = QuantileTransformer(n_quantiles=50).fit(X)
        ordered = np.sort(X, axis=0)
        out = transformer.transform(ordered)
        assert np.all(np.diff(out[:, 0]) >= -1e-12)

    def test_invalid_output_distribution_rejected(self):
        with pytest.raises(ValidationError):
            QuantileTransformer(output_distribution="poisson")

    def test_too_few_quantiles_rejected(self):
        with pytest.raises(ValidationError):
            QuantileTransformer(n_quantiles=1)
