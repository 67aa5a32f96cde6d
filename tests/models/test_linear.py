"""Tests for LogisticRegression and LinearDiscriminantAnalysis."""

import numpy as np
import pytest

from repro.datasets.synthetic import make_classification
from repro.exceptions import NotFittedError, ValidationError
from repro.models import LinearDiscriminantAnalysis, LogisticRegression
from repro.models.base import one_hot, softmax
from repro.utils.random import check_random_state


class TestLogisticRegression:
    def test_learns_linearly_separable_data(self, small_binary_data):
        X, y = small_binary_data
        model = LogisticRegression(max_iter=200).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_multiclass_support(self, small_multiclass_data):
        X, y = small_multiclass_data
        model = LogisticRegression(max_iter=200).fit(X, y)
        assert model.score(X, y) > 0.8
        assert model.predict_proba(X).shape == (X.shape[0], 3)

    def test_probabilities_sum_to_one(self, small_multiclass_data):
        X, y = small_multiclass_data
        model = LogisticRegression(max_iter=80).fit(X, y)
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_predictions_use_original_label_space(self):
        X, y = make_classification(n_samples=80, n_features=4, random_state=0)
        shifted_labels = np.where(y == 0, 10, 42)
        model = LogisticRegression(max_iter=60).fit(X, shifted_labels)
        assert set(model.predict(X).tolist()).issubset({10, 42})

    def test_sensitive_to_feature_scale(self, distorted_data):
        """LR accuracy should improve when features are standardised.

        This is the core premise of the paper: linear models are sensitive to
        feature scaling.
        """
        from repro.preprocessing import StandardScaler

        X, y = distorted_data
        raw = LogisticRegression(max_iter=80).fit(X, y).score(X, y)
        scaled_X = StandardScaler().fit_transform(X)
        scaled = LogisticRegression(max_iter=80).fit(scaled_X, y).score(scaled_X, y)
        assert scaled > raw

    def test_regularisation_shrinks_weights(self, small_binary_data):
        X, y = small_binary_data
        strong = LogisticRegression(C=0.01, max_iter=200).fit(X, y)
        weak = LogisticRegression(C=100.0, max_iter=200).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_predict_before_fit_raises(self, small_binary_data):
        X, _ = small_binary_data
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(X)

    def test_clone_resets_fitted_state(self, small_binary_data):
        X, y = small_binary_data
        model = LogisticRegression(C=2.0).fit(X, y)
        clone = model.clone()
        assert not clone.is_fitted()
        assert clone.C == 2.0

    def test_set_params_unknown_raises(self):
        with pytest.raises(ValidationError):
            LogisticRegression().set_params(penalty="l1")

    def test_deterministic_given_seed(self, small_binary_data):
        X, y = small_binary_data
        a = LogisticRegression(random_state=7, max_iter=50).fit(X, y).predict_proba(X)
        b = LogisticRegression(random_state=7, max_iter=50).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(a, b)


def reference_lr_weights(X, y, *, C=1.0, max_iter=200, tol=1e-4,
                         learning_rate=0.5, fit_intercept=True, random_state=0):
    """Gradient descent that recomputes the softmax at the top of every step."""
    rng = check_random_state(random_state)
    n_samples, n_features = X.shape
    n_classes = int(y.max()) + 1
    if fit_intercept:
        X = np.hstack([X, np.ones((n_samples, 1))])
        n_features += 1
    targets = one_hot(y, n_classes)
    weights = rng.normal(scale=0.01, size=(n_features, n_classes))
    alpha = 1.0 / (C * n_samples)
    step = float(learning_rate)
    previous_loss = np.inf
    for _ in range(int(max_iter)):
        probabilities = softmax(X @ weights)
        grad = X.T @ (probabilities - targets) / n_samples + alpha * weights
        if np.abs(grad).max() < tol:
            break
        weights -= step * grad
        stepped = softmax(X @ weights)
        loss = (-np.mean(np.sum(targets * np.log(stepped + 1e-12), axis=1))
                + 0.5 * alpha * float(np.sum(weights * weights)))
        if loss > previous_loss:
            weights += step * grad
            step *= 0.5
            if step < 1e-6:
                break
        else:
            step *= 1.05
            previous_loss = loss
    if fit_intercept:
        return weights[:-1], weights[-1]
    return weights, np.zeros(n_classes)


class TestLogisticRegressionMatchesReference:
    """Reusing the accepted step's probabilities changes no weight."""

    @pytest.mark.parametrize("params", [
        {},
        {"C": 0.1, "max_iter": 60},
        {"learning_rate": 5.0, "max_iter": 120},  # forces rejected steps
        {"fit_intercept": False, "tol": 1e-2},
        {"random_state": 3, "max_iter": 1},
    ])
    @pytest.mark.parametrize("n_classes,scale", [(2, 1.0), (3, 100.0), (4, 1e4)])
    def test_coefficients_identical(self, params, n_classes, scale):
        X, y = make_classification(n_samples=90, n_features=5, n_classes=n_classes,
                                   random_state=n_classes)
        X = X * scale
        model = LogisticRegression(**params).fit(X, y)
        coef, intercept = reference_lr_weights(X, y, **params)
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)


class TestLDA:
    def test_fits_gaussian_classes(self, small_binary_data):
        X, y = small_binary_data
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.score(X, y) > 0.85

    def test_multiclass(self, small_multiclass_data):
        X, y = small_multiclass_data
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.score(X, y) > 0.7

    def test_handles_collinear_features(self, rng):
        base = rng.normal(size=(100, 2))
        X = np.hstack([base, base[:, :1]])  # duplicated column
        y = (base[:, 0] > 0).astype(int)
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.score(X, y) > 0.8

    def test_probabilities_valid(self, small_binary_data):
        X, y = small_binary_data
        probs = LinearDiscriminantAnalysis().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
