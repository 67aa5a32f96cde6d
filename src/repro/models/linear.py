"""Linear classifiers: multinomial logistic regression and LDA.

Logistic regression is the paper's "LR" downstream model.  It is trained
with full-batch gradient descent on the softmax cross-entropy with L2
regularisation; the learning rate is adapted with a simple backtracking
scheme so no tuning is needed across datasets of very different scales —
which is exactly the sensitivity to feature scaling the paper studies.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Classifier, one_hot, softmax


class LogisticRegression(Classifier):
    """Multinomial logistic regression trained with gradient descent.

    Parameters
    ----------
    C:
        Inverse regularisation strength (larger = less regularisation),
        matching the scikit-learn convention so HPO grids carry over.
    max_iter:
        Maximum number of full-batch gradient steps.
    tol:
        Stop when the largest absolute gradient entry falls below this value.
    learning_rate:
        Initial step size; adapted multiplicatively during training.
    fit_intercept:
        Whether to learn a bias term.
    random_state:
        Seed controlling the (tiny) random weight initialisation.
    """

    name = "lr"

    def __init__(self, C: float = 1.0, max_iter: int = 200, tol: float = 1e-4,
                 learning_rate: float = 0.5, fit_intercept: bool = True,
                 random_state: int | None = 0) -> None:
        super().__init__(
            C=C,
            max_iter=max_iter,
            tol=tol,
            learning_rate=learning_rate,
            fit_intercept=fit_intercept,
            random_state=random_state,
        )

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        from repro.utils.random import check_random_state

        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        n_classes = int(y.max()) + 1
        if self.fit_intercept:
            X = np.hstack([X, np.ones((n_samples, 1))])
            n_features += 1
        targets = one_hot(y, n_classes)
        weights = rng.normal(scale=0.01, size=(n_features, n_classes))
        alpha = 1.0 / (self.C * n_samples)
        step = float(self.learning_rate)
        previous_loss = np.inf
        probabilities = softmax(X @ weights)

        for _ in range(int(self.max_iter)):
            grad = X.T @ (probabilities - targets) / n_samples + alpha * weights
            max_grad = np.abs(grad).max()
            if max_grad < self.tol:
                break
            weights -= step * grad
            loss, stepped = self._loss(X, targets, weights, alpha)
            if loss > previous_loss:
                # Overshot: undo, shrink the step and retry next iteration.
                # Undoing can round, so the restored weights' probabilities
                # are recomputed rather than kept from before the step.
                weights += step * grad
                step *= 0.5
                if step < 1e-6:
                    break
                probabilities = softmax(X @ weights)
            else:
                step *= 1.05
                previous_loss = loss
                probabilities = stepped

        if self.fit_intercept:
            self.coef_ = weights[:-1]
            self.intercept_ = weights[-1]
        else:
            self.coef_ = weights
            self.intercept_ = np.zeros(n_classes)

    @staticmethod
    def _loss(X, targets, weights, alpha) -> tuple[float, np.ndarray]:
        """Regularised cross-entropy at ``weights``, and the probabilities."""
        probabilities = softmax(X @ weights)
        eps = 1e-12
        data_term = -np.mean(np.sum(targets * np.log(probabilities + eps), axis=1))
        reg_term = 0.5 * alpha * float(np.sum(weights * weights))
        return data_term + reg_term, probabilities

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        logits = X @ self.coef_ + self.intercept_
        return softmax(logits)


class LinearDiscriminantAnalysis(Classifier):
    """Gaussian LDA classifier with a shared, shrunk covariance matrix.

    Used as one of the auto-sklearn landmarking meta-features
    (``LandmarkLDA``); the shrinkage keeps the pooled covariance invertible
    on degenerate or high-dimensional inputs.
    """

    name = "lda"

    def __init__(self, shrinkage: float = 1e-3) -> None:
        super().__init__(shrinkage=shrinkage)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n_features = X.shape[1]
        n_classes = int(y.max()) + 1
        self.means_ = np.zeros((n_classes, n_features))
        self.priors_ = np.zeros(n_classes)
        pooled = np.zeros((n_features, n_features))
        for label in range(n_classes):
            members = X[y == label]
            self.priors_[label] = members.shape[0] / X.shape[0]
            self.means_[label] = members.mean(axis=0)
            centered = members - self.means_[label]
            pooled += centered.T @ centered
        pooled /= max(X.shape[0] - n_classes, 1)
        pooled += self.shrinkage * np.eye(n_features) * max(np.trace(pooled) / n_features, 1.0)
        self.precision_ = np.linalg.pinv(pooled)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = self.means_.shape[0]
        scores = np.zeros((X.shape[0], n_classes))
        for label in range(n_classes):
            mean = self.means_[label]
            linear = X @ self.precision_ @ mean
            offset = -0.5 * mean @ self.precision_ @ mean
            scores[:, label] = linear + offset + np.log(self.priors_[label] + 1e-12)
        return softmax(scores)
