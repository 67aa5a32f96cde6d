"""CART decision trees for classification and regression.

These trees are the building blocks for three parts of the reproduction:

* the decision-tree rule analysis of Table 1 (does any meta-feature rule
  predict whether FP helps?),
* the random forest used as SMAC's surrogate model and as a landmarking
  meta-feature, and
* the regression trees inside the gradient-boosting classifier that stands
  in for XGBoost.

Splits are found exhaustively per feature on sorted values; impurity is the
Gini index for classification and variance for regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.base import Classifier
from repro.utils.random import check_random_state
from repro.utils.validation import check_X_y, check_is_fitted


@dataclass
class TreeNode:
    """A single node of a decision tree.

    Leaves have ``feature is None`` and carry ``value`` (class-probability
    vector for classification, scalar mean for regression).
    """

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | float | None = None
    n_samples: int = 0
    depth: int = 0
    impurity: float = 0.0
    children: list = field(default_factory=list, repr=False)

    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions * proportions))


def _best_split_classification(X, y, n_classes, feature_indices, min_samples_leaf):
    """Return ``(feature, threshold, gain)`` of the best Gini split, or None."""
    n_samples = X.shape[0]
    parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    parent_impurity = _gini(parent_counts)
    best = None
    best_gain = 1e-12

    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="mergesort")
        values = X[order, feature]
        labels = y[order]
        left_counts = np.zeros(n_classes)
        right_counts = parent_counts.copy()
        for i in range(n_samples - 1):
            label = labels[i]
            left_counts[label] += 1
            right_counts[label] -= 1
            if values[i] == values[i + 1]:
                continue
            n_left = i + 1
            n_right = n_samples - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            weighted = (n_left * _gini(left_counts)
                        + n_right * _gini(right_counts)) / n_samples
            gain = parent_impurity - weighted
            if gain > best_gain:
                best_gain = gain
                best = (feature, 0.5 * (values[i] + values[i + 1]), gain)
    return best


def _best_split_regression(X, y, feature_indices, min_samples_leaf):
    """Return ``(feature, threshold, gain)`` of the best variance-reducing split.

    Every candidate feature is scored at once over a ``(features, samples)``
    block: one stable sort and one running sum per node.  Running sums
    accumulate left to right, exactly like a per-sample loop, and the
    winner is the first maximum in feature-major order -- the split a
    sequential scan keeping only strictly better gains would pick.
    """
    n_samples = X.shape[0]
    total_sum = y.sum()
    total_sq = float(np.sum(y * y))
    parent_sse = total_sq - total_sum * total_sum / n_samples

    columns = X[:, feature_indices].T
    targets = y[np.argsort(columns, axis=1, kind="mergesort")]
    values = np.sort(columns, axis=1, kind="mergesort")
    # a split after sorted position i leaves i + 1 samples on the left;
    # keep only the positions that leave min_samples_leaf on both sides
    first = max(int(np.ceil(min_samples_leaf)) - 1, 0)
    stop = n_samples - first - 1
    if stop <= first:
        return None
    left_sum = np.cumsum(targets, axis=1)[:, first:stop]
    left_sq = np.cumsum(targets * targets, axis=1)[:, first:stop]
    n_left = np.arange(first + 1.0, stop + 1.0)
    n_right = n_samples - n_left
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    left_sse = left_sq - left_sum * left_sum / n_left
    right_sse = right_sq - right_sum * right_sum / n_right
    gain = parent_sse - (left_sse + right_sse)

    lower, upper = values[:, first:stop], values[:, first + 1:stop + 1]
    allowed = (lower != upper) & (gain > 1e-12)
    row, i = divmod(int(np.argmax(np.where(allowed, gain, -np.inf))), gain.shape[1])
    if not allowed[row, i]:
        return None
    return (feature_indices[row], 0.5 * (lower[row, i] + upper[row, i]),
            gain[row, i])


def _mean_and_variance(y: np.ndarray) -> tuple[float, float]:
    """``(y.mean(), np.var(y))`` written out to share one sum; 0 when empty."""
    if not y.size:
        return 0.0, 0.0
    mean = y.sum() / y.size
    diff = y - mean
    return float(mean), float((diff * diff).sum() / y.size)


def _is_constant(y: np.ndarray) -> bool:
    """``np.allclose(y, y[0])`` written out, with numpy's default tolerances."""
    first = y[0]
    if not np.isfinite(first):
        return bool(np.all(y == first))
    return bool(np.all(np.abs(y - first) <= 1e-08 + 1e-05 * abs(first)))


class DecisionTreeClassifier(Classifier):
    """CART classification tree using the Gini impurity.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` means nodes are split until pure.
    min_samples_split:
        Minimum number of samples required to consider splitting a node.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        Number of features examined per split.  ``None`` uses all features,
        ``"sqrt"`` uses ``sqrt(n_features)`` (the random-forest default).
    random_state:
        Seed for the per-split feature subsampling.
    """

    name = "decision_tree"

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 random_state: int | None = 0) -> None:
        super().__init__(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            random_state=random_state,
        )

    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return max(1, min(int(self.max_features), n_features))

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._rng = check_random_state(self.random_state)
        self.n_classes_ = int(y.max()) + 1
        self.tree_ = self._build(X, y, depth=0)

    def _build(self, X, y, depth) -> TreeNode:
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        node = TreeNode(
            n_samples=X.shape[0],
            depth=depth,
            impurity=_gini(counts),
            value=counts / counts.sum(),
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or X.shape[0] < self.min_samples_split
            or np.count_nonzero(counts) <= 1
        ):
            return node

        n_features = X.shape[1]
        n_candidates = self._n_split_features(n_features)
        if n_candidates < n_features:
            feature_indices = self._rng.choice(n_features, size=n_candidates,
                                               replace=False)
        else:
            feature_indices = np.arange(n_features)

        split = _best_split_classification(
            X, y, self.n_classes_, feature_indices, self.min_samples_leaf
        )
        if split is None:
            return node

        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "tree_")
        out = np.empty((X.shape[0], self.n_classes_))
        for i, row in enumerate(X):
            node = self.tree_
            while not node.is_leaf():
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        check_is_fitted(self, "tree_")

        def walk(node):
            if node.is_leaf():
                return node.depth
            return max(walk(node.left), walk(node.right))

        return walk(self.tree_)

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        check_is_fitted(self, "tree_")

        def walk(node):
            if node.is_leaf():
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.tree_)


class DecisionTreeRegressor:
    """CART regression tree minimising within-node variance.

    Follows the same ``fit`` / ``predict`` protocol as the classifiers but
    predicts real values.  Used by the gradient-boosting classifier and the
    random-forest regression surrogate.
    """

    name = "decision_tree_regressor"

    def __init__(self, max_depth: int | None = 3, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 random_state: int | None = 0) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def get_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "random_state": self.random_state,
        }

    def clone(self) -> "DecisionTreeRegressor":
        return DecisionTreeRegressor(**self.get_params())

    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return max(1, min(int(self.max_features), n_features))

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.shape[0] != y.shape[0]:
            from repro.exceptions import ValidationError

            raise ValidationError("X and y have inconsistent lengths")
        self._rng = check_random_state(self.random_state)
        self.n_features_in_ = X.shape[1]
        self.tree_ = self._build(X, y, depth=0)
        return self

    def _build(self, X, y, depth) -> TreeNode:
        mean, variance = _mean_and_variance(y)
        node = TreeNode(
            n_samples=X.shape[0],
            depth=depth,
            impurity=variance,
            value=mean,
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or X.shape[0] < self.min_samples_split
            or _is_constant(y)
        ):
            return node

        n_features = X.shape[1]
        n_candidates = self._n_split_features(n_features)
        if n_candidates < n_features:
            feature_indices = self._rng.choice(n_features, size=n_candidates,
                                               replace=False)
        else:
            feature_indices = np.arange(n_features)

        split = _best_split_regression(X, y, feature_indices, self.min_samples_leaf)
        if split is None:
            return node

        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.tree_
            while not node.is_leaf():
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out
