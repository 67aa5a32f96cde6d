"""SMAC: sequential model-based optimisation with a random-forest surrogate.

SMAC fits a random-forest regressor mapping the one-hot pipeline encoding to
the observed validation accuracy.  Each iteration it scores a pool of
candidate pipelines (random samples plus mutations of the incumbent) with an
expected-improvement acquisition function derived from the forest's mean and
across-tree spread, and evaluates the single best-scoring candidate.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import TrialRecord
from repro.core.search_space import SearchSpace
from repro.models.forest import RandomForestRegressor
from repro.search.base import SearchAlgorithm


_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                         xi: float = 0.01) -> np.ndarray:
    """Expected improvement of maximising candidates over the incumbent ``best``.

    The standard normal cdf and pdf are computed in closed form (the pool
    is a few dozen candidates) rather than through ``scipy.stats``, whose
    import would dominate program start-up; they agree to within 1e-15.
    """
    std = np.maximum(std, 1e-9)
    improvement = mean - best - xi
    z = improvement / std
    cdf = np.array([0.5 * math.erfc(-v * _SQRT_HALF) for v in z.tolist()])
    pdf = np.exp(-z**2 / 2.0) / _SQRT_2PI
    return improvement * cdf + std * pdf


class SMAC(SearchAlgorithm):
    """Random-forest-based Bayesian optimisation for Auto-FP.

    Parameters
    ----------
    n_init:
        Random pipelines evaluated before the surrogate is first trained.
    n_candidates:
        Size of the candidate pool scored per iteration.
    n_trees:
        Number of trees in the surrogate forest.
    refit_interval:
        Refit the surrogate every this many evaluations (1 = every
        iteration, larger values trade model freshness for speed).
    """

    name = "smac"
    category = "surrogate"
    area = "hpo"
    surrogate_model = "Random Forest"
    initialization = "Random Search"
    samples_per_iteration = ">1"
    evaluations_per_iteration = "=1"

    def __init__(self, n_init: int = 8, n_candidates: int = 30, n_trees: int = 10,
                 refit_interval: int = 1, random_state: int | None = 0) -> None:
        super().__init__(random_state=random_state)
        self.n_init = int(n_init)
        self.n_candidates = int(n_candidates)
        self.n_trees = int(n_trees)
        self.refit_interval = max(1, int(refit_interval))

    def _setup(self, problem, rng) -> None:
        self._surrogate: RandomForestRegressor | None = None
        self._n_seen = 0

    def _update(self, trials: list[TrialRecord], space: SearchSpace, rng) -> None:
        usable = [t for t in trials if t.fidelity >= 1.0]
        if len(usable) < 2:
            self._surrogate = None
            return
        if self._surrogate is not None and len(usable) - self._n_seen < self.refit_interval:
            return
        X = space.encode_many([t.pipeline for t in usable])
        y = np.asarray([t.accuracy for t in usable])
        self._surrogate = RandomForestRegressor(
            n_estimators=self.n_trees,
            max_depth=8,
            random_state=int(rng.integers(0, 2**31 - 1)),
        ).fit(X, y)
        self._n_seen = len(usable)

    def _propose(self, space: SearchSpace, rng: np.random.Generator, trials):
        if self._surrogate is None:
            return [space.sample_pipeline(rng)]

        usable = [t for t in trials if t.fidelity >= 1.0]
        incumbent = max(usable, key=lambda t: t.accuracy)
        candidates = space.sample_pipelines(self.n_candidates // 2, rng)
        candidates += [
            space.mutate(incumbent.pipeline, rng)
            for _ in range(self.n_candidates - len(candidates))
        ]
        encoded = space.encode_many(candidates)
        mean, std = self._surrogate.predict_with_std(encoded)
        scores = expected_improvement(mean, std, incumbent.accuracy)
        return [candidates[int(np.argmax(scores))]]
