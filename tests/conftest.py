"""Shared pytest fixtures: small datasets, problems and evaluators."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.evaluation import PipelineEvaluator
from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.models.linear import LogisticRegression


@pytest.fixture(scope="session")
def rng():
    """Session-wide deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_binary_data():
    """A small, well-separated binary classification problem (no distortion)."""
    X, y = make_classification(
        n_samples=120, n_features=6, n_classes=2, class_sep=2.0, random_state=0
    )
    return X, y


@pytest.fixture(scope="session")
def small_multiclass_data():
    """A small 3-class problem."""
    X, y = make_classification(
        n_samples=150, n_features=8, n_classes=3, class_sep=2.0, random_state=1
    )
    return X, y


@pytest.fixture(scope="session")
def distorted_data():
    """A binary problem whose features have heterogeneous scales and skew.

    Feature preprocessing visibly matters on this dataset, which is what most
    search-algorithm tests rely on.
    """
    X, y = make_classification(
        n_samples=140, n_features=8, n_classes=2, class_sep=2.0, random_state=2
    )
    X = distort_features(X, random_state=2)
    return X, y


@pytest.fixture(scope="session")
def small_space():
    """Default 7-preprocessor search space with short pipelines."""
    return SearchSpace(max_length=3)


@pytest.fixture(scope="session")
def lr_problem(distorted_data):
    """An AutoFPProblem with a fast logistic-regression downstream model."""
    X, y = distorted_data
    model = LogisticRegression(max_iter=60)
    return AutoFPProblem.from_arrays(
        X, y, model, space=SearchSpace(max_length=3), random_state=0, name="test/lr"
    )


@pytest.fixture(scope="session")
def lr_evaluator(distorted_data):
    """A PipelineEvaluator over the distorted data with a fast LR model."""
    X, y = distorted_data
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=60), random_state=0
    )


@pytest.fixture
def live_engine():
    """Factory: a ready-to-run ExecutionEngine for any ``BACKEND_NAMES`` name.

    Tests that parametrize over every backend need more than
    ``ExecutionEngine(name)`` for ``"remote"``: a coordinator with no
    registered workers leases nothing, so the first evaluation would block
    forever.  This factory boots a 2-worker loopback fleet for the remote
    case and tears everything down (engine, then workers) at test exit.
    """
    from repro.engine import ExecutionEngine

    cleanups = []

    def factory(name, n_workers=2):
        if name == "remote":
            from repro.engine.remote import start_loopback

            backend, workers = start_loopback(n_workers)
            engine = ExecutionEngine(backend)

            def shutdown(engine=engine, workers=workers):
                engine.close()
                for worker in workers:
                    worker.stop()

            cleanups.append(shutdown)
        else:
            engine = ExecutionEngine(
                name, n_workers=None if name == "serial" else n_workers
            )
            cleanups.append(engine.close)
        return engine

    yield factory
    for cleanup in reversed(cleanups):
        cleanup()


@pytest.fixture
def clock_ahead(monkeypatch):
    """Factory: move the monotonic clock one module sees ``skew`` s ahead.

    Replaces the module's ``time`` with a view of the real module whose
    ``monotonic`` runs ``skew`` seconds fast, so a deadline computed
    earlier reads as blown without the test sleeping through it.  The
    real clock everywhere else is untouched.
    """
    class _Ahead:
        def __init__(self, skew):
            self._skew = skew

        def __getattr__(self, name):
            return getattr(time, name)

        def monotonic(self):
            return time.monotonic() + self._skew

    def apply(module, skew):
        monkeypatch.setattr(module, "time", _Ahead(skew))

    return apply
