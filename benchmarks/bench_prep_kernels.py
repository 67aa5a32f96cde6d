"""Per-evaluation kernels: milliseconds per fit of prep, train and propose.

The paper's Table-5 bottleneck analysis splits each trial into pick, prep
and train time.  This harness times the kernel behind each share on the
raw features of four registry datasets (blood, heart, vehicle, wine):

* *prep*: ``PowerTransformer.fit`` -- every feature's lambda found in one
  batched Brent search;
* *train*: ``LogisticRegression.fit`` (the CLI's default model) on the
  standardised features;
* *propose*: a SMAC-shaped ``RandomForestRegressor`` surrogate -- 10
  depth-8 trees on 40 one-hot encoded pipelines, as ``smac`` refits it
  after every trial.

``test_prep_kernels_smoke`` (CI smoke step) checks that the batched fit
equals a per-feature loop bit for bit on those datasets.  The slow
``test_prep_kernels`` records ms per fit in ``BENCH_test_prep_kernels.json``.
There is no speed gate: the numbers are for comparing commits on one box.

Run the measurement with::

    PYTHONPATH=src python -m pytest benchmarks/bench_prep_kernels.py -m slow -s
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.search_space import SearchSpace
from repro.datasets import load_dataset
from repro.models.forest import RandomForestRegressor
from repro.models.linear import LogisticRegression
from repro.preprocessing import PowerTransformer, StandardScaler
from repro.preprocessing.power import optimal_lambda, yeo_johnson_transform

DATASETS = ("blood", "heart", "vehicle", "wine")
#: timed fits per kernel and dataset
REPEATS = 20


def per_feature_fit(X: np.ndarray):
    """Lambdas, means and stds of a ``PowerTransformer`` fitted one feature
    at a time."""
    lambdas, means, stds = [], [], []
    for col in X.T:
        constant = np.all(col == col[0])
        lmbda = 1.0 if constant else optimal_lambda(col)
        transformed = yeo_johnson_transform(col, lmbda)
        std = transformed.std()
        lambdas.append(lmbda)
        means.append(transformed.mean())
        stds.append(std if std > 0 and not constant else 1.0)
    return np.array(lambdas), np.array(means), np.array(stds)


def smoke_check() -> None:
    """Assert the batched fit equals the per-feature loop on every dataset."""
    for name in DATASETS:
        X, _ = load_dataset(name)
        transformer = PowerTransformer().fit(X)
        lambdas, means, stds = per_feature_fit(X)
        assert np.array_equal(transformer.lambdas_, lambdas), name
        assert np.array_equal(transformer.means_, means), name
        assert np.array_equal(transformer.stds_, stds), name


def _ms_per_fit(make, X, y=None) -> float:
    start = time.perf_counter()
    for _ in range(REPEATS):
        make().fit(X, y)
    return 1e3 * (time.perf_counter() - start) / REPEATS


def _surrogate_data(seed: int):
    """40 encoded pipelines with accuracy-like targets, as SMAC fits them."""
    rng = np.random.default_rng(seed)
    space = SearchSpace()
    X = space.encode_many(space.sample_pipelines(40, rng))
    return X, rng.uniform(0.5, 0.9, size=X.shape[0])


def run_kernels() -> dict:
    """Mean ms per fit of each kernel, per dataset."""
    rows = {}
    for seed, name in enumerate(DATASETS):
        X, y = load_dataset(name)
        scaled = StandardScaler().fit_transform(X)
        X_sur, y_sur = _surrogate_data(seed)
        rows[name] = {
            "power_transformer_ms": _ms_per_fit(PowerTransformer, X),
            "logistic_regression_ms": _ms_per_fit(LogisticRegression, scaled, y),
            "smac_forest_ms": _ms_per_fit(
                lambda seed=seed: RandomForestRegressor(
                    n_estimators=10, max_depth=8, random_state=seed),
                X_sur, y_sur),
            "shape": list(X.shape),
        }
    return rows


def test_prep_kernels_smoke():
    smoke_check()


def test_prep_kernels(once, artifact):
    rows = once(run_kernels)
    lines = [f"{'dataset':<10}{'rows x cols':>13}{'power ms':>10}{'lr ms':>9}"
             f"{'forest ms':>11}"]
    for name, row in rows.items():
        shape = "x".join(str(n) for n in row["shape"])
        lines.append(f"{name:<10}{shape:>13}{row['power_transformer_ms']:>10.2f}"
                     f"{row['logistic_regression_ms']:>9.2f}"
                     f"{row['smac_forest_ms']:>11.2f}")
    metrics = {f"{name}.{key}": round(value, 3)
               for name, row in rows.items()
               for key, value in row.items() if key.endswith("_ms")}
    artifact("prep_kernels", "\n".join(lines), metrics=metrics)
