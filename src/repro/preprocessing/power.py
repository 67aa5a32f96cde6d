"""PowerTransformer: Yeo-Johnson power transformation with automatic lambda.

The Yeo-Johnson transform (Equation 1 of the paper) maps each feature through
an exponential, monotonic transformation whose parameter ``lambda`` is chosen
per feature by maximising the profile log-likelihood of a normal model of the
transformed data — the same criterion scikit-learn uses.  The optimisation is
a bounded Brent search: a private port of the one behind
``scipy.optimize.minimize_scalar(method="bounded")``, step for step, so the
chosen lambdas are bit-identical to scipy's without importing scipy (whose
import cost would otherwise dominate program start-up).

All features are fitted at once.  ``_minimize_bounded`` is a generator: it
yields the next lambda to try, is sent the objective value there, and
returns the minimiser.  :func:`_optimal_lambdas` runs one such search per
feature and scores every pending lambda in one vectorised call over a
row-major ``(features, samples)`` block: each element's power base
(``x + 1`` or ``1 - x``), its sign and each feature's log-Jacobian term are
derived once, and each step makes a single ``np.power`` call.  A single
feature (:func:`optimal_lambda`) is the same driver with one row.

The batched arithmetic is bit-identical to the per-feature definition
(:func:`yeo_johnson_transform`, :func:`yeo_johnson_log_likelihood`), and so
to scipy, for three reasons:

* every elementwise step is the same correctly-rounded operation in the
  same order (``-(p - 1) / d`` equals ``-((p - 1) / d)`` exactly);
* the mean and variance are taken along the contiguous axis, so every row
  reduces exactly like a 1-D ``.var()`` of that feature;
* numpy's ``np.power`` with a scalar exponent of ``-1``, ``0.5`` or ``2``
  takes a reciprocal/sqrt/square shortcut whose rounding differs from the
  general power routine that an exponent array gets.  A row whose lambda
  could hit a shortcut or a log branch (a multiple of 0.5, or within
  machine epsilon of 0 or 2) is therefore recomputed by the per-feature
  definition itself.  A Brent search essentially never probes such a
  lambda; fitted constant features (lambda 1) and caller-set lambdas do.
"""

from __future__ import annotations

import math

import numpy as np

from repro.preprocessing.base import Preprocessor

_EPS = np.finfo(np.float64).eps


def yeo_johnson_transform(x: np.ndarray, lmbda: float) -> np.ndarray:
    """Apply the Yeo-Johnson transformation with parameter ``lmbda`` to ``x``.

    Implements Equation 1 of the paper:

    * ``x >= 0, lambda != 0``:  ``((x + 1) ** lambda - 1) / lambda``
    * ``x >= 0, lambda == 0``:  ``log(x + 1)``
    * ``x <  0, lambda != 2``:  ``-((1 - x) ** (2 - lambda) - 1) / (2 - lambda)``
    * ``x <  0, lambda == 2``:  ``-log(1 - x)``
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0

    if abs(lmbda) < _EPS:
        out[pos] = np.log1p(x[pos])
    else:
        out[pos] = (np.power(x[pos] + 1.0, lmbda) - 1.0) / lmbda

    if abs(lmbda - 2.0) < _EPS:
        out[~pos] = -np.log1p(-x[~pos])
    else:
        out[~pos] = -(np.power(1.0 - x[~pos], 2.0 - lmbda) - 1.0) / (2.0 - lmbda)
    return out


def yeo_johnson_log_likelihood(x: np.ndarray, lmbda: float) -> float:
    """Profile log-likelihood of the Yeo-Johnson transform for one feature."""
    n = x.shape[0]
    transformed = yeo_johnson_transform(x, lmbda)
    var = transformed.var()
    if not np.isfinite(var) or var <= 0:
        return -np.inf
    loglike = -0.5 * n * np.log(var)
    loglike += (lmbda - 1.0) * np.sum(np.sign(x) * np.log1p(np.abs(x)))
    return float(loglike)


def _power_bases(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each element's branch (``x >= 0``) and power base (``x+1`` or ``1-x``)."""
    pos = rows >= 0
    return pos, np.where(pos, rows + 1.0, 1.0 - rows)


def _yeo_johnson_rows(rows: np.ndarray, pos: np.ndarray, bases: np.ndarray,
                      lambdas: np.ndarray) -> np.ndarray:
    """Row ``i`` of the result is ``yeo_johnson_transform(rows[i], lambdas[i])``.

    ``rows`` is a C-contiguous ``(features, samples)`` block and ``pos``,
    ``bases`` come from :func:`_power_bases`; one ``np.power`` call covers
    the whole block.
    """
    lam = lambdas[:, None]
    exponents = np.where(pos, lam, 2.0 - lam)
    out = np.power(bases, exponents)
    out -= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero exponent only occurs in rows recomputed below
        out /= exponents
    np.negative(out, out=out, where=~pos)
    exact = ((np.abs(lambdas) < _EPS) | (np.abs(lambdas - 2.0) < _EPS)
             | (np.fmod(lambdas, 0.5) == 0.0))
    for i in np.flatnonzero(exact):
        out[i] = yeo_johnson_transform(rows[i], lambdas[i])
    return out


_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
#: scipy's defaults for the bounded method: absolute x tolerance and the
#: cap on function evaluations
_XATOL = 1e-5
_MAXITER = 500


def _minimize_bounded(lower: float, upper: float):
    """Brent's bounded scalar minimisation, as a generator.

    Yields each ``x`` to evaluate and must be sent ``f(x)``; returns (as
    ``StopIteration.value``) the minimising ``x``.  A line-for-line port of
    scipy's ``_minimize_scalar_bounded`` (golden section search with
    parabolic interpolation) at its default settings.  Keeping the
    arithmetic identical keeps the result bit-identical to
    ``minimize_scalar(func, bounds=(lower, upper), method="bounded").x``.
    """
    a, b = lower, upper
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = yield x
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXITER:
            break
    return xf


def _sign_or_one(value: float) -> float:
    """``np.sign(value) + (value == 0)``: the sign, with zero mapped to +1."""
    return -1.0 if value < 0 else 1.0


def _optimal_lambdas(rows: np.ndarray,
                     bounds: tuple[float, float] = (-4.0, 4.0)) -> np.ndarray:
    """Maximum-likelihood lambda of every row of a ``(features, samples)`` block.

    Runs one :func:`_minimize_bounded` search per row and, at each step,
    scores all pending lambdas with one batched transform; row ``i`` gets
    exactly ``optimal_lambda(rows[i])``.  ``rows`` must be C-contiguous
    float64.
    """
    n_samples = rows.shape[1]
    lambdas = np.empty(rows.shape[0])
    pos, bases = _power_bases(rows)
    log_terms = np.sum(np.sign(rows) * np.log1p(np.abs(rows)), axis=1)
    searches = [_minimize_bounded(*bounds) for _ in range(rows.shape[0])]
    live = np.arange(rows.shape[0])
    pending = [next(search) for search in searches]

    while searches:
        trial = np.array(pending)
        var = _yeo_johnson_rows(rows, pos, bases, trial).var(axis=1)
        valid = np.isfinite(var) & (var > 0)
        loglike = -0.5 * n_samples * np.log(np.where(valid, var, 1.0))
        loglike += (trial - 1.0) * log_terms
        scores = np.where(valid, -loglike, np.inf).tolist()

        pending, kept = [], []
        for k, (search, score) in enumerate(zip(searches, scores)):
            try:
                pending.append(search.send(score))
                kept.append(k)
            except StopIteration as done:
                lambdas[live[k]] = done.value
        if len(kept) < len(searches):
            searches = [searches[k] for k in kept]
            live, rows, pos, bases, log_terms = (
                live[kept], rows[kept], pos[kept], bases[kept], log_terms[kept])
    return lambdas


def optimal_lambda(x: np.ndarray, bounds: tuple[float, float] = (-4.0, 4.0)) -> float:
    """Find the lambda maximising the Yeo-Johnson profile log-likelihood."""
    rows = np.ascontiguousarray(x, dtype=np.float64).reshape(1, -1)
    return float(_optimal_lambdas(rows, bounds)[0])


class PowerTransformer(Preprocessor):
    """Make feature distributions more normal-like via Yeo-Johnson.

    Each feature gets its own automatically-estimated ``lambda``.  When
    ``standardize`` is True (the scikit-learn default, and the parameter
    exposed in the paper's extended search space) the transformed features
    are additionally scaled to zero mean and unit variance.

    Parameters
    ----------
    standardize:
        Whether to apply zero-mean / unit-variance scaling after the power
        transformation.
    """

    name = "power_transformer"

    def __init__(self, standardize: bool = True) -> None:
        super().__init__(standardize=standardize)

    def _fit(self, X: np.ndarray, y=None) -> None:
        rows = np.ascontiguousarray(X.T)
        # Constant feature: identity lambda and no scaling.
        constant = np.all(rows == rows[:, :1], axis=1)
        self.lambdas_ = np.ones(rows.shape[0])
        self.lambdas_[~constant] = _optimal_lambdas(rows[~constant])
        transformed = _yeo_johnson_rows(rows, *_power_bases(rows), self.lambdas_)
        self.means_ = transformed.mean(axis=1)
        stds = transformed.std(axis=1)
        self.stds_ = np.where((stds > 0) & ~constant, stds, 1.0)

    def _transform(self, X: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(X.T)
        out = np.empty_like(X, dtype=np.float64)
        out[...] = _yeo_johnson_rows(rows, *_power_bases(rows), self.lambdas_).T
        if self.standardize:
            out = (out - self.means_) / self.stds_
        return out
