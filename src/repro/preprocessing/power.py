"""PowerTransformer: Yeo-Johnson power transformation with automatic lambda.

The Yeo-Johnson transform (Equation 1 of the paper) maps each feature through
an exponential, monotonic transformation whose parameter ``lambda`` is chosen
per feature by maximising the profile log-likelihood of a normal model of the
transformed data — the same criterion scikit-learn uses.  The optimisation is
a bounded Brent search: a private port of the one behind
``scipy.optimize.minimize_scalar(method="bounded")``, step for step, so the
chosen lambdas are bit-identical to scipy's without importing scipy (whose
import cost would otherwise dominate program start-up).
"""

from __future__ import annotations

import math

import numpy as np

from repro.preprocessing.base import Preprocessor


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
    eps = np.finfo(np.float64).eps

    if abs(lmbda) < eps:
        out[pos] = np.log1p(x[pos])
    else:
        out[pos] = (np.power(x[pos] + 1.0, lmbda) - 1.0) / lmbda

    if abs(lmbda - 2.0) < eps:
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


_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
#: scipy's defaults for the bounded method: absolute x tolerance and the
#: cap on function evaluations
_XATOL = 1e-5
_MAXITER = 500


def _minimize_bounded(func, lower: float, upper: float) -> float:
    """Brent's bounded scalar minimisation; returns the minimising ``x``.

    A line-for-line port of scipy's ``_minimize_scalar_bounded`` (golden
    section search with parabolic interpolation) at its default settings.
    Keeping the arithmetic identical keeps the result bit-identical to
    ``minimize_scalar(func, bounds=(lower, upper), method="bounded").x``.
    """
    a, b = lower, upper
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
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
        fu = func(x)
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


def optimal_lambda(x: np.ndarray, bounds: tuple[float, float] = (-4.0, 4.0)) -> float:
    """Find the lambda maximising the Yeo-Johnson profile log-likelihood."""
    return float(_minimize_bounded(
        lambda lmbda: -yeo_johnson_log_likelihood(x, lmbda), *bounds))


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
        n_features = X.shape[1]
        self.lambdas_ = np.empty(n_features)
        means = np.empty(n_features)
        stds = np.empty(n_features)
        for j in range(n_features):
            col = X[:, j]
            if np.all(col == col[0]):
                # Constant feature: identity lambda and no scaling.
                self.lambdas_[j] = 1.0
                means[j] = yeo_johnson_transform(col, 1.0).mean()
                stds[j] = 1.0
                continue
            self.lambdas_[j] = optimal_lambda(col)
            transformed = yeo_johnson_transform(col, self.lambdas_[j])
            means[j] = transformed.mean()
            std = transformed.std()
            stds[j] = std if std > 0 else 1.0
        self.means_ = means
        self.stds_ = stds

    def _transform(self, X: np.ndarray) -> np.ndarray:
        out = np.empty_like(X, dtype=np.float64)
        for j in range(X.shape[1]):
            out[:, j] = yeo_johnson_transform(X[:, j], self.lambdas_[j])
        if self.standardize:
            out = (out - self.means_) / self.stds_
        return out
