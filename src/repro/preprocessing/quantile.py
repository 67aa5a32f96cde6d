"""QuantileTransformer: map features to a uniform or normal distribution."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.preprocessing.base import Preprocessor

_VALID_OUTPUTS = ("uniform", "normal")


class QuantileTransformer(Preprocessor):
    """Transform features independently to a target distribution.

    Each transformed value is the (interpolated) quantile position of the
    original value within the training distribution of the feature.  With
    ``output_distribution="uniform"`` (the paper's choice) values land in
    ``[0, 1]``; with ``"normal"`` the uniform quantiles are additionally
    passed through the standard normal inverse CDF.

    Parameters
    ----------
    n_quantiles:
        Number of quantile landmarks used to summarise the training
        distribution.  It is clipped to the number of training samples.
    output_distribution:
        Either ``"uniform"`` or ``"normal"``.
    """

    name = "quantile_transformer"

    #: clip range for the normal output to avoid infinities at the extremes
    _NORMAL_CLIP = 1e-7

    def __init__(self, n_quantiles: int = 1000,
                 output_distribution: str = "uniform") -> None:
        if output_distribution not in _VALID_OUTPUTS:
            raise ValidationError(
                f"output_distribution must be one of {_VALID_OUTPUTS}, "
                f"got {output_distribution!r}"
            )
        if n_quantiles < 2:
            raise ValidationError("n_quantiles must be at least 2")
        super().__init__(
            n_quantiles=int(n_quantiles),
            output_distribution=output_distribution,
        )

    def _fit(self, X: np.ndarray, y=None) -> None:
        n_samples = X.shape[0]
        self.n_quantiles_ = int(min(self.n_quantiles, n_samples))
        references = np.linspace(0.0, 1.0, self.n_quantiles_)
        self.references_ = references
        # One quantile-landmark column per feature, shape (n_quantiles_, n_features).
        self.quantiles_ = np.quantile(X, references, axis=0)
        # Ensure monotonicity for interpolation even with numerical noise.
        self.quantiles_ = np.maximum.accumulate(self.quantiles_, axis=0)

    def _transform(self, X: np.ndarray) -> np.ndarray:
        out = np.empty_like(X, dtype=np.float64)
        for j in range(X.shape[1]):
            landmarks = self.quantiles_[:, j]
            out[:, j] = np.interp(X[:, j], landmarks, self.references_)
        if self.output_distribution == "normal":
            # Deferred: only the extended parameter space reaches this
            # branch, and scipy would otherwise load on every start-up.
            # ``ndtri`` is the standard normal inverse CDF (``norm.ppf``).
            from scipy.special import ndtri

            clipped = np.clip(out, self._NORMAL_CLIP, 1.0 - self._NORMAL_CLIP)
            out = ndtri(clipped)
        return out
