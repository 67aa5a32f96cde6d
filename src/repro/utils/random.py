"""Random-number-generator helpers.

Everything in the library that involves randomness accepts a ``random_state``
argument which may be ``None``, an integer seed or a ``numpy.random.Generator``.
These helpers normalise that argument so callers never have to branch on the
type themselves.
"""

from __future__ import annotations

import numpy as np
# numpy 2.x loads these submodules lazily: ``numpy.random`` on the first
# ``default_rng`` and ``numpy.ma`` on the first ``np.unique``.  Importing
# them with the library means a forked pool worker inherits them instead
# of paying the import inside its first evaluation.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from repro.exceptions import ValidationError


def check_random_state(random_state=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    random_state:
        ``None`` (fresh non-deterministic generator), an integer seed, or an
        existing ``numpy.random.Generator`` (returned unchanged).
    """
    if random_state is None:
        # The designated construction site for "no seed requested":
        # callers asked for fresh entropy explicitly by passing None.
        return np.random.default_rng()  # repro: lint-ignore[RPR001]
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    if isinstance(random_state, np.random.Generator):
        return random_state
    raise ValidationError(
        "random_state must be None, an int or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )


def spawn_rng(rng: np.random.Generator, n: int = 1):
    """Spawn ``n`` statistically independent child generators from ``rng``.

    Used to give parallel components (e.g. the members of a population or
    the brackets of Hyperband) independent randomness that is still fully
    determined by the parent seed.
    """
    seeds = rng.integers(0, 2**32 - 1, size=n)
    children = [np.random.default_rng(int(seed)) for seed in seeds]
    return children if n != 1 else children[0]
