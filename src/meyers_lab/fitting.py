"""Log-log least squares used by sweeps and the experiment harness."""
from __future__ import annotations

import numpy as np


class FitError(ValueError):
    pass


def fit_loglog(pairs) -> float:
    """Least-squares slope of log(value) against log(scale).

    Needs finite, strictly positive pairs at 3 or more distinct scales.
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(np.unique(arr[:, 0])) < 3:
        raise FitError("need (scale, value) pairs at 3 or more distinct scales")
    if not np.all((arr > 0) & (arr < np.inf)):
        raise FitError("scales and values must be finite and positive")
    slope, _ = np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)
    return float(slope)
