"""Log-log least squares used by sweeps and the experiment harness."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FitError(ValueError):
    pass


@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float
    samples: int


def fit_loglog(pairs) -> FitResult:
    """Least-squares slope of log(value) against log(scale).

    Needs finite, strictly positive pairs at 3 or more distinct scales.
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(np.unique(arr[:, 0])) < 3:
        raise FitError("need (scale, value) pairs at 3 or more distinct scales")
    if not np.all((arr > 0) & (arr < np.inf)):
        raise FitError("scales and values must be finite and positive")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return FitResult(float(slope), float(intercept), r2, len(arr))
