"""Log-log scaling fits.

The reproduction target for the paper's complexity statements is the growth
*exponent*: running the same workload at several database sizes and fitting
``time ≈ c · N^e`` by least squares in log-log space.  The helpers below also
report the R² of the fit so benchmarks can flag noisy measurements, and
provide a tolerant comparison against the exponent predicted by Theorems 2
and 4 (Python constant factors and small-N effects easily shift exponents by
a few tenths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np


@dataclass
class ExponentFit:
    """A fitted power law ``value ≈ constant · N^exponent``."""

    exponent: float
    constant: float
    r_squared: float

    def matches(self, expected: float, tolerance: float = 0.45) -> bool:
        """Whether the fitted exponent is within ``tolerance`` of ``expected``."""
        return abs(self.exponent - expected) <= tolerance

    def as_dict(self) -> Dict[str, float]:
        return {
            "exponent": self.exponent,
            "constant": self.constant,
            "r_squared": self.r_squared,
        }


def fit_exponent(sizes: Sequence[float], values: Sequence[float]) -> ExponentFit:
    """Least-squares fit of ``values ≈ c · sizes^e`` in log-log space.

    Zero or negative values are clamped to a tiny positive constant so that
    constant-time measurements (which hover around timer resolution) produce
    an exponent near zero instead of blowing up.
    """
    if len(sizes) != len(values) or len(sizes) < 2:
        raise ValueError("need at least two (size, value) points to fit an exponent")
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.maximum(np.asarray(values, dtype=float), 1e-12))
    slope, intercept = np.polyfit(xs, ys, 1)
    predictions = slope * xs + intercept
    residual = np.sum((ys - predictions) ** 2)
    total = np.sum((ys - np.mean(ys)) ** 2)
    r_squared = 1.0 - (residual / total if total > 0 else 0.0)
    return ExponentFit(
        exponent=float(slope), constant=float(np.exp(intercept)), r_squared=float(r_squared)
    )


def theoretical_exponents(
    static_width: float, dynamic_width: float, epsilon: float
) -> Dict[str, float]:
    """The exponents promised by Theorems 2 and 4 for one ε."""
    return {
        "preprocessing": 1 + (static_width - 1) * epsilon,
        "delay": 1 - epsilon,
        "update": dynamic_width * epsilon,
    }
