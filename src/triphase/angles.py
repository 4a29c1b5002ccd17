"""Angle arithmetic on the principal branch (-pi, pi]."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(x):
    """Reduce an angle (scalar or array) to the principal branch (-pi, pi]."""
    w = np.asarray(x, dtype=float)[()]  # a numpy scalar for a scalar x
    w = w - TWO_PI * np.rint(w / TWO_PI)
    # np.rint ties to even, so odd multiples of pi can land on -pi; adding
    # 0.0 elsewhere keeps every bit, as no w here is -0.0 (x - x is +0.0)
    w = w + TWO_PI * (w <= -np.pi)
    return float(w) if w.ndim == 0 else w
