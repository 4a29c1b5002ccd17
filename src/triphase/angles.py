"""Angle arithmetic on the principal branch (-pi, pi]."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(x):
    """Reduce an angle (scalar or array) to the principal branch (-pi, pi]."""
    w = np.asarray(x, dtype=float)
    w = w - TWO_PI * np.rint(w / TWO_PI)
    # np.rint ties to even, so odd multiples of pi can land on -pi
    w = np.where(w <= -np.pi, w + TWO_PI, w)
    return float(w) if w.ndim == 0 else w
