"""Angle arithmetic on the principal branch (-pi, pi] and on [0, 2pi)."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def reduce_angle(x: float) -> float:
    """Reduce a finite angle to [0, 2pi). x % 2pi rounds to 2pi itself for a
    tiny negative x (-1e-300, -1e-17); that result is the angle 0.0."""
    r = float(x) % TWO_PI
    return 0.0 if r == TWO_PI else r


def wrap_angle(x):
    """Reduce an angle (scalar or array) to the principal branch (-pi, pi]."""
    w = np.asarray(x, dtype=float)[()]  # a numpy scalar for a scalar x
    w = w - TWO_PI * np.rint(w / TWO_PI)
    # np.rint ties to even, so odd multiples of pi can land on -pi; adding
    # 0.0 elsewhere keeps every bit, as no w here is -0.0 (x - x is +0.0)
    w = w + TWO_PI * (w <= -np.pi)
    return float(w) if w.ndim == 0 else w
