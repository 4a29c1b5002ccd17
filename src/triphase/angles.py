"""Angle arithmetic on the principal branch (-pi, pi] and on [0, 2pi)."""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi
MAX_GRID = 2 ** 20  # most samples of [0, 2pi): eraser delta grids and sweep alpha intervals


def reduce_angle(x: float, name: str = "angle") -> float:
    """Reduce a finite angle to [0, 2pi); a NaN or infinite x raises
    ValueError naming it. x % 2pi rounds to 2pi itself for a tiny negative
    x (-1e-300, -1e-17); that result is the angle 0.0."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    r = x % TWO_PI
    return 0.0 if r == TWO_PI else r


def wrap_angle(x):
    """Reduce an angle to (-pi, pi]: an array to a new array, a scalar to a float (NaN if not finite)."""
    if type(x) is not float:
        if np.ndim(x):  # in place on one new array
            w = np.asarray(x, dtype=float)
            t = w / TWO_PI
            np.rint(t, out=t)
            t *= TWO_PI
            np.subtract(w, t, out=t)
            t += TWO_PI * (t <= -np.pi)  # rint ties to even: an odd multiple of pi lands on -pi
            return t
        x = float(x)
    if not math.isfinite(x):
        return x - x  # the array form's NaN, with its bits
    # the array form's operations with its bits: round ties to even like np.rint,
    # its int converts back exactly, and + 0.0 keeps every bit (no w is -0.0)
    w = x - TWO_PI * round(x / TWO_PI)
    return w + TWO_PI if w <= -math.pi else w + 0.0


def principal_phase(z):
    """arg z of a complex scalar (as a float) or array on the principal
    branch (-pi, pi]: the bits of wrap_angle(np.arctan2(z.imag, z.real)).

    arctan2 already lies on [-pi, pi], so two values remain to map. Adding
    0.0 turns a -0.0 (an imaginary part of -0.0, or a quotient that
    underflows) into +0.0. And -pi, which a negative real part gives with an
    imaginary part of -0.0 or one below zero by less than about 3e-16 of
    |z.real| (z = -1 - 1e-17j), is set to pi.
    """
    r = np.arctan2(z.imag + 0.0, z.real)  # the sum is also a contiguous copy
    if r.ndim == 0:
        r = float(r)
        return math.pi if r == -math.pi else r + 0.0
    r += 0.0
    r[r == -np.pi] = np.pi
    return r
