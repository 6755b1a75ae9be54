"""Fourier fits of functions on the circle: a trig polynomial
sum_n c_n e^{in phi}, recovered from equispaced samples, as its
{mode: coefficient} map.  Arithmetic on trig polynomials is a test reference
(`tests/references.py`)."""

from __future__ import annotations

import numpy as np

_CHOP = 1e-13

#: Equispaced samples over [0, 2pi) and the largest Fourier mode of each fit
#: of a function on the circle pair: the anchor (`poisson.anchor_trig`) and
#: the group action on the fibre (`quantize.Coproduct`).
CIRCLE_SAMPLES = 32
CIRCLE_MAX_MODE = 4


def circle_angles() -> np.ndarray:
    """The CIRCLE_SAMPLES angles 2 pi j / CIRCLE_SAMPLES, j = 0, 1, ..."""
    return 2.0 * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES


def fit_trig(values: np.ndarray, max_mode: int) -> dict[int, complex]:
    """Recover a trig polynomial from equispaced samples over [0, 2pi) by DFT,
    as {mode: coefficient} over its nonzero coefficients, modes ascending.

    Exact (up to rounding) when the sampled function is a trig polynomial of
    degree at most max_mode and len(values) > 2*max_mode.
    """
    m = len(values)
    if m <= 2 * max_mode:
        raise ValueError("not enough samples for the requested degree")
    phases = 2.0 * np.pi * np.arange(m) / m
    out = {}
    for n in range(-max_mode, max_mode + 1):
        c = np.sum(values * np.exp(-1j * n * phases)) / m
        # chop real and imaginary parts separately: the sampled functions are
        # trig polynomials whose true coefficient components are either zero
        # or of order one, so sub-chop components are rounding dirt
        re = 0.0 if abs(c.real) <= _CHOP else c.real
        im = 0.0 if abs(c.imag) <= _CHOP else c.imag
        if re != 0.0 or im != 0.0:
            out[n] = complex(re, im)
    return out
