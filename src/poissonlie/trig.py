"""Exact arithmetic on trigonometric polynomials sum_n c_n e^{in phi}."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import worst

_CHOP = 1e-13


@dataclass(frozen=True)
class TrigPoly:
    coeffs: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean = {int(n): complex(c) for n, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def mode(n: int, c: complex = 1.0) -> "TrigPoly":
        return TrigPoly({n: c})

    @staticmethod
    def cos(k: int) -> "TrigPoly":
        return TrigPoly({k: 0.5, -k: 0.5})

    @staticmethod
    def sin(k: int) -> "TrigPoly":
        return TrigPoly({k: -0.5j, -k: 0.5j})

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0) + c
        return TrigPoly(out)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "TrigPoly":
        return TrigPoly({n: scalar * c for n, c in self.coeffs.items()})

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out: dict[int, complex] = {}
        for n, c in self.coeffs.items():
            for m, d in other.coeffs.items():
                out[n + m] = out.get(n + m, 0) + c * d
        return TrigPoly(out)

    def derivative(self) -> "TrigPoly":
        """d/dphi."""
        return TrigPoly({n: 1j * n * c for n, c in self.coeffs.items()})

    def max_abs(self) -> float:
        return worst(*(abs(c) for c in self.coeffs.values()))

    def residual(self, other: "TrigPoly") -> float:
        return (self - other).max_abs()

    def halve_modes(self) -> "TrigPoly":
        """Reindex e^{2i k phi} -> e^{i k theta}; requires purely even support."""
        if any(n % 2 for n in self.coeffs):
            raise ValueError("trig polynomial has odd modes; cannot halve")
        return TrigPoly({n // 2: c for n, c in self.coeffs.items()})


def fit_trig(values: np.ndarray, max_mode: int, chop: float = _CHOP) -> TrigPoly:
    """Recover a trig polynomial from equispaced samples over [0, 2pi) by DFT.

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
        re = 0.0 if abs(c.real) <= chop else c.real
        im = 0.0 if abs(c.imag) <= chop else c.imag
        if re != 0.0 or im != 0.0:
            out[n] = complex(re, im)
    return TrigPoly(out)
