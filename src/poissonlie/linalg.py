"""Hand-entered antisymmetric tables, NaN-safe residuals, the global sign
matcher, matrix serialization and finite differences.

Everything downstream works over small labelled real coordinate spaces; this
module fixes the wedge/pairing conventions once:

    <x ^ y, phi (x) psi> = phi(x) psi(y) - psi(x) phi(y)

so a wedge is the antisymmetric matrix x (x) y - y (x) x and pairing with a
2-tensor is full coefficient contraction.  Every element of an exterior
square (a bivector, a cobracket value, a cocycle) is a plain float array whose
last two axes are antisymmetric; its builder makes it so exactly.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable

import numpy as np


def antisymmetric_table(shape: tuple[int, ...], entries: dict) -> np.ndarray:
    """A table of zeros of `shape` with t[i, j] = v and t[j, i] = -v for each
    (i, j): v of `entries`, v a number or a vector along the trailing axes:
    hand-entered brackets, cobrackets and wedges."""
    out = np.zeros(shape)
    for (i, j), v in entries.items():
        out[i, j] = v
        out[j, i] = -np.asarray(v)
    return out


def worst(*residuals: float) -> float:
    """The largest residual, NaN if any residual is NaN, 0.0 if there are none.

    Python's max drops a NaN that is not its first argument (max(0.0, nan) is
    0.0), which would let a broken computation pass; every residual
    accumulator goes through this function instead."""
    out = 0.0
    for r in residuals:
        r = float(r)
        if math.isnan(r):
            return r
        if r > out:
            out = r
    return out


def worst_at(residuals: np.ndarray) -> tuple[float, int]:
    """`worst` of a nonempty array of nonnegative residuals, with the index of
    the value returned: the first NaN if there is one, else the first largest."""
    r = np.asarray(residuals, dtype=float).ravel()
    i = int(np.argmax(r))   # argmax stops at the first NaN
    return float(r[i]), i


def best_sign(computed: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """The global sign s = +/-1 under which `computed` best matches s * target,
    and the residual max |computed - s * target|; +1 on a tie."""
    plus = float(np.max(np.abs(computed - target)))
    minus = float(np.max(np.abs(computed + target)))
    return (1.0, plus) if plus <= minus else (-1.0, minus)


def finite_array(values, what: str) -> np.ndarray:
    """Outside input, a JSON number or nested lists of them, as a float array.
    Anything numpy would cast is rejected instead: a string, a boolean (also
    among numbers), null, an object; so is a NaN or an inf."""
    level = [values]
    while level:
        kinds = set(map(type, level))
        if not kinds <= {int, float, list}:
            bad = next(x for x in level if type(x) not in (int, float, list))
            raise ValueError(f"{what} must hold JSON numbers only, got {bad!r}")
        # a level of lists is walked into; numbers beside lists are ragged,
        # which np.asarray rejects
        level = list(chain.from_iterable(level)) if kinds == {list} else []
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains a non-finite number")
    return arr


def matrix_to_json_dict(mat: np.ndarray) -> dict:
    """A complex matrix as JSON: its real and imaginary parts."""
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


#: Numerator coefficients b_0..b_13 of the [13/13] Pade approximant of exp,
#: divided by b_0 so that exp(0) comes out as the exact identity.
_PADE13 = np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                    1187353796428800.0, 129060195264000.0, 10559470521600.0,
                    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
                    16380.0, 182.0, 1.0]) / 64764752532480000.0
#: Largest 1-norm for which Pade-13 needs no scaling (Al-Mohy and Higham, 2009).
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp of a (d, d) matrix, or of each matrix of a stack, by Pade-13
    scaling and squaring (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31,
    2009, without their lower orders or norm estimates).

    Each matrix is scaled by 2^-s with its own s, the least with
    |2^-s A|_1 <= theta13; the whole stack is evaluated with six matmuls and
    one solve, and each matrix is squared its own s times.  A NaN matrix gives
    a NaN result for that matrix only."""
    a = np.asarray(a)
    d = a.shape[-1]
    flat = a.reshape(-1, d, d)
    norm = np.abs(flat).sum(axis=1).max(axis=1)
    # s = ceil(log2(norm / theta13)), clipped at 0; frexp has no warning for 0 or NaN
    frac, exp2 = np.frexp(norm / _THETA13)
    s = np.maximum(exp2 - (frac == 0.5), 0)
    x = flat * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    ident = np.eye(d)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    del x, x2, x4, x6   # freed before the solve, which copies its operands
    plus = v + u
    v -= u
    out = np.linalg.solve(v, plus)
    for j in range(int(s.max(initial=0))):
        more = s > j
        out[more] = out[more] @ out[more]
    return out.reshape(a.shape)


def finite_diff(curve: Callable[[float], np.ndarray], t0: float, h: float) -> np.ndarray:
    """Central difference with one Richardson extrapolation step: (4 D_{h/2} - D_h)/3."""
    if not h > 0:
        raise ValueError("h must be positive")

    def central(step):
        return (np.asarray(curve(t0 + step)) - np.asarray(curve(t0 - step))) / (2.0 * step)

    d_h = central(h)
    d_h2 = central(h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0
