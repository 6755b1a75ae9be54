"""Finite-dimensional real Lie algebras with optional complex-matrix realizations.

Structure constants are the source of truth; realizations validate them and
provide coordinates for group-level computations.  Conventions are fixed here:

    ad(x)(y) = [x, y],      <ad*(x)(phi), y> = phi([y, x]),

so the coadjoint matrix is minus the transpose of the adjoint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .config import ALGEBRAIC_TOL
from .linalg import BasedSpace, finite_array, worst, worst_at

IM_TRACE = "IM_TRACE"
RE_TRACE = "RE_TRACE"


def _trace_part(t, spec: str):
    if spec == IM_TRACE:
        return np.imag(t)
    if spec == RE_TRACE:
        return np.real(t)
    raise ValueError(f"unknown pairing spec {spec!r}")


def trace_pairing(x: np.ndarray, y: np.ndarray, spec: str) -> float:
    """Invariant pairing of two complex matrices: Im tr(xy) or Re tr(xy)."""
    return float(_trace_part(np.trace(x @ y), spec))


def trace_gram(xs, ys, spec: str) -> np.ndarray:
    """Gram matrix G[a, b] = trace_pairing(xs[a], ys[b], spec) of two matrix stacks."""
    t = np.einsum("aij,bji->ab", np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex))
    return _trace_part(t, spec)


def commutators(xs, ys) -> np.ndarray:
    """Table of all commutators: out[a, b] = xs[a] ys[b] - ys[b] xs[a]."""
    xs = np.asarray(xs, dtype=complex)[:, None]
    ys = np.asarray(ys, dtype=complex)[None, :]
    return xs @ ys - ys @ xs


def pair_commutators(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (i, j) over all pairs i < j and the commutators [mats[i], mats[j]]."""
    m = np.asarray(mats, dtype=complex)
    i, j = np.triu_indices(len(m), 1)
    return i, j, m[i] @ m[j] - m[j] @ m[i]


class MatrixBasisSolver:
    """Least-squares re-expansion of complex matrices in a fixed real-span basis."""

    def __init__(self, mats: Sequence[np.ndarray]):
        self.stack = np.array(mats, dtype=complex)
        flat = self.stack.reshape(len(self.stack), -1)
        self._basis = np.concatenate([flat.real, flat.imag], axis=1).T
        # economy QR, folded once into the least-squares operator R^{-1} Q^T:
        # a triangular solve per call cost about five times this one matmul
        # on the sampled checks' stacks (768 right-hand sides on su41)
        q, r = np.linalg.qr(self._basis)
        self._pinv = scipy.linalg.solve_triangular(r, q.T, check_finite=False)

    def solve_many(self, mats: np.ndarray) -> tuple[np.ndarray, float]:
        """Batch re-expansion: mats has shape (count, m, m); returns
        (coords with shape (n, count), worst residual)."""
        coords, resids = self.solve_each(mats)
        return coords, float(np.max(resids, initial=0.0))

    def solve_each(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Like `solve_many`, with the residual of each matrix separately."""
        stack = np.asarray(mats, dtype=complex).reshape(len(mats), self.stack[0].size)
        v = np.concatenate([stack.real, stack.imag], axis=1).T
        coords = self._pinv @ v
        return coords, np.max(np.abs(self._basis @ coords - v), axis=0)

    def combine(self, coords: np.ndarray) -> np.ndarray:
        """sum_i coords[..., i] * mats[i]; a stack of coordinate rows gives a stack."""
        return np.tensordot(coords, self.stack, axes=1)


def jacobi_worst_at(structure: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """The largest Jacobi residual max_m |([[i,j],k] + [[j,k],i] + [[k,i],j])_m| over
    basis triples, with the triple (i, j, k) it is attained at: the first NaN,
    else the first largest.

    The Jacobiator of an antisymmetric table is alternating in (i, j, k), so
    each triple is contracted with i below j and k, one i at a time; no n^4
    array is held.  A NaN anywhere in the table reaches some slice."""
    c = structure
    n = c.shape[0]
    if n < 2:
        return 0.0, (0, 0, 0)
    slices = []
    for i in range(n - 1):
        r = n - i - 1
        c_tail = c[:, i + 1:].reshape(n, r * n)                 # c[l, j, m], j > i
        jac = (c[i, i + 1:] @ c_tail                             # [[i,j],k]
               + (c[i + 1:, i + 1:].reshape(r * r, n) @ c[:, i]).reshape(r, r * n)
               + (c[i + 1:, i] @ c_tail).reshape(r, r, n).swapaxes(0, 1).reshape(r, r * n))
        slices.append(np.abs(jac.reshape(r, r, n)).max(axis=2))
    resid, at = worst_at(np.concatenate([s.ravel() for s in slices]))
    starts = np.cumsum([0] + [s.size for s in slices])
    i = int(np.searchsorted(starts, at, side="right")) - 1
    j, k = divmod(at - int(starts[i]), n - i - 1)
    return resid, (i, i + 1 + j, i + 1 + k)


def generated_dim(alg: LieAlgebra, gens: np.ndarray, tol: float) -> int:
    """Dimension of the subalgebra generated by the rows of `gens`: the span of
    the generators and their iterated brackets.  The span is grown by ad(g) of
    each generator until its rank, the number of singular values above `tol`,
    stops growing; the generators themselves are ranked the same way."""
    ads = [alg.ad_matrix_coords(g) for g in gens]
    span, new = np.zeros((0, alg.dim)), np.asarray(gens, dtype=float)
    while True:
        _, svals, vt = np.linalg.svd(np.vstack([span, new]), full_matrices=False)
        rank = int(np.sum(svals > tol))
        if rank == len(span):
            return rank
        span = vt[:rank]
        new = np.vstack([span @ ad.T for ad in ads])


def structure_in_basis(structure: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Structure constants in the basis given by the columns of t,

        c'[i, j, s] = sum t[a, i] t[b, j] c[a, b, r] t^-1[s, r],

    made exactly antisymmetric in (i, j).  In a basis adapted to a splitting
    of the algebra, each derived table is a block of this one."""
    out = np.einsum("ai,bj,abr,sr->ijs", t, t, structure, np.linalg.inv(t), optimize=True)
    return 0.5 * (out - out.swapaxes(0, 1))


@dataclass(eq=False)
class LieAlgebra:
    space: BasedSpace
    structure: np.ndarray
    realization: Optional[list[np.ndarray]] = None
    pairing: Optional[str] = None
    # `from_realization` hands over the solver and the span residual of the
    # one re-expansion that built the table; a table given with a realization
    # is compared with a re-expansion of its own
    _solver: Optional[MatrixBasisSolver] = field(default=None, repr=False)
    _residual: Optional[float] = field(default=None, repr=False)

    def __post_init__(self):
        n = self.space.dim
        c = np.asarray(self.structure, dtype=float)
        if c.shape != (n, n, n):
            raise ValueError(f"structure shape {c.shape} != ({n},{n},{n})")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) != 0.0:
            raise ValueError("structure constants are not exactly antisymmetric")
        self.structure = c
        res, (i, j, k) = jacobi_worst_at(c)
        if not res <= ALGEBRAIC_TOL:
            raise ValueError(f"Jacobi identity violated: residual {res:.3e} at basis triple "
                             f"({i}, {j}, {k})")
        if self.realization is not None:
            self.realization = [np.asarray(m, dtype=complex) for m in self.realization]
            if len(self.realization) != n:
                raise ValueError("realization must provide one matrix per basis element")
            if self._solver is None:
                self._solver = MatrixBasisSolver(self.realization)
                i, j, comms = pair_commutators(self.realization)
                coords, resid = self._solver.solve_many(comms)
                self._residual = worst(resid, np.max(np.abs(coords.T - c[i, j]), initial=0.0))
            if not self._residual <= ALGEBRAIC_TOL:
                raise ValueError(f"realization inconsistent with structure constants: "
                                 f"{self._residual:.3e}")

    # -- basic operations -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    def bracket_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def ad_matrix_coords(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> [x, y]."""
        return np.einsum("i,ijk->kj", x, self.structure)

    def coad_matrix_coords(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad*(x) on dual coordinates: <ad*(x)phi, y> = phi([y, x])."""
        return -self.ad_matrix_coords(x).T

    # -- realization helpers ----------------------------------------------

    def matrix_of(self, coords: np.ndarray) -> np.ndarray:
        if self.realization is None:
            raise ValueError("algebra has no matrix realization")
        return self._solver.combine(np.asarray(coords, dtype=float))

    def coords_of(self, mat: np.ndarray, tol: float = ALGEBRAIC_TOL) -> np.ndarray:
        """Coordinates of a matrix; a stack of matrices gives one row each."""
        if self.realization is None:
            raise ValueError("algebra has no matrix realization")
        mat = np.asarray(mat, dtype=complex)
        coords, resid = self._solver.solve_many(mat.reshape((-1,) + mat.shape[-2:]))
        if not resid <= tol:
            raise ValueError(f"matrix is not in the realization span (residual {resid:.3e})")
        return coords.T.reshape(mat.shape[:-2] + (self.dim,))

    def realization_residual(self) -> float:
        """Max mismatch between the matrix commutators and the structure
        constants, from the one re-expansion made at construction; for a table
        built by `from_realization`, the span residual of the commutators."""
        return self._residual

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "labels": list(self.space.labels),
            "structure": self.structure.tolist(),
            "pairing": self.pairing,
        }
        if self.realization is not None:
            doc["realization"] = [
                {"re": m.real.tolist(), "im": m.imag.tolist()} for m in self.realization
            ]
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "LieAlgebra":
        labels = doc["labels"]
        structure = finite_array(doc["structure"], "structure")
        realization = None
        if doc.get("realization") is not None:
            parts = [(finite_array(m["re"], "realization"), finite_array(m["im"], "realization"))
                     for m in doc["realization"]]
            if any(re.shape != im.shape for re, im in parts):
                raise ValueError("realization: the re and im parts of a matrix differ in shape")
            realization = [re + 1j * im for re, im in parts]
        pairing = doc.get("pairing")
        if pairing not in (None, IM_TRACE, RE_TRACE):
            raise ValueError(f"unknown pairing {pairing!r}: expected null, "
                             f"{IM_TRACE} or {RE_TRACE}")
        return LieAlgebra(BasedSpace.make(labels), structure,
                          realization=realization, pairing=pairing)


def from_realization(labels: Sequence[str], mats: Sequence[np.ndarray],
                     pairing: Optional[str] = None) -> LieAlgebra:
    """Build a LieAlgebra by re-expanding matrix commutators in the given basis.
    That one re-expansion both fills the table and checks that the basis spans
    its commutators; the algebra keeps its solver."""
    solver = MatrixBasisSolver(mats)
    n = len(mats)
    i, j, comms = pair_commutators(mats)
    coords, resids = solver.solve_each(comms)
    span = float(np.max(resids, initial=0.0))
    if not span <= ALGEBRAIC_TOL:
        bad = int(np.argmax(resids))   # the first NaN, if any
        raise ValueError(f"commutator [{labels[i[bad]]}, {labels[j[bad]]}] leaves the span "
                         f"(residual {resids[bad]:.3e})")
    structure = np.zeros((n, n, n))
    structure[i, j] = coords.T
    structure[j, i] = -coords.T
    return LieAlgebra(BasedSpace.make(labels), structure, realization=list(mats),
                      pairing=pairing, _solver=solver, _residual=span)


@dataclass(eq=False)
class SubspaceDecomposition:
    """Named direct-sum decomposition with projection matrices.

    Parts are given as lists of coordinate vectors in the parent basis.  The
    last projection is defined as identity minus the others so the resolution
    of identity is exact by construction.
    """

    parent: LieAlgebra
    parts: dict[str, np.ndarray]          # name -> (k_part, n) array of basis rows
    projections: dict[str, np.ndarray] = field(init=False)
    condition_number: float = field(init=False)

    def __post_init__(self):
        n = self.parent.dim
        names = list(self.parts.keys())
        self.parts = {k: np.atleast_2d(np.asarray(v, dtype=float)) for k, v in self.parts.items()}
        total = sum(v.shape[0] for v in self.parts.values())
        if total != n:
            raise ValueError(f"parts span {total} dimensions, parent has {n}")
        t = np.column_stack([v for part in self.parts.values() for v in part])
        self.condition_number = float(np.linalg.cond(t))
        if not np.isfinite(self.condition_number) or self.condition_number > 1e12:
            raise ValueError("parts are not independent (change of basis is singular)")
        t_inv = np.linalg.inv(t)
        projections = {}
        offset = 0
        for name in names:
            k = self.parts[name].shape[0]
            sel = np.zeros((n, n))
            sel[offset:offset + k, offset:offset + k] = np.eye(k)
            projections[name] = t @ sel @ t_inv
            offset += k
        # force an exact resolution of identity
        last = names[-1]
        acc = np.zeros((n, n))
        for name in names[:-1]:
            acc = acc + projections[name]
        projections[last] = np.eye(n) - acc
        self.projections = projections

    def projector_residual(self) -> float:
        """Max deviation from P_i P_j = delta_ij P_i and sum P = 1."""
        names = list(self.parts.keys())
        out = float(np.max(np.abs(sum(self.projections[n] for n in names)
                                  - np.eye(self.parent.dim))))
        for a in names:
            for b in names:
                prod = self.projections[a] @ self.projections[b]
                expect = self.projections[a] if a == b else 0.0
                out = worst(out, np.max(np.abs(prod - expect)))
        return out

    def project(self, name: str, coords: np.ndarray) -> np.ndarray:
        return self.projections[name] @ coords


def dual_basis(algebra: LieAlgebra, annihilated: np.ndarray, dualized: np.ndarray,
               tol: float = ALGEBRAIC_TOL) -> np.ndarray:
    """Dual vectors psi^i in the annihilator of `annihilated` with <psi^i, y_j> = delta_ij.

    Rows of `annihilated` and `dualized` are coordinate vectors in the algebra
    basis; returned rows are dual-basis coordinates in the same labelling.
    """
    ann = np.atleast_2d(np.asarray(annihilated, dtype=float))
    dua = np.atleast_2d(np.asarray(dualized, dtype=float))
    n = algebra.dim
    k_ann, k_dua = ann.shape[0], dua.shape[0]
    if k_ann + k_dua != n:
        raise ValueError("annihilated and dualized parts must span the algebra")
    # psi satisfies psi . ann_b = 0 and psi . dua_j = delta_ij
    m = np.vstack([ann, dua])
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > 1.0 / max(tol, 1e-15):
        raise ValueError(f"singular pairing matrix (condition number {cond:.3e})")
    rhs = np.vstack([np.zeros((k_ann, k_dua)), np.eye(k_dua)])
    psi = np.linalg.solve(m, rhs).T
    return psi
