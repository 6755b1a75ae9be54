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

from .config import ALGEBRAIC_TOL
from .linalg import BasedSpace, finite_array, matrix_to_json_dict, worst, worst_at

IM_TRACE = "IM_TRACE"
RE_TRACE = "RE_TRACE"


def _trace_part(t, spec: str):
    if spec == IM_TRACE:
        return np.imag(t)
    if spec == RE_TRACE:
        return np.real(t)
    raise ValueError(f"unknown pairing spec {spec!r}")


def trace_gram(xs, ys, spec: str) -> np.ndarray:
    """Gram matrix of the invariant pairing of two matrix stacks:
    G[a, b] = Im tr(xs[a] ys[b]) for IM_TRACE, Re tr(xs[a] ys[b]) for RE_TRACE.

    tr(x y) = sum_ij x[i, j] y[j, i] is the dot product of x flattened with
    y transposed and flattened, so the whole Gram matrix is one GEMM."""
    xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    t = xs.reshape(len(xs), -1) @ ys.transpose(0, 2, 1).reshape(len(ys), -1).T
    return _trace_part(t, spec)


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
        # on the sampled checks' stacks (768 right-hand sides on su41).
        # Partial pivoting on an upper-triangular R swaps no rows and updates
        # only zeros, so the LU solve is the triangular back-substitution and
        # gives the same bits.  The operator is kept Fortran-ordered, as the
        # triangular solver returned it, and multiplies the rows from the
        # left as `_pinv @ rows.T`: neither operand is copied, and BLAS sums
        # in the same order for every size.  A C-ordered operator, or the
        # transposed product `rows @ _pinv.T`, takes another BLAS path and
        # moves the last bit of some coordinates (su(5,1), su(7,1)).
        q, r = np.linalg.qr(self._basis)
        self._pinv = np.asfortranarray(np.linalg.solve(r, q.T))

    def rows_of(self, mats: np.ndarray) -> np.ndarray:
        """The real rows of a (count, m, m) stack of matrices, shape (count, 2 m^2):
        real parts, then imaginary parts, as the basis is laid out."""
        stack = np.asarray(mats, dtype=complex).reshape(len(mats), self.stack[0].size)
        return np.concatenate([stack.real, stack.imag], axis=1)

    def solve_many(self, mats: np.ndarray) -> tuple[np.ndarray, float]:
        """Batch re-expansion: mats has shape (count, m, m); returns
        (coords with shape (count, n), one row per matrix, worst residual)."""
        coords, resids = self.solve_each(self.rows_of(mats))
        return coords, float(np.max(resids, initial=0.0))

    def coords(self, rows: np.ndarray) -> np.ndarray:
        """Re-expansion of matrices given as real rows (`rows_of`), with no
        residual: coordinates come out as rows too, of the Fortran-ordered
        (count, n) transpose of the product."""
        return (self._pinv @ rows.T).T

    def solve_each(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`coords` with the residual of each matrix, max |B coords - row|,
        formed in place, one column per matrix."""
        coords = self.coords(rows)
        resid = self._basis @ coords.T
        resid -= rows.T
        return coords, np.abs(resid, out=resid).max(axis=0)

    def combine(self, coords: np.ndarray) -> np.ndarray:
        """sum_i coords[..., i] * mats[i]; a stack of coordinate rows gives a stack."""
        return np.tensordot(coords, self.stack, axes=1)


def snap_dyadic(table: np.ndarray) -> tuple[np.ndarray, float]:
    """The table snapped to the coarsest of the grids 1, 1/2 and 1/4 that lies
    within ALGEBRAIC_TOL of every entry, with no negative zeros, and the snap
    distance max |snapped - table|; any other table, one with a NaN or an
    infinity included, comes back untouched with distance 0.0.

    The tolerance is far below 1/8, so an entry within it of a coarser grid
    has the same nearest point on the quarter grid: one rounding to quarters
    finds the coarsest grid's values.  Scaling by 4 is exact."""
    exact = np.multiply(table, 4.0)
    np.rint(exact, out=exact)
    exact /= 4.0
    exact += 0.0        # -0.0 + 0.0 is 0.0
    with np.errstate(invalid="ignore"):     # inf - inf is NaN: not on the grid
        gap = np.subtract(table, exact)
    distance = float(np.max(np.abs(gap, out=gap), initial=0.0))
    if not distance <= ALGEBRAIC_TOL:
        return table, 0.0
    return exact, distance


def jacobi_worst_at(structure: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """The largest Jacobi residual max_m |([[i,j],k] + [[j,k],i] + [[k,i],j])_m| over
    basis triples, with the triple (i, j, k) it is attained at: the first NaN,
    else the first largest, in the order of the dense loop (`_jacobi_dense`);
    (0, 1, 1) when the residual is 0.

    A table that takes the sparse path (`takes_sparse_path`: finite, and at
    most n^3 nonzero products) is contracted over its nonzero entries
    (`_jacobi_sparse`), any other densely."""
    if structure.shape[0] < 2:
        return 0.0, (0, 0, 0)
    found = _jacobi_sparse(structure, rule=True)
    return _jacobi_dense(structure) if found is None else found


def _jacobi_dense(c: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """`jacobi_worst_at` by dense slices.  The Jacobiator of an antisymmetric
    table is alternating in (i, j, k), so each triple is contracted with i
    below j and k, one i at a time, in the order (i, j, k); no n^4 array is
    held.  A NaN anywhere in the table reaches some slice."""
    n = c.shape[0]
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


def _jacobi_sparse(c: np.ndarray, rule: bool = False) -> tuple[float, tuple[int, int, int]] | None:
    """`jacobi_worst_at` of a finite table over its nonzero entries; with
    `rule`, None where `takes_sparse_path` sends the table to the dense loop.

    Every nonzero c[a, b, l], a < b, is paired with every nonzero c[l, d, m]
    with d outside {a, b}: the product is the m-part of [[a, b], d], one of
    the three cyclic terms of the sorted triple of {a, b, d}, with sign -1
    when d lies between a and b ([[k, i], j] = -[[i, k], j]).  The products
    are summed per (triple, m) after one sort of their keys.  Sorted triples
    come in the dense loop's order, and the other orders of a triple follow
    its sorted one there, so the first largest is the same triple."""
    n = c.shape[0]
    vals, (a, b, l), starts = nonzero_runs(c)
    upper = np.flatnonzero(a < b)
    # each c[a, b, l] meets the run of entries c[l, ., .]
    if rule and not takes_sparse_path((c,), (l[upper], starts)):
        return None
    first, second = meet_runs(upper, l[upper], starts)
    i, j, d = a[first], b[first], b[second]
    keep = (d != i) & (d != j)
    first, second, i, j, d = first[keep], second[keep], i[keep], j[keep], d[keep]
    prod = vals[first] * vals[second]
    prod[(i < d) & (d < j)] *= -1.0
    lo, hi = np.minimum(i, d), np.maximum(j, d)
    found = worst_key_sum(((lo * n + (i + j + d - lo - hi)) * n + hi) * n + l[second], prod, n)
    if found is None:       # every product cancelled, or none was left
        return 0.0, (0, 1, 1)
    resid, t = found
    return resid, (t // (n * n), t // n % n, t % n)


def nonzero_runs(table: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """The nonzero entries of a table in index order, so grouped by their
    first index: their values, their indices (one array per axis), and the
    starts of the runs, the entries with first index h lying at
    starts[h]:starts[h + 1]."""
    flat = table.ravel()
    at = np.flatnonzero(flat)
    index = np.unravel_index(at, table.shape)
    return flat[at], index, np.searchsorted(index[0], np.arange(len(table) + 1))


def takes_sparse_path(tables: Sequence[np.ndarray],
                      *joins: tuple[np.ndarray, np.ndarray]) -> bool:
    """The choice between a sparse contraction and its dense loop, read off
    the tables alone: sparse when every table is finite and the joins
    (`meet_runs`, each given by its keys and the run starts they index) form
    at most n^3 products together, no more than the dense n x n x n table has
    entries.  The count is the sum of the run lengths, so nothing is formed
    for a table that goes dense."""
    n = len(tables[0])
    products = sum(int(np.sum(starts[keys + 1] - starts[keys])) for keys, starts in joins)
    return products <= n ** 3 and all(np.isfinite(t).all() for t in tables)


def meet_runs(left: np.ndarray, keys: np.ndarray,
              starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The join of a sparse contraction: each entry left[i] meets every
    position of the run starts[keys[i]]:starts[keys[i] + 1] of an array
    sorted by key.  Returns the two index arrays of the pairs, in the order
    of `left` and each run in order."""
    lo = starts[keys]
    reps = starts[keys + 1] - lo
    first = np.repeat(left, reps)
    return first, np.arange(len(first)) + np.repeat(lo - np.cumsum(reps) + reps, reps)


def worst_key_sum(keys: np.ndarray, prods: np.ndarray, group: int) -> tuple[float, int] | None:
    """The products summed per key, after one sort of the keys and in the
    order given (which keeps a dense loop's bits best); then the largest |sum|
    and the first group of keys (key // group, in key order) attaining it.
    None when every sum is 0.0, or there are no products."""
    keys, slot = np.unique(keys, return_inverse=True)
    sums = np.abs(np.bincount(slot, weights=prods))
    if not sums.any():
        return None
    groups = keys // group
    bounds = np.flatnonzero(np.diff(groups, prepend=-1))
    resid, at = worst_at(np.maximum.reduceat(sums, bounds))
    return resid, int(groups[bounds[at]])


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
    #: (residual, triple) of `jacobi_worst_at` on the table, computed once;
    #: the table is read-only, so it cannot go stale
    jacobi: tuple[float, tuple[int, int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.space.dim
        c = np.asarray(self.structure, dtype=float)
        if c.shape != (n, n, n):
            raise ValueError(f"structure shape {c.shape} != ({n},{n},{n})")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) != 0.0:
            raise ValueError("structure constants are not exactly antisymmetric")
        if c.flags.writeable:    # the caller's array stays the caller's
            c = c.copy()
            c.setflags(write=False)
        self.structure = c
        self.jacobi = res, (i, j, k) = jacobi_worst_at(c)
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
                self._residual = worst(resid, np.max(np.abs(coords - c[i, j]), initial=0.0))
            if not self._residual <= ALGEBRAIC_TOL:
                raise ValueError(f"realization inconsistent with structure constants: "
                                 f"{self._residual:.3e}")

    # -- basic operations -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    def bracket_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinates of [x, y]; a stack of rows y gives one row each, from
        one contraction of x with the table."""
        return np.asarray(y) @ np.tensordot(x, self.structure, axes=1)

    def ad_matrix_coords(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> [x, y]."""
        return np.einsum("i,ijk->kj", x, self.structure)

    # -- realization helpers ----------------------------------------------

    def matrix_of(self, coords: np.ndarray) -> np.ndarray:
        if self.realization is None:
            raise ValueError("algebra has no matrix realization")
        return self._solver.combine(np.asarray(coords, dtype=float))

    def coords_of(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a matrix; a stack of matrices gives one row each."""
        if self.realization is None:
            raise ValueError("algebra has no matrix realization")
        mat = np.asarray(mat, dtype=complex)
        coords, resid = self._solver.solve_many(mat.reshape((-1,) + mat.shape[-2:]))
        if not resid <= ALGEBRAIC_TOL:
            raise ValueError(f"matrix is not in the realization span (residual {resid:.3e})")
        return coords.reshape(mat.shape[:-2] + (self.dim,))

    def realization_residual(self) -> float:
        """Max mismatch between the matrix commutators and the structure
        constants, from the one re-expansion made at construction; for a table
        built by `from_realization`, the span residual of the commutators, or
        the distance of the snap (`snap_dyadic`) if that is larger."""
        return self._residual

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "labels": list(self.space.labels),
            "structure": self.structure.tolist(),
            "pairing": self.pairing,
        }
        if self.realization is not None:
            doc["realization"] = [matrix_to_json_dict(m) for m in self.realization]
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "LieAlgebra":
        labels = doc["labels"]
        if type(labels) is not list or not all(type(label) is str for label in labels):
            raise ValueError(f"labels must be a list of distinct strings, got {labels!r}")
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
    its commutators; the algebra keeps its solver.

    The coordinates go through `snap_dyadic`: on the catalog's bases they are
    integers up to rounding, so the table is exact and sparse, and the snap
    distance joins the span residual.  Any other table is kept as solved."""
    solver = MatrixBasisSolver(mats)
    n = len(mats)
    i, j, comms = pair_commutators(mats)
    coords, resids = solver.solve_each(solver.rows_of(comms))
    span = float(np.max(resids, initial=0.0))
    if not span <= ALGEBRAIC_TOL:
        bad = int(np.argmax(resids))   # the first NaN, if any
        raise ValueError(f"commutator [{labels[i[bad]]}, {labels[j[bad]]}] leaves the span "
                         f"(residual {resids[bad]:.3e})")
    coords, snap = snap_dyadic(coords)
    structure = np.zeros((n, n, n))
    structure[i, j] = coords
    structure[j, i] = 0.0 - coords       # no negative zeros in an exact table
    structure.setflags(write=False)
    return LieAlgebra(BasedSpace.make(labels), structure, realization=list(mats),
                      pairing=pairing, _solver=solver, _residual=worst(span, snap))


@dataclass(eq=False)
class SubspaceDecomposition:
    """Named direct-sum decomposition with projection matrices.

    Parts are given as lists of coordinate vectors in the parent basis.  The
    last projection is defined as identity minus the others so the resolution
    of identity is exact by construction.  The change of basis t (columns: the
    part rows, in order) and its inverse are kept; row block i of t^-1 holds
    the dual vectors of part i that annihilate the other parts.
    """

    parent: LieAlgebra
    parts: dict[str, np.ndarray]          # name -> (k_part, n) array of basis rows
    projections: dict[str, np.ndarray] = field(init=False)
    condition_number: float = field(init=False)
    t: np.ndarray = field(init=False)
    t_inv: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.parent.dim
        names = list(self.parts.keys())
        self.parts = {k: np.atleast_2d(np.asarray(v, dtype=float)) for k, v in self.parts.items()}
        total = sum(v.shape[0] for v in self.parts.values())
        if total != n:
            raise ValueError(f"parts span {total} dimensions, parent has {n}")
        self.t = t = np.column_stack([v for part in self.parts.values() for v in part])
        self.condition_number = float(np.linalg.cond(t))
        if not np.isfinite(self.condition_number) or self.condition_number > 1e12:
            raise ValueError("parts are not independent (change of basis is singular)")
        self.t_inv = t_inv = np.linalg.inv(t)
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

    def project(self, name: str, coords: np.ndarray) -> np.ndarray:
        return self.projections[name] @ coords

