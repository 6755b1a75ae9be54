"""Matched-pair data: g = b (+) c with projections, dual pair (y_i, psi^i), the
trivialized anchor map and the invariance residual.  The group elements own
their Ad tables (`group.GroupElement`); this module reads them.

The pair owns the one change of basis, to the adapted basis (x_1..x_m,
y_1..y_k) of b then c, and everything built on it once and read-only: the
structure constants of g in that basis (`adapted`), snapped to its grid as
`lie.from_realization` snaps g's; the algebra e = b0 x| b (`e_algebra`) and
its cobracket (`delta`), both blocks of it; and, for a realized g, the
re-expansion in that basis (`adapted_solver`), which the group elements
conjugate and solve against, so that Ad(a) comes out in the adapted basis and
every table the checks read is a block of it.  The dual basis psi is a row
block of the inverse change of basis."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .config import ALGEBRAIC_TOL
from .lie import (LieAlgebra, MatrixBasisSolver, SubspaceDecomposition, snap_dyadic,
                  structure_in_basis)
from .linalg import BasedSpace, finite_array

if TYPE_CHECKING:  # pragma: no cover
    from .group import GroupElement


@dataclass(eq=False)
class MatchedPair:
    name: str
    g: LieAlgebra
    decomp: SubspaceDecomposition          # parts "b" and "c", in that order
    y_basis: np.ndarray = field(init=False)    # rows: basis of c in g-coordinates
    psi_basis: np.ndarray = field(init=False)  # rows: dual basis in b0 (dual coords)
    adapted: np.ndarray = field(init=False)    # structure constants of g in (x, y), read-only
    #: distance of the snap that made `adapted` exact (`lie.snap_dyadic`)
    adapted_snap: float = field(init=False)
    #: re-expansion of matrices in the realized adapted basis; None without a realization
    adapted_solver: Optional[MatrixBasisSolver] = field(init=False, repr=False)
    b0_space: BasedSpace = field(init=False)
    e_space: BasedSpace = field(init=False)

    def __post_init__(self):
        if list(self.decomp.parts) != ["b", "c"]:
            raise ValueError("decomposition must have parts 'b' and 'c', in that order")
        # psi^i annihilates b and pairs with y_j to delta_ij: rows m.. of t^-1;
        # the pairing is held to a tighter condition than the decomposition's
        cond = self.decomp.condition_number
        if not cond <= 1.0 / ALGEBRAIC_TOL:
            raise ValueError(f"singular pairing matrix (condition number {cond:.3e})")
        self.y_basis = self.decomp.parts["c"]
        m = self.dim_b
        self.psi_basis = self.decomp.t_inv[m:]
        self.adapted, self.adapted_snap = snap_dyadic(
            structure_in_basis(self.g.structure, self.decomp.t))
        self.adapted.setflags(write=False)
        # b and c are subalgebras: [b, b] has no c-part, [c, c] no b-part
        for part, block in (("b", self.adapted[:m, :m, m:]), ("c", self.adapted[m:, m:, :m])):
            res = float(np.max(np.abs(block), initial=0.0))
            if not res <= ALGEBRAIC_TOL:
                raise ValueError(f"part {part!r} is not a subalgebra (residual {res:.3e})")
        self.adapted_solver = None
        if self.g.realization is not None:
            self.adapted_solver = MatrixBasisSolver(self.g.matrix_of(self.decomp.t.T))
        labels = [f"psi_{i}" for i in range(self.dim_c)]
        # keep catalog-style labels when the y-basis rows are unit vectors
        y_lbl = self._y_labels()
        if y_lbl is not None:
            labels = [f"psi[{l}]" for l in y_lbl]
        self.b0_space = BasedSpace.make(labels)
        self.e_space = BasedSpace.make(list(self.b0_space.labels) + list(self.b_labels()))

    def _y_labels(self) -> Optional[list[str]]:
        lbl = []
        for row in self.y_basis:
            nz = np.nonzero(row)[0]
            if len(nz) != 1 or row[nz[0]] != 1.0:
                return None
            lbl.append(self.g.space.labels[nz[0]])
        return lbl

    def b_labels(self) -> list[str]:
        lbl = []
        for row in self.decomp.parts["b"]:
            nz = np.nonzero(row)[0]
            if len(nz) == 1 and row[nz[0]] == 1.0:
                lbl.append(self.g.space.labels[nz[0]])
            else:
                lbl.append(f"b_{len(lbl)}")
        return lbl

    # -- dimensions ---------------------------------------------------------

    @property
    def dim_c(self) -> int:
        return self.y_basis.shape[0]

    @property
    def dim_b(self) -> int:
        return self.decomp.parts["b"].shape[0]

    # -- coordinate conversions ----------------------------------------------

    def b_coords(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of the b-part of x in the b-basis."""
        return (self.decomp.t_inv @ np.asarray(x, dtype=float))[: self.dim_b]

    def b_matrix_of(self, xb: np.ndarray) -> np.ndarray:
        """Realization matrix of a b-part coordinate vector; rows of a stack give a stack."""
        return self.g.matrix_of(np.asarray(xb, dtype=float) @ self.decomp.parts["b"])

    # -- operations -----------------------------------------------------------

    @cached_property
    def e_algebra(self) -> LieAlgebra:
        """The Lie algebra e = b0 x| b (`bialgebra.semidirect_algebra`), built and
        validated once; its table is read-only, as every `LieAlgebra`'s is."""
        from .bialgebra import semidirect_algebra

        return semidirect_algebra(self)

    @cached_property
    def delta(self) -> np.ndarray:
        """The cobracket of e as one read-only array delta[x, p, q]
        (`bialgebra.delta_direct`), built once; a check that corrupts it
        corrupts a copy."""
        from .bialgebra import delta_direct

        out = delta_direct(self)
        out.setflags(write=False)
        return out

    @property
    def c_structure(self) -> np.ndarray:
        """Structure constants of c in the y-basis, shape (k, k, k)."""
        m = self.dim_b
        return self.adapted[m:, m:, m:]

    def anchor(self, y: np.ndarray, a: "GroupElement") -> np.ndarray:
        """Right-trivialized anchor value P_b Ad_a y for y given by y-basis
        coordinates, in b-basis coordinates: the block of Ad(a) from c to b;
        one row per element of a stack."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim_c,):
            raise ValueError("y must be given in y-basis coordinates")
        return a.ad[..., :self.dim_b, self.dim_b:] @ y

    def invariance_residual(self, a: "GroupElement") -> "float | np.ndarray":
        """Residual of sum_i Ad*_a psi^i (x) P_c Ad_a y_i = sum_i psi^i (x) y_i;
        one per element of a stack."""
        prod = a.coad_b0 @ np.swapaxes(a.action_on_c, -1, -2)
        return np.abs(prod - np.eye(self.dim_c)).max(axis=(-2, -1))

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        b_rows = self.decomp.parts["b"]
        return {
            "name": self.name,
            "algebra": self.g.to_json_dict(),
            "b": [list(map(float, row)) for row in b_rows],
            "c": [list(map(float, row)) for row in self.y_basis],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "MatchedPair":
        name = doc.get("name", "imported")
        if not isinstance(name, str) or not name:
            raise ValueError(f"name must be a nonempty string, got {name!r}")
        g = LieAlgebra.from_json_dict(doc["algebra"])
        b_rows, c_rows = (_basis_rows(doc[part], g.dim, part) for part in ("b", "c"))
        decomp = SubspaceDecomposition(g, {"b": b_rows, "c": c_rows})
        return MatchedPair(name, g, decomp)

    @staticmethod
    def from_json(text: str) -> "MatchedPair":
        return MatchedPair.from_json_dict(json.loads(text))


def _basis_rows(value, dim: int, part: str) -> np.ndarray:
    """The rows of an imported part: a nonempty list of g-coordinate rows, or
    of basis indices, each a whole number in range(dim)."""
    rows = finite_array(value, part)
    if rows.ndim == 1:
        if not np.all((rows == np.floor(rows)) & (rows >= 0) & (rows < dim)):
            raise ValueError(f"part {part!r}: indices must be whole numbers in range({dim})")
        rows = np.eye(dim)[rows.astype(int)]
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != dim:
        raise ValueError(f"part {part!r} must be a nonempty list of indices or of {dim}-vectors")
    return rows
