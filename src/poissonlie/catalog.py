"""Hard-coded, validated example pairs: the su(1,1)/U(1) pair with its full
planar-group data and the su(p,1) family for p <= P_CAP, named su11-su41 in
the catalog.

Catalog matrices are entered exactly as rational/complex-unit expressions; the
only implicit normalization (the scaling of the central element z) is computed
and verified once, when the entry is built (`normalize_z`).  An entry keeps
the tables the checks and the conventions report read, each built on first
use, once, from the realized algebras it holds (g, gstar, g', the compact form
and g_C); only g is realized when the entry is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bialgebra as bi
from .config import ALGEBRAIC_TOL, P_CAP
from .lie import (IM_TRACE, LieAlgebra, SubspaceDecomposition, from_realization, snap_dyadic,
                  trace_gram)
from .linalg import antisymmetric_table
from .matched import MatchedPair


def _emb_k(m: np.ndarray) -> np.ndarray:
    """u(p) block M -> [[M, 0], [0, -tr M]] inside su(p,1)."""
    p = m.shape[0]
    out = np.zeros((p + 1, p + 1), dtype=complex)
    out[:p, :p] = m
    out[p, p] = -np.trace(m)
    return out


def _unit(n: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    out[i, j] = 1.0
    return out


@dataclass(eq=False)
class CatalogEntry:
    """A catalog pair with its decorations: the Iwasawa and Cartan
    decompositions, the normalized central element, the dual basis, a
    maximal torus and the restricted root spaces, all validated when the
    entry is built (`_validate_entry`).

    The dual algebra gstar keeps its labels, matrices and k0 block from the
    build, but is realized (`from_realization`) on first use, like every
    table below: a call that runs neither `manin` nor `twist` never builds
    it."""

    name: str
    p: int
    mp: MatchedPair
    iwasawa: SubspaceDecomposition            # parts k, a, n
    cartan: SubspaceDecomposition             # parts k, p
    z: np.ndarray                             # g-coordinates of the normalized central element
    gstar_labels: list[str]                   # the upper-triangular dual algebra's basis:
    gstar_mats: list[np.ndarray]              # labels and matrices (`gstar` realizes them)
    psi_mats: list[np.ndarray]                # matrix representatives of the dual basis
    gstar_k0_indices: list[int]               # gstar basis indices spanning the k0 block
    torus: np.ndarray                         # rows (g-coordinates) spanning a maximal torus of k
    eta: np.ndarray = field(default=None)     # signature matrix diag(I_p, -1)
    root_spaces: dict = field(default_factory=dict)  # restricted root spaces (rows)

    @property
    def g(self) -> LieAlgebra:
        return self.mp.g

    # tables read by a check, each built on first use, once, and read-only:
    # an entry from `get_entry` serves every call of the process.  A knob
    # that corrupts one (`r_scale_2`, `deform_cocycle_scale_2`) corrupts a
    # copy or builds its own.  `manin` is imported by the tables that call
    # it, so a call that reads none of them does not load it

    @cached_property
    def gstar(self) -> LieAlgebra:
        """The upper-triangular dual algebra, realized from `gstar_mats`; only
        the `manin` and `twist` checks read it."""
        return _read_only(from_realization(self.gstar_labels, self.gstar_mats,
                                           pairing=IM_TRACE))

    @cached_property
    def r_matrix(self) -> dict:
        """The r-matrix by both routes with their comparison
        (`bialgebra.r_matrix`)."""
        return _read_only(bi.r_matrix(self))

    @cached_property
    def gstar_g_pairing(self) -> np.ndarray:
        """Im-trace pairing of the gstar basis (rows) with the g basis (columns)."""
        return _read_only(trace_gram(self.gstar.realization, self.g.realization, IM_TRACE))

    @cached_property
    def gc_algebra(self) -> LieAlgebra:
        """sl(p+1, C) as a real algebra (`manin.build_gc_algebra`)."""
        from . import manin as mn
        return _read_only(mn.build_gc_algebra(self))

    @cached_property
    def gprime_algebra(self) -> LieAlgebra:
        """g' as a realized algebra (`manin.gprime_algebra`)."""
        from . import manin as mn
        return _read_only(mn.gprime_algebra(self))

    @cached_property
    def model_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The structure constants of g in the model basis as computed
        (`manin.g_structure_in_model_basis`), and that table snapped to its
        grid (`lie.snap_dyadic`)."""
        from . import manin as mn
        table = mn.g_structure_in_model_basis(self)
        return _read_only((table, snap_dyadic(table)[0]))

    @cached_property
    def gstar_cobrackets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cobrackets on gstar (`manin.cobracket_on_gstar`) of g, of g' and
        of the compact form (`manin.compact_algebra`), in that order, each
        read off that algebra's table."""
        from . import manin as mn
        halves = (self.g, self.gprime_algebra, mn.compact_algebra(self))
        return _read_only(tuple(mn.cobracket_on_gstar(self.gstar, half) for half in halves))


def _read_only(obj):
    """Make every array reachable from `obj` read-only, through the fields of
    objects and the items of dicts, lists and tuples, and return `obj`.  A
    cached entry outlives the call that built it, so a stray write must raise
    rather than change the next call's report."""
    seen, stack = set(), [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            item.setflags(write=False)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return obj


def _su_p1_matrices(p: int):
    """Basis matrices of su(p,1): the compact block first, then the solvable part."""
    n = p + 1
    mats, labels = [], []
    # k = u(p) embedded: real/imag off-diagonal pairs, then imaginary diagonals
    for k in range(p):
        for l in range(k + 1, p):
            mats.append(_emb_k(_unit(p, k, l) - _unit(p, l, k)))
            labels.append(f"kR_{k+1}{l+1}")
            mats.append(_emb_k(1j * (_unit(p, k, l) + _unit(p, l, k))))
            labels.append(f"kI_{k+1}{l+1}")
    for k in range(p):
        mats.append(_emb_k(1j * _unit(p, k, k)))
        labels.append(f"kD_{k+1}")
    dim_k = len(mats)
    # s = a (+) n: y_a, y_2, then the restricted root pairs
    y_a = _unit(n, p - 1, n - 1) + _unit(n, n - 1, p - 1)
    y_2 = 1j * (_unit(n, p - 1, p - 1) - _unit(n, p - 1, n - 1)
                + _unit(n, n - 1, p - 1) - _unit(n, n - 1, n - 1))
    mats.append(y_a)
    labels.append("ya")
    mats.append(y_2)
    labels.append("y2")
    for k in range(p - 1):
        y_r = (-_unit(n, k, p - 1) + _unit(n, k, n - 1)
               + _unit(n, p - 1, k) + _unit(n, n - 1, k))
        y_i = 1j * (_unit(n, k, p - 1) - _unit(n, k, n - 1)
                    + _unit(n, p - 1, k) + _unit(n, n - 1, k))
        mats.append(y_r)
        labels.append(f"yR_{k+1}")
        mats.append(y_i)
        labels.append(f"yI_{k+1}")
    return mats, labels, dim_k


def _gstar_matrices(p: int):
    """Upper-triangular traceless basis with real diagonal: su(p,1)* inside sl(p+1,C)."""
    n = p + 1
    mats, labels, k0_idx = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if j == n - 1:
                k0_idx.extend([len(mats), len(mats) + 1])
            mats.append(_unit(n, i, j))
            labels.append(f"E_{i+1}{j+1}")
            mats.append(1j * _unit(n, i, j))
            labels.append(f"iE_{i+1}{j+1}")
    for j in range(p):
        mats.append(_unit(n, j, j) - _unit(n, j + 1, j + 1))
        labels.append(f"D_{j+1}")
    return mats, labels, k0_idx


def _psi_matrices(p: int):
    """Dual basis in k0, ordered like the y-basis: psi_a, psi_2, psi_R, psi_I."""
    n = p + 1
    out = [np.zeros((n, n), dtype=complex) for _ in range(2 * p)]
    out[0][p - 1, n - 1] = 1j            # y_a* = [[0, i e_p], [0, 0]]
    out[1][p - 1, n - 1] = 1.0           # y_2* = [[0, e_p], [0, 0]]
    for k in range(p - 1):
        out[2 + 2 * k][k, n - 1] = 1j    # y_R*_k
        out[3 + 2 * k][k, n - 1] = 1.0   # y_I*_k
    return out


def supq1(p: int) -> CatalogEntry:
    """The su(p,1)/U(p) Iwasawa matched pair, fully decorated."""
    if not (1 <= p <= P_CAP):
        raise ValueError(f"p must be between 1 and {P_CAP}")
    n = p + 1
    mats, labels, dim_k = _su_p1_matrices(p)
    g = from_realization(labels, mats, pairing=IM_TRACE)
    dim = g.dim

    eye = np.eye(dim)
    b_rows = eye[:dim_k]
    c_rows = eye[dim_k:]
    decomp = SubspaceDecomposition(g, {"b": b_rows, "c": c_rows})
    mp = MatchedPair(f"su{p}1", g, decomp)

    # Iwasawa (k, a, n) and Cartan (k, p) decompositions
    a_rows = eye[dim_k: dim_k + 1]
    n_rows = eye[dim_k + 1:]
    iwasawa = SubspaceDecomposition(g, {"k": b_rows, "a": a_rows, "n": n_rows})
    p_mats = []
    for k in range(p):
        p_mats.append(_unit(n, k, n - 1) + _unit(n, n - 1, k))
        p_mats.append(1j * (_unit(n, k, n - 1) - _unit(n, n - 1, k)))
    # the rows are integers up to the rounding of the solve; snapped, the
    # compact form and the twist built from them are exact
    p_rows = snap_dyadic(g.coords_of(p_mats))[0]
    cartan = SubspaceDecomposition(g, {"k": b_rows, "p": p_rows})

    z_mat = np.diag([1j] * p + [-1j * p]).astype(complex) / (p + 1)
    z = normalize_z(g, cartan, g.coords_of(z_mat))

    gs_mats, gs_labels, k0_idx = _gstar_matrices(p)

    # restricted root spaces: the pairs span the simple space, y2 the double
    f1_rows = eye[dim_k + 2:]
    f2_rows = eye[dim_k + 1: dim_k + 2]
    entry = CatalogEntry(
        name=f"su{p}1", p=p, mp=mp, iwasawa=iwasawa, cartan=cartan, z=z,
        gstar_labels=gs_labels, gstar_mats=gs_mats, psi_mats=_psi_matrices(p),
        gstar_k0_indices=k0_idx,
        torus=eye[dim_k - p: dim_k],          # kD_1..kD_p, the diagonal of u(p)
        eta=np.diag([1.0] * p + [-1.0]).astype(complex),
        root_spaces={"f1": f1_rows, "2f1": f2_rows},
    )
    _validate_entry(entry)
    return _read_only(entry)


def su11() -> CatalogEntry:
    """The su(1,1)/U(1) pair of the planar example (p = 1)."""
    entry = supq1(1)
    entry.name = "su11"
    entry.mp.name = "su11"
    return entry


def normalize_z(g: LieAlgebra, cartan: SubspaceDecomposition, z: np.ndarray) -> np.ndarray:
    """Rescale a central candidate so ad(z)^2 = -1 on the symmetric part, and
    verify the result.  One ad(z) serves every check: its action on the rows
    of k and of p is a product each."""
    z = np.asarray(z, dtype=float)
    ad_z = g.ad_matrix_coords(z)
    if not np.max(np.abs(cartan.parts["k"] @ ad_z.T)) <= ALGEBRAIC_TOL:
        raise ValueError("z is not central in k")
    ad2 = ad_z @ ad_z
    p_rows = cartan.parts["p"]
    # the mean Rayleigh quotient of -ad(z)^2 over the p rows; that it is one
    # scalar on all of p is the final check, made after the rescaling
    lam = float(np.mean(-np.sum((p_rows @ ad2.T) * p_rows, axis=1)
                        / np.sum(p_rows * p_rows, axis=1)))
    if not lam > 0:
        raise ValueError("ad(z)^2 is not negative on the symmetric part")
    z = z / np.sqrt(lam)
    resid = np.max(np.abs(p_rows @ ad2.T / lam + p_rows))
    if not resid <= ALGEBRAIC_TOL:
        raise ValueError(f"z normalization residual {resid:.3e}")
    return z


def _first_over(resid: np.ndarray) -> int | None:
    """The index of the first residual not within ALGEBRAIC_TOL (a NaN
    included), or None."""
    bad = np.flatnonzero(~(resid <= ALGEBRAIC_TOL))
    return int(bad[0]) if bad.size else None


def _validate_entry(entry: CatalogEntry):
    mp, g = entry.mp, entry.g
    # the realization satisfies the defining relation x* eta + eta x = 0
    mats = np.asarray(g.realization)
    resid = np.abs(np.conj(np.swapaxes(mats, 1, 2)) @ entry.eta
                   + entry.eta @ mats).max(axis=(1, 2))
    if (i := _first_over(resid)) is not None:
        raise ValueError(f"realization matrix violates the signature relation ({resid[i]:.3e})")
    # dual basis against the displayed matrix representatives
    coords = trace_gram(entry.psi_mats, g.realization, IM_TRACE)
    if (i := _first_over(np.abs(coords - mp.psi_basis).max(axis=1))) is not None:
        raise ValueError(f"dual basis {i} disagrees with its matrix representative")
    # the torus lies in k, and its rows commute exactly: [t_a, t_b] is row b
    # of the torus times the contraction of t_a with the table
    torus = entry.torus
    if not np.max(np.abs(entry.cartan.project("k", torus.T).T - torus), initial=0.0) <= ALGEBRAIC_TOL:
        raise ValueError("a torus row does not lie in k")
    if np.any(torus @ np.tensordot(torus, g.structure, axes=1)):
        raise ValueError("the torus rows do not commute")
    # restricted root grading: ad(y_a) acts with eigenvalue 1 on the simple
    # root space and 2 on the double one
    a_row = entry.iwasawa.parts["a"][0]
    for weight, rows in ((1.0, entry.root_spaces["f1"]), (2.0, entry.root_spaces["2f1"])):
        resid = np.abs(g.bracket_coords(a_row, rows) - weight * rows).max(axis=1)
        if (i := _first_over(resid)) is not None:
            raise ValueError(f"root-space grading failed (residual {resid[i]:.3e})")


#: Largest p with a catalog name; larger p up to P_CAP only through supq1(p).
CATALOG_P_MAX = 4

_CATALOG = {"su11": lambda: su11()}
for _p in range(2, CATALOG_P_MAX + 1):
    _CATALOG[f"su{_p}1"] = (lambda q: (lambda: supq1(q)))(_p)

#: name -> the entry built on the first `get_entry(name)` of the process
_ENTRIES: dict[str, CatalogEntry] = {}


def catalog_names() -> list[str]:
    return list(_CATALOG.keys())


def get_entry(name: str) -> CatalogEntry:
    """The named catalog entry, built and validated on first use; later calls
    return that same read-only entry.  `su11()` and `supq1(p)` build a fresh
    one on every call."""
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog pair {name!r}; known: {', '.join(_CATALOG)}")
    if name not in _ENTRIES:
        _ENTRIES[name] = _CATALOG[name]()
    return _ENTRIES[name]


# -- planar dual-bracket comparison ------------------------------------------


def e2_dual_bracket_tables():
    """The two dual brackets on e(2)* and the intertwiner between them.

    Basis order (J*, P1*, P2*).  Family 1 is taken at its parameter s = 1;
    family 3 is the one induced (up to scale) by this package's cobracket.
    """
    j_, p1, p2 = 0, 1, 2
    bracket1 = antisymmetric_table((3, 3, 3), {
        (p1, p2): [0, 0, 0],
        (p1, j_): [0, 1, 0],
        (p2, j_): [0, 0, 1],
    })
    bracket3 = antisymmetric_table((3, 3, 3), {
        (p1, p2): [0, 0, 1],
        (p1, j_): [1, 0, 0],
        (p2, j_): [0, 0, 0],
    })
    rho = np.zeros((3, 3))
    rho[:, j_] = [0, -1, 0]     # rho(J*) = -s P1*, s = 1
    rho[:, p1] = [1, 0, 0]      # rho(P1*) = J*
    rho[:, p2] = [0, 0, 1]      # rho(P2*) = P2*
    return bracket1, bracket3, rho


def rho_intertwiner_residual(rho_sign: float = 1.0) -> float:
    """Max residual of rho([x, y]_1) = [rho(x), rho(y)]_3 over basis pairs."""
    bracket1, bracket3, rho = e2_dual_bracket_tables()
    rho = rho_sign * rho
    lhs = bracket1 @ rho.T                                          # rho([x_i, x_j]_1)
    rhs = np.einsum("ai,bj,abk->ijk", rho, rho, bracket3)          # [rho(x_i), rho(x_j)]_3
    return float(np.max(np.abs(lhs - rhs)))
