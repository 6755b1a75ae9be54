"""Independent references of the test suite: oracles and evaluators that no
`poissonlie verify` path runs.  The tests compare the package against them.

- The pair's change of basis to its adapted basis (x_1..x_m, y_1..y_k),
  derived from the decomposition and g alone; Ad on g-coordinates by a
  conjugation and a solve per element; and the g-coordinate products that
  built Ad*_a on b0, the action on c, eta, adE and the anchor before Ad
  lived in the adapted basis.  The package reads all of them as blocks of
  Ad in the adapted basis.
- The identity and the inverse of E, the inverse of an element of B and
  its full Ad*, sampled elements of B and points of E, the element or
  sub-stack of a stack,
  and the finite-difference conjugation oracle for the adjoint of E
  (criterion 03).
- The expansion of eta0 without group translation of the wedge frame
  (criterion 02), with the coadjoint matrix and the pairing of a dual vector
  against the y-basis it reads.
- Arithmetic on trig polynomials, and the Poisson-bracket evaluator on
  fiberwise-linear and base functions of the circle pair, with the brackets
  pushed to e(2)+ (criterion 04).
- The unit and the commutator of the crossed algebra.
- The twist check's residuals with the twist element and both of its
  cobrackets on gstar built here.
- The table of all commutators of two lists of matrices, the table of a
  realization from one re-expansion of all its commutators at once (the
  package takes them a chunk at a time), g_C re-expanded from its matrices
  that way (the package reads its table off g's), the invariance of
  the form on g_C as a dense contraction of the table, and the family-1
  dual brackets on e(2)* at any value of their parameter.
- The r-matrix display row of the conventions report, one y_i at a time,
  and its coadjoint row at sampled elements of B: Ad*_U = det(U) U.
- The normalization of the central element and the validation of a catalog
  entry, one basis row at a time.
- The planar linear coordinate row of the conventions report at three
  angles of the group (the report reads it at the Lie algebra).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from poissonlie.checks import complex_coordinates
from poissonlie.config import ALGEBRAIC_TOL, FD_STEP, TWIST_INNER_SCALE
from poissonlie.group import (MAX_WORD, EElement, GroupElement, _adjoint, basis_curves, e_mul,
                              exp_b, word_matrices)
from poissonlie.lie import IM_TRACE, MatrixBasisSolver, snap_dyadic, trace_gram
from poissonlie.linalg import antisymmetric_table, finite_diff, worst
from poissonlie.manin import cobracket_on_gstar, gprime_algebra, twist_check, twist_element
from poissonlie.poisson import anchor_trig, circle_parameter_checks

# -- the change of basis ----------------------------------------------------------


@dataclass(frozen=True)
class ChangeOfBasis:
    """A pair's change of basis from g-coordinates to its adapted basis:
    T, whose columns are the x_j then the y_i, and its inverse; the column
    blocks B (the x_j) and Y (the y_i) of T; Psi, whose columns psi^i are the
    c-rows of T^-1 in dual coordinates; and the brackets [y_i, y_j] in
    g-coordinates, shape (k, k, n), exactly antisymmetric."""

    t: np.ndarray
    t_inv: np.ndarray
    b: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    c_brackets: np.ndarray


def change_of_basis(mp) -> ChangeOfBasis:
    """The change of basis of `mp`, from its decomposition and g's table alone."""
    t, t_inv = mp.decomp.t, mp.decomp.t_inv
    y = mp.decomp.parts["c"].T
    brackets = np.einsum("ai,bj,abr->ijr", y, y, mp.g.structure)
    return ChangeOfBasis(t, t_inv, mp.decomp.parts["b"].T, y, t_inv[mp.dim_b:].T,
                         0.5 * (brackets - brackets.swapaxes(0, 1)))


def ref_adjoint(mp, mat) -> np.ndarray:
    """Ad(a) on g-coordinates of one matrix a: the realization conjugated by a
    and re-expanded by g's own solver, independent of the package's Ad pass."""
    inv = np.linalg.inv(mat)
    conjugated = np.einsum("ij,njk,kl->nil", mat, np.array(mp.g.realization), inv)
    coords, resid = mp.g._solver.solve_many(conjugated)
    assert resid <= 1e-7
    return coords.T


def g_coordinate_tables(mp, v, ad, ad_inverse_y) -> dict:
    """The tables of a point (v, a) of E, or of a stack of points, from Ad(a)
    on g-coordinates and the columns Ad(a^{-1}) y_i on g-coordinates, by the
    products through T^-1, Y, Psi, B and the brackets of c that built them
    before Ad lived in the adapted basis, in their order of operations:
    `coad_b0`, `action_on_c`, `eta0`, `eta_b`, `eta` (sign 1), `adE`, and
    `anchor`, whose column i is P_b Ad_a y_i in b-coordinates.

    On a pair whose T is the identity, Ad in the adapted basis is Ad on
    g-coordinates, and these are bit for bit the package's tables."""
    cb = change_of_basis(mp)
    k, m, n = mp.dim_c, mp.dim_b, mp.g.dim
    lead = v.shape[:-1]
    k_mat = np.swapaxes(ad_inverse_y, -1, -2) @ cb.psi
    # eta0
    u = (v @ cb.psi.T)[..., None, :] @ ad
    val = (u @ cb.c_brackets.reshape(k * k, -1).T).reshape(lead + (k, k))
    eta0 = np.zeros(lead + (k + m, k + m))
    block = k_mat @ val @ np.swapaxes(k_mat, -1, -2)
    eta0[..., :k, :k] = 0.5 * (block - np.swapaxes(block, -1, -2))
    # eta_b
    z = (cb.t_inv @ ad @ cb.y)[..., :m, :]
    upper = k_mat @ np.swapaxes(z, -1, -2)
    lower = -(z @ np.swapaxes(k_mat, -1, -2))
    eta_b = np.zeros(lead + (k + m, k + m))
    eta_b[..., :k, k:] = 0.5 * (upper - np.swapaxes(lower, -1, -2))
    eta_b[..., k:, :k] = 0.5 * (lower - np.swapaxes(upper, -1, -2))
    eta = eta0.copy()
    eta[..., :k, k:] = eta_b[..., :k, k:]
    eta[..., k:, :k] = eta_b[..., k:, :k]
    # adE
    zb = ad @ cb.b
    w = v @ cb.psi.T
    cw = (w @ mp.g.structure.reshape(n * n, n).T).reshape(lead + (n, n))
    ade = np.zeros(lead + (k + m, k + m))
    ade[..., :k, :k] = k_mat
    ade[..., :k, k:] = -(cb.y.T @ cw @ zb)
    ade[..., k:, k:] = (cb.t_inv @ zb)[..., :m, :]
    return {"coad_b0": k_mat, "action_on_c": cb.psi.T @ ad @ cb.y, "eta0": eta0,
            "eta_b": eta_b, "eta": eta, "adE": ade, "anchor": z}


# -- the group E --------------------------------------------------------------


def identity_element(mp) -> GroupElement:
    n = mp.g.realization[0].shape[0]
    return GroupElement(mp, np.eye(n, dtype=complex))


def e_identity(mp) -> EElement:
    return EElement(mp, np.zeros(mp.dim_c), identity_element(mp))


def inverse_element(a: GroupElement) -> GroupElement:
    """a^{-1} as an element of its own; a stack inverts elementwise."""
    return GroupElement(a.pair, np.linalg.inv(a.matrix))


def ad_of_inverse(a: GroupElement) -> np.ndarray:
    """The full Ad(a^{-1}) in the adapted basis, all n columns, from a
    validated pass over a^{-1} that conjugates back by a itself, as the
    column pass behind `coad_b0` does."""
    return _adjoint(a.pair, np.linalg.inv(a.matrix), a.matrix)


def coad(a: GroupElement) -> np.ndarray:
    """Ad*(a) = Ad(a^{-1})^T on the dual coordinates of the adapted basis
    (`ad_of_inverse`)."""
    return np.swapaxes(ad_of_inverse(a), -1, -2)


def take(x, idx):
    """The element or sub-stack at `idx` of a stack of elements of B or of
    points of E, built anew from its arrays, so that none of the stack's
    tables is carried over."""
    if isinstance(x, EElement):
        return EElement(x.pair, x.v[idx], take(x.a, idx))
    return GroupElement(x.pair, x.matrix[idx])


def e_inv(g: EElement) -> EElement:
    """(v, a)^{-1} = (-Ad*_{a^{-1}} v, a^{-1}); a stack inverts elementwise."""
    a_inv = inverse_element(g.a)
    return EElement(g.pair, -(a_inv.coad_b0 @ g.v[..., None])[..., 0], a_inv)


def sample_group_matrices(mp, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` random words of exponentials of b, as a (count, d, d) stack, in
    two calls of `rng`: all word lengths, uniform in 1..MAX_WORD, then all
    factors, with b-coordinates uniform in [-1, 1].  Validated wherever their
    Ad is computed."""
    lengths = rng.integers(1, MAX_WORD + 1, count)
    return word_matrices(mp, lengths, rng.uniform(-1.0, 1.0, (int(lengths.sum()), mp.dim_b)))


def sample_e_elements(mp, rng, count: int, radius: float = 1.0) -> EElement:
    """A stack of `count` random points of E in the call's draw order: all v,
    uniform in [-radius, radius], then all word lengths, then all factors."""
    v = rng.uniform(-radius, radius, (count, mp.dim_c))
    lengths = rng.integers(1, MAX_WORD + 1, count)
    factors = rng.uniform(-1.0, 1.0, (int(lengths.sum()), mp.dim_b))
    return EElement(mp, v, GroupElement(mp, word_matrices(mp, lengths, factors)))


def sample_e_element(mp, rng, radius: float = 1.0) -> EElement:
    """One random point of E, drawn as the first of a stack of one."""
    return take(sample_e_elements(mp, rng, 1, radius), 0)


def adE_fd(g: EElement, step: float = FD_STEP) -> np.ndarray:
    """Finite-difference oracle: differentiate g (curve) g^{-1} through e_mul/e_inv,
    along all the `basis_curves` at once.  The tangents along b are re-expanded
    in g by the algebra's solver, held to the finite-difference accuracy."""
    mp = g.pair
    k, m = mp.dim_c, mp.dim_b
    d = mp.g.realization[0].shape[0]
    g_inv = e_inv(g)

    def curve(t):
        conj = e_mul(e_mul(g, basis_curves(mp, t)), g_inv)
        return np.concatenate([conj.v, conj.a.matrix.reshape(k + m, d * d)], axis=1)

    flat = finite_diff(curve, 0.0, step)
    out = np.zeros((k + m, k + m))
    out[:k] = flat[:, :k].real.T
    # the b0 curves keep the B-part at the identity, so out[k:, :k] stays 0
    coords, resid = mp.g._solver.solve_many(flat[k:, k:].reshape(m, d, d))
    if not resid <= 1e-4:
        raise ValueError(f"tangent is not in the realization span (residual {resid:.3e})")
    out[k:, k:] = (coords @ change_of_basis(mp).t_inv.T)[:, :m].T
    return out


# -- the expansion of eta0 --------------------------------------------------------


def coad_matrix_coords(alg, x: np.ndarray) -> np.ndarray:
    """Matrix of ad*(x) on dual coordinates: <ad*(x)phi, y> = phi([y, x])."""
    return -alg.ad_matrix_coords(x).T


def gstar_to_b0(mp, w: np.ndarray) -> np.ndarray:
    """Pair a dual vector against the y-basis: components <w, y_j>."""
    return change_of_basis(mp).y.T @ np.asarray(w, dtype=float)


def c_coords(mp, x: np.ndarray) -> np.ndarray:
    """Coefficients of the c-part of x in the y-basis."""
    return (change_of_basis(mp).t_inv @ np.asarray(x, dtype=float))[mp.dim_b:]


def eta_alternative(mp, g: EElement) -> np.ndarray:
    """Expansion of eta0 without group translation of the wedge frame:
    (1/2) <v, [y_i, y_j]> psi^i ^ psi^j  -  Ad*_a psi^i ^ ad*(P_b Ad_a y_i)(v)."""
    cb = change_of_basis(mp)
    k, m = mp.dim_c, mp.dim_b
    w = cb.psi @ g.v
    val = np.einsum("p,ijp->ij", w, cb.c_brackets)
    coeffs = np.zeros((k + m, k + m))
    coeffs[:k, :k] = val
    k_mat = g.a.coad_b0
    ad = ref_adjoint(mp, g.a.matrix)
    for i in range(k):
        x_b = mp.decomp.project("b", ad @ mp.y_basis[i])
        t_i = gstar_to_b0(mp, coad_matrix_coords(mp.g, x_b) @ w)
        u_i = k_mat[:, i]
        coeffs[:k, :k] -= np.outer(u_i, t_i) - np.outer(t_i, u_i)
    return 0.5 * (coeffs - coeffs.T)


# -- trig polynomials and the Poisson bracket on the circle pair --------------------


@dataclass(frozen=True)
class TrigPoly:
    """Exact arithmetic on trigonometric polynomials sum_n c_n e^{in phi}."""

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


@dataclass(frozen=True)
class LinearFn:
    """ytilde for y in c, given by y-basis coordinates."""

    y: tuple

    @staticmethod
    def make(coords) -> "LinearFn":
        return LinearFn(tuple(float(t) for t in coords))


@dataclass(frozen=True)
class BaseFn:
    """Pullback of a trig polynomial on B = U(1)."""

    f: TrigPoly


def vector_field_on_base(mp, y_coords, f: TrigPoly) -> TrigPoly:
    """The anchor field applied to f: alpha_y(phi) * df/dphi."""
    return TrigPoly(anchor_trig(mp, y_coords)) * f.derivative()


def poisson_bracket(mp, f1, f2):
    """Bracket rules: {y1~, y2~} = [y1, y2]~, {y~, f} = anchor-derivative, {f, f} = 0."""
    if isinstance(f1, LinearFn) and isinstance(f2, LinearFn):
        y = change_of_basis(mp).y
        br = mp.g.bracket_coords(y @ np.array(f1.y), y @ np.array(f2.y))
        return LinearFn.make(c_coords(mp, br))
    if isinstance(f1, LinearFn) and isinstance(f2, BaseFn):
        return BaseFn(vector_field_on_base(mp, np.array(f1.y), f2.f))
    if isinstance(f1, BaseFn) and isinstance(f2, LinearFn):
        return BaseFn((-1.0) * vector_field_on_base(mp, np.array(f2.y), f1.f))
    if isinstance(f1, BaseFn) and isinstance(f2, BaseFn):
        return BaseFn(TrigPoly())
    raise ValueError("unsupported function class for the Poisson evaluator")


def e2_plus_brackets(mp) -> dict:
    """Brackets pushed to the rotation group double quotient via theta = 2 phi.

    Returns the three displayed brackets in the theta variable plus the
    (V1, V2) = (-ya~, y2~) relabelling.
    """
    circle_parameter_checks(mp)
    y_a = LinearFn.make([1.0, 0.0])
    y_2 = LinearFn.make([0.0, 1.0])
    e_theta = BaseFn(TrigPoly.mode(2))   # e^{i theta} = e^{2 i phi}
    lin = poisson_bracket(mp, y_a, y_2)
    br_a = poisson_bracket(mp, y_a, e_theta).f.halve_modes()
    br_2 = poisson_bracket(mp, y_2, e_theta).f.halve_modes()
    return {
        "lin_lin": lin,                       # expected 2 * y2~
        "a_base_theta": br_a,                 # expected 2 i sin(theta) e^{i theta}
        "two_base_theta": br_2,               # expected 2 i (1 - cos theta) e^{i theta}
        "relabel": {"V1": ("-", "ya"), "V2": ("+", "y2")},
        "omega": -2.0,
    }


# -- the crossed algebra ----------------------------------------------------------


def one(alg):
    """The unit of the crossed algebra."""
    return alg.element({(0, 0, 0): 1.0})


def commutator(x, y):
    """[x, y] = xy - yx of two elements of the same tensor power."""
    return x.mul(y).add(y.mul(x), scale=-1.0)


# -- the twist ----------------------------------------------------------------------


def twist_check_of(entry, scale: float = TWIST_INNER_SCALE, s_scale: float = 1.0) -> dict:
    """The twist check's residuals, antisymmetry first, as the check assembles
    them: the twist element at the inner-product `scale`, times `s_scale`, and
    `manin.twist_check` with the cobrackets of g and of g' on gstar built here."""
    s, asym = twist_element(entry, scale=scale)
    return {"antisymmetry": asym,
            **twist_check(entry, s_scale * s, cobracket_on_gstar(entry.gstar, entry.g),
                          cobracket_on_gstar(entry.gstar, gprime_algebra(entry)))}


# -- Manin triples and the planar dual brackets --------------------------------------


def commutators(xs, ys) -> np.ndarray:
    """Table of all commutators: out[a, b] = xs[a] ys[b] - ys[b] xs[a]."""
    xs = np.asarray(xs, dtype=complex)[:, None]
    ys = np.asarray(ys, dtype=complex)[None, :]
    return xs @ ys - ys @ xs


def realize_at_once(mats) -> tuple[np.ndarray, float]:
    """The table of a realization from one re-expansion of all commutators
    [M_a, M_b], a < b, at once: one `solve_each`, one `snap_dyadic` of every
    coordinate, no negative zeros; with the residual, the worst span residual
    or the snap distance if that is larger.  `lie.commutator_pass` fills the
    same table COMMUTATOR_CHUNK commutators at a time."""
    m = np.asarray(mats, dtype=complex)
    solver = MatrixBasisSolver(m)
    n = len(m)
    i, j = np.triu_indices(n, 1)
    coords, resids = solver.solve_each(solver.rows_of(m[i] @ m[j] - m[j] @ m[i]))
    coords, snap = snap_dyadic(coords)
    table = np.zeros((n, n, n))
    table[i, j] = coords
    table[j, i] = 0.0 - coords
    return table, worst(float(np.max(resids, initial=0.0)), snap)


def gc_from_realization(entry) -> tuple[list[str], list[np.ndarray], np.ndarray]:
    """g_C's labels, its 2n matrices (g's and i times them), and the table of
    their commutators re-expanded at once (`realize_at_once`);
    `manin.build_gc_algebra` reads the same table off g's in closed form."""
    mats = list(entry.g.realization) + [1j * m for m in entry.g.realization]
    labels = list(entry.g.labels) + [f"i*{label}" for label in entry.g.labels]
    return labels, mats, realize_at_once(mats)[0]


def form_invariance_dense(table: np.ndarray, gram: np.ndarray) -> float:
    """max |<[a,b],c> + <b,[a,c]>| over basis triples as two matmuls of the
    flattened table, every entry included (`manin.form_invariance` reads
    only the nonzero ones)."""
    n = table.shape[0]
    flat = table.reshape(n * n, n)
    inv = (flat @ gram).reshape(n, n, n)
    inv += (flat @ gram.T).reshape(n, n, n).swapaxes(1, 2)
    return float(np.max(np.abs(inv)))


def e2_family1(s: float) -> tuple[np.ndarray, np.ndarray]:
    """The family-1 dual bracket on e(2)* at its parameter s, basis order
    (J*, P1*, P2*), and the intertwiner rho to family 3: rho(J*) = -s P1*,
    rho(P1*) = J*, rho(P2*) = P2*, one column each."""
    bracket1 = antisymmetric_table((3, 3, 3), {(1, 0): [0, s, 0], (2, 0): [0, 0, s]})
    rho = np.array([[0.0, 1.0, 0.0], [-s, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return bracket1, rho


def r_display_residual_loop(entry) -> float:
    """`checks._r_display_matrices` one y_i at a time: the displayed Cartan
    projections of the solvable basis against P^C_k y_i."""
    p, mp = entry.p, entry.mp
    n = p + 1

    def unit(i, j):
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        return m

    displayed = {1: 1j * unit(p - 1, p - 1) - 1j * unit(n - 1, n - 1)}
    for kk in range(p - 1):
        displayed[2 + 2 * kk] = unit(p - 1, kk) - unit(kk, p - 1)
        displayed[3 + 2 * kk] = 1j * unit(kk, p - 1) + 1j * unit(p - 1, kk)
    out = 0.0
    for i in range(mp.dim_c):
        proj = entry.g.matrix_of(entry.cartan.project("k", mp.y_basis[i]))
        out = worst(out, np.max(np.abs(proj - displayed.get(i, np.zeros((n, n))))))
    return out


#: Sampled elements of B in `adstar_u_sampled_residual`.
ADSTAR_U_SAMPLES = 25


def adstar_u_sampled_residual(entry, rng: np.random.Generator) -> float:
    """The conventions report's coadjoint row at `ADSTAR_U_SAMPLES` sampled
    elements U of B: Ad*_U on k0 ~ C^p against det(U) U on complex
    coordinates (the report reads it at the Lie algebra)."""
    mp, p = entry.mp, entry.p
    to_complex = complex_coordinates(p)
    a = GroupElement(mp, sample_group_matrices(mp, rng, ADSTAR_U_SAMPLES))
    u = a.matrix[:, :p, :p]
    expect = np.linalg.det(u)[:, None, None] * (u @ to_complex)
    return float(np.max(np.abs(to_complex @ a.coad_b0 - expect)))


# -- the catalog entry's own checks, one row at a time ----------------------------


def normalize_z_loop(g, cartan, z: np.ndarray) -> np.ndarray:
    """`catalog.normalize_z` with one bracket per row of k and one Rayleigh
    quotient per row of p."""
    z = np.asarray(z, dtype=float)
    for row in cartan.parts["k"]:
        if not np.max(np.abs(g.bracket_coords(z, row))) <= ALGEBRAIC_TOL:
            raise ValueError("z is not central in k")
    ad2 = g.ad_matrix_coords(z) @ g.ad_matrix_coords(z)
    p_rows = cartan.parts["p"]
    lam = float(np.mean([-float(np.dot(ad2 @ row, row) / np.dot(row, row)) for row in p_rows]))
    if not lam > 0:
        raise ValueError("ad(z)^2 is not negative on the symmetric part")
    z = z / np.sqrt(lam)
    ad2 = g.ad_matrix_coords(z) @ g.ad_matrix_coords(z)
    resid = worst(*(np.max(np.abs(ad2 @ row + row)) for row in p_rows))
    if not resid <= ALGEBRAIC_TOL:
        raise ValueError(f"z normalization residual {resid:.3e}")
    return z


def validate_entry_loop(entry):
    """`catalog._validate_entry` with one matrix, dual vector, torus pair and
    root vector at a time."""
    mp, g = entry.mp, entry.g
    for m in g.realization:
        resid = np.max(np.abs(np.conj(m.T) @ entry.eta + entry.eta @ m))
        if not resid <= ALGEBRAIC_TOL:
            raise ValueError(f"realization matrix violates the signature relation ({resid:.3e})")
    coords = trace_gram(entry.psi_mats, g.realization, IM_TRACE)
    for i in range(len(entry.psi_mats)):
        if not np.max(np.abs(coords[i] - mp.psi_basis[i])) <= ALGEBRAIC_TOL:
            raise ValueError(f"dual basis {i} disagrees with its matrix representative")
    torus = entry.torus
    if not np.max(np.abs(entry.cartan.project("k", torus.T).T - torus), initial=0.0) <= ALGEBRAIC_TOL:
        raise ValueError("a torus row does not lie in k")
    if np.any(np.einsum("ai,bj,ijk->abk", torus, torus, g.structure)):
        raise ValueError("the torus rows do not commute")
    a_row = entry.iwasawa.parts["a"][0]
    for weight, rows in ((1.0, entry.root_spaces["f1"]), (2.0, entry.root_spaces["2f1"])):
        for row in rows:
            resid = np.max(np.abs(g.bracket_coords(a_row, row) - weight * row))
            if not resid <= ALGEBRAIC_TOL:
                raise ValueError(f"root-space grading failed (residual {resid:.3e})")


def xtilde_table_residual_at_angles(entry) -> float:
    """The planar linear coordinate row at phi = 0.3, 1.1 and 2.5:
    <psi^v, Ad_{a^{-1}} y_i> at a = exp(phi x), entry (v, i) of the action
    on c of a^{-1}, against the displayed rotation by 2 phi."""
    out = 0.0
    phis = np.array([0.3, 1.1, 2.5])
    for phi, c_mat in zip(phis, exp_b(entry.mp, np.array([1.0]), -phis).action_on_c):
        rotation = np.array([[np.cos(2 * phi), -np.sin(2 * phi)],
                             [np.sin(2 * phi), np.cos(2 * phi)]])
        out = worst(out, float(np.max(np.abs(c_mat - rotation))))
    return out
