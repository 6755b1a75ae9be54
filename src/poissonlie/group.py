"""Group-level machinery: matrix elements of B, Ad/Ad*, the semidirect product
E = b0 x| B with its product and adjoint representation.

Elements of B are produced as short words of exponentials of b, which keeps all
sampling in the identity component where the algebraic identities are global.

A `GroupElement` holds one matrix or a stack of them, and an `EElement` one
point or a stack of points.  Every operation acts elementwise on a stack; a
single element runs the same code without the leading stack axis.

Sampling is stacked, and this module alone decides how a seed selects
elements: in the order of numpy's PCG64 stream at the seed, all v, then all
word lengths, then all factors.  A verify call draws its sampled pairs once
(`sample_pairs`): 2N points of E at the call's seed, whichever sampled checks
it runs.  It draws the lengths at once and the v and factors block by block,
the v from a second generator at the seed while the first starts past them,
so every sampled check reads each block of them, with their product made
once; each word is exponentiated once (`word_matrices`) and each element's
tables built once per call, one block alive at a time.  `sample_pairs` is
the only code of the package that makes a generator.  `exp_b` takes a whole
array of parameters.  Every exponential is one call of `linalg.expm`
(Pade-13 scaling and squaring, vectorized over the stack).  The inverse of E
and the finite-difference oracle for its adjoint are test references
(`tests/references.py`).

A `GroupElement` owns its per-element tables, each built for the whole stack on
first use and read-only: `ad`, Ad(a) in the pair's adapted basis (x_1..x_m,
y_1..y_k); `ad_inverse_y`, the columns Ad(a^{-1}) y_i in that basis; and
`coad_b0` and `action_on_c`, the blocks of Ad*(a) on b0 and of Ad(a) on c,
which eta, adE, e_mul and the invariance residual read.  In the adapted basis
every table the checks read is a block: the b-leak is ad[m:, :m], the action
on c ad[m:, m:], the anchor ad[:m, m:], and Ad*(a) = Ad(a^{-1})^T on b0 the
transpose of ad_inverse_y[m:].  Ad of a stack is one row-major pass
(`_adjoint`) over chunks of the stack against the pair's re-expansion in the
adapted basis (`MatchedPair.adapted_solver`), with the same bits as one chunk.
Each element has one validated pass, Ad(a) over all n basis matrices, with
its residual and b-leak.  Ad*(a) on b0 reads only the k columns of
Ad(a^{-1}) along the y_i, so `ad_inverse_y` is a second pass over a^{-1}
that conjugates the k realized y_i alone and validates nothing: it reads
`ad` first, and a^{-1} is in B exactly when a is.  The element inverts its
matrix once, for both passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import expm
from .matched import MatchedPair

#: Pairs per stacked block of a call's sampled pass; reports do not depend on
#: it.  With `benchmarks/run.py --workload sampled --seconds 8` at seed 42 on a
#: 2-vCPU x86-64 VM (median of three runs), blocks of 32, 64, 96 and 128 took
#: 0.29, 0.23, 0.24 and 0.24 s a pass, 0.14, 0.11, 0.12 and 0.12 s for the
#: slowest call (su41), and 65.9, 67.7, 69.2 and 70.8 MB peak RSS.  At 64, a
#: pass over su41's cocycle check, its invariance check and both at 1000
#: samples peaks at 3.1, 1.7 and 3.2 MB of traced allocations (numpy 2.4.6);
#: at 96, at 4.5, 2.3 and 4.7 MB.
SAMPLE_BLOCK = 64

#: Longest word of exponentials of b in a sampled element.
MAX_WORD = 3

#: v of each sampled point of E is uniform in [-V_RADIUS, V_RADIUS].
V_RADIUS = 1.0

#: Bytes of real rows in one chunk of an Ad pass.  Every temporary of a
#: chunk (the products, the conjugated matrices, the rows, the solver's
#: coordinates and residuals) is at most about this size, so the allocator
#: hands the same memory back from chunk to chunk instead of paging in the
#: 0.6-1.2 MB arrays of a whole 64-sample stack on every call.  The chunk
#: length follows the basis conjugated: n matrices in the validated pass,
#: the k y_i in the column pass (`_ad_chunk`).
_AD_CHUNK_BYTES = 96 * 1024

#: Largest re-expansion residual and b-leak of Ad(a) for a in B.
_MEMBERSHIP_TOL = 1e-7

#: Smallest |det| of a group element's matrix; anything closer to singular
#: (or NaN) is rejected when the element is made, before Ad is computed.
_SINGULAR_DET = 1e-12


@dataclass(eq=False)
class GroupElement:
    """An element a of B as a (d, d) matrix, or a stack of elements as a
    (count, d, d) array.  Products and the tables act elementwise on a stack;
    each table is built for the whole stack on first use, read-only."""

    pair: MatchedPair
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
            raise ValueError("group element must be a square matrix or a stack of them")
        with np.errstate(invalid="ignore"):   # a NaN determinant is rejected just below
            dets = np.abs(np.linalg.det(m))
        _require(dets >= _SINGULAR_DET, dets, "is singular or not finite", "|det|")
        object.__setattr__(self, "matrix", m)
        self._ad = None
        self._inv = None

    def _inverse(self) -> np.ndarray:
        """The matrix a^{-1}, or the stack of inverses, inverted once and kept."""
        if self._inv is None:
            self._inv = np.linalg.inv(self.matrix)
        return self._inv

    @property
    def ad(self) -> np.ndarray:
        """Ad(a) in the adapted basis, (n, n) or (count, n, n), validated by
        `_adjoint`."""
        if self._ad is None:
            self._ad = _adjoint(self.pair, self.matrix, self._inverse())
        return self._ad

    @cached_property
    def ad_inverse_y(self) -> np.ndarray:
        """The columns Ad(a^{-1}) y_i in the adapted basis, (n, k) or
        (count, n, k), from a pass over the k realized y_i alone, which
        validates nothing.  It reads `ad` first, which validates a; a^{-1}
        is in B exactly when a is."""
        self.ad
        mp = self.pair
        return _adjoint(mp, self._inverse(), self.matrix,
                        columns=mp.adapted_solver.stack[mp.dim_b:])

    @cached_property
    def coad_b0(self) -> np.ndarray:
        """Ad*_a = Ad(a^{-1})^T restricted to b0, in the psi-basis: the
        transpose of the c-rows of `ad_inverse_y`."""
        m = self.pair.dim_b
        return _read_only(np.ascontiguousarray(np.swapaxes(self.ad_inverse_y[..., m:, :], -1, -2)))

    @cached_property
    def action_on_c(self) -> np.ndarray:
        """P_c Ad_a restricted to c, in the y-basis: the c-block of `ad`."""
        m = self.pair.dim_b
        return _read_only(np.ascontiguousarray(self.ad[..., m:, m:]))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.pair, self.matrix @ other.matrix)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def exp_b(mp: MatchedPair, xb: np.ndarray, t: float | np.ndarray) -> GroupElement:
    """exp(t X) for X given by b-basis coordinates, via `linalg.expm`
    (Pade-13 scaling and squaring); an array of t gives a stack, one element
    per entry."""
    if mp.g.realization is None:
        raise ValueError("matched pair has no matrix realization")
    x = mp.b_matrix_of(np.asarray(xb, dtype=float))
    return GroupElement(mp, expm(np.asarray(t, dtype=float)[..., None, None] * x))


def _require(ok: np.ndarray, values: np.ndarray, problem: str, what: str) -> None:
    """Reject an element or a stack unless `ok` holds for every element; name
    the first offender of a stack.

    `ok` comes from comparisons such as `resid <= tol`, which are False for NaN."""
    bad = np.flatnonzero(~np.atleast_1d(ok))
    if bad.size:
        i = int(bad[0])
        where = f"element {i} of the stack" if np.ndim(values) else "group element"
        raise ValueError(f"{where} {problem} ({what} {np.atleast_1d(values)[i]:.3e})")


def _adjoint(mp: MatchedPair, mats: np.ndarray, invs: np.ndarray,
             columns: np.ndarray | None = None) -> np.ndarray:
    """Ad(a) in the pair's adapted basis of a (d, d) matrix a, or of each
    matrix of a (count, d, d) stack, as a read-only (n, n) or (count, n, n)
    array, given the inverses `invs`.

    Every element is validated: its conjugation of the realized adapted basis
    must stay in the algebra and Ad(a) must preserve b, that is, its block
    from b to c must vanish; a NaN matrix fails the first test.  The pass
    runs over chunks of `_ad_chunk` matrices, and each chunk's conjugated
    matrices are re-expanded by one least-squares solve
    (`MatchedPair.adapted_solver`); the whole stack is validated after the
    last chunk, so an offender is named by its index in the stack.

    With `columns`, a (k, d, d) stack of realized elements X_i of g, the
    pass conjugates those alone and gives Ad(a) X, (n, k) or (count, n, k),
    and validates nothing: it forms no residual and no leak, for elements
    whose Ad is validated by a pass of its own."""
    solver = mp.adapted_solver
    validate = columns is None
    basis = solver.stack if validate else columns
    d, n, m, cols = mats.shape[-1], mp.g.dim, mp.dim_b, len(basis)
    lead = mats.shape[:-2]
    count = int(np.prod(lead, dtype=int))
    flat, flat_invs = mats.reshape(-1, d, d), invs.reshape(-1, d, d)
    resid, leak = np.empty(count), np.empty(count)
    wide = basis.transpose(1, 0, 2).reshape(d, cols * d)
    step = _ad_chunk(d, cols)
    # Ad is kept C-ordered: eta0's vector-matrix products take the BLAS path
    # of their operand's layout, and another layout would move the last bits
    # of the sampled residuals
    table = np.empty(lead + (n, cols))
    flat_table = table.reshape(count, n, cols)
    for start in range(0, count, step):
        part = slice(start, min(start + step, count))
        size = part.stop - start
        # a X_j a^{-1} for every j as one matmul of the chunk, rows (e, i)
        # of a [X_0 .. X_cols-1], then one per element by a^{-1}
        conjugated = ((flat[part].reshape(size * d, d) @ wide).reshape(size, d * cols, d)
                      @ flat_invs[part])
        # the solver's real row of each a X_j a^{-1}, in (element, j) order,
        # copied from the products, freed before the solve
        rows = np.ascontiguousarray(conjugated.view(float).reshape(size, d, cols, d, 2)
                                    .transpose(0, 2, 4, 1, 3)).reshape(size * cols, 2 * d * d)
        del conjugated
        if validate:
            coords, resids = solver.solve_each(rows)
            resid[part] = resids.reshape(size, n).max(axis=1)
        else:
            coords = solver.coords(rows)
        # row (element, j) of the coordinates is column j of the table
        flat_table[part] = np.moveaxis(coords.T.reshape(n, size, cols), 0, 1)
        if validate:
            leak[part] = np.abs(flat_table[part, m:, :m]).max(axis=(1, 2))

    if validate:
        resid, leak = resid.reshape(lead), leak.reshape(lead)
        _require(resid <= _MEMBERSHIP_TOL, resid, "leaves the algebra under conjugation",
                 "residual")
        _require(leak <= _MEMBERSHIP_TOL, leak, "does not normalize b, so it is not in B",
                 "leak")
    return _read_only(table)


def _ad_chunk(d: int, cols: int) -> int:
    """Matrices per chunk of an Ad pass over `cols` basis elements: as many
    as keep the chunk's real rows, cols * 2 d^2 doubles a matrix, within
    `_AD_CHUNK_BYTES`; at least one."""
    return max(1, _AD_CHUNK_BYTES // (cols * 2 * d * d * 8))


@dataclass(eq=False)
class EElement:
    """Point (v, a) of E = b0 x| B: v in psi-coordinates, a in B.  For a stack
    of points, v is (count, k) and a is a stack of count elements."""

    pair: MatchedPair
    v: np.ndarray
    a: GroupElement

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != self.a.matrix.shape[:-2] + (self.pair.dim_c,):
            raise ValueError("v must be a b0-coordinate vector, one per element of a")
        size = np.max(np.abs(v), axis=-1, initial=0.0)
        _require(np.isfinite(size), size, "has a non-finite v coordinate", "max |v|")
        object.__setattr__(self, "v", v)


def _act(k_mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """k_mat @ v for one matrix and vector, or elementwise for stacks."""
    return (k_mat @ v[..., None])[..., 0]


def e_mul(g: EElement, h: EElement) -> EElement:
    """(v, a)(v', a') = (v + Ad*_a v', a a'); two stacks multiply elementwise."""
    if g.pair is not h.pair:
        raise ValueError("elements belong to different pairs")
    mp = g.pair
    return EElement(mp, g.v + _act(g.a.coad_b0, h.v), g.a @ h.a)


def adE(g: EElement) -> np.ndarray:
    """Adjoint matrix of E on e = b0 (+) b coordinates, one per point of a stack.

    Block form [[Ad*_a|b0, x -> -ad*(Ad_a x)(v)], [0, Ad_a|b]]; the mixed block
    realizes the conjugated-curve parametrization and is pinned by
    the finite-difference conjugation oracle.  Everything is read in the
    adapted basis, where v is the covector (0, v).
    """
    mp = g.pair
    k, m, n = mp.dim_c, mp.dim_b, mp.g.dim
    lead = g.v.shape[:-1]
    z = np.ascontiguousarray(g.a.ad[..., :m])     # columns Ad_a x_j
    w = np.concatenate([np.zeros(lead + (m,)), g.v], axis=-1)
    # <ad*(z)(w), y_i> = w([y_i, z]) = (cw z)_i with cw[i, q] = w([y_i, e_q])
    cw = (w @ mp.adapted[m:].reshape(k * n, n).T).reshape(lead + (k, n))
    out = np.zeros(lead + (k + m, k + m))
    out[..., :k, :k] = g.a.coad_b0
    out[..., :k, k:] = -(cw @ z)
    out[..., k:, k:] = z[..., :m, :]
    return out


def word_matrices(mp: MatchedPair, lengths: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """The words of exponentials of b of the given lengths, with one row of
    b-coordinates of `factors` per factor, word after word, as a (count, d, d)
    stack.  All factors are exponentiated by one stacked `expm`; words shorter
    than `MAX_WORD` are padded with the identity."""
    count = len(lengths)
    # slot of each factor: its element's MAX_WORD slots, then its place in the word
    ends = np.cumsum(lengths)
    slots = (np.repeat(np.arange(count) * MAX_WORD - (ends - lengths), lengths)
             + np.arange(len(factors)))
    d = mp.g.realization[0].shape[0]
    words = np.tile(np.eye(d, dtype=complex), (count * MAX_WORD, 1, 1))
    words[slots] = expm(mp.b_matrix_of(factors))
    words = words.reshape(count, MAX_WORD, d, d)
    mats = words[:, 0]
    for j in range(1, MAX_WORD):
        mats = mats @ words[:, j]
    return mats


def sample_pairs(mp: MatchedPair, seed: int, samples: int, readers) -> list[tuple]:
    """The sampled elements of one call, read by every reader: for each block
    of SAMPLE_BLOCK pairs, in order, read(start, g, h, gh) of each reader on
    the same points of E; returns each reader's results, one per block.

    The call draws 2 * samples points at `seed`, as g, h, g, h, ..., whichever
    readers it has, so a reader's results do not depend on the others: in the
    order of the stream, all v, uniform in [-V_RADIUS, V_RADIUS], then all
    word lengths, uniform in 1..MAX_WORD, and all factors, with b-coordinates
    uniform in [-1, 1].  The v and factors are drawn block by block, the v
    from a second generator at `seed`.  `start` is the index of the block's
    first pair, `g` and `h` the stacks of its first and second points and
    `gh` = g h, made once for all readers.  Each word is exponentiated once
    and each element's tables are built once, for every reader; only the
    readers' results outlive their block."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng, v_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    # a uniform double takes one 64-bit output, so rng starts past the v
    rng.bit_generator.advance(2 * samples * mp.dim_c)
    lengths = rng.integers(1, MAX_WORD + 1, 2 * samples)

    def block(start: int) -> list:
        stop = min(start + SAMPLE_BLOCK, samples)
        part = lengths[2 * start:2 * stop]
        v = v_rng.uniform(-V_RADIUS, V_RADIUS, (len(part), mp.dim_c))
        mats = word_matrices(mp, part, rng.uniform(-1.0, 1.0, (int(part.sum()), mp.dim_b)))
        g, h = (EElement(mp, v[j::2], GroupElement(mp, mats[j::2])) for j in (0, 1))
        gh = e_mul(g, h)
        return [read(start, g, h, gh) for read in readers]

    return list(zip(*(block(start) for start in range(0, samples, SAMPLE_BLOCK))))


def basis_curves(mp: MatchedPair, t: float) -> EElement:
    """The points (t psi_i, 1), then (0, exp(t x_j)), of the curves through the
    identity along every e-basis direction, as one stack with one `expm` call."""
    k, m = mp.dim_c, mp.dim_b
    d = mp.g.realization[0].shape[0]
    mats = np.concatenate([np.broadcast_to(np.eye(d, dtype=complex), (k, d, d)),
                           expm(t * mp.b_matrix_of(np.eye(m)))])
    return EElement(mp, t * np.eye(k + m, k), GroupElement(mp, mats))

