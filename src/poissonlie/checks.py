"""Named verification checks, plus the machine-generated conventions report
comparing this package's tables against the published displays.

Each check is registered once, next to its function, with its name, its scope
and a corruption knob that breaks exactly one ingredient, so the suites are
demonstrably non-vacuous.  A check function only names its sub-criteria: each
residual once, and each yes/no side condition once.  `run_check` alone folds
them and decides a verdict: PASS means every condition holds and the worst
residual is finite and within tolerance.

The sampled checks (`invariance`, `cocycle`) read the call's one sampled
pass (`sampled_pass`): every block of pairs of points of E is drawn and
exponentiated once (`group.sample_pairs`), and each selected sampled check
reads it, so a sampled check's report does not depend on which other checks
run, or in what order.

`manin` and `quantize` are imported by the checks that call them (`manin`,
`deform`, `twist`, `semiclassical`), so a call that runs none of them, such
as any call on an imported pair, does not load or compile them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bialgebra as bi
from . import poisson as po
from .catalog import CatalogEntry, e2_dual_bracket_tables, rho_intertwiner_residual
from .config import Tolerances
from .lie import from_realization, jacobi_worst_at, snap_dyadic
from .linalg import antisymmetric_table, best_sign, matrix_to_json_dict, worst, worst_at
from .matched import MatchedPair
from .group import EElement, sample_pairs

#: Check scopes.  PAIR: any matched pair.  REALIZATION: a pair with a matrix
#: realization (the check exponentiates).  ENTRY: a catalog pair with its
#: Iwasawa/Cartan decoration.  CIRCLE: the catalog circle pair (p = 1).
PAIR, REALIZATION, ENTRY, CIRCLE = "pair", "realization", "entry", "circle"


@dataclass(frozen=True)
class Check:
    """A named identity: the function computing its residual, the knob that
    corrupts it, its scope and the tolerance its residual is held to.

    A check's function takes the target, the tolerances and whether its knob
    is set.  A sampled check's function takes the pair and whether its knob
    is set, and returns the reader of its blocks for `group.sample_pairs` and
    the function that makes its report from them (`sampled_pass`)."""

    name: str
    knob: str
    scope: str
    tolerance: Callable[[Tolerances], float]
    fn: Callable
    sampled: bool = False

    def applies(self, target) -> bool:
        if isinstance(target, CatalogEntry):
            return self.scope != CIRCLE or target.p == 1
        return self.scope == PAIR or (self.scope == REALIZATION
                                      and target.g.realization is not None)


#: check name -> Check, in report order
REGISTRY: dict[str, Check] = {}


def _register(name: str, knob: str, scope: str,
              tolerance: Callable[[Tolerances], float] = lambda tol: tol.algebraic,
              sampled: bool = False):
    """Register the decorated function as check `name`, corrupted by `knob`."""
    def register(fn):
        REGISTRY[name] = Check(name, knob, scope, tolerance, fn, sampled)
        return fn
    return register


def applicable_checks(target) -> list[str]:
    return [c.name for c in REGISTRY.values() if c.applies(target)]


def sampled_pass(target, names, samples: int, seed: int,
                 corrupt: str | None = None) -> dict[str, dict]:
    """The unfolded reports of the sampled checks among `names`, each of which
    must apply to `target`, from one pass over the call's `samples` pairs of
    points drawn at `seed` (`group.sample_pairs`).  Every check reads the
    same elements, so its report is the one a pass of its own would give."""
    chosen = [REGISTRY[name] for name in names if REGISTRY[name].sampled]
    if not chosen:
        return {}
    mp = target.mp if isinstance(target, CatalogEntry) else target
    folds = [check.fn(mp, corrupt == check.knob) for check in chosen]
    blocks = sample_pairs(mp, seed, samples, [read for read, _ in folds])
    return {check.name: report(samples, seed, *_worst_of(results, samples))
            for check, (_, report), results in zip(chosen, folds, blocks)}


def _at_worst(start: int, parts: list, g: EElement, h: EElement, extra=None) -> tuple:
    """A block's per-sample residuals `parts`, and what a report keeps of the
    block's first worst sample over them, in order: its index in the pass,
    copies of v and the matrix of g and h there (views would keep the block's
    stacks alive), and its entry of `extra`."""
    i = worst_at(np.hstack(parts))[1] % len(g.v)
    kept = [(x.v[i].copy(), x.a.matrix[i].copy()) for x in (g, h)]
    return parts, start + i, kept, None if extra is None else extra[i]


def _worst_of(blocks: list, samples: int) -> tuple:
    """Each part's residuals over the pass, the first worst sample over all
    parts in order, and what its block kept of it (`_at_worst`).  That sample
    is its block's first worst, so the block kept it."""
    parts, starts, kept, extra = zip(*blocks)
    parts = [np.hstack(part) for part in zip(*parts)]
    at = worst_at(np.hstack(parts))[1] % samples
    j = starts.index(at)
    return parts, at, kept[j], extra[j]


def run_check(name: str, target, samples: int, seed: int, tol: Tolerances,
              corrupt: str | None = None, sampled: dict | None = None) -> dict:
    """Run one check on a matched pair or catalog entry and decide its verdict.

    A sampled check reads its report from `sampled`, the call's sampled pass
    (`sampled_pass`); without it, the check makes that pass alone, from
    `samples` pairs drawn at `seed`, with the same report.

    A check function returns a dict with `residuals` (name -> residual, one
    entry per sub-criterion), optionally `conditions` (name -> bool) and
    `details` (witnesses, signs, condition numbers), and any further top-level
    report keys, such as `samples`.  This is the only fold: `max_residual` is
    the worst residual; `worst_criterion` names a NaN residual first, else the
    first condition that fails, else the residual that sets `max_residual`;
    `pass` means every condition holds and `max_residual` is finite and within
    the check's tolerance.  The report's `details` lists the residuals, the
    conditions and the details together."""
    check = REGISTRY.get(name)
    if check is None:
        raise ValueError(f"unknown check {name!r}")
    if not check.applies(target):
        raise ValueError(f"check {name!r} does not apply to this pair (scope {check.scope!r})")
    if check.scope in (PAIR, REALIZATION) and isinstance(target, CatalogEntry):
        target = target.mp
    corrupted = corrupt == check.knob
    if check.sampled:
        out = dict((sampled_pass(target, [name], samples, seed, corrupt)
                    if sampled is None else sampled)[name])
    else:
        out = check.fn(target, tol, corrupted)
    residuals = out.pop("residuals")
    conditions = out.pop("conditions", {})
    residual, at = worst_at(list(residuals.values()))
    failed = [c for c, holds in conditions.items() if not holds]
    criterion = failed[0] if failed and not math.isnan(residual) else list(residuals)[at]
    tolerance = check.tolerance(tol)
    out.update({"check": name, "samples": out.get("samples", 0), "corrupted": corrupted,
                "tolerance": tolerance, "max_residual": residual, "worst_criterion": criterion,
                "details": residuals | conditions | out.get("details", {}),
                "pass": bool(not failed and math.isfinite(residual) and residual <= tolerance)})
    return out


@_register("jacobi", "jacobi_perturb_constant", PAIR)
def _check_jacobi(mp: MatchedPair, tol, corrupted) -> dict:
    resid, triple = mp.g.jacobi     # contracted once, when g was built
    if corrupted:
        structure = mp.g.structure.copy()
        structure[0, 1, :] += 1e-3
        structure[1, 0, :] -= 1e-3
        resid, triple = jacobi_worst_at(structure)
    return {"residuals": {"jacobi": resid},
            "details": {"dim": mp.g.dim, "worst_triple": list(triple)}}


@_register("invariance", "invariance_flip_action", REALIZATION, sampled=True)
def _check_invariance(mp: MatchedPair, corrupted):
    def read(start, g, h, gh):
        a = g.a
        if corrupted:   # the knob pairs Ad*_a with the action of a^{-1} instead of a
            # P_c Ad(a^{-1}) on c: the c-rows of the columns Ad(a^{-1}) y_i that coad_b0 reads
            flipped = np.ascontiguousarray(a.ad_inverse_y[:, mp.dim_b:])
            prod = a.coad_b0 @ np.swapaxes(flipped, 1, 2)
            inv = np.abs(prod - np.eye(mp.dim_c)).max(axis=(1, 2))
        else:
            inv = mp.invariance_residual(a)
        hom = np.abs(gh.a.action_on_c - a.action_on_c @ h.a.action_on_c).max(axis=(1, 2))
        return _at_worst(start, [inv, hom], g, h)

    def report(samples, seed, parts, at, kept, _):
        # the witness: the sample of the first worst entry over both parts, the
        # invariance part first, so it lies in the part `worst_criterion` names;
        # a and b are the elements of B of its pair
        (_, a), (_, b) = kept
        inv, hom = parts
        return {"residuals": {"invariance": worst_at(inv)[0],
                              "action_homomorphism": worst_at(hom)[0]},
                "samples": samples,
                "details": {"worst_sample": at, "a": matrix_to_json_dict(a),
                            "b": matrix_to_json_dict(b)}}

    return read, report


@_register("cocycle", "eta_b_sign", REALIZATION, sampled=True)
def _check_cocycle(mp: MatchedPair, corrupted):
    sign = -1.0 if corrupted else 1.0
    labels = mp.e_space.labels

    def read(start, g, h, gh):
        resid, entry = po.cocycle_residuals(mp, g, h, gh, eta_b_sign=sign)
        return _at_worst(start, [resid], g, h, entry)

    def report(samples, seed, parts, at, kept, entry):
        row, col = divmod(int(entry), len(labels))
        g, h = ({"v": v.tolist(), "a": matrix_to_json_dict(mat)} for v, mat in kept)
        # the pair name, seed and witness elements make the run reproducible from the report
        return {"residuals": {"cocycle": worst_at(parts[0])[0]}, "samples": samples,
                "pair": mp.name, "seed": seed,
                "details": {"eta_b_sign": sign, "worst_sample": at,
                            "worst_part": f"{labels[row]}^{labels[col]}",
                            "g": g, "h": h}}

    return read, report


@_register("delta_consistency", "delta_b0_sign", REALIZATION,
           tolerance=lambda tol: tol.fd)
def _check_delta_consistency(mp: MatchedPair, tol, corrupted) -> dict:
    delta = mp.delta
    if corrupted:   # the b0 block with the opposite sign
        k = mp.dim_c
        delta = delta.copy()
        delta[:k, :k, :k] *= -1.0
    resid, x = bi.delta_consistency_worst_at(mp, delta, step=tol.fd_step)
    return {"residuals": {"delta_consistency": resid},
            "details": {"basis_vectors": mp.e_algebra.dim, "delta_consistency_worst_basis": x,
                        "delta_consistency_worst_label": mp.e_space.labels[x]}}


@_register("bialgebra_axioms", "delta_sign_one_basis", PAIR)
def _check_bialgebra_axioms(mp: MatchedPair, tol, corrupted) -> dict:
    delta = mp.delta
    if corrupted:   # the first basis vector with a nonzero cobracket
        delta = delta.copy()
        delta[np.argmax(np.abs(delta).max(axis=(1, 2)) > tol.algebraic)] *= -1.0
    co_jacobi, triple = bi.co_jacobi_worst_at(delta)
    cocycle, pair = bi.cocycle_1_worst_at(mp, delta)
    # e and delta are blocks of the adapted table snapped to its grid, so
    # both residuals carry the snap distance
    snap = mp.adapted_snap
    return {"residuals": {"co_jacobi_residual": worst(co_jacobi, snap),
                          "cocycle_residual": worst(cocycle, snap)},
            "details": {"co_jacobi_worst_triple": list(triple),
                        "cocycle_worst_pair": list(pair)}}


@_register("coboundary", "r_scale_2", ENTRY)
def _check_coboundary(entry: CatalogEntry, tol, corrupted) -> dict:
    rm = entry.r_matrix
    r = 2.0 * rm["route_b"] if corrupted else rm["route_b"]
    resid, x = bi.coboundary_worst_at(entry.mp, r)
    return {"residuals": {"coboundary": resid, "route_difference": rm["difference"],
                          "k_wedge_k0_block_residual": rm["k_wedge_k0_block_residual"]},
            "details": {"route_sign": rm["relative_sign"], "coboundary_worst_basis": x,
                        "coboundary_worst_label": entry.mp.e_space.labels[x]}}


@_register("uniqueness", "uniqueness_drop_b0_rows", ENTRY, tolerance=lambda tol: 0.0)
def _check_uniqueness(entry: CatalogEntry, tol, corrupted) -> dict:
    rep = bi.check_r_uniqueness(entry.mp, entry.torus, svd_tol=tol.svd, drop_b0_rows=corrupted)
    return {"residuals": {key: rep.pop(key) for key in ("kernel_dim", "generation_deficit")},
            "details": rep}


@_register("manin", "gstar_complex_diagonal", ENTRY)
def _check_manin(entry: CatalogEntry, tol, corrupted) -> dict:
    from . import manin as mn
    gprime = entry.gprime_algebra
    gstar = entry.gstar
    if corrupted:   # gstar plus the imaginary traceless diagonal
        mats, labels = list(gstar.realization), list(gstar.space.labels)
        for j in range(entry.p):
            d = np.zeros((entry.p + 1,) * 2, dtype=complex)
            d[j, j], d[j + 1, j + 1] = 1j, -1j
            mats.append(d)
            labels.append(f"iD_{j + 1}")
        gstar = from_realization(labels, mats)
    out = mn.check_manin(entry.gc_algebra, gstar, {"g": entry.g, "gprime": gprime})
    # gprime's table in the (sigma psi, x) basis against +/- that of e
    sign, transport = best_sign(gprime.structure, entry.mp.e_algebra.structure)
    out["residuals"].update({"k0_abelian": mn.gstar_k0_abelian_residual(entry),
                             "gprime_transport": transport,
                             "gprime_block": mn.gprime_block_residual(gprime, entry.mp.dim_c)})
    out["details"]["gprime_transport_sign"] = sign
    return out


@_register("deform", "deform_cocycle_scale_2", ENTRY)
def _check_deform(entry: CatalogEntry, tol, corrupted) -> dict:
    from . import manin as mn
    sign = 2.0 if corrupted else 1.0    # the knob doubles the cocycle of both signs
    # the algebras are cut from the table snapped to its grid, the residuals
    # read the table as computed, so they carry the snap distance
    g_model, exact = entry.model_table
    k = entry.mp.dim_c
    pp_in_k = float(np.max(np.abs(g_model[:k, :k, :k]), initial=0.0))
    plus = mn.deform_bracket(exact, k, +sign)
    resid_plus = float(np.max(np.abs(plus.structure - g_model)))
    eigs = mn.killing_eigenvalues(mn.deform_bracket(exact, k, -sign))
    zero = mn.deform_bracket(exact, k, 0.0)
    resid_zero = float(np.max(np.abs(zero.structure - entry.mp.e_algebra.structure)))
    return {"residuals": {"pp_in_k": pp_in_k, "plus_reproduces_g": resid_plus,
                          "zero_reproduces_e": resid_zero},
            "conditions": {"minus_negative_definite": bool(np.max(eigs) < -tol.algebraic)},
            "details": {"minus_killing_max_eig": float(np.max(eigs))}}


@_register("twist", "twist_scale_2", ENTRY)
def _check_twist(entry: CatalogEntry, tol, corrupted) -> dict:
    from . import manin as mn
    dg, dgp, dgc = entry.gstar_cobrackets
    s, asym = mn.twist_element(entry, scale=tol.twist_inner_scale)
    rep = mn.twist_check(entry, 2.0 * s if corrupted else s, dg, dgp)
    cprime_g = mn.cprime_residual(entry, dg, dgp, +1.0)
    cprime_gc = mn.cprime_residual(entry, dgc, dgp, -1.0)
    # one residual, the co-Jacobi identity over all three cobrackets, each
    # snapped to its grid (integers on the catalog) with the snap distance
    # folded in; the residuals above are measured against them as computed
    co_j = worst(*(worst(bi.co_jacobi_worst_at(exact)[0], snap)
                   for exact, snap in map(snap_dyadic, (dg, dgp, dgc))))
    return {"residuals": {"antisymmetry": asym, **rep, "cprime_g_minus_gprime": cprime_g,
                          "cprime_gc_minus_gprime": cprime_gc, "co_jacobi_all_three": co_j},
            "details": {"inner_scale": tol.twist_inner_scale}}


@_register("semiclassical", "drop_reorder_correction", CIRCLE)
def _check_semiclassical(entry: CatalogEntry, tol, corrupted) -> dict:
    from . import quantize as qu
    alg = qu.CrossedAlgebra(entry.mp,
                            reorder_correction=0.0 if corrupted else 1.0)
    maxdeg, maxmode = (2, 2) if corrupted else (4, 6)
    rep = qu.verify_semiclassical(alg, maxdeg, maxmode)
    cop = qu.Coproduct(alg)
    gens = [alg.t_a(), alg.t_2(), alg.monomial(0, 0, 1), alg.monomial(0, 0, -1)]
    coassoc = worst(*(cop.coassociativity_residual(x) for x in gens))
    hom = worst(*(cop.homomorphism_residual(x, y) for x in gens for y in gens))
    return {"residuals": {"h0": rep["max_h0_residual"],
                          "exact_cases": rep["max_exact_case_residual"],
                          "coproduct_coassociativity": coassoc, "coproduct_homomorphism": hom},
            "samples": rep["pairs"],
            "details": {"maxdeg": maxdeg, "maxmode": maxmode, "worst_pair": rep["worst_pair"]}}


@_register("dual_families", "rho_sign", CIRCLE)
def _check_dual_families(entry: CatalogEntry, tol, corrupted) -> dict:
    resid_rho = rho_intertwiner_residual(rho_sign=-1.0 if corrupted else 1.0)
    dual = np.moveaxis(entry.mp.delta, 0, 2)    # [e*_p, e*_q] = delta[x, p, q] e*_x
    # e-basis is (psi_a = P1, psi_2 = P2, J); reorder duals to (J*, P1*, P2*)
    perm = [2, 0, 1]
    reordered = dual[np.ix_(perm, perm, perm)]
    _, bracket3, _ = e2_dual_bracket_tables()
    scale = 2.0
    resid_scale = float(np.max(np.abs(reordered - scale * bracket3)))
    return {"residuals": {"rho_intertwiner": resid_rho, "dual_vs_family3_residual": resid_scale},
            "details": {"dual_vs_family3_scale": scale}}


# -- conventions report ---------------------------------------------------------


def _su_p1_displayed_bracket_table(entry) -> np.ndarray:
    """The published solvable-part bracket table as c-structure constants."""
    k = entry.mp.dim_c
    e = np.eye(k)
    table = {(0, 1): 2.0 * e[1]}                     # [ya, y2] = 2 y2
    for kk in range(entry.p - 1):
        r_idx, i_idx = 2 + 2 * kk, 3 + 2 * kk
        table[(0, r_idx)] = e[r_idx]                 # [ya, yR_k] = yR_k
        table[(0, i_idx)] = e[i_idx]                 # [ya, yI_k] = yI_k
        table[(r_idx, i_idx)] = 2.0 * e[1]           # [yR_k, yI_k] = 2 y2
    return antisymmetric_table((k, k, k), table)


def _displayed_delta_table(entry) -> list[np.ndarray]:
    """Published delta table on k0 as bivector matrices over the psi basis,
    corrected.

    The display's psi_a ^ psi_2 coefficient in delta(y2*) is 1; the defining
    pairing <delta(psi), y (x) y'> = <psi, [y, y']> forces 2 (both computation
    routes in this package agree), and this table holds 2.  The discrepancy is
    recorded as an erratum in the conventions report."""
    k = entry.mp.dim_c
    out = [np.zeros((k, k)) for _ in range(k)]
    delta_y2 = {(0, 1): 2.0}
    for kk in range(entry.p - 1):
        r_idx, i_idx = 2 + 2 * kk, 3 + 2 * kk
        out[r_idx] = antisymmetric_table((k, k), {(0, r_idx): 1.0})
        out[i_idx] = antisymmetric_table((k, k), {(0, i_idx): 1.0})
        delta_y2[(r_idx, i_idx)] = 2.0
    out[1] = antisymmetric_table((k, k), delta_y2)
    return out


def complex_coordinates(p: int) -> np.ndarray:
    """The map from psi-coordinates of k0 to C^p: w_k = psi^I_k + i psi^R_k
    for k < p, and w_p = psi_2 + i psi_a."""
    to_complex = np.zeros((p, 2 * p), dtype=complex)
    for kk in range(p - 1):
        to_complex[kk, 3 + 2 * kk] = 1.0
        to_complex[kk, 2 + 2 * kk] = 1j
    to_complex[p - 1, 1] = 1.0
    to_complex[p - 1, 0] = 1j
    return to_complex


def _adstar_u_residual(entry) -> float:
    """Ad*_U on k0 ~ C^p equals multiplication by det(U) U, read at the Lie
    algebra: for every basis vector x_j of b = u(p), ad*(x_j) on b0 (the
    transposed mixed block of e's table) equals X_j + tr(X_j) 1 on complex
    coordinates, X_j the top-left p x p block of x_j's matrix.  Both sides
    are representations of the connected group U(p), so agreeing on a basis
    of u(p) is the same statement."""
    mp = entry.mp
    p, k = entry.p, mp.dim_c
    to_complex = complex_coordinates(p)
    # column i of ad*(x_j) on b0 is [x_j, psi^i] = e.structure[k + j, i, :k]
    coad = np.swapaxes(mp.e_algebra.structure[k:, :k, :k], 1, 2)
    x = mp.b_matrix_of(np.eye(mp.dim_b))[:, :p, :p]
    expect = (x + np.trace(x, axis1=1, axis2=2)[:, None, None] * np.eye(p)) @ to_complex
    return worst_at(np.abs(to_complex @ coad - expect))[0]


def _r_display_matrices(entry) -> float:
    """The displayed Cartan projections of the solvable basis match P^C_k y_i."""
    p = entry.p
    n = p + 1
    mp = entry.mp

    # the displayed matrices in matrix units; the other y_i project to 0
    expect = np.zeros((mp.dim_c, n, n), dtype=complex)
    expect[1, p - 1, p - 1], expect[1, n - 1, n - 1] = 1j, -1j
    for kk in range(p - 1):
        expect[2 + 2 * kk, p - 1, kk], expect[2 + 2 * kk, kk, p - 1] = 1.0, -1.0
        expect[3 + 2 * kk, kk, p - 1] = expect[3 + 2 * kk, p - 1, kk] = 1j
    projs = entry.g.matrix_of(mp.y_basis @ entry.cartan.projections["k"].T)
    return worst_at(np.abs(projs - expect))[0]


def conventions_report(entry: CatalogEntry) -> list[dict]:
    """Global-sign and convention findings for every published table this
    package reproduces, machine-verified at report time from the entry's
    tables alone, so they do not depend on the seed or on the checks run."""
    mp = entry.mp
    out = []

    sign, resid = best_sign(mp.c_structure, _su_p1_displayed_bracket_table(entry))
    out.append({"table": "solvable bracket table", "sign": sign, "residual": resid,
                "note": "brackets of (ya, y2, yR_k, yI_k)"})

    k = mp.dim_c
    computed_delta = mp.delta[:k, :k, :k]
    disp = _displayed_delta_table(entry)
    sign_d, resid_d = best_sign(computed_delta, np.array(disp))
    out.append({
        "table": "cobracket table on the annihilator block", "sign": sign_d,
        "residual": resid_d,
        "note": ("erratum: the published psi_a^psi_2 coefficient of delta(y2*) is 1; "
                 "the defining pairing forces 2 (both computation routes agree); "
                 "compared against the corrected table")})

    rm = entry.r_matrix
    out.append({"table": "r-matrix", "sign": rm["relative_sign"],
                "residual": rm["difference"],
                "note": "z.delta(z) versus the Cartan-projection sum formula"})
    out.append({"table": "r-matrix display (matrix units)", "sign": 1.0,
                "residual": _r_display_matrices(entry),
                "note": "displayed Cartan projections of the solvable basis"})

    out.append({"table": "coadjoint action on the annihilator", "sign": 1.0,
                "residual": _adstar_u_residual(entry),
                "note": "Ad*_U acts as det(U) U on complex coordinates"})

    if entry.p == 1:
        # planar e(2) tables
        e_struct = mp.e_algebra.structure
        displayed_e = antisymmetric_table((3, 3, 3), {
            (2, 0): [0.0, 2.0, 0.0],     # displayed [J, P1] = 2 P2
            (2, 1): [-2.0, 0.0, 0.0],    # displayed [J, P2] = -2 P1
        })
        sign_e, resid_e = best_sign(e_struct, displayed_e)
        out.append({"table": "planar bracket table [J,P1],[J,P2]", "sign": sign_e,
                    "residual": resid_e,
                    "note": "published table matches with one global sign flip"})

        xt_resid = _xtilde_table_residual(entry)
        out.append({"table": "planar linear coordinate functions", "sign": None,
                    "residual": xt_resid,
                    "note": ("displayed values match <v, Ad_{a^{-1}} y>, while the "
                             "bivector correspondence pins <v, Ad_a y>; recorded, not an error")})
        out.append({"table": "dual bracket vs family-3 table", "sign": 1.0,
                    "residual": rho_intertwiner_residual(),
                    "note": "this cobracket dualizes to 2x the family-3 bracket"})

    out.append({"table": "quantization conventions", "sign": None, "residual": 0.0,
                "note": ("self-adjointness factor i dropped: [t_y, f] = X'_y(f); "
                         "coproduct twist uses the group action itself (the inverse "
                         "fails multiplicativity); deformation parameter is formal")})
    out.append({"table": "involution extension", "sign": None, "residual": 0.0,
                "note": ("Cartan involution extended conjugate-linearly (compact-form "
                         "conjugation x -> -x*); the complex-linear extension fixes "
                         "the annihilator block and cannot give a Manin complement")})
    return out


def _xtilde_table_residual(entry) -> float:
    """ytilde(v, a) = <v, Ad_{a^{-1}} y> reproduces the displayed planar
    table, read at the Lie algebra.  At a = exp(phi x), x the generator of
    b, the display gives the values at (P1, P2) of (y_a, y_2) as the
    rotation by 2 phi, and <psi^v, Ad_{a^{-1}} y_i> is entry (v, i) of
    exp(-phi A), A the c-block of ad(x): Ad preserves b, so the c-block of
    Ad(exp(-phi x)) is the exponential of -phi A.  Both sides are
    one-parameter groups of U(1); they agree at every phi exactly when their
    generators do, -A = d/dphi R(2 phi) at 0 = [[0, -2], [2, 0]]."""
    m = entry.mp.dim_b
    # A[v, i] = <psi^v, [x, y_i]>, entry (x, y_i, y_v) of the adapted table
    generator = -entry.mp.adapted[0, m:, m:].T
    return worst_at(np.abs(generator - np.array([[0.0, -2.0], [2.0, 0.0]])))[0]
