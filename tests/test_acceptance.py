"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from poissonlie.bialgebra import (check_r_uniqueness, coboundary_worst_at,
                                  delta_consistency_worst_at, r_matrix)
from poissonlie.catalog import get_entry, su11, supq1
from poissonlie.checks import REGISTRY, applicable_checks, run_check
from poissonlie.config import DEFAULT_TOL
from poissonlie.group import adE
from poissonlie.linalg import worst as linalg_worst
from poissonlie.manin import (build_gc_algebra, check_manin, deform_bracket,
                              g_structure_in_model_basis, gprime_algebra,
                              gstar_k0_abelian_residual, killing_eigenvalues)
from poissonlie.poisson import eta0
from poissonlie.quantize import Coproduct, CrossedAlgebra, verify_semiclassical
from references import (BaseFn, LinearFn, TrigPoly, adE_fd, e2_plus_brackets, eta_alternative,
                        poisson_bracket, sample_e_element, twist_check_of)

MAIN_PAIRS = ("su11", "su21", "su31")
ALL_PAIRS = ("su11", "su21", "su31", "su41")


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_cocycle_multiplicativity():
    t0 = time.perf_counter()
    worst = 0.0
    for name in MAIN_PAIRS:
        rep = run_check("cocycle", get_entry(name).mp, 1000, 42, DEFAULT_TOL)
        worst = linalg_worst(worst, rep["max_residual"])
        assert rep["max_residual"] <= 1e-9, name
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-9 and elapsed < 10.0,
           f"multiplicative cocycle, 1000 samples x 3 pairs: residual "
           f"{worst:.2e} <= 1e-9 (scaled), {elapsed:.1f}s < 10s")


def test_criterion_02_eta_expansion_identity():
    worst = 0.0
    for name in MAIN_PAIRS:
        mp = get_entry(name).mp
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = sample_e_element(mp, rng)
            worst = max(worst, float(np.max(np.abs(eta0(mp, g) - eta_alternative(mp, g)))))
    report(2, worst <= 1e-9,
           f"eta0 equals its projection expansion on 200 samples/pair: {worst:.2e} <= 1e-9")


def test_criterion_03_adjoint_fd_oracle():
    worst = 0.0
    for name in MAIN_PAIRS:
        mp = get_entry(name).mp
        rng = np.random.default_rng(42)
        for _ in range(100):
            g = sample_e_element(mp, rng)
            worst = max(worst, float(np.max(np.abs(adE(g) - adE_fd(g)))))
    report(3, worst <= 1e-6,
           f"adjoint of E vs finite-difference conjugation, 100 samples/pair: "
           f"{worst:.2e} <= 1e-6")


def test_criterion_04_planar_bracket_reproduction():
    mp = su11().mp
    worst = 0.0
    lin = poisson_bracket(mp, LinearFn.make([1, 0]), LinearFn.make([0, 1]))
    worst = max(worst, float(np.max(np.abs(np.array(lin.y) - [0, 2]))))
    e_phi = BaseFn(TrigPoly.mode(1))
    br_a = poisson_bracket(mp, LinearFn.make([1, 0]), e_phi).f
    worst = max(worst, br_a.residual(TrigPoly({3: 0.5, -1: -0.5})))
    br_2 = poisson_bracket(mp, LinearFn.make([0, 1]), e_phi).f
    worst = max(worst, br_2.residual(TrigPoly({1: 1j, 3: -0.5j, -1: -0.5j})))
    table = e2_plus_brackets(mp)
    worst = max(worst, float(np.max(np.abs(np.array(table["lin_lin"].y) - [0, 2]))))
    worst = max(worst, table["a_base_theta"].residual(TrigPoly({2: 1.0, 0: -1.0})))
    worst = max(worst, table["two_base_theta"].residual(TrigPoly({1: 2j, 2: -1j, 0: -1j})))
    assert table["omega"] == -2.0 and table["relabel"] == {"V1": ("-", "ya"),
                                                           "V2": ("+", "y2")}
    report(4, worst <= 1e-12,
           f"planar bracket tables incl. the omega=-2 form, exact trig identities: "
           f"{worst:.2e} <= 1e-12")


def test_criterion_05_coboundary_property():
    worst = 0.0
    route_gap = 0.0
    signs = []
    for name in MAIN_PAIRS:
        entry = get_entry(name)
        rm = r_matrix(entry)
        route_gap = max(route_gap, rm["difference"])
        signs.append(rm["relative_sign"])
        worst = linalg_worst(worst, coboundary_worst_at(entry.mp, rm["route_b"])[0])
    rm = r_matrix(su11())
    expect = np.zeros((3, 3))
    expect[2, 1], expect[1, 2] = 1.0, -1.0
    planar = float(np.max(np.abs(rm["route_b"] - expect)))
    ok = worst <= 1e-9 and route_gap <= 1e-9 and planar <= 1e-12
    report(5, ok,
           f"coboundary delta = [r, Delta .]: residual {worst:.2e} <= 1e-9; "
           f"routes agree to {route_gap:.2e} (recorded signs {signs}); "
           f"planar r = J^P2 exactly ({planar:.2e})")


def test_criterion_06_delta_two_routes_all_pairs():
    worst = 0.0
    for name in ALL_PAIRS:
        mp = get_entry(name).mp
        worst = max(worst, delta_consistency_worst_at(mp, mp.delta)[0])
    report(6, worst <= 1e-6,
           f"cobracket by formula vs by differentiating the cocycle, every basis "
           f"vector of every catalog pair: {worst:.2e} <= 1e-6")


def test_criterion_07_su_p1_reproduction():
    from poissonlie.checks import _displayed_delta_table, _su_p1_displayed_bracket_table
    from references import adstar_u_sampled_residual
    from poissonlie.linalg import best_sign

    worst = 0.0
    erratum_confirmed = True
    for p in (2, 3):
        entry = supq1(p)
        sign_b, resid_b = best_sign(entry.mp.c_structure,
                                    _su_p1_displayed_bracket_table(entry))
        worst = max(worst, resid_b)
        # dual-basis display: matrix representatives against solved coordinates
        for i, psi_mat in enumerate(entry.psi_mats):
            coords = np.array([np.trace(psi_mat @ m).imag for m in entry.g.realization])
            worst = max(worst, float(np.max(np.abs(coords - entry.mp.psi_basis[i]))))
        # cobracket table: corrected display (coefficient 2, see conventions
        # report erratum); confirm the only discrepancy vs the raw display is
        # exactly that factor two on one entry
        k = entry.mp.dim_c
        computed = entry.mp.delta[:k, :k, :k]
        corrected = np.array(_displayed_delta_table(entry))
        sign_d, resid_d = best_sign(computed, corrected)
        worst = max(worst, resid_d)
        # the published table: coefficient 1 on psi_a ^ psi_2 in delta(y2*)
        raw = corrected.copy()
        raw[1, 0, 1], raw[1, 1, 0] = 1.0, -1.0
        diff = computed - sign_d * raw
        expected_gap = np.zeros_like(raw)
        expected_gap[1, 0, 1], expected_gap[1, 1, 0] = 1.0, -1.0
        erratum_confirmed &= bool(np.max(np.abs(diff - sign_d * expected_gap)) <= 1e-9)
        worst = max(worst, adstar_u_sampled_residual(entry, np.random.default_rng(42)))
    report(7, worst <= 1e-9 and erratum_confirmed,
           f"su(p,1) tables for p=2,3 (brackets, duals, cobracket with recorded "
           f"factor-2 erratum on one displayed entry, coadjoint det(U)U action): "
           f"{worst:.2e} <= 1e-9")


def test_criterion_08_r_uniqueness():
    dims, deficits = [], []
    for name in ALL_PAIRS:
        entry = get_entry(name)
        rep = check_r_uniqueness(entry.mp, entry.torus, svd_tol=1e-8)
        dims.append(rep["kernel_dim"])
        deficits.append(rep["generation_deficit"])
    report(8, all(d == 0 for d in dims + deficits),
           f"invariant-kernel dimensions (SVD threshold 1e-8) all zero: {dims}; "
           f"the two generators span e on every pair (deficits {deficits})")


def test_criterion_09_manin_content():
    worst = 0.0
    ok = True
    for p in (1, 2, 3):
        entry = supq1(p)
        worst = linalg_worst(worst, gstar_k0_abelian_residual(entry))
        rep = check_manin(build_gc_algebra(entry), entry.gstar,
                          {"g": entry.g, "gprime": gprime_algebra(entry)})
        worst = linalg_worst(worst, *rep["residuals"].values())
        ok = ok and all(rep["conditions"].values())
        model = g_structure_in_model_basis(entry)
        k = entry.mp.dim_c
        plus = deform_bracket(model, k, +1.0)
        worst = linalg_worst(worst, float(np.max(np.abs(model[:k, :k, :k]))),
                             float(np.max(np.abs(plus.structure - model))))
        minus = deform_bracket(model, k, -1.0)
        ok = ok and bool(np.max(killing_eigenvalues(minus)) < 0)
    for p in (1, 2):
        rep = twist_check_of(supq1(p))
        worst = linalg_worst(worst, rep["antisymmetry"], rep["maurer_cartan"],
                             rep["twist_relation"])
    report(9, ok and worst <= 1e-9,
           f"dual-block commutativity, both Manin triples (p=1,2,3), bracket "
           f"deformations to g and the compact form, twist equation (p=1,2): "
           f"{worst:.2e} <= 1e-9")


def test_criterion_10_semiclassical_and_coproduct():
    t0 = time.perf_counter()
    alg = CrossedAlgebra(su11().mp)
    rep = verify_semiclassical(alg, 4, 6)
    cop = Coproduct(alg)
    gens = [alg.t_a(), alg.t_2(), alg.monomial(0, 0, 1), alg.monomial(0, 0, -1)]
    coassoc = max(cop.coassociativity_residual(x) for x in gens)
    hom = max(cop.homomorphism_residual(x, y) for x in gens for y in gens)
    rng = np.random.default_rng(42)

    def rand_elem():
        terms = {}
        for _ in range(2):
            key = (int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                   int(rng.integers(-2, 3)))
            terms[key] = complex(rng.standard_normal(), rng.standard_normal())
        return alg.element(terms)

    for _ in range(50):
        x = rand_elem()
        coassoc = max(coassoc, cop.coassociativity_residual(x)
                      / (1.0 + cop.apply(x).max_abs()))
    for _ in range(10):
        x, y = rand_elem(), rand_elem()
        hom = max(hom, cop.homomorphism_residual(x, y)
                  / (1.0 + cop.apply(x.mul(y)).max_abs()))
    elapsed = time.perf_counter() - t0
    ok = (rep["max_h0_residual"] <= 1e-12 and rep["max_exact_case_residual"] == 0.0
          and coassoc <= 1e-9 and hom <= 1e-9 and elapsed < 30.0)
    report(10, ok,
           f"leading-order commutator identity to degree 4 / mode 6 over "
           f"{rep['pairs']} pairs (h0 {rep['max_h0_residual']:.1e}, linear cases "
           f"exact), coproduct coassociativity {coassoc:.1e} and multiplicativity "
           f"{hom:.1e} <= 1e-9, {elapsed:.1f}s < 30s")


def test_criterion_11_negative_controls():
    entry = su11()
    failures = {}
    for check in REGISTRY.values():
        assert check.name in applicable_checks(entry)
        rep = run_check(check.name, entry, 20, 1, DEFAULT_TOL, corrupt=check.knob)
        failures[check.knob] = (not rep["pass"]) and rep["max_residual"] > 1e-3
    report(11, all(failures.values()),
           "every suite fails (residual > 1e-3) under its documented corruption "
           f"knob: {sum(failures.values())}/{len(failures)} knobs effective")


def test_criterion_12_deterministic_reports(tmp_path):
    cmd = [sys.executable, "-m", "poissonlie.cli", "verify", "su11",
           "--checks", "cocycle,invariance,delta_consistency,coboundary",
           "--samples", "60", "--seed", "2718"]
    payloads = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        out = subprocess.run(cmd + ["--out", str(path)], capture_output=True, text=True)
        assert out.returncode == 0
        raw = path.read_text()
        payloads.append(re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", raw, flags=re.M))
    report(12, payloads[0] == payloads[1],
           "two runs with identical config and seed produce byte-identical "
           "reports apart from the timestamp field")


def test_reports_embed_required_metadata(tmp_path):
    # supporting requirement: version, PRNG, exponential method, tolerances and
    # the conventions report are embedded in every run report, and every result
    # has the same keys, its failing sub-criterion named among its details
    path = tmp_path / "meta.json"
    out = subprocess.run([sys.executable, "-m", "poissonlie.cli", "verify", "su11",
                          "--checks", "jacobi", "--out", str(path)],
                         capture_output=True, text=True)
    assert out.returncode == 0
    doc = json.loads(path.read_text())
    assert doc["meta"]["version"]
    assert doc["meta"]["prng"] == "numpy PCG64; per call: all v, all word lengths, all factors"
    assert "Pade" in doc["meta"]["exp_method"]
    assert set(doc["meta"]["tolerances"]) == {"algebraic", "fd", "fd_step", "svd",
                                              "twist_inner_scale"}
    tables = {c["table"] for c in doc["conventions"]}
    assert "r-matrix" in tables and "quantization conventions" in tables
    result, = doc["results"]
    assert set(result) == {"check", "samples", "corrupted", "tolerance", "pass",
                           "max_residual", "worst_criterion", "details"}
    assert result["worst_criterion"] in result["details"]
