import contextlib
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from poissonlie.catalog import get_entry, su11, supq1
from poissonlie.checks import (CIRCLE, REGISTRY, _r_display_matrices, _xtilde_table_residual,
                               applicable_checks, run_check)
from poissonlie.config import DEFAULT_TOL
from poissonlie.matched import MatchedPair
from references import r_display_residual_loop, xtilde_table_residual_at_angles


def test_registry_scopes():
    su11, su21 = get_entry("su11"), get_entry("su21")
    assert applicable_checks(su11) == list(REGISTRY)
    assert applicable_checks(su21) == [n for n in REGISTRY
                                       if n not in ("semiclassical", "dual_families")]
    assert applicable_checks(su21.mp) == ["jacobi", "invariance", "cocycle",
                                          "delta_consistency", "bialgebra_axioms"]
    knobs = {c.knob for c in REGISTRY.values()}
    assert len(knobs) == len(REGISTRY)


def test_run_check_refuses_inapplicable_target():
    doc = get_entry("su11").mp.to_json_dict()
    del doc["algebra"]["realization"]
    bare = MatchedPair.from_json_dict(doc)
    with pytest.raises(ValueError, match="does not apply"):
        run_check("cocycle", bare, 1, 0, DEFAULT_TOL)
    with pytest.raises(ValueError, match="does not apply"):
        run_check("coboundary", get_entry("su11").mp, 1, 0, DEFAULT_TOL)


def test_nan_sample_residual_fails_the_check(monkeypatch):
    # max(0.0, nan) is 0.0: a plain max accumulator would report a pass
    monkeypatch.setattr(MatchedPair, "invariance_residual", lambda self, a: float("nan"))
    rep = run_check("invariance", get_entry("su21"), 3, 0, DEFAULT_TOL)
    assert math.isnan(rep["max_residual"])
    assert rep["pass"] is False


def test_fd_step_reaches_delta_consistency():
    entry = get_entry("su11")
    base = run_check("delta_consistency", entry, 1, 0, DEFAULT_TOL)
    coarse = run_check("delta_consistency", entry, 1, 0,
                       replace(DEFAULT_TOL, fd_step=1e-2))
    assert base["pass"]
    assert coarse["max_residual"] != base["max_residual"]


def test_bialgebra_axioms_report_names_its_worst_co_jacobi_triple():
    from poissonlie.bialgebra import co_jacobi_worst_at, delta_direct

    entry = get_entry("su21")
    details = run_check("bialgebra_axioms", entry, 0, 0, DEFAULT_TOL)["details"]
    resid, triple = co_jacobi_worst_at(delta_direct(entry.mp))
    assert details["co_jacobi_residual"] == resid
    assert details["co_jacobi_worst_triple"] == list(triple)


@pytest.mark.parametrize("name", ["su21", "su41"])
def test_bialgebra_axioms_report_names_its_worst_cocycle_pair(name):
    entry = get_entry(name)
    clean = run_check("bialgebra_axioms", entry, 0, 0, DEFAULT_TOL)["details"]
    assert clean["cocycle_residual"] == 0.0 and clean["cocycle_worst_pair"] == [0, 1]
    rep = run_check("bialgebra_axioms", entry, 0, 0, DEFAULT_TOL,
                    corrupt="delta_sign_one_basis")
    i, j = rep["details"]["cocycle_worst_pair"]
    assert i < j
    # the residual of that pair, from the definition, under the same knob
    c, delta = entry.mp.e_algebra.structure, entry.mp.delta.copy()
    delta[np.argmax(np.abs(delta).max(axis=(1, 2)) > DEFAULT_TOL.algebraic)] *= -1.0
    act = [c[x].T @ delta[y] + delta[y] @ c[x] for x, y in ((i, j), (j, i))]
    at = np.max(np.abs(np.tensordot(c[i, j], delta, axes=1) - act[0] + act[1]))
    assert at == rep["details"]["cocycle_residual"] > 1.0


def _off_grid(fn, at: tuple[int, int, int], only=None):
    """`fn` with its table 1e-12 off the grid at the entry `at`, kept
    antisymmetric in the pair of indices the table is antisymmetric in: the
    first two of a structure table, the last two of a cobracket
    delta[x, p, q] (with `only`, only the cobracket of that half)."""
    def wrapped(first, *args):
        out = fn(first, *args).copy()
        i, j, l = at
        if not args:
            out[i, j, l] += 1e-12
            out[j, i, l] -= 1e-12
        elif only is None or args[0] is only:
            out[i, j, l] += 1e-12
            out[i, l, j] -= 1e-12
        return out
    return wrapped


@pytest.mark.parametrize("check, patched, at, g_only, criterion", [
    ("deform", "g_structure_in_model_basis", (-2, -1, -1), False, "plus_reproduces_g"),
    ("deform", "g_structure_in_model_basis", (0, 1, 0), False, "pp_in_k"),
    ("twist", "cobracket_on_gstar", (0, 0, 1), True, None),
    ("twist", "cobracket_on_gstar", (0, 0, 1), False, "co_jacobi_all_three"),
])
def test_a_snapped_deviation_shows_under_a_tight_tolerance(monkeypatch, tmp_path, fresh_catalog,
                                                           check, patched, at, g_only, criterion):
    # the model table, in its [x, x] block or in the u-part of [u, u] that the
    # model leaves out, or the twist cobrackets on g*, 1e-12 off their grid:
    # the algebras and co-Jacobi tables are built from them snapped, but every
    # residual is measured against the table as computed, or carries the snap
    # distance, so the check passes at the default tolerance and fails under
    # --tol-algebraic 1e-13
    from poissonlie import cli, manin

    only = get_entry("su41").g if g_only else None
    monkeypatch.setattr(manin, patched, _off_grid(getattr(manin, patched), at, only))
    path = tmp_path / "r.json"
    assert cli.main(["verify", "su41", "--checks", check, "--out", str(path)]) == 0
    assert cli.main(["verify", "su41", "--checks", check, "--tol-algebraic", "1e-13",
                     "--out", str(path)]) == 1
    rep, = json.loads(path.read_text())["results"]
    assert rep["pass"] is False and 5e-13 < rep["max_residual"] < 5e-12
    if criterion is not None:
        assert rep["worst_criterion"] == criterion
    else:   # delta_g alone moved: the residuals that read it see the deviation
        assert rep["details"]["twist_relation"] > 5e-13
        assert rep["details"]["cprime_g_minus_gprime"] > 5e-13


def test_jacobi_report_names_its_worst_triple():
    entry = get_entry("su21")
    rep = run_check("jacobi", entry, 1, 0, DEFAULT_TOL, corrupt="jacobi_perturb_constant")
    assert rep["pass"] is False
    i, j, k = rep["details"]["worst_triple"]
    c = entry.g.structure.copy()
    c[0, 1, :] += 1e-3
    c[1, 0, :] -= 1e-3
    at = np.max(np.abs(c[i, j] @ c[:, k] + c[j, k] @ c[:, i] + c[k, i] @ c[:, j]))
    assert at == pytest.approx(rep["max_residual"], rel=1e-13)


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41"])
def test_delta_sign_knob_trips_bialgebra_axioms(name):
    # the knob flips a basis vector whose cobracket is nonzero; on su31 and
    # su41 the cobracket of the first b-basis vector vanishes
    rep = run_check("bialgebra_axioms", get_entry(name), 0, 0, DEFAULT_TOL,
                    corrupt="delta_sign_one_basis")
    assert rep["pass"] is False
    assert rep["details"]["cocycle_residual"] > 1.0


#: pairs past su11 for the negative controls: the named catalog and the first
#: su(p,1) past it
CONTROL_PAIRS = ("su21", "su31", "su41", "supq1(5)")


@pytest.fixture(scope="module")
def control_entries():
    return {name: supq1(5) if name == "supq1(5)" else get_entry(name) for name in CONTROL_PAIRS}


#: check -> the sub-criterion its knob trips: a residual within tolerance on
#: the clean pair and above it under the knob, or a condition that turns false
KNOB_CRITERIA = {
    "jacobi": "jacobi",
    "invariance": "invariance",
    "cocycle": "cocycle",
    "delta_consistency": "delta_consistency",
    "bialgebra_axioms": "cocycle_residual",
    "coboundary": "coboundary",
    "uniqueness": "kernel_dim",
    "manin": "isotropy_gstar",
    "deform": "plus_reproduces_g",
    "twist": "twist_relation",
    "semiclassical": "h0",
    "dual_families": "rho_intertwiner",
}


def _assert_knob_trips_its_criterion(name, entry):
    criterion = KNOB_CRITERIA[name]
    clean = run_check(name, entry, 20, 1, DEFAULT_TOL)
    rep = run_check(name, entry, 20, 1, DEFAULT_TOL, corrupt=REGISTRY[name].knob)
    assert clean["pass"] is True and rep["pass"] is False
    before, after = clean["details"][criterion], rep["details"][criterion]
    if isinstance(before, bool):
        assert before is True and after is False
    else:
        assert before <= clean["tolerance"] < after, (criterion, before, after)


@pytest.mark.parametrize("pair", ("su11",) + CONTROL_PAIRS)
def test_r_display_row_equals_the_per_vector_loop(control_entries, pair):
    entry = get_entry(pair) if pair == "su11" else control_entries[pair]
    assert _r_display_matrices(entry) == r_display_residual_loop(entry) <= 1e-12


def test_planar_coordinate_row_is_read_at_the_lie_algebra():
    # exact at the Lie algebra; the group at three angles agrees to rounding
    entry = su11()
    assert _xtilde_table_residual(entry) == 0.0
    assert xtilde_table_residual_at_angles(entry) <= 1e-15
    # the generator with the wrong sign, or its c-block transposed, reads 4
    mp, m = entry.mp, entry.mp.dim_b
    table = mp.adapted
    for block in (-table[0, m:, m:], table[0, m:, m:].T):
        mp.adapted = table.copy()
        mp.adapted[0, m:, m:] = block
        assert _xtilde_table_residual(entry) == 4.0


def test_conventions_report_exponentiates_nothing(monkeypatch, tmp_path):
    from poissonlie import cli

    def refuse(*args):
        raise AssertionError("exp_b called")

    for name, module in list(sys.modules.items()):
        if name.startswith("poissonlie") and hasattr(module, "exp_b"):
            monkeypatch.setattr(module, "exp_b", refuse)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "su11", "--checks", "jacobi", "--out", str(tmp_path / "r.json")])
    assert code == 0


@pytest.mark.parametrize("pair", CONTROL_PAIRS)
def test_gstar_knob_fails_manin_with_the_form_invariance_at_zero(control_entries, pair):
    # the sparse form invariance reads the same g_C under the knob, which
    # enlarges g* only; the knob fails manin at its own sub-criterion
    rep = run_check("manin", control_entries[pair], 20, 1, DEFAULT_TOL,
                    corrupt="gstar_complex_diagonal")
    assert rep["pass"] is False and rep["details"]["form_invariance"] == 0.0
    assert rep["details"][KNOB_CRITERIA["manin"]] > rep["tolerance"]


@pytest.mark.parametrize("pair", CONTROL_PAIRS)
@pytest.mark.parametrize("name", [c.name for c in REGISTRY.values() if c.scope != CIRCLE])
def test_every_knob_fails_its_check_on_every_pair(control_entries, pair, name):
    # the check passes on the pair, and its own knob makes it fail through its
    # own sub-criterion; the circle-only checks are covered on su11
    _assert_knob_trips_its_criterion(name, control_entries[pair])


@pytest.mark.parametrize("name", [c.name for c in REGISTRY.values() if c.scope == CIRCLE])
def test_circle_knobs_trip_their_criterion(name):
    _assert_knob_trips_its_criterion(name, get_entry("su11"))


@pytest.mark.parametrize("pair", ["su21", "su31", "su41"])
def test_witnesses_name_the_worst_basis_vector_under_the_knobs(control_entries, pair):
    # r_scale_2 leaves delta - 2 delta = -delta, so the coboundary residual of
    # e_x is max |delta(e_x)|; delta_b0_sign doubles the b0 block, so the
    # consistency residual is 2 max |delta(e_x)| on the b0 block (psi[y2] on
    # su(p,1): <psi[y2], [y_i, y_j]> reaches 2)
    entry = control_entries[pair]
    mp = entry.mp
    k = mp.dim_c
    per_basis = np.abs(mp.delta).max(axis=(1, 2))
    b0_block = np.abs(mp.delta[:k, :k, :k]).max(axis=(1, 2))
    for check, knob, want, value in (
            ("coboundary", "r_scale_2", int(np.argmax(per_basis)), per_basis.max()),
            ("delta_consistency", "delta_b0_sign", int(np.argmax(b0_block)), 2 * b0_block.max())):
        rep = run_check(check, entry, 0, 1, DEFAULT_TOL, corrupt=knob)
        details = rep["details"]
        assert details[f"{check}_worst_basis"] == want
        assert details[f"{check}_worst_label"] == mp.e_space.labels[want]
        assert details[check] == pytest.approx(value, rel=1e-6)
    assert mp.e_space.labels[int(np.argmax(b0_block))] == "psi[y2]"


def test_coboundary_fails_when_the_r_matrix_routes_disagree(monkeypatch, fresh_catalog):
    # route A doubled: the two routes to r differ by 1.0 while route B, the one
    # the coboundary residual uses, is intact
    from poissonlie import bialgebra

    real = bialgebra.r_matrix

    def doubled(entry):
        out = real(entry)
        out["route_a"] = 2.0 * out["route_a"]
        out["difference"] = float(np.max(np.abs(out["route_a"] - out["route_b"])))
        return out

    monkeypatch.setattr(bialgebra, "r_matrix", doubled)
    rep = run_check("coboundary", get_entry("su21"), 0, 0, DEFAULT_TOL)
    assert rep["pass"] is False
    assert rep["details"]["route_difference"] == pytest.approx(1.0)
    assert rep["max_residual"] == rep["details"]["route_difference"]
    assert rep["worst_criterion"] == "route_difference"
    assert rep["details"]["coboundary"] <= rep["tolerance"]


@pytest.mark.parametrize("algebraic", [1e-9, 1.0])
def test_deform_negative_definiteness_holds_at_any_tolerance(monkeypatch, algebraic):
    # a Killing form of the wrong sign fails the check however loose the
    # tolerance on the residuals
    from poissonlie import manin

    real = manin.killing_eigenvalues
    monkeypatch.setattr(manin, "killing_eigenvalues", lambda alg: -real(alg))
    rep = run_check("deform", get_entry("su21"), 0, 0,
                    replace(DEFAULT_TOL, algebraic=algebraic))
    assert rep["pass"] is False
    assert rep["details"]["minus_negative_definite"] is False
    assert rep["max_residual"] <= rep["tolerance"]
    assert rep["worst_criterion"] == "minus_negative_definite"


@pytest.mark.parametrize("algebraic", [1.0, 1e3])
def test_manin_complementarity_holds_at_any_tolerance(algebraic):
    # the knob's extra diagonal leaves no complement; above the isotropy
    # residual's 2.0 that condition alone fails the check
    rep = run_check("manin", get_entry("su21"), 0, 0,
                    replace(DEFAULT_TOL, algebraic=algebraic),
                    corrupt="gstar_complex_diagonal")
    assert rep["details"]["complementary_g"] is False
    assert rep["details"]["complementary_gprime"] is False
    assert rep["worst_criterion"] == "complementary_g"
    assert rep["pass"] is False


def test_nan_residual_is_named_before_a_failing_condition(monkeypatch):
    from poissonlie import manin

    monkeypatch.setattr(manin, "gstar_k0_abelian_residual", lambda entry: float("nan"))
    rep = run_check("manin", get_entry("su21"), 0, 0, DEFAULT_TOL,
                    corrupt="gstar_complex_diagonal")
    assert math.isnan(rep["max_residual"])
    assert rep["worst_criterion"] == "k0_abelian"
    assert rep["pass"] is False


def test_jacobi_check_reads_the_stored_contraction(monkeypatch):
    # g's Jacobiator is contracted once, when g is built; only the knob's
    # corrupted copy is contracted again
    from poissonlie import checks

    entry = get_entry("su21")

    def refuse(structure):
        raise AssertionError("contracted again")

    monkeypatch.setattr(checks, "jacobi_worst_at", refuse)
    rep = run_check("jacobi", entry, 0, 0, DEFAULT_TOL)
    assert rep["pass"] and rep["max_residual"] == entry.g.jacobi[0] == 0.0
    assert rep["details"]["worst_triple"] == list(entry.g.jacobi[1])
    with pytest.raises(AssertionError, match="contracted again"):
        run_check("jacobi", entry, 0, 0, DEFAULT_TOL, corrupt="jacobi_perturb_constant")
