import math

import numpy as np
import pytest

from poissonlie.catalog import get_entry, supq1
from poissonlie.checks import CIRCLE, REGISTRY, applicable_checks, run_check
from poissonlie.config import DEFAULT_TOL
from poissonlie.linalg import Rng
from poissonlie.matched import MatchedPair


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
        run_check("cocycle", bare, 1, Rng(0), DEFAULT_TOL)
    with pytest.raises(ValueError, match="does not apply"):
        run_check("coboundary", get_entry("su11").mp, 1, Rng(0), DEFAULT_TOL)


def test_nan_sample_residual_fails_the_check(monkeypatch):
    # max(0.0, nan) is 0.0: a plain max accumulator would report a pass
    monkeypatch.setattr(MatchedPair, "invariance_residual", lambda self, a: float("nan"))
    rep = run_check("invariance", get_entry("su21"), 3, Rng(0), DEFAULT_TOL)
    assert math.isnan(rep["max_residual"])
    assert rep["pass"] is False


def test_fd_step_reaches_delta_consistency():
    entry = get_entry("su11")
    base = run_check("delta_consistency", entry, 1, Rng(0), DEFAULT_TOL)
    coarse = run_check("delta_consistency", entry, 1, Rng(0),
                       DEFAULT_TOL.override(fd_step=1e-2))
    assert base["pass"]
    assert coarse["max_residual"] != base["max_residual"]


def test_bialgebra_axioms_report_names_its_worst_co_jacobi_triple():
    from poissonlie.bialgebra import co_jacobi_worst_at, delta_direct

    entry = get_entry("su21")
    details = run_check("bialgebra_axioms", entry, 0, Rng(0), DEFAULT_TOL)["details"]
    resid, triple = co_jacobi_worst_at(delta_direct(entry.mp))
    assert details["co_jacobi_residual"] == resid
    assert details["co_jacobi_worst_triple"] == list(triple)


def test_jacobi_report_names_its_worst_triple():
    entry = get_entry("su21")
    rep = run_check("jacobi", entry, 1, Rng(0), DEFAULT_TOL, corrupt="jacobi_perturb_constant")
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
    rep = run_check("bialgebra_axioms", get_entry(name), 0, Rng(0), DEFAULT_TOL,
                    corrupt="delta_sign_one_basis")
    assert rep["pass"] is False
    assert rep["details"]["cocycle_residual"] > 1.0


#: pairs past su11 for the negative controls: the named catalog and the first
#: su(p,1) past it
CONTROL_PAIRS = ("su21", "su31", "su41", "supq1(5)")


@pytest.fixture(scope="module")
def control_entries():
    return {name: supq1(5) if name == "supq1(5)" else get_entry(name) for name in CONTROL_PAIRS}


@pytest.mark.parametrize("pair", CONTROL_PAIRS)
@pytest.mark.parametrize("name", [c.name for c in REGISTRY.values() if c.scope != CIRCLE])
def test_every_knob_fails_its_check_on_every_pair(control_entries, pair, name):
    # the check passes on the pair, and its own knob makes it fail with a
    # residual above its tolerance; the circle-only checks are covered on su11
    entry = control_entries[pair]
    knob = REGISTRY[name].knob
    assert run_check(name, entry, 20, Rng(1), DEFAULT_TOL)["pass"] is True
    rep = run_check(name, entry, 20, Rng(1), DEFAULT_TOL, corrupt=knob)
    assert rep["pass"] is False
    assert rep["max_residual"] > rep["tolerance"], rep["max_residual"]
