"""Stacked group sampling against one-element-at-a-time references.

The references below are the per-element loops the stacked code replaced: a
word of `exp_b` factors multiplied one by one, Ad by conjugation and a
least-squares solve per element, the eta_b loop over the y-basis, the adE
mixed-block loop over the b-basis, and the per-sample cocycle and invariance
loops.  Their random numbers come straight from numpy's PCG64 in the stated
draw order (`ref_draw`).  They live only here."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from poissonlie import group
from poissonlie.catalog import get_entry, su11, supq1
from poissonlie.checks import run_check, sampled_pass
from poissonlie.config import DEFAULT_TOL
from poissonlie.group import (SAMPLE_BLOCK, EElement, GroupElement, _ad_chunk, _adjoint, adE,
                              e_mul, exp_b, sample_pairs)
from poissonlie.linalg import expm
from poissonlie.matched import MatchedPair
from poissonlie.poisson import eta, eta0, eta_b
from references import (ad_of_inverse, change_of_basis, coad, coad_matrix_coords, e_inv,
                        g_coordinate_tables, gstar_to_b0, identity_element, inverse_element,
                        ref_adjoint, sample_e_element, sample_e_elements, sample_group_matrices,
                        take)


def matrix_from_json_dict(doc) -> np.ndarray:
    """The matrix serialized in a report witness."""
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def e_element_from_json_dict(mp, doc) -> EElement:
    """The point of E serialized in a report witness."""
    return EElement(mp, np.asarray(doc["v"], dtype=float),
                    GroupElement(mp, matrix_from_json_dict(doc["a"])))


PAIRS = ("su21", "su31")
#: the pairs of the Ad tests: su41's stacks are the sampled checks' largest
AD_PAIRS = PAIRS + ("su41",)


@pytest.fixture(scope="module", params=PAIRS)
def mp(request):
    return get_entry(request.param).mp


# -- references -------------------------------------------------------------


def ref_draw(mp, seed, count, radius=None, max_word=3):
    """`count` elements from numpy's PCG64 at `seed` in the stated draw order:
    all v (with a radius), then all word lengths, then all factors.  Returns
    the v stack or None, the matrices, each word's `exp_b` factors multiplied
    one by one, and the generator, to read what it draws next."""
    gen = np.random.Generator(np.random.PCG64(seed))
    v = None if radius is None else gen.uniform(-radius, radius, (count, mp.dim_c))
    lengths = gen.integers(1, max_word + 1, size=count)
    factors = gen.uniform(-1.0, 1.0, (int(lengths.sum()), mp.dim_b))
    mats = []
    for word in np.split(factors, np.cumsum(lengths)[:-1]):
        a = identity_element(mp)
        for x in word:
            a = a @ exp_b(mp, x, 1.0)
        mats.append(a.matrix)
    return v, np.array(mats), gen


def ref_eta_b(mp, g):
    k, m = mp.dim_c, mp.dim_b
    cb = change_of_basis(mp)
    ad = ref_adjoint(mp, g.a.matrix)
    k_mat = cb.y.T @ ref_adjoint(mp, np.linalg.inv(g.a.matrix)).T @ cb.psi
    z = np.column_stack([mp.b_coords(ad @ mp.y_basis[i]) for i in range(k)])
    coeffs = np.zeros((k + m, k + m))
    coeffs[:k, k:] = k_mat @ z.T
    coeffs[k:, :k] = -z @ k_mat.T
    return coeffs


def ref_adE_mixed(mp, g):
    k, m = mp.dim_c, mp.dim_b
    cb = change_of_basis(mp)
    ad = ref_adjoint(mp, g.a.matrix)
    w = cb.psi @ g.v
    mix = np.empty((k, m))
    for j in range(m):
        z = ad @ cb.b[:, j]
        mix[:, j] = -gstar_to_b0(mp, coad_matrix_coords(mp.g, z) @ w)
    return mix


def ref_cocycle(mp, samples, seed, sign=1.0):
    v, mats, _ = ref_draw(mp, seed, 2 * samples, radius=1.0)
    out = []
    for i in range(samples):
        g = EElement(mp, v[2 * i], GroupElement(mp, mats[2 * i]))
        h = EElement(mp, v[2 * i + 1], GroupElement(mp, mats[2 * i + 1]))
        lhs = eta(mp, e_mul(g, h), eta_b_sign=sign)
        a = adE(g)
        pushed = a @ eta(mp, h, eta_b_sign=sign) @ a.T
        base = eta(mp, g, eta_b_sign=sign)
        scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(base)), np.max(np.abs(pushed)))
        out.append(np.max(np.abs(lhs - base - pushed)) / scale)
    return np.array(out)


def ref_invariance(mp, samples, seed):
    # the call's draw: the v are drawn, and invariance reads only the matrices
    _, mats, _ = ref_draw(mp, seed, 2 * samples, radius=1.0)
    inv, hom = [], []
    for i in range(samples):
        a = GroupElement(mp, mats[2 * i])
        b = GroupElement(mp, mats[2 * i + 1])
        inv.append(mp.invariance_residual(a))
        diff = (a @ b).action_on_c - a.action_on_c @ b.action_on_c
        hom.append(np.max(np.abs(diff)))
    return max(inv), max(hom)


# -- draw order ---------------------------------------------------------------


def drawn_pairs(mp, seed, samples):
    """The v and matrices that `sample_pairs` hands its readers, in draw
    order g, h, g, h, ..., and the index of each block's first pair."""
    def read(start, g, h, gh):
        return start, np.stack([g.v, h.v], 1), np.stack([g.a.matrix, h.a.matrix], 1)

    starts, v, mats = zip(*sample_pairs(mp, seed, samples, [read])[0])
    return (list(starts), np.concatenate(v).reshape(2 * samples, -1),
            np.concatenate(mats).reshape((2 * samples,) + mats[0].shape[2:]))


@pytest.mark.parametrize("seed", [42, 7919])
def test_sampled_draws_follow_the_stated_order(mp, seed):
    # three blocks, the last of one pair
    samples = 2 * SAMPLE_BLOCK + 1
    starts, v, mats = drawn_pairs(mp, seed, samples)
    assert starts == [0, SAMPLE_BLOCK, 2 * SAMPLE_BLOCK]
    ref_v, ref_mats, _ = ref_draw(mp, seed, 2 * samples, radius=group.V_RADIUS)
    assert np.array_equal(v, ref_v)
    assert np.max(np.abs(mats - ref_mats)) <= 1e-15
    # a stack of B alone: the lengths, then the factors, and nothing more
    gen = np.random.default_rng(seed)
    _, ref_mats, ref_gen = ref_draw(mp, seed, 40)
    assert np.max(np.abs(sample_group_matrices(mp, gen, 40) - ref_mats)) <= 1e-15
    assert gen.uniform(0, 1) == ref_gen.uniform(0, 1)


# -- stacked Ad, eta and adE ----------------------------------------------------


@pytest.mark.parametrize("mp", AD_PAIRS, indirect=True)
def test_adjoint_matrices_match_per_element(mp):
    mats = sample_group_matrices(mp, np.random.default_rng(7), 37)
    ads = GroupElement(mp, mats).ad
    cb = change_of_basis(mp)
    for mat, ad in zip(mats, ads):
        assert np.max(np.abs(ad - GroupElement(mp, mat).ad)) <= 1e-13
        # Ad in the adapted basis is T^-1 Ad_g T
        assert np.max(np.abs(ad - cb.t_inv @ ref_adjoint(mp, mat) @ cb.t)) <= 1e-13


@pytest.mark.parametrize("mp", ("su11",) + PAIRS, indirect=True)
def test_exp_b_of_a_parameter_array_is_the_stack_of_single_calls(mp):
    x = np.random.default_rng(11).uniform(-1.0, 1.0, mp.dim_b)
    ts = np.linspace(-3.0, 3.0, 7)
    stack = exp_b(mp, x, ts)
    y = np.eye(mp.dim_c)[-1]
    anchors = mp.anchor(y, stack)
    assert anchors.shape == (len(ts), mp.dim_b)
    for i, t in enumerate(ts):
        one = exp_b(mp, x, t)
        assert np.array_equal(stack.matrix[i], one.matrix)
        assert np.max(np.abs(anchors[i] - mp.anchor(y, one))) <= 1e-13
        assert np.max(np.abs(stack.action_on_c[i] - one.action_on_c)) <= 1e-13


def test_stacked_eta_and_adE_match_per_element(mp):
    stack = sample_e_elements(mp, np.random.default_rng(8), 23)
    k = mp.dim_c
    eta_s, eta0_s, eta_b_s = eta(mp, stack), eta0(mp, stack), eta_b(mp, stack)
    adE_s = adE(stack)
    for i in range(len(stack.v)):
        g = take(stack, i)
        assert np.max(np.abs(eta_s[i] - eta(mp, g))) <= 1e-13
        assert np.max(np.abs(eta0_s[i] - eta0(mp, g))) <= 1e-13
        assert np.max(np.abs(eta_b_s[i] - eta_b(mp, g))) <= 1e-13
        assert np.max(np.abs(eta_b_s[i] - ref_eta_b(mp, g))) <= 1e-13
        assert np.max(np.abs(adE_s[i] - adE(g))) <= 1e-13
        assert np.max(np.abs(adE_s[i][:k, k:] - ref_adE_mixed(mp, g))) <= 1e-13


def test_eta_and_its_parts_are_exactly_antisymmetric(mp):
    stack = sample_e_elements(mp, np.random.default_rng(8), 23)
    for points in (stack, take(stack, 0)):
        for part in (eta, eta0, eta_b):
            x = part(mp, points)
            assert x.shape == points.v.shape[:-1] + (len(mp.e_labels),) * 2
            assert np.array_equal(x, -np.swapaxes(x, -1, -2)), part.__name__


def test_stacked_product_matches_e_mul(mp):
    gh = sample_e_elements(mp, np.random.default_rng(9), 10)
    g, h = take(gh, slice(0, None, 2)), take(gh, slice(1, None, 2))
    prod, inv = e_mul(g, h), e_inv(g)
    assert prod.v.shape == (5, mp.dim_c) and prod.a.matrix.ndim == 3
    coads = coad(g.a)
    for i in range(5):
        one = e_mul(take(g, i), take(h, i))
        assert np.max(np.abs(prod.v[i] - one.v)) <= 1e-13
        assert np.max(np.abs(prod.a.matrix[i] - one.a.matrix)) <= 1e-13
        assert np.max(np.abs(inv.v[i] - e_inv(take(g, i)).v)) <= 1e-13
        assert np.max(np.abs(coads[i] - coad(take(g.a, i)))) <= 1e-13


def test_single_element_is_a_stack_without_its_axis(mp):
    g = sample_e_element(mp, np.random.default_rng(10))
    assert g.v.shape == (mp.dim_c,) and g.a.matrix.ndim == 2
    assert g.a.ad.shape == (mp.g.dim, mp.g.dim)
    assert isinstance(mp.invariance_residual(g.a), float)
    one = sample_e_elements(mp, np.random.default_rng(10), 1)
    assert np.array_equal(adE(one)[0], adE(g))
    assert np.array_equal(eta(mp, one)[0], eta(mp, g))


# -- the sampled checks against per-sample loops ------------------------------------


def test_cocycle_matches_per_sample_loop(mp):
    samples = 200    # not a multiple of the block size
    assert samples % SAMPLE_BLOCK
    ref = ref_cocycle(mp, samples, 42)
    rep = run_check("cocycle", mp, samples, 42, DEFAULT_TOL)
    assert abs(rep["max_residual"] - ref.max()) <= 1e-13
    assert rep["pass"]


def test_invariance_matches_per_sample_loop(mp):
    samples = 200
    inv, hom = ref_invariance(mp, samples, 42)
    rep = run_check("invariance", mp, samples, 42, DEFAULT_TOL)
    assert abs(rep["details"]["invariance"] - inv) <= 1e-13
    assert abs(rep["details"]["action_homomorphism"] - hom) <= 1e-13
    assert rep["pass"]


#: (check, knob) of the block-size cases: each sampled check clean and under its knob
SAMPLED_RUNS = [("invariance", None), ("cocycle", None),
                ("invariance", "invariance_flip_action"), ("cocycle", "eta_b_sign")]


@pytest.mark.parametrize("name", ["su21", "su31", "su41"])
@pytest.mark.parametrize("block", [1, 7, 1000])
def test_reports_do_not_depend_on_the_block_size(name, block, monkeypatch):
    entry = get_entry(name)
    # at the default block; SAMPLE_BLOCK + 1 samples leave a last block of one
    runs = [(check, samples, knob) for samples in (100, SAMPLE_BLOCK + 1)
            for check, knob in SAMPLED_RUNS]
    default = [run_check(check, entry, samples, 42, DEFAULT_TOL, corrupt=knob)
               for check, samples, knob in runs]
    # `group.sample_pairs` is the one reader of the block size
    monkeypatch.setattr(group, "SAMPLE_BLOCK", block)
    for (check, samples, knob), rep in zip(runs, default):
        # residuals and witnesses: worst_sample, worst_part, g and h
        assert run_check(check, entry, samples, 42, DEFAULT_TOL, corrupt=knob) == rep


def test_each_sampled_matrix_is_validated_once(monkeypatch):
    mp = get_entry("su21").mp
    samples = 200
    counts = Counter()
    real = group._require

    def counting(ok, values, problem, what):
        counts[what] += np.size(values)
        real(ok, values, problem, what)

    monkeypatch.setattr(group, "_require", counting)
    run_check("invariance", mp, samples, 42, DEFAULT_TOL)
    # |det|, v and Ad of each point g, h and gh of the call's pass, one
    # validated pass each; invariance reads their elements a, b and ab of B,
    # and the column pass over a^{-1} behind Ad*_a validates nothing
    assert counts == {"|det|": 3 * samples, "max |v|": 3 * samples,
                      "residual": 3 * samples, "leak": 3 * samples}
    # the same whether invariance reads the same pass or not: the cocycle's
    # witness pair is serialized from its kept copies, not made anew
    for names in (["cocycle"], ["invariance", "cocycle"], ["cocycle", "invariance"]):
        counts.clear()
        sampled_pass(mp, names, samples, 42)
        assert counts == {"|det|": 3 * samples, "max |v|": 3 * samples,
                          "residual": 3 * samples, "leak": 3 * samples}, names


#: tracemalloc peaks in bytes of the sampled checks on su41 at 1000 samples,
#: with numpy 2.4.6, of the code that held two 32-sample blocks at a time
#: and validated each drawn matrix twice
TWO_BLOCK_PEAKS = {"cocycle": 3.64e6, "invariance": 1.78e6}


@pytest.mark.parametrize("check", ["cocycle", "invariance"])
def test_sampled_checks_hold_one_block_at_a_time(check):
    entry = get_entry("su41")
    run_check(check, entry, 1000, 42, DEFAULT_TOL)    # the pair's own tables
    tracemalloc.start()
    try:
        run_check(check, entry, 1000, 42, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TWO_BLOCK_PEAKS[check]


def test_a_two_check_pass_holds_one_block_at_a_time():
    # g, h and gh keep the tables both checks read until their block ends
    entry = get_entry("su41")
    sampled_pass(entry, ["invariance", "cocycle"], 1000, 42)
    tracemalloc.start()
    try:
        sampled_pass(entry, ["invariance", "cocycle"], 1000, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TWO_BLOCK_PEAKS["cocycle"]


def test_invariance_residual_includes_the_homomorphism_part(mp, monkeypatch):
    monkeypatch.setattr(MatchedPair, "invariance_residual",
                        lambda self, a: np.zeros(a.matrix.shape[:-2]))
    rep = run_check("invariance", mp, 40, 42, DEFAULT_TOL)
    details = rep["details"]
    assert details["invariance"] == 0.0
    assert rep["worst_criterion"] == "action_homomorphism"
    assert rep["max_residual"] == details["action_homomorphism"] > 0.0


@pytest.mark.parametrize("check", ["invariance", "cocycle"])
def test_sampled_checks_refuse_zero_samples(check):
    with pytest.raises(ValueError, match="at least one sample"):
        run_check(check, get_entry("su21"), 0, 42, DEFAULT_TOL)


#: residuals of the corruption knobs at seed 42, 200 samples, in the draw
#: order of the call's three generator calls (v included, whichever check
#: reads them), as the per-sample loops over `ref_draw` give them
KNOB_RESIDUALS = {
    ("su21", "cocycle"): 2.0284789493899513,
    ("su21", "invariance"): 1.9668467787797945,
    ("su31", "cocycle"): 1.9786322362481006,
    ("su31", "invariance"): 1.9818106141910397,
}


@pytest.mark.parametrize("name", PAIRS)
@pytest.mark.parametrize("check,knob", [("cocycle", "eta_b_sign"),
                                        ("invariance", "invariance_flip_action")])
def test_knobs_fail_with_the_unstacked_residual(name, check, knob):
    rep = run_check(check, get_entry(name), 200, 42, DEFAULT_TOL, corrupt=knob)
    assert not rep["pass"]
    assert abs(rep["max_residual"] - KNOB_RESIDUALS[(name, check)]) <= 1e-12


def test_cocycle_witness_reproduces_the_residual(mp):
    samples = 40
    rep = run_check("cocycle", mp, samples, 3, DEFAULT_TOL, corrupt="eta_b_sign")
    details = rep["details"]
    ref = ref_cocycle(mp, samples, 3, sign=-1.0)
    assert details["worst_sample"] == int(np.argmax(ref))
    g = e_element_from_json_dict(mp, details["g"])
    h = e_element_from_json_dict(mp, details["h"])
    lhs = eta(mp, e_mul(g, h), eta_b_sign=-1.0)
    pushed = adE(g) @ eta(mp, h, eta_b_sign=-1.0) @ adE(g).T
    diff = np.abs(lhs - eta(mp, g, eta_b_sign=-1.0) - pushed)
    assert details["worst_part"] == "^".join(
        mp.e_labels[i] for i in np.unravel_index(np.argmax(diff), diff.shape))


def test_invariance_witness_names_sample_and_part(mp):
    rep = run_check("invariance", mp, 40, 4, DEFAULT_TOL, corrupt="invariance_flip_action")
    details = rep["details"]
    assert rep["worst_criterion"] == "invariance"
    _, mats, _ = ref_draw(mp, 4, 80, radius=1.0)
    resids = []
    for i in range(40):
        a = GroupElement(mp, mats[2 * i])
        prod = a.coad_b0 @ inverse_element(a).action_on_c.T
        resids.append(np.max(np.abs(prod - np.eye(mp.dim_c))))
    at = details["worst_sample"]
    assert at == int(np.argmax(resids))
    # the witness elements a and b are the call's sampled matrices there,
    # and a gives the residual back
    _, _, mats = drawn_pairs(mp, 4, 40)
    a, b = (matrix_from_json_dict(details[x]) for x in ("a", "b"))
    assert np.array_equal(a, mats[2 * at]) and np.array_equal(b, mats[2 * at + 1])
    a = GroupElement(mp, a)
    prod = a.coad_b0 @ inverse_element(a).action_on_c.T
    assert abs(np.max(np.abs(prod - np.eye(mp.dim_c))) - rep["max_residual"]) <= 1e-12


def test_a_two_check_call_exponentiates_and_conjugates_as_one_check_does(monkeypatch):
    mp = get_entry("su31").mp
    samples = 200
    real_expm, real_adjoint = group.expm, group._adjoint
    counts = Counter()

    def expm(a):
        counts["expm rows"] += len(a)
        return real_expm(a)

    def adjoint(mp, mats, invs, columns=None):
        kind = "validated" if columns is None else "narrow"
        counts[f"{kind} passes"] += 1
        counts[f"{kind} elements"] += len(mats)
        return real_adjoint(mp, mats, invs, columns)

    monkeypatch.setattr(group, "expm", expm)
    monkeypatch.setattr(group, "_adjoint", adjoint)
    seen = {}
    for names in (("cocycle",), ("invariance",), ("invariance", "cocycle"),
                  ("cocycle", "invariance")):
        counts.clear()
        sampled_pass(mp, names, samples, 42)
        seen[names] = dict(counts)
    # every factor of the call's 2 * samples words is exponentiated once
    gen = np.random.Generator(np.random.PCG64(42))
    gen.uniform(-1.0, 1.0, (2 * samples, mp.dim_c))
    factors = int(gen.integers(1, 4, size=2 * samples).sum())
    blocks = -(-samples // SAMPLE_BLOCK)
    # one validated pass over g, h and gh each; invariance reads Ad*_a of g alone
    alone = {"expm rows": factors, "validated passes": 3 * blocks,
             "validated elements": 3 * samples}
    assert seen[("invariance",)] == alone | {"narrow passes": blocks, "narrow elements": samples}
    both = alone | {"narrow passes": 3 * blocks, "narrow elements": 3 * samples}
    for names in (("cocycle",), ("invariance", "cocycle"), ("cocycle", "invariance")):
        assert seen[names] == both, names


# -- validation of every element ----------------------------------------------------


@pytest.fixture(scope="module")
def e11():
    return su11()


def test_stack_with_one_element_outside_b_names_its_index(e11):
    mp = e11.mp
    bad = np.array([[np.cosh(0.5), np.sinh(0.5)],
                    [np.sinh(0.5), np.cosh(0.5)]])
    mats = sample_group_matrices(mp, np.random.default_rng(1), 6)
    mats[3] = bad
    with pytest.raises(ValueError, match=r"element 3 of the stack .*not in B \(leak"):
        GroupElement(mp, mats).ad
    # Ad*_a reads the validated Ad(a) before its column pass over a^{-1}
    with pytest.raises(ValueError, match=r"element 3 of the stack .*not in B \(leak"):
        GroupElement(mp, mats).coad_b0


def test_stack_with_a_nan_matrix_raises(e11):
    mp = e11.mp
    mats = sample_group_matrices(mp, np.random.default_rng(2), 5)
    mats[2, 0, 1] = np.nan
    # the Ad pass rejects it on its own, behind the determinant check of the element
    with pytest.raises(ValueError, match=r"element 2 of the stack .*\(residual nan\)"):
        _adjoint(mp, mats, np.linalg.inv(mats))
    with pytest.raises(ValueError, match=r"element 2 of the stack .*\(\|det\| nan\)"):
        GroupElement(mp, mats)
    with pytest.raises(ValueError, match=r"element 2 of the stack .*\(\|det\| nan\)"):
        GroupElement(mp, mats).coad_b0


def test_stack_with_an_element_outside_the_group_names_its_index_in_one_pass(e11):
    mp = e11.mp
    mats = sample_group_matrices(mp, np.random.default_rng(2), 5)
    mats[4] = np.diag([2.0, 0.5])    # its conjugation leaves su(1,1)
    with pytest.raises(ValueError, match=r"element 4 of the stack leaves the algebra"):
        GroupElement(mp, mats).coad_b0
    with pytest.raises(ValueError, match=r"^group element leaves the algebra"):
        GroupElement(mp, mats[4]).coad_b0


@pytest.mark.parametrize("mp", AD_PAIRS, indirect=True)
def test_reading_coad_b0_fills_ad_and_the_column_table(mp, monkeypatch):
    a = GroupElement(mp, sample_group_matrices(mp, np.random.default_rng(9), 32))
    inverted = []
    real = np.linalg.inv
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "inv", lambda m: inverted.append(m.shape) or real(m))
        a.coad_b0
        # Ad(a) and the column pass over a^{-1} share one inverse
        assert a._ad is not None and "ad_inverse_y" in vars(a)
        assert inverted == [a.matrix.shape]
    assert np.array_equal(a.ad, GroupElement(mp, a.matrix).ad)
    assert np.array_equal(a.ad_inverse_y, ad_of_inverse(a)[..., mp.dim_b:])
    assert np.max(np.abs(a.ad @ ad_of_inverse(a) - np.eye(mp.g.dim))) <= 1e-12


def test_adstar_u_row_runs_one_ad_pass_over_its_elements(monkeypatch):
    from references import ADSTAR_U_SAMPLES, adstar_u_sampled_residual

    passes = []
    real = group._adjoint

    def counting(mp, mats, invs, **kw):
        passes.append((mats.shape[:-2], "columns" in kw))
        return real(mp, mats, invs, **kw)

    monkeypatch.setattr(group, "_adjoint", counting)
    assert adstar_u_sampled_residual(get_entry("su31"), np.random.default_rng(42)) <= 1e-9
    # the validated Ad(a) of the 25 elements, then the column pass over their
    # inverses, not a validated pass over them as well
    assert ADSTAR_U_SAMPLES == 25 and passes == [((25,), False), ((25,), True)]


def test_coadjoint_on_b0_is_cached_read_only_on_its_own_pair(mp):
    a = GroupElement(mp, sample_group_matrices(mp, np.random.default_rng(10), 8))
    k_mat = a.coad_b0
    # the b0-block of Ad(a^{-1})^T from the full Ad(a^{-1}), and from a separate element a^{-1}
    m = mp.dim_b
    assert np.array_equal(k_mat, coad(a)[:, m:, m:])
    ad_inv = GroupElement(mp, np.linalg.inv(a.matrix)).ad
    assert np.max(np.abs(k_mat - np.swapaxes(ad_inv, 1, 2)[:, m:, m:])) <= 1e-13
    assert a.coad_b0 is k_mat
    # every table of the element is read-only
    for table in (k_mat, a.ad, a.ad_inverse_y, a.action_on_c):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 1.0
    assert a.action_on_c is a.action_on_c
    # a sub-stack made from the matrices computes its own, bit for bit
    part = GroupElement(mp, a.matrix[2:5])
    assert np.array_equal(part.coad_b0, k_mat[2:5])


def test_stack_with_a_near_singular_matrix_names_its_index(e11):
    mats = sample_group_matrices(e11.mp, np.random.default_rng(2), 5)
    mats[4] = np.diag([1e-7, 1e-7])
    with pytest.raises(ValueError, match=r"element 4 of the stack is singular"):
        GroupElement(e11.mp, mats)


def test_stack_with_a_non_finite_v_raises(e11):
    stack = sample_e_elements(e11.mp, np.random.default_rng(3), 4)
    v = stack.v.copy()
    v[1, 0] = np.inf
    with pytest.raises(ValueError, match="element 1 of the stack has a non-finite v"):
        EElement(e11.mp, v, stack.a)


def test_single_element_outside_b_still_rejected(e11):
    bad = GroupElement(e11.mp, np.array([[np.cosh(0.5), np.sinh(0.5)],
                                         [np.sinh(0.5), np.cosh(0.5)]]))
    with pytest.raises(ValueError, match="not in B"):
        bad.ad
    with pytest.raises(ValueError, match="not in B"):
        eta(e11.mp, EElement(e11.mp, np.zeros(2), bad))


# -- the chunked Ad pass ---------------------------------------------------------

#: pairs of the chunk tests, with 85, 25, 10 and 4 matrices a chunk
CHUNK_PAIRS = ("su21", "su31", "su41", "supq1(5)")


@pytest.fixture(scope="module", params=CHUNK_PAIRS)
def chunked(request):
    """A pair and its Ad chunk length."""
    name = request.param
    mp = (supq1(5) if name == "supq1(5)" else get_entry(name)).mp
    d = mp.g.realization[0].shape[0]
    return mp, _ad_chunk(d, mp.g.dim)


def one_chunk_pass(mp, mats, invs, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(group, "_AD_CHUNK_BYTES", 1 << 40)
        return _adjoint(mp, mats, invs)


def test_chunked_ad_pass_equals_one_chunk_bit_for_bit(chunked, monkeypatch):
    mp, chunk = chunked
    for size in (1, chunk - 1, chunk, chunk + 1):
        mats = sample_group_matrices(mp, np.random.default_rng(size), size)
        invs = np.linalg.inv(mats)
        assert np.array_equal(_adjoint(mp, mats, invs),
                              one_chunk_pass(mp, mats, invs, monkeypatch))
    # one element without the stack axis
    mat = sample_group_matrices(mp, np.random.default_rng(1), 1)[0]
    assert np.array_equal(_adjoint(mp, mat, np.linalg.inv(mat)),
                          one_chunk_pass(mp, mat, np.linalg.inv(mat), monkeypatch))


def test_offender_in_the_last_chunk_is_named_by_its_stack_index(chunked):
    mp, chunk = chunked
    # exp of a c-direction: in G, so it passes membership, but it moves b
    moves_b = expm(0.5 * mp.g.matrix_of(mp.y_basis[0]))
    for size in (1, chunk - 1, chunk, chunk + 1):
        last = size - 1
        for bad, problem in ((np.full_like(moves_b, np.nan), r"leaves the algebra"),
                             (moves_b, r"does not normalize b")):
            mats = sample_group_matrices(mp, np.random.default_rng(size), size)
            mats[last] = bad
            invs = np.linalg.inv(mats)
            with pytest.raises(ValueError, match=rf"^element {last} of the stack {problem}"):
                _adjoint(mp, mats, invs)
            # a validated pass over the inverses: a^{-1} of the last element is the last matrix
            with pytest.raises(ValueError, match=rf"^element {last} of the stack {problem}"):
                _adjoint(mp, invs, mats)


# -- the column pass behind Ad*_a ---------------------------------------------------


def same_bits(x, y) -> bool:
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", ("su11",) + CHUNK_PAIRS)
def test_column_pass_equals_the_columns_of_the_full_pass_bit_for_bit(name):
    mp = (supq1(5) if name == "supq1(5)" else get_entry(name)).mp
    m, k = mp.dim_b, mp.dim_c
    d = mp.g.realization[0].shape[0]
    chunk = _ad_chunk(d, k)
    # the y_i are the last k vectors of the adapted basis
    for size in (1, chunk - 1, chunk, chunk + 1):
        a = GroupElement(mp, sample_group_matrices(mp, np.random.default_rng(size), max(size, 1)))
        full = ad_of_inverse(a)
        assert same_bits(a.ad_inverse_y, full[..., m:])
        assert same_bits(a.coad_b0, np.swapaxes(full, -1, -2)[..., m:, m:])
    one = GroupElement(mp, sample_group_matrices(mp, np.random.default_rng(1), 1)[0])
    assert same_bits(one.ad_inverse_y, ad_of_inverse(one)[:, m:])


def mixed_pair(name: str, parts=("c",)):
    """The catalog pair with the rows of each of `parts` replaced by a fixed
    invertible mix of them: the same b and c, with x_j or y_i that are not
    basis vectors of g."""
    doc = get_entry(name).mp.to_json_dict()
    for part in parts:
        rows = np.asarray(doc[part])
        doc[part] = ((np.eye(len(rows)) + 0.5 * np.tri(len(rows), k=-1)) @ rows).tolist()
    return MatchedPair.from_json_dict(doc)


def test_column_pass_on_a_pair_whose_y_basis_is_no_selection():
    mp = mixed_pair("su31")
    m = mp.dim_b
    assert np.count_nonzero(mp.y_basis) > mp.dim_c
    a = GroupElement(mp, sample_group_matrices(mp, np.random.default_rng(3), 40))
    full = ad_of_inverse(a)
    assert np.max(np.abs(a.ad_inverse_y - full[..., m:])) <= 1e-13
    assert np.max(np.abs(a.coad_b0 - np.swapaxes(full, 1, 2)[:, m:, m:])) <= 1e-13
    # the sampled checks pass on it, and fail under their knobs
    for check, knob in SAMPLED_RUNS:
        rep = run_check(check, mp, 40, 42, DEFAULT_TOL, corrupt=knob)
        assert rep["pass"] is (knob is None), (check, knob)


def package_tables(mp, g: EElement) -> dict:
    """The package's tables of a point of E or a stack, named as in
    `g_coordinate_tables`."""
    anchor = np.stack([mp.anchor(y, g.a) for y in np.eye(mp.dim_c)], axis=-1)
    return {"coad_b0": g.a.coad_b0, "action_on_c": g.a.action_on_c, "eta0": eta0(mp, g),
            "eta_b": eta_b(mp, g), "eta": eta(mp, g), "adE": adE(g), "anchor": anchor}


def test_blocks_of_ad_equal_the_g_coordinate_references_on_a_pair_with_b_and_c_mixed():
    # on the catalog T = I, where a block read from the wrong rows or columns
    # of Ad can still agree with its g-coordinate formula; here the x_j and
    # the y_i are both mixed, so it cannot
    mp = mixed_pair("su31", ("b", "c"))
    cb = change_of_basis(mp)
    assert np.count_nonzero(cb.b) > mp.dim_b and np.count_nonzero(cb.y) > mp.dim_c
    g = sample_e_elements(mp, np.random.default_rng(4), 40)
    mats = g.a.matrix
    ad = np.array([ref_adjoint(mp, mat) for mat in mats])
    ad_inverse_y = np.array([ref_adjoint(mp, inv) for inv in np.linalg.inv(mats)]) @ cb.y
    assert np.max(np.abs(g.a.ad - cb.t_inv @ ad @ cb.t)) <= 1e-12
    ours = package_tables(mp, g)
    for name, ref in g_coordinate_tables(mp, g.v, ad, ad_inverse_y).items():
        assert ours[name].shape == ref.shape, name
        assert np.max(np.abs(ours[name] - ref)) <= 1e-12, name


@pytest.mark.parametrize("mp", ("su11",) + AD_PAIRS, indirect=True)
def test_tables_are_c_ordered_and_equal_the_g_coordinate_products_bit_for_bit(mp):
    # report bits follow the layout of these tables, not only their values;
    # on the catalog T = I, so the g-coordinate products read the same Ad
    assert np.array_equal(mp.decomp.t, np.eye(mp.g.dim))
    stack = sample_e_elements(mp, np.random.default_rng(13), 70)
    for g in (stack, take(stack, 0)):
        for table in (g.a.ad, g.a.ad_inverse_y, g.a.coad_b0, g.a.action_on_c):
            assert table.flags.c_contiguous
        ours = package_tables(mp, g)
        ref = g_coordinate_tables(mp, g.v, g.a.ad, g.a.ad_inverse_y)
        for name in ("coad_b0", "action_on_c", "eta", "adE"):
            assert same_bits(ours[name], ref[name]), name
