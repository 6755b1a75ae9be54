from dataclasses import replace

import numpy as np
import pytest

from poissonlie.bialgebra import co_jacobi_worst_at
from poissonlie.catalog import (_validate_entry, catalog_names, e2_dual_bracket_tables,
                                get_entry, normalize_z, rho_intertwiner_residual, su11, supq1)
from poissonlie.config import P_CAP
from poissonlie.group import e_mul
from poissonlie.lie import SubspaceDecomposition, jacobi_worst_at, snap_dyadic, structure_in_basis
from poissonlie.linalg import worst
from poissonlie.manin import build_gc_algebra, cobracket_on_gstar, compact_algebra, gprime_algebra
from references import (change_of_basis, coad_matrix_coords, e2_family1, normalize_z_loop,
                        sample_e_element, validate_entry_loop)


def projector_residual(d) -> float:
    """Max deviation from P_i P_j = delta_ij P_i and sum P = 1."""
    p = d.projections
    out = np.max(np.abs(sum(p.values()) - np.eye(d.parent.dim)))
    for a in p:
        for b in p:
            out = worst(out, np.max(np.abs(p[a] @ p[b] - (p[a] if a == b else 0.0))))
    return out


def test_catalog_names_and_lookup():
    assert catalog_names() == ["su11", "su21", "su31", "su41"]
    assert get_entry("su21").p == 2
    with pytest.raises(KeyError):
        get_entry("su99")


def writable_arrays(obj) -> list[str]:
    """The paths of the writable arrays reachable from `obj` through object
    fields (cached properties included) and dict, list and tuple items."""
    out, seen, stack = [], set(), [("entry", obj)]
    while stack:
        path, item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            if item.flags.writeable:
                out.append(path)
        elif isinstance(item, dict):
            stack.extend((f"{path}[{k!r}]", v) for k, v in item.items())
        elif isinstance(item, (list, tuple)):
            stack.extend((f"{path}[{i}]", v) for i, v in enumerate(item))
        elif hasattr(item, "__dict__"):
            stack.extend((f"{path}.{k}", v) for k, v in vars(item).items())
    return out


@pytest.mark.parametrize("name", catalog_names())
def test_cached_entries_hold_no_writable_array(name):
    # a cached entry serves every later call of the process: no array it
    # holds may change, neither as built nor after every check has built its
    # tables on it, clean and under each knob
    from poissonlie.checks import REGISTRY, run_check
    from poissonlie.config import DEFAULT_TOL

    entry = get_entry(name)
    assert writable_arrays(entry) == []
    for check in REGISTRY.values():
        if check.applies(entry):
            for knob in (None, check.knob):
                run_check(check.name, entry, 4, 0, DEFAULT_TOL, corrupt=knob)
    assert get_entry(name) is entry
    assert writable_arrays(entry) == []
    with pytest.raises(ValueError, match="read-only"):
        entry.g.realization[0][0, 0] = 1.0


def test_builders_return_fresh_entries():
    assert su11() is not su11() and supq1(2) is not supq1(2)
    assert get_entry("su21") is get_entry("su21") is not supq1(2)


def test_all_entries_pass_core_invariants():
    for name in catalog_names():
        entry = get_entry(name)
        assert jacobi_worst_at(entry.g.structure)[0] <= 1e-9
        assert entry.g.realization_residual <= 1e-9
        for decomp in (entry.mp.decomp, entry.iwasawa, entry.cartan):
            assert projector_residual(decomp) <= 1e-9
        pairing = entry.mp.psi_basis @ entry.mp.y_basis.T
        assert np.max(np.abs(pairing - np.eye(entry.mp.dim_c))) <= 1e-12
        ad_z = entry.g.ad_matrix_coords(entry.z)
        for row in entry.cartan.parts["p"]:
            assert np.max(np.abs(ad_z @ ad_z @ row + row)) <= 1e-9


def test_supq1_range():
    with pytest.raises(ValueError):
        supq1(0)
    with pytest.raises(ValueError):
        supq1(9)


def test_su11_generators_exact():
    g = su11().g
    assert np.array_equal(g.realization[0], np.diag([1j, -1j]))
    assert np.array_equal(g.realization[1], np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(g.realization[2], np.array([[1j, -1j], [1j, -1j]]))


def test_su11_z_normalization():
    entry = su11()
    ad_z = entry.g.ad_matrix_coords(entry.z)
    for row in entry.cartan.parts["p"]:
        assert np.max(np.abs(ad_z @ ad_z @ row + row)) <= 1e-9


def test_supq1_z_normalization_on_annihilator():
    # ad*(z)^2 = -1 on the annihilator block, dual form of the normalization
    for p in (2, 3):
        entry = supq1(p)
        mp = entry.mp
        coad = coad_matrix_coords(entry.g, entry.z)
        cb = change_of_basis(mp)
        k_action = cb.y.T @ coad @ cb.psi
        assert np.max(np.abs(k_action @ k_action + np.eye(2 * p))) <= 1e-9


def test_planar_group_isomorphism_roundtrip():
    # E -> 2x2 matrices [[v, n], [0, v^{-1}]] with v = e^{i phi}, n = e^{-i phi} z
    entry = su11()
    mp = entry.mp

    def to_matrix(el):
        v = el.a.matrix[0, 0]
        z = el.v[1] + 1j * el.v[0]
        return np.array([[v, np.conj(v) * z], [0, np.conj(v)]])

    rng = np.random.default_rng(44)
    for _ in range(100):
        g = sample_e_element(mp, rng)
        h = sample_e_element(mp, rng)
        lhs = to_matrix(e_mul(g, h))
        rhs = to_matrix(g) @ to_matrix(h)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_su11_equals_supq1_one():
    a, b = su11(), supq1(1)
    assert a.g.labels == b.g.labels
    assert np.max(np.abs(a.g.structure - b.g.structure)) <= 1e-12


def test_supq1_bracket_table():
    for p in (2, 3):
        entry = supq1(p)
        g = entry.g
        labels = list(g.labels)
        ya = labels.index("ya")
        y2 = labels.index("y2")
        e = np.eye(g.dim)
        assert np.allclose(g.bracket_coords(e[ya], e[y2]), 2 * e[y2], atol=1e-12)
        for k in range(p - 1):
            yr = labels.index(f"yR_{k+1}")
            yi = labels.index(f"yI_{k+1}")
            assert np.allclose(g.bracket_coords(e[ya], e[yr]), e[yr], atol=1e-12)
            assert np.allclose(g.bracket_coords(e[ya], e[yi]), e[yi], atol=1e-12)
            assert np.allclose(g.bracket_coords(e[yr], e[yi]), 2 * e[y2], atol=1e-12)
            # all other brackets involving y2 vanish
            assert np.max(np.abs(g.bracket_coords(e[y2], e[yr]))) <= 1e-12
            assert np.max(np.abs(g.bracket_coords(e[y2], e[yi]))) <= 1e-12
        for k in range(p - 1):
            for l in range(p - 1):
                r1 = labels.index(f"yR_{k+1}")
                r2 = labels.index(f"yR_{l+1}")
                i1 = labels.index(f"yI_{k+1}")
                i2 = labels.index(f"yI_{l+1}")
                assert np.max(np.abs(g.bracket_coords(e[r1], e[r2]))) <= 1e-12
                assert np.max(np.abs(g.bracket_coords(e[i1], e[i2]))) <= 1e-12
                if k != l:
                    assert np.max(np.abs(g.bracket_coords(e[r1], e[i2]))) <= 1e-12


def test_supq1_restricted_root_spaces_stored():
    entry = supq1(3)
    # iwasawa parts (k, a, n): a is one-dimensional, n carries y2 and the pairs
    assert entry.iwasawa.parts["a"].shape[0] == 1
    assert entry.iwasawa.parts["n"].shape[0] == 2 * 3 - 1
    # n is a subalgebra: [n, n] has no k- or a-part in the basis (k, a, n)
    parts = entry.iwasawa.parts
    lead = len(parts["k"]) + len(parts["a"])
    table = structure_in_basis(entry.g.structure,
                               np.vstack([parts["k"], parts["a"], parts["n"]]).T)
    assert np.max(np.abs(table[lead:, lead:, :lead])) <= 1e-9
    # a normalizes n: [a, n] stays in n
    g = entry.g
    a_row = entry.iwasawa.parts["a"][0]
    p_n = entry.iwasawa.projections["n"]
    for row in entry.iwasawa.parts["n"]:
        br = g.bracket_coords(a_row, row)
        assert np.max(np.abs(br - p_n @ br)) <= 1e-9
    # graded root spaces: [g_f1, g_f1] lands in g_2f1
    f1 = entry.root_spaces["f1"]
    f2 = entry.root_spaces["2f1"]
    assert f1.shape[0] == 2 * (3 - 1) and f2.shape[0] == 1
    for r1 in f1:
        for r2 in f1:
            br = g.bracket_coords(r1, r2)
            coeff, *_ = np.linalg.lstsq(f2.T, br, rcond=None)
            assert np.max(np.abs(f2.T @ coeff - br)) <= 1e-9


def test_adstar_u_det_u_action():
    from references import adstar_u_sampled_residual

    for p in (1, 2, 3):
        assert adstar_u_sampled_residual(supq1(p), np.random.default_rng(5)) <= 1e-9


def test_dual_families_tables():
    bracket1, bracket3, rho = e2_dual_bracket_tables()
    assert jacobi_worst_at(bracket1)[0] <= 1e-12
    assert jacobi_worst_at(bracket3)[0] <= 1e-12
    # [P1*, P2*]_1 = 0
    assert np.max(np.abs(bracket1[1, 2])) == 0.0
    # the package's family 1 is the reference's at s = 1
    ref_bracket1, ref_rho = e2_family1(1.0)
    assert np.array_equal(bracket1, ref_bracket1) and np.array_equal(rho, ref_rho)
    assert rho_intertwiner_residual() <= 1e-12
    # rho([x, y]_1) = [rho(x), rho(y)]_3 over basis pairs holds at every s
    for s in (1.0, 2.5):
        b1, r = e2_family1(s)
        assert jacobi_worst_at(b1)[0] <= 1e-12
        lhs = np.einsum("kl,ijl->ijk", r, b1)
        rhs = np.einsum("ai,bj,abk->ijk", r, r, bracket3)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    assert rho_intertwiner_residual(rho_sign=-1.0) > 1e-3


def test_entry_validation_catches_bad_duals():
    entry = su11()
    entry.psi_mats[0] = entry.psi_mats[0] * 2.0
    from poissonlie.catalog import _validate_entry

    with pytest.raises(ValueError):
        _validate_entry(entry)


@pytest.mark.parametrize("p", [1, 3])
def test_the_torus_is_the_diagonal_of_u_p(p):
    entry = supq1(p)
    labels = [entry.g.labels[i] for i in np.flatnonzero(entry.torus.any(axis=0))]
    assert labels == [f"kD_{j + 1}" for j in range(p)]
    assert entry.torus.shape == (p, entry.g.dim)


def test_entry_validation_catches_a_bad_torus():
    from poissonlie.catalog import _validate_entry

    entry = supq1(2)
    labels = entry.g.labels
    eye = np.eye(entry.g.dim)
    # a row outside k (ya), then two rows of k that do not commute
    for rows in ([eye[labels.index("ya")]], [eye[labels.index("kR_12")], eye[labels.index("kD_1")]]):
        entry.torus = np.array(rows)
        with pytest.raises(ValueError, match="torus"):
            _validate_entry(entry)


@pytest.mark.parametrize("p", range(1, P_CAP + 1))
def test_normalize_z_matches_its_loop_reference(p):
    # one ad(z) for all rows gives the bits of a bracket and a Rayleigh
    # quotient per row, and the entry passes the loop validation too
    entry = supq1(p)
    raw = entry.g.coords_of(np.diag([1j] * p + [-1j * p]) / (p + 1))
    z = normalize_z(entry.g, entry.cartan, raw)
    assert np.array_equal(z, normalize_z_loop(entry.g, entry.cartan, raw))
    assert np.array_equal(z, entry.z)
    validate_entry_loop(entry)


def raises_alike(fn, reference, *args) -> str:
    """The message of the ValueError that `fn` raises on `args`, which must be
    the one its loop reference raises."""
    with pytest.raises(ValueError) as got:
        fn(*args)
    with pytest.raises(ValueError) as want:
        reference(*args)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_normalize_z_raises_as_its_loop_reference():
    entry = supq1(2)
    g, cartan = entry.g, entry.cartan
    k_row = np.eye(g.dim)[g.labels.index("kR_12")]
    # p rows with a k row mixed in: ad(z)^2 is no scalar on their span
    bent = SubspaceDecomposition(g, {"k": cartan.parts["k"],
                                     "p": cartan.parts["p"] + 0.5 * k_row})
    for decomp, z, message in ((cartan, entry.z + k_row, "z is not central in k"),
                               (cartan, 0.0 * entry.z, "ad(z)^2 is not negative"),
                               (bent, entry.z, "z normalization residual")):
        assert raises_alike(normalize_z, normalize_z_loop, g, decomp, z).startswith(message)


def test_entry_validation_raises_as_its_loop_reference():
    entry = supq1(2)
    labels, eye = entry.g.labels, np.eye(entry.g.dim)
    psi = list(entry.psi_mats)
    psi[1] = 2.0 * psi[1]
    f1, f2 = entry.root_spaces["f1"], entry.root_spaces["2f1"]
    for change, message in (
            ({"eta": np.eye(3, dtype=complex)}, "realization matrix violates the signature"),
            ({"psi_mats": psi}, "dual basis 1 disagrees"),
            ({"torus": eye[[labels.index("ya")]]}, "a torus row does not lie in k"),
            ({"torus": eye[[labels.index("kR_12"), labels.index("kD_1")]]},
             "the torus rows do not commute"),
            ({"root_spaces": {"f1": f2, "2f1": f1}}, "root-space grading failed"),
            ({"root_spaces": {"f1": f1, "2f1": f1}}, "root-space grading failed")):
        assert raises_alike(_validate_entry, validate_entry_loop,
                            replace(entry, **change)).startswith(message)


@pytest.mark.parametrize("p", range(1, P_CAP + 1))
def test_cartan_p_rows_are_integers(p):
    # snapped off the rounding of their solve, so the compact form built
    # from them is exact
    rows = supq1(p).cartan.parts["p"]
    assert np.array_equal(rows, np.rint(rows))


def test_su11_compact_cobracket_is_exact():
    from poissonlie.checks import run_check
    from poissonlie.config import DEFAULT_TOL

    entry = su11()
    assert snap_dyadic(cobracket_on_gstar(entry.gstar, compact_algebra(entry)))[1] == 0.0
    assert entry.gstar_cobrackets[2][1] == 0.0
    details = run_check("twist", entry, 0, 0, DEFAULT_TOL)["details"]
    assert details["cprime_gc_minus_gprime"] == details["co_jacobi_all_three"] == 0.0


@pytest.mark.parametrize("p", [2, 4, 5])
def test_twist_folds_the_snap_distance_of_each_cobracket_it_reads(p):
    # at these p the solve against the Gram matrix leaves the cobrackets on
    # gstar off the integers; the entry keeps them snapped, with the distance
    from poissonlie.checks import run_check
    from poissonlie.config import DEFAULT_TOL

    entry = supq1(p)
    halves = (entry.g, gprime_algebra(entry), compact_algebra(entry))
    for (table, dist), half in zip(entry.gstar_cobrackets, halves, strict=True):
        raw = cobracket_on_gstar(entry.gstar, half)
        assert np.array_equal(table, np.rint(raw)) and dist == np.max(np.abs(raw - table))
        assert not np.any(np.signbit(table) & (table == 0.0))
    (_, g), (_, gp), (_, gc) = entry.gstar_cobrackets
    assert max(g, gp, gc) > 0.0
    details = run_check("twist", entry, 0, 0, DEFAULT_TOL)["details"]
    # on the exact cobrackets the c' relations and co-Jacobi hold exactly,
    # so each reads the snap distances it folds in
    assert details["cprime_g_minus_gprime"] == max(g, gp)
    assert details["cprime_gc_minus_gprime"] == max(gc, gp)
    assert details["co_jacobi_all_three"] == max(g, gp, gc)
    assert details["twist_relation"] >= max(g, gp) and details["maurer_cartan"] >= gp


def test_gstar_k0_indices():
    entry = supq1(2)
    mats = [entry.gstar.realization[i] for i in entry.gstar_k0_indices]
    assert len(mats) == 4  # complex 2-dim block as a real span
    for m in mats:
        assert np.max(np.abs(m[:, :-1])) == 0.0  # supported on the last column


@pytest.mark.parametrize("p", range(1, P_CAP + 1))
def test_catalog_tables_are_exact_integers(p):
    # g, g*, g_C and g' are snapped to their integer structure constants; e,
    # the adapted table and the cobracket are blocks of them: every Jacobi
    # residual is exactly 0.0
    entry = supq1(p)
    mp = entry.mp
    algebras = [entry.g, entry.gstar, build_gc_algebra(entry), gprime_algebra(entry),
                mp.e_algebra]
    for table in [a.structure for a in algebras] + [mp.adapted, mp.delta]:
        assert np.array_equal(table, np.rint(table))
        assert set(np.unique(table)) <= {-2.0, -1.0, 0.0, 1.0, 2.0}
    for alg in algebras:
        assert alg.jacobi[0] == 0.0
    assert co_jacobi_worst_at(mp.delta)[0] == 0.0
