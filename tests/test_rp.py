from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from levylab import (ConfigurationError, ContractViolation, JumpLaw,
                     LatticeSpec, LevyCharacteristic, ModelParams,
                     MonomialBasis, RangeError, analytic_truncated_schwinger,
                     build_reflection_gram, gram_report, min_eigenvalue,
                     moments_from_cumulants, rp_scan, verify_witness,
                     witness_record)
from levylab import cumulants, rp
from levylab.rp import witness_quadratic_form_mc


@pytest.fixture
def basis6(desk_spec):
    pts = [(1, 1, 0), (1, 2, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0), (2, 3, 0)]
    return MonomialBasis.degree_one(desk_spec, pts)


def test_basis_validation(desk_spec):
    with pytest.raises(ConfigurationError):
        MonomialBasis(desk_spec, ())  # empty
    with pytest.raises(ConfigurationError):
        MonomialBasis(desk_spec, (((0, 0, 0),),))  # time 0 not allowed
    with pytest.raises(ConfigurationError):
        MonomialBasis(desk_spec, (((8, 0, 0),),))  # time at L/2
    with pytest.raises(ConfigurationError):
        MonomialBasis(desk_spec, (((1, 0, 0), (1, 0, 0), (1, 0, 0)),))  # degree 3
    with pytest.raises(ConfigurationError):
        MonomialBasis(desk_spec, (((1, 0),),))  # wrong dimension


def _no_work(*args, **kwargs):
    raise AssertionError("Gram or Monte-Carlo work before the input check")


# time is lattice axis 0; a witness record from when it was an option may
# still carry time_axis, and only 0 passes
@pytest.mark.parametrize("axis", [5, 3, -1, 1.5, "0", None])
def test_basis_time_axis_range(basis6, monkeypatch, axis):
    p = ModelParams(0.75, 1.0, "discrete")
    record = witness_record(gram_report(p, LevyCharacteristic(sigma2=1.0), basis6))
    record["time_axis"] = axis
    monkeypatch.setattr(rp, "build_reflection_gram", _no_work)
    monkeypatch.setattr(rp, "witness_quadratic_form_mc", _no_work)
    with pytest.raises(ConfigurationError, match="witness: time_axis: must be 0"):
        verify_witness(record, fresh_seed=1)


def test_basis_time_axis_valid(desk_spec):
    # time is lattice axis 0: only coordinate 0 is reflected and range-checked
    basis = MonomialBasis(desk_spec, (((2, 0, 9),),))
    assert basis.reflect((2, 3, 5)) == (14, 3, 5)
    with pytest.raises(ConfigurationError, match="must have time in"):
        MonomialBasis(desk_spec, (((0, 2, 0),),))


@pytest.mark.parametrize("pt", [(1.7, 0, 0), (1, 0.5, 0), (float("nan"), 0, 0),
                                (float("inf"), 0, 0), ("1", 0, 0), ([1], 0, 0)])
def test_basis_rejects_non_integer_coordinates(desk_spec, pt):
    with pytest.raises(ConfigurationError, match="point"):
        MonomialBasis(desk_spec, ((pt,),))


def test_basis_accepts_integral_numbers(desk_spec):
    basis = MonomialBasis(desk_spec, (((np.int64(1), 0, 0),), ((2.0, 1, 0),)))
    assert basis.monomials == (((1, 0, 0),), ((2, 1, 0),))


def test_reflection_is_involution(basis6):
    for mon in basis6.monomials:
        for pt in mon:
            assert basis6.reflect(basis6.reflect(pt)) == pt
            assert basis6.reflect(pt)[0] == basis6.spec.L - pt[0]


def test_min_eigenvalue_examples():
    val, vec = min_eigenvalue(np.eye(3))
    assert val == pytest.approx(1.0)
    val, vec = min_eigenvalue(np.diag([1.0, -1.0]))
    assert val == pytest.approx(-1.0)
    assert abs(vec[1]) == pytest.approx(1.0)
    with pytest.raises(ContractViolation):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eigenvalue_char_poly_oracle(rng):
    a = rng.normal(size=(3, 3))
    m = a + a.T
    val, vec = min_eigenvalue(m)
    roots = np.roots(np.poly(m))
    assert val == pytest.approx(min(roots.real), rel=1e-9)
    assert np.allclose(m @ vec, val * vec, atol=1e-9)


def test_constant_basis_gram(model_half, desk_spec, gaussian_chi):
    basis = MonomialBasis(desk_spec, ((),))
    m = build_reflection_gram(model_half, gaussian_chi, basis)
    assert m.shape == (1, 1)
    assert m[0, 0] == 1.0


def test_degree_one_gram_is_s2_kernel(model_half, desk_spec, gaussian_chi, basis6):
    m = build_reflection_gram(model_half, gaussian_chi, basis6)
    for a, mon_a in enumerate(basis6.monomials):
        for b, mon_b in enumerate(basis6.monomials):
            s2 = analytic_truncated_schwinger(
                model_half, gaussian_chi, desk_spec,
                [basis6.reflect(mon_a[0]), mon_b[0]])
            assert m[a, b] == pytest.approx(s2, rel=1e-10)


def reference_gram(p, chi, basis, centered):
    """Per-entry loop: each moment by moments_from_cumulants over every
    subset's analytic_truncated_schwinger (c_1 dropped when centered)."""
    n = basis.size
    m = np.empty((n, n))
    for a, mon_a in enumerate(basis.monomials):
        for b, mon_b in enumerate(basis.monomials):
            pts = [basis.reflect(pt) for pt in mon_a] + list(mon_b)
            if not pts:
                m[a, b] = 1.0
                continue
            cums = {}
            for size in range(1, len(pts) + 1):
                for idx in combinations(range(len(pts)), size):
                    cums[frozenset(idx)] = 0.0 if centered and size == 1 else (
                        analytic_truncated_schwinger(p, chi, basis.spec,
                                                     [pts[i] for i in idx]))
            m[a, b] = moments_from_cumulants(cums, len(pts))
    return 0.5 * (m + m.T)


def uncentering(p, chi, basis):
    """T with uncentered monomials = T @ centered ones: phi = psi + mu."""
    mu = analytic_truncated_schwinger(p, chi, basis.spec, [basis.monomials[1][0]])
    col = {mon: k for k, mon in enumerate(basis.monomials)}
    t = np.eye(basis.size)
    for a, mon in enumerate(basis.monomials):
        if len(mon) == 1:
            t[a, col[()]] = mu
        elif len(mon) == 2:
            t[a, col[()]] = mu * mu
            for x in mon:
                t[a, col[(x,)]] += mu
    return t


# centered: the Gram against the per-entry reference.  Uncentered: the
# reference is the congruence T M T^T of the Gram (a degree-2 basis holds the
# constant), so it has the same inertia and centering hides no witness
@pytest.mark.parametrize("centered", [True, False])
def test_gram_matches_per_entry_reference(small_spec, mixed_chi, centered):
    p = ModelParams(0.5, 1.0, "discrete")
    basis = MonomialBasis.up_to_degree_two(small_spec, [(1, 0, 0), (2, 1, 0), (3, 0, 1)])

    def check(chi):
        m = build_reflection_gram(p, chi, basis)
        if not centered:
            t = uncentering(p, chi, basis)
            m = t @ m @ t.T
        np.testing.assert_allclose(m, reference_gram(p, chi, basis, centered),
                                   rtol=1e-12, atol=0.0)

    check(mixed_chi)
    # a second lambda on the same basis reuses every lattice sum
    points = tuple(sorted({pt for mon in basis.monomials for x in mon
                           for pt in (x, basis.reflect(x))}))
    table = cumulants._lattice_sums(p, small_spec, points)
    outer, inner = cumulants._lattice_sums.cache_info().misses, table.cache_info().misses
    check(replace(mixed_chi, lam=4.0))
    assert cumulants._lattice_sums.cache_info().misses == outer
    assert table.cache_info().misses == inner


def test_gram_entry_monte_carlo_oracle(desk_spec, basis6):
    p = ModelParams(0.75, 1.0, "discrete")
    chi = LevyCharacteristic(sigma2=1.0)
    m = build_reflection_gram(p, chi, basis6)
    w = np.zeros(basis6.size)
    w[0] = 1.0
    mc, se = witness_quadratic_form_mc(p, chi, basis6, w, 4000, 61, workers=2)
    assert abs(mc - m[0, 0]) <= 4.0 * se


def test_gram_order_cap(model_half, desk_spec, poisson_chi):
    pts = [(1, 0, 0), (2, 0, 0)]
    basis = MonomialBasis.up_to_degree_two(desk_spec, pts)
    # degree-2 x degree-2 entries need order-4 moments: fine
    build_reflection_gram(model_half, poisson_chi, basis)
    # degree-3 monomials are rejected at construction, so order >4 cannot occur
    with pytest.raises(ConfigurationError):
        MonomialBasis(desk_spec, (((1, 0, 0),) * 3,))


def test_free_field_gram_psd(desk_spec, gaussian_chi):
    p = ModelParams(0.5, 1.0, "discrete")
    pts = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)]
    basis = MonomialBasis.up_to_degree_two(desk_spec, pts)
    rep = gram_report(p, gaussian_chi, basis)
    norm = np.linalg.norm(rep.matrix, 2)
    assert rep.min_eig >= -1e-8 * norm


def test_rescaling_degree_one_homogeneous(desk_spec, basis6):
    # scaling sigma2 by c^2 scales every degree-1 Gram entry by c^2
    p = ModelParams(0.75, 1.0, "discrete")
    m1 = build_reflection_gram(p, LevyCharacteristic(sigma2=1.0), basis6)
    m2 = build_reflection_gram(p, LevyCharacteristic(sigma2=4.0), basis6)
    assert np.allclose(m2, 4.0 * m1, rtol=1e-10)
    assert np.sign(min_eigenvalue(m1)[0]) == np.sign(min_eigenvalue(m2)[0])


def test_rp_scan_records_failures(desk_spec, basis6):
    chi = LevyCharacteristic(sigma2=1.0)
    rows = rp_scan([0.5], [-1.0, 0.0], ModelParams(0.5, 1.0, "discrete"), chi, basis6)
    assert len(rows) == 2
    assert "error" in rows[0]  # negative lambda is rejected
    assert "min_eig" in rows[1]


def test_witness_record_and_verify(desk_spec, basis6):
    p = ModelParams(0.75, 1.0, "discrete")
    chi = LevyCharacteristic(sigma2=1.0)
    rep = gram_report(p, chi, basis6)
    assert rep.min_eig < 0.0
    record = witness_record(rep)
    verdict = verify_witness(record, fresh_seed=303, n_samples=4000, workers=2)
    assert verdict["analytic_form"] == pytest.approx(rep.min_eig, rel=1e-9)
    assert verdict["status"] in ("CONFIRMED", "REJECTED")
    # consistency of the Monte-Carlo form with the analytic one
    assert abs(verdict["mc_form"] - verdict["analytic_form"]) <= 4.0 * verdict["mc_stderr"]


def test_verify_witness_rejects_degenerate(desk_spec, basis6):
    p = ModelParams(0.75, 1.0, "discrete")
    chi = LevyCharacteristic(sigma2=1.0)
    record = witness_record(gram_report(p, chi, basis6))
    record["coefficients"] = [0.0] * len(record["coefficients"])
    with pytest.raises(ConfigurationError):
        verify_witness(record, fresh_seed=1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_verify_witness_non_finite_coefficients(basis6, monkeypatch, bad):
    p = ModelParams(0.75, 1.0, "discrete")
    record = witness_record(gram_report(p, LevyCharacteristic(sigma2=1.0), basis6))
    record["coefficients"][2] = bad
    monkeypatch.setattr(rp, "build_reflection_gram", _no_work)
    monkeypatch.setattr(rp, "witness_quadratic_form_mc", _no_work)
    with pytest.raises(ConfigurationError, match="witness: coefficients: non-finite"):
        verify_witness(record, fresh_seed=1)


def test_verify_witness_needs_two_samples(basis6, monkeypatch):
    p = ModelParams(0.75, 1.0, "discrete")
    record = witness_record(gram_report(p, LevyCharacteristic(sigma2=1.0), basis6))
    monkeypatch.setattr(rp, "build_reflection_gram", _no_work)
    monkeypatch.setattr(rp, "witness_quadratic_form_mc", _no_work)
    with pytest.raises(ConfigurationError, match="n_samples: must be >= 2, got 1"):
        verify_witness(record, fresh_seed=1, n_samples=1)


def test_verify_witness_length_mismatch(desk_spec, basis6):
    p = ModelParams(0.75, 1.0, "discrete")
    chi = LevyCharacteristic(sigma2=1.0)
    record = witness_record(gram_report(p, chi, basis6))
    record["coefficients"] = record["coefficients"][:-1]
    with pytest.raises(ConfigurationError):
        verify_witness(record, fresh_seed=1)


def test_rp_scan_propagates_bugs(desk_spec, basis6, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(rp, "gram_report", broken)
    with pytest.raises(RuntimeError, match="bug"):
        rp_scan([0.5], [0.0], ModelParams(0.5, 1.0, "discrete"),
                LevyCharacteristic(sigma2=1.0), basis6)
