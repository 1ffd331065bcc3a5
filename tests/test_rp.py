import os
import subprocess
import sys
from dataclasses import replace
from functools import cache
from itertools import combinations

import numpy as np
import pytest

import levylab
from levylab import (ConfigurationError, ContractViolation, JumpLaw,
                     LatticeSpec, LevyCharacteristic, ModelParams,
                     MonomialBasis, RangeError, analytic_truncated_schwinger,
                     build_reflection_gram, gram_report, min_eigenvalue,
                     moments_from_cumulants, noise_cumulant, rp_scan,
                     set_partitions, verify_witness, witness_record)
from levylab import rp, sampler
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
    # a second lambda on the same basis reuses the plan and its lattice sums
    misses = rp._gram_plan.cache_info().misses
    check(replace(mixed_chi, lam=4.0))
    assert rp._gram_plan.cache_info().misses == misses


CRITERION_7_POINTS = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)]
PLAN_LAWS = {
    "atom": LevyCharacteristic(jump_law=JumpLaw.atom(1.0)),
    "symmetric_atoms": LevyCharacteristic(jump_law=JumpLaw.atoms([(1.0, 0.5), (-1.0, 0.5)])),
    "two_sided_exponential": LevyCharacteristic(jump_law=JumpLaw.two_sided_exponential(1.0)),
    "gaussian": LevyCharacteristic(sigma2=1.0),
}


def scalar_gram(p, basis):
    """The centered Gram entry by entry, as a function of the noise: each
    moment a scalar partition sum of prod_B c_|B| K(B), each K(B) one product
    of Green rows summed over the sites."""
    mons = basis.monomials
    theta = [tuple(basis.reflect(pt) for pt in mon) for mon in mons]
    points = tuple(sorted({pt for mon in mons + tuple(theta) for pt in mon}))
    rows = sampler._green_rows(p, basis.spec, points)
    cell = basis.spec.cell_volume

    @cache
    def lattice_sum(idx):
        prod = rows[idx[0]]
        for i in idx[1:]:
            prod = prod * rows[i]
        return float(cell * prod.sum())

    def gram(chi):
        c = [0.0, 0.0] + [noise_cumulant(chi, k) for k in range(2, 5)]  # c_1 = 0: centered
        n = basis.size
        m = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                idx = sorted(points.index(pt) for pt in theta[a] + mons[b])
                total = 0.0
                for part in set_partitions(range(len(idx))):
                    prod = 1.0
                    for block in part:
                        if c[len(block)] == 0.0:
                            prod = 0.0
                            break
                        prod *= c[len(block)] * lattice_sum(tuple(idx[i] for i in block))
                    total += prod
                m[a, b] = total
        return 0.5 * (m + m.T)

    return gram


# the plan's array evaluation gives the bits of the scalar partition sum:
# c_3 = 0 for the symmetric atoms, and the Gaussian has only c_2
@pytest.mark.parametrize("alpha", [0.25, 0.5])
@pytest.mark.parametrize("law", PLAN_LAWS)
def test_gram_plan_matches_scalar_partition_sum(desk_spec, law, alpha):
    p = ModelParams(alpha, 1.0, "discrete")
    basis = MonomialBasis.up_to_degree_two(desk_spec, CRITERION_7_POINTS)
    gram = scalar_gram(p, basis)
    chi = PLAN_LAWS[law]
    for lam in [0.0] if law == "gaussian" else [1e-2, 1.0, 1e2, 1e4]:
        chi = replace(chi, lam=lam)
        m = build_reflection_gram(p, chi, basis)
        assert np.array_equal(m.view(np.uint64), gram(chi).view(np.uint64)), lam


def test_gram_asymmetry_raises(desk_spec, basis6, monkeypatch):
    # a translation in time in place of the reflection: <theta A, B> and
    # <theta B, A> differ at O(1)
    p = ModelParams(0.75, 1.0, "discrete")
    monkeypatch.setattr(MonomialBasis, "reflect",
                        lambda self, pt: ((pt[0] + 5) % self.spec.L,) + tuple(pt[1:]))
    rp._gram_plan.cache_clear()
    try:
        with pytest.raises(ContractViolation, match="asymmetry"):
            build_reflection_gram(p, LevyCharacteristic(sigma2=1.0), basis6)
    finally:
        rp._gram_plan.cache_clear()  # the plan of the translated basis


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


@pytest.mark.parametrize("mc, err, z, resolved", [
    (-1.0, 0.2, -5.0, True), (-1.0, 0.25, -4.0, False), (0.5, 0.25, 2.0, False),
    (-0.3, 0.0, None, True), (0.0, 0.0, None, False)])
def test_verify_witness_sign_fields(basis6, monkeypatch, mc, err, z, resolved):
    # sign_z = mc_form / mc_stderr, None at stderr 0; resolved iff mc + 4 stderr < 0
    p = ModelParams(0.75, 1.0, "discrete")
    record = witness_record(gram_report(p, LevyCharacteristic(sigma2=1.0), basis6))
    monkeypatch.setattr(rp, "witness_quadratic_form_mc", lambda *args, **kwargs: (mc, err))
    verdict = verify_witness(record, fresh_seed=1)
    assert verdict["sign_z"] == z
    assert verdict["sign_resolved"] is resolved


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


def test_scan_memory_does_not_grow_with_alphas():
    # rp_scan over 8 alphas on 64^3 (the rpscan basis, degree 2, discrete,
    # atom(1), lambda 1) in a fresh interpreter: the lattice caches keep the
    # Green rows and half spectra of at most two alphas, so the peak above
    # the imports stays at most 60 fields of 2 MiB.  VmHWM is the new
    # process's own peak.
    code = ("def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(s.split()[1]) for s in fh if s.startswith('VmHWM:'))\n"
            "from levylab import (JumpLaw, LatticeSpec, LevyCharacteristic, ModelParams,\n"
            "                     MonomialBasis, rp_scan)\n"
            "before = peak_kib()\n"
            "spec = LatticeSpec(3, 64, 0.5)\n"
            "pts = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)]\n"
            "rows = rp_scan([0.2 + 0.05 * k for k in range(8)], [1.0],\n"
            "               ModelParams(0.5, 1.0, 'discrete'),\n"
            "               LevyCharacteristic(lam=1.0, jump_law=JumpLaw.atom(1.0)),\n"
            "               MonomialBasis.up_to_degree_two(spec, pts))\n"
            "assert all('min_eig' in row for row in rows), rows\n"
            "print(peak_kib() - before)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(levylab.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert int(out.stdout) <= 60 * 64**3 * 8 // 1024
