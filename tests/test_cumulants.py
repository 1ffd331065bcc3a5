from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import (ConfigurationError, CumulantEstimate, Ensemble, JumpLaw,
                     LatticeSpec, LevyCharacteristic, ModelParams, RangeError,
                     analytic_truncated_schwinger, empirical_cumulant,
                     empirical_two_point, full_schwinger_moment,
                     moments_from_cumulants, noise_cumulant, sample_ensemble,
                     set_partitions)
from levylab.cumulants import (accumulate_subset_sums, cumulant_from_subset_sums,
                               joint_cumulant_jackknife)
from levylab.greens import green_momentum_sq, squared_momentum

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def restricted_growth_partitions(n):
    """Independent partition enumerator via restricted growth strings."""
    out = []
    code = [0] * n

    def rec(i, max_label):
        if i == n:
            blocks = {}
            for idx, lab in enumerate(code):
                blocks.setdefault(lab, []).append(idx)
            out.append(sorted(blocks.values()))
            return
        for lab in range(max_label + 2):
            code[i] = lab
            rec(i + 1, max(max_label, lab))

    rec(0, -1)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_set_partitions_complete(n):
    parts = [sorted(sorted(b) for b in p) for p in set_partitions(range(n))]
    assert len(parts) == BELL[n]
    oracle = [sorted(p) for p in restricted_growth_partitions(n)]
    assert sorted(map(str, parts)) == sorted(map(str, oracle))


def test_moments_from_cumulants_small():
    cums = {frozenset([0]): 1.5, frozenset([1]): 1.5, frozenset([0, 1]): 2.0}
    assert moments_from_cumulants(cums, 2) == pytest.approx(2.0 + 1.5**2)
    # n=3 with vanishing first cumulants: m3 = kappa3
    cums3 = {frozenset(s): 0.0 for i in range(3) for s in [(i,)]}
    for pair in [(0, 1), (0, 2), (1, 2)]:
        cums3[frozenset(pair)] = 0.7
    cums3[frozenset([0, 1, 2])] = 4.0
    assert moments_from_cumulants(cums3, 3) == pytest.approx(4.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10_000))
def test_moments_from_cumulants_vs_exhaustive(n, seed):
    rng = np.random.default_rng(seed)
    from itertools import combinations
    cums = {frozenset(s): rng.normal()
            for size in range(1, n + 1)
            for s in combinations(range(n), size)}
    expected = 0.0
    for part in restricted_growth_partitions(n):
        prod = 1.0
        for block in part:
            prod *= cums[frozenset(block)]
        expected += prod
    assert moments_from_cumulants(cums, n) == pytest.approx(expected, rel=1e-12)


def test_moments_from_cumulants_missing_subset():
    with pytest.raises(ConfigurationError):
        moments_from_cumulants({frozenset([0]): 1.0}, 2)


# ---------------------------------------------------------------------------
# analytic truncated Schwinger functions


def test_gaussian_fourth_cumulant_zero(model_half, desk_spec, gaussian_chi):
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert analytic_truncated_schwinger(model_half, gaussian_chi, desk_spec, pts) == 0.0


def test_first_order_is_mean(desk_spec):
    chi = LevyCharacteristic(b=0.7)
    p = ModelParams(0.3, 2.0)
    val = analytic_truncated_schwinger(p, chi, desk_spec, [(3, 1, 4)])
    assert val == pytest.approx(0.7 * 2.0**-0.6, abs=1e-10)


def test_second_order_coincident_parseval(model_half, desk_spec, gaussian_chi):
    val = analytic_truncated_schwinger(model_half, gaussian_chi, desk_spec,
                                       [(0, 0, 0), (0, 0, 0)])
    ghat = green_momentum_sq(model_half, squared_momentum(desk_spec))
    expected = np.sum(ghat**2) / desk_spec.volume
    assert val == pytest.approx(expected, rel=1e-10)


def test_permutation_symmetry(model_half, desk_spec, poisson_chi):
    pts = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (0, 3, 2)]
    a = analytic_truncated_schwinger(model_half, poisson_chi, desk_spec, pts)
    b = analytic_truncated_schwinger(model_half, poisson_chi, desk_spec,
                                     [pts[2], pts[0], pts[3], pts[1]])
    assert a == b


def test_translation_invariance(model_half, desk_spec, poisson_chi):
    pts = [(0, 0, 0), (1, 0, 0), (2, 1, 0)]
    a = analytic_truncated_schwinger(model_half, poisson_chi, desk_spec, pts)
    shift = (5, 11, 3)
    moved = [tuple((c + s) % desk_spec.L for c, s in zip(p, shift)) for p in pts]
    b = analytic_truncated_schwinger(model_half, poisson_chi, desk_spec, moved)
    assert a == pytest.approx(b, rel=1e-12)


def test_even_order_positivity(model_half, desk_spec, poisson_chi, rng):
    for _ in range(5):
        pts = [tuple(rng.integers(0, desk_spec.L, size=3)) for _ in range(4)]
        assert analytic_truncated_schwinger(model_half, poisson_chi,
                                            desk_spec, pts) > 0.0


def test_order_bounds(model_half, desk_spec, poisson_chi):
    with pytest.raises(RangeError):
        analytic_truncated_schwinger(model_half, poisson_chi, desk_spec,
                                     [(0, 0, 0)] * 7)
    with pytest.raises(ConfigurationError):
        analytic_truncated_schwinger(model_half, poisson_chi, desk_spec,
                                     [(0, 0)])


# ---------------------------------------------------------------------------
# full moments


def test_full_moment_gaussian_isserlis(model_half, desk_spec, gaussian_chi):
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    s2 = lambda i, j: analytic_truncated_schwinger(
        model_half, gaussian_chi, desk_spec, [pts[i], pts[j]])
    wick = s2(0, 1) * s2(2, 3) + s2(0, 2) * s2(1, 3) + s2(0, 3) * s2(1, 2)
    val = full_schwinger_moment(model_half, gaussian_chi, desk_spec, pts)
    assert val == pytest.approx(wick, rel=1e-12)


def test_full_moment_order_two(model_half, desk_spec, mixed_chi):
    pts = [(0, 0, 0), (2, 0, 0)]
    s2 = analytic_truncated_schwinger(model_half, mixed_chi, desk_spec, pts)
    s1 = analytic_truncated_schwinger(model_half, mixed_chi, desk_spec, [pts[0]])
    val = full_schwinger_moment(model_half, mixed_chi, desk_spec, pts)
    assert val == pytest.approx(s2 + s1 * s1, rel=1e-12)


def test_full_moment_centered_drops_singletons(model_half, desk_spec, mixed_chi):
    pts = [(0, 0, 0), (2, 0, 0)]
    s2 = analytic_truncated_schwinger(model_half, mixed_chi, desk_spec, pts)
    val = full_schwinger_moment(model_half, mixed_chi, desk_spec, pts, centered=True)
    assert val == pytest.approx(s2, rel=1e-12)


def test_full_moment_matches_simulation(model_half, desk_spec, poisson_chi):
    pts = [(0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 0)]
    e = sample_ensemble(model_half, poisson_chi, desk_spec, 4000, 17, workers=2)
    x = e.fields[:, 0, 0, 0] * e.fields[:, 1, 0, 0]
    mc = float((x * x).mean())
    se = float(x.std(ddof=1)**2 / np.sqrt(len(x)) + (x**2).std(ddof=1) / np.sqrt(len(x)))
    val = full_schwinger_moment(model_half, poisson_chi, desk_spec, pts)
    assert abs(val - mc) <= 4.0 * se


# ---------------------------------------------------------------------------
# empirical estimators


def test_estimate_validation():
    with pytest.raises(ConfigurationError):
        CumulantEstimate(1.0, -0.1, 100, 2)
    with pytest.raises(ConfigurationError):
        CumulantEstimate(1.0, 0.1, 1, 2)


def test_empirical_cumulant_deterministic_ensemble(model_half, small_spec, gaussian_chi):
    base = sample_ensemble(model_half, gaussian_chi, small_spec, 1, 3)
    fields = np.repeat(base.fields, 50, axis=0)
    e = Ensemble(model_half, gaussian_chi, small_spec, 3, fields)
    est = empirical_cumulant(e, [(0, 0, 0), (1, 0, 0)])
    assert est.value == pytest.approx(0.0, abs=1e-14)
    assert est.stderr == pytest.approx(0.0, abs=1e-14)


def test_joint_cumulant_synthetic_poisson(rng):
    # all cumulants of Poisson(mu) equal mu
    mu = 1.7
    x = rng.poisson(mu, size=(60_000, 1)).astype(float)
    for n in range(1, 5):
        cols = np.repeat(x, n, axis=1)
        val, se = joint_cumulant_jackknife(cols)
        assert abs(val - mu) <= 4.0 * se


def test_subset_sums_match_per_subset_products(model_half, small_spec, poisson_chi):
    e = sample_ensemble(model_half, poisson_chi, small_spec, 4, 11)
    pts = [(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 2, 1)]
    sums = accumulate_subset_sums(e.fields, small_spec, pts)
    subsets = [idx for size in range(1, 5) for idx in combinations(range(4), size)]
    for k, idx in enumerate(subsets):
        ref = np.zeros(small_spec.n_sites)
        for f in e.fields:
            prod = np.roll(f, [-c for c in pts[idx[0]]], axis=(0, 1, 2)).ravel()
            for j in idx[1:]:
                prod = prod * np.roll(f, [-c for c in pts[j]], axis=(0, 1, 2)).ravel()
            ref += prod
        assert np.array_equal(sums[k], ref)


def test_block_jackknife_matches_explicit_deletion(rng):
    sums = rng.random((5, 3, 7)) * 10.0  # subsets {0}, {1}, {0, 1}
    counts = np.array([10.0, 12.0, 9.0, 11.0, 10.0])

    def cov(s, n):
        m = s / n
        return np.mean(m[2] - m[0] * m[1])

    total = sums.sum(axis=0)
    deleted = np.array([cov(total - sums[i], counts.sum() - counts[i])
                        for i in range(5)])
    stderr = np.sqrt(4 / 5 * np.sum((deleted - deleted.mean()) ** 2))
    est = cumulant_from_subset_sums(sums, counts, 2)
    assert est.value == pytest.approx(cov(total, counts.sum()), rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)
    assert est.n_samples == 52


def test_empirical_cumulant_needs_samples(model_half, small_spec, gaussian_chi):
    e = sample_ensemble(model_half, gaussian_chi, small_spec, 30, 3)
    with pytest.raises(RangeError):
        empirical_cumulant(e, [(0, 0, 0)] * 3)  # needs >= 80


def test_empirical_cumulant_agrees_with_analytic(model_half, small_spec, gaussian_chi):
    e = sample_ensemble(model_half, gaussian_chi, small_spec, 4000, 19, workers=2)
    pts = [(0, 0, 0), (1, 0, 0)]
    est = empirical_cumulant(e, pts)
    an = analytic_truncated_schwinger(model_half, gaussian_chi, small_spec, pts)
    assert abs(est.value - an) <= 4.0 * est.stderr


def test_empirical_two_point_map(model_half, small_spec, gaussian_chi):
    e = sample_ensemble(model_half, gaussian_chi, small_spec, 3000, 23, workers=2)
    vals, err = empirical_two_point(e)
    for sep in [(0, 0, 0), (1, 0, 0), (0, 2, 0)]:
        an = analytic_truncated_schwinger(model_half, gaussian_chi, small_spec,
                                          [(0, 0, 0), sep])
        assert abs(vals[sep] - an) <= 5.0 * err[sep]
