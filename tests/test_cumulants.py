import hashlib
import os
import subprocess
import sys
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab
from levylab import (ConfigurationError, CumulantEstimate, JumpLaw,
                     LatticeSpec, LevyCharacteristic, ModelParams, RangeError,
                     analytic_truncated_schwinger, empirical_two_point,
                     full_schwinger_moment, moments_from_cumulants,
                     noise_cumulant, sample_ensemble, set_partitions)
from levylab.cumulants import (N_BLOCKS, accumulate_subset_sums,
                               cumulant_from_subset_sums, sample_subset_sums)
from levylab.greens import green_momentum_sq, green_real_fft, squared_momentum

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


@settings(max_examples=25)
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
    # the error names the first block, in partition order, that has no cumulant
    with pytest.raises(ConfigurationError, match=r"missing cumulant for subset \[0, 1\]"):
        moments_from_cumulants({frozenset([0]): 1.0}, 2)
    with pytest.raises(ConfigurationError, match=r"missing cumulant for subset \[0\]$"):
        moments_from_cumulants({frozenset([0, 1]): 1.0}, 2)
    all_but_12 = {k: 1.0 for n in (1, 2, 3) for k in map(frozenset, combinations(range(3), n))
                  if k != {1, 2}}
    with pytest.raises(ConfigurationError, match=r"missing cumulant for subset \[1, 2\]"):
        moments_from_cumulants(all_but_12, 3)


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


@pytest.mark.parametrize("symbol", ["continuum", "discrete"])
def test_lattice_sum_matches_rolled_green_grid(small_spec, mixed_chi, rng, symbol):
    # pre-table kernel as the reference: c_n * a^d * sum_y prod_j G(y - x_j),
    # with G symmetric, from rolled copies of the Green grid
    p = ModelParams(0.6, 1.2, symbol)
    g = green_real_fft(p, small_spec).values
    for n in range(1, 7):
        pts = [tuple(int(c) for c in rng.integers(0, small_spec.L, size=3))
               for _ in range(n)]
        prod = np.ones(small_spec.shape)
        for x in pts:
            prod = prod * np.roll(g, shift=x, axis=(0, 1, 2))
        ref = noise_cumulant(mixed_chi, n) * small_spec.cell_volume * prod.sum()
        val = analytic_truncated_schwinger(p, mixed_chi, small_spec, pts)
        assert val == pytest.approx(ref, rel=1e-12)


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


# The scalar route's bits on 8^3 at alpha 0.6, m0 1.2, per symbol: the sha256
# of (S_n^T, moment, centered moment) of SCALAR_PTS[:n] for n = 1..6 under
# the uniform law and a Gaussian law with a negative mean, then the hex of
# S_4^T and of the three values at n = 6 under the uniform law.  Re-recorded
# when G became the irfftn of the solve's half spectrum (moved by at most
# 7.8e-16 relative).
SCALAR_PTS = [(0, 0, 0), (1, 0, 0), (0, 0, 0), (2, 3, 1), (7, 1, 0), (1, 0, 0)]
SCALAR_PINS = {
    "continuum": ("d044a56b04419b5c41a3703d0cf153b4db8bbd18d3987220e9ef0afdad9c25e3",
                  "0x1.1b46687059051p-10", "0x1.69dc6373d10f6p-15",
                  "0x1.cf82aec93258ap+5", "0x1.636ad2b0aa1c8p-6"),
    "discrete": ("6b099a5044c2df21a6edc362c460a872a30a68caa6613867cbbc5cf67e1f149c",
                 "0x1.606df7d399ff8p-10", "0x1.8ed904d75b210p-15",
                 "0x1.ffd06dd6655e5p+5", "0x1.e426a6c47cdcap-6"),
}


@pytest.mark.parametrize("symbol", sorted(SCALAR_PINS))
def test_scalar_route_bits_pinned(small_spec, mixed_chi, symbol):
    p = ModelParams(0.6, 1.2, symbol)
    vals = [route(p, chi, small_spec, SCALAR_PTS[:n])
            for chi in (mixed_chi, LevyCharacteristic(b=-0.4, sigma2=1.0))
            for n in range(1, 7)
            for route in (analytic_truncated_schwinger, full_schwinger_moment,
                          partial(full_schwinger_moment, centered=True))]
    digest = hashlib.sha256(np.array(vals, "<f8").tobytes()).hexdigest()
    assert (digest, vals[9].hex(), *(v.hex() for v in vals[15:18])) == SCALAR_PINS[symbol]


def test_subset_sums_build_each_gather_index_once(model_half, small_spec, poisson_chi,
                                                  monkeypatch):
    # six 6-point sets over 30 distinct nonzero points: one gather index per
    # point for the whole call, and none more for the same plan again
    pts = [(t, x, y) for t in (1, 2, 3) for x in range(4) for y in range(3)][:30]
    configs = [[(0, 0, 0)] + pts[5 * k:5 * k + 5] for k in range(6)]
    for obj in vars(levylab.cumulants).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    builds = []
    ravel = np.ravel_multi_index

    def counted(*args, **kwargs):
        builds.append(args[0])
        return ravel(*args, **kwargs)

    monkeypatch.setattr(np, "ravel_multi_index", counted)
    sample_subset_sums(model_half, poisson_chi, small_spec, configs, 10, 3)
    assert len(builds) == 30
    sample_subset_sums(model_half, poisson_chi, small_spec, configs, 10, 4)
    assert len(builds) == 30


def test_analytic_value_memory_at_scale():
    # one S_4^T on 128^3 in a fresh interpreter needs G, its four Green rows
    # and their products: at most 10 fields of 16 MiB above the imports.  The
    # peak is VmHWM (KiB), the new process's own: after exec, ru_maxrss
    # starts from the RSS of the process that forked it, here pytest's
    code = ("def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(s.split()[1]) for s in fh if s.startswith('VmHWM:'))\n"
            "from levylab import (JumpLaw, LatticeSpec, LevyCharacteristic, ModelParams,\n"
            "                     analytic_truncated_schwinger)\n"
            "before = peak_kib()\n"
            "chi = LevyCharacteristic(lam=2.0, jump_law=JumpLaw.atom(1.0))\n"
            "analytic_truncated_schwinger(ModelParams(0.5, 1.0), chi, LatticeSpec(3, 128, 0.5),\n"
            "                             [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])\n"
            "print(peak_kib() - before)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(levylab.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert int(out.stdout) <= 10 * 128**3 * 8 // 1024


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
    # 50 identical blocks of the column products of one field's values at two points
    f = sample_ensemble(model_half, gaussian_chi, small_spec, 1, 3).fields[0]
    x, y = f[0, 0, 0], f[1, 0, 0]
    est = cumulant_from_subset_sums(np.tile([[x], [y], [x * y]], (50, 1, 1)), np.ones(50), 2)
    assert est.value == pytest.approx(0.0, abs=1e-14)
    assert est.stderr == pytest.approx(0.0, abs=1e-14)


def test_joint_cumulant_synthetic_poisson(rng):
    # all cumulants of Poisson(mu) equal mu; n copies of one sample x make the
    # product over a subset S equal to x^|S|
    mu = 1.7
    x = rng.poisson(mu, size=(60_000, 1)).astype(float)
    for n in range(1, 5):
        sizes = [size for size in range(1, n + 1) for _ in combinations(range(n), size)]
        est = cumulant_from_subset_sums((x ** sizes)[:, :, None], np.ones(len(x)), n)
        assert abs(est.value - mu) <= 4.0 * est.stderr


def test_subset_sums_match_per_subset_products(model_half, small_spec, poisson_chi):
    e = sample_ensemble(model_half, poisson_chi, small_spec, 4, 11)
    pts = [(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 2, 1)]
    sums = accumulate_subset_sums(e.fields, small_spec, pts)
    subsets = [idx for size in range(1, 5) for idx in combinations(range(4), size)]
    assert sums.shape == (len(subsets), 1)
    for k, idx in enumerate(subsets):
        ref = np.zeros(1)
        for f in e.fields:  # the sum over fields of each translation mean
            prod = np.roll(f, [-c for c in pts[idx[0]]], axis=(0, 1, 2)).ravel()
            for j in idx[1:]:
                prod = prod * np.roll(f, [-c for c in pts[j]], axis=(0, 1, 2)).ravel()
            ref += prod.mean()
        assert np.array_equal(sums[k], ref)


def test_block_jackknife_matches_explicit_deletion(rng):
    sums = rng.random((5, 3, 7)) * 10.0  # subsets {0}, {1}, {0, 1}
    counts = np.array([10.0, 12.0, 9.0, 11.0, 10.0])

    def cov(s, n):  # moments pooled over the 7 translations, then the formula
        m = s / n
        return np.mean(m[2]) - np.mean(m[0]) * np.mean(m[1])

    total = sums.sum(axis=0)
    deleted = np.array([cov(total - sums[i], counts.sum() - counts[i])
                        for i in range(5)])
    stderr = np.sqrt(4 / 5 * np.sum((deleted - deleted.mean()) ** 2))
    est = cumulant_from_subset_sums(sums, counts, 2)
    assert est.value == pytest.approx(cov(total, counts.sum()), rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)
    assert est.n_samples == 52


def test_empirical_cumulant_needs_samples():
    with pytest.raises(ConfigurationError):  # a stderr needs two samples
        cumulant_from_subset_sums(np.ones((1, 1, 1)), [1], 1)


@pytest.mark.parametrize("shape, order, n_counts, error", [
    ((5, 3, 1), 1, 5, ConfigurationError),
    ((5, 15, 1), 2, 5, ConfigurationError),
    ((5, 3, 1), 3, 5, ConfigurationError),
    ((5, 3), 2, 5, ConfigurationError),
    ((5, 3, 1), 2, 4, ConfigurationError),
    ((5, 0, 1), 0, 5, RangeError),
], ids=["order_1_of_3", "order_2_of_15", "order_3_of_3", "two_d", "four_counts", "order_0"])
def test_estimator_rejects_mismatched_input(rng, shape, order, n_counts, error):
    # a subset axis of another order, a missing translation axis or a count
    # per block too few must not reach the Moebius formula
    with pytest.raises(error):
        cumulant_from_subset_sums(rng.random(shape), np.ones(n_counts), order)


@pytest.mark.parametrize("counts", [[0, 0, 5], [5, -5, 5]])
def test_estimator_rejects_blocks_without_samples(counts):
    # a block of no or negative samples is no block: its deleted pool divides
    # by zero and the estimate would read a number with a NaN stderr
    with pytest.raises(ConfigurationError, match=r"block counts \[.*\] must each be >= 1"):
        cumulant_from_subset_sums(np.ones((3, 1, 1)), counts, 1)


def test_empirical_cumulant_agrees_with_analytic(model_half, small_spec, gaussian_chi):
    pts = [(0, 0, 0), (1, 0, 0)]
    (sums,), counts = sample_subset_sums(model_half, gaussian_chi, small_spec, [pts], 4000, 19,
                                         workers=2)
    est = cumulant_from_subset_sums(sums, counts, 2)
    an = analytic_truncated_schwinger(model_half, gaussian_chi, small_spec, pts)
    assert abs(est.value - an) <= 4.0 * est.stderr


def test_empirical_two_point_map(model_half, small_spec, gaussian_chi):
    vals, err = empirical_two_point(model_half, gaussian_chi, small_spec, 3000, 23,
                                    workers=2)
    for sep in [(0, 0, 0), (1, 0, 0), (0, 2, 0)]:
        an = analytic_truncated_schwinger(model_half, gaussian_chi, small_spec,
                                          [(0, 0, 0), sep])
        assert abs(vals[sep] - an) <= 5.0 * err[sep]


def test_empirical_two_point_worker_count_independence(model_half, small_spec, poisson_chi):
    serial = empirical_two_point(model_half, poisson_chi, small_spec, 130, 5, workers=1)
    parallel = empirical_two_point(model_half, poisson_chi, small_spec, 130, 5, workers=2)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_empirical_two_point_matches_stored_fields(model_half, small_spec, poisson_chi):
    # 130 samples: N_BLOCKS = 50 blocks, block b from sample ceil(b * 130 / 50),
    # so blocks of 3, 3, 2, 3, 2 samples, ten times over
    n = 130
    starts = [-(-b * n // N_BLOCKS) for b in range(N_BLOCKS)]
    fields = sample_ensemble(model_half, poisson_chi, small_spec, n, 5).fields
    axes = (1, 2, 3)
    auto = np.fft.ifftn(np.abs(np.fft.fftn(fields, axes=axes)) ** 2,
                        axes=axes).real / small_spec.n_sites
    mean = fields.mean(axis=axes)

    def two_point(keep):
        return auto[keep].mean(axis=0) - mean[keep].mean() ** 2

    blocks = np.searchsorted(starts, np.arange(n), side="right") - 1
    assert np.bincount(blocks).tolist() == [3, 3, 2, 3, 2] * 10
    deleted = np.array([two_point(blocks != b) for b in range(N_BLOCKS)])
    b = len(deleted)
    stderr = np.sqrt((b - 1) / b * np.sum((deleted - deleted.mean(axis=0)) ** 2, axis=0))
    vals, err = empirical_two_point(model_half, poisson_chi, small_spec, n, 5)
    np.testing.assert_allclose(vals, two_point(slice(None)), rtol=1e-11)
    np.testing.assert_allclose(err, stderr, rtol=1e-8)
