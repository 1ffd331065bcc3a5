import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from levylab import (BaumannReport, ConfigurationError, IntegratorSpec,
                     MassAssignment, MomentumTestFunction, ShellRegularization,
                     baumann_check, make_spacelike_test, make_test,
                     shell_control_tests, wightman_n_regularized)
from levylab import wightman
from levylab.streams import substream
from levylab.wightman import (CONTROL_RADIUS, CONTROL_WIDTH, P_UNIFORM, _disk, _draw_energy,
                              _energy_weight, _log10_spacelike_bound, _shell_energies, _slab,
                              minkowski_sq, truncated_kernel)


@pytest.fixture
def masses():
    return MassAssignment.fixed([1.0] * 4)


@pytest.fixture
def control(masses):
    return shell_control_tests(1.0)


def quick_spec(seed=0, n=20_000):
    return IntegratorSpec(n_samples=n, n_strata=4, seed=seed)


def test_minkowski_sq():
    assert minkowski_sq(np.array([2.0, 1.0, 0.0])) == pytest.approx(3.0)
    assert minkowski_sq(np.array([0.0, 3.0, 4.0])) == pytest.approx(-25.0)


def test_spacelike_certification():
    make_spacelike_test((0.0, 3.0, 0.0), 0.4, 1.0)  # sup k^2 = 1 - 4 < 0
    with pytest.raises(ConfigurationError, match="not certifiably space-like"):
        make_spacelike_test((2.0, 1.0, 0.0), 0.4, 0.1)  # center timelike
    with pytest.raises(ConfigurationError, match="not certifiably space-like"):
        make_spacelike_test((0.0, 3.0, 0.0), 0.4, 3.0)  # ball touches the cone


def test_test_function_support_is_hard():
    f = make_test((0.0, 3.0, 0.0), 0.4, 0.8)
    inside = np.array([0.0, 3.0, 0.5])
    outside = np.array([0.0, 3.0, 0.9])
    assert f(inside) > 0.0
    assert f(outside) == 0.0


def test_delta_normalization():
    for eps in (0.5, 0.05, 0.005):
        reg = ShellRegularization(eps)
        val = quad(lambda q: reg.delta(q), -40 * eps, 40 * eps)[0]
        assert val == pytest.approx(1.0, abs=1e-6)


def test_pv_is_odd_and_bounded():
    reg = ShellRegularization(0.1)
    q = np.linspace(-5, 5, 101)
    assert np.allclose(reg.pv(q), -reg.pv(-q))
    assert np.max(np.abs(reg.pv(q))) <= 1.0 / (2 * 0.1) + 1e-12


def test_regularization_validation():
    with pytest.raises(ConfigurationError):
        ShellRegularization(0.0)
    # 1/((eps sqrt(pi))^3 * 2 eps) overflows below eps ~ 1.7e-78
    with pytest.raises(ConfigurationError, match="kernel scale"):
        ShellRegularization(1e-78)
    ShellRegularization(1e-77)
    with pytest.raises(ConfigurationError):
        MassAssignment.fixed([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ConfigurationError, match="four"):
        MassAssignment.fixed([1.0] * 3)
    with pytest.raises(ConfigurationError):
        IntegratorSpec(n_samples=3, n_strata=4)


def test_integrator_needs_two_points_per_stratum():
    # one point per stratum would leave var(ddof=1) undefined (NaN)
    with pytest.raises(ConfigurationError, match=r"n_samples: 64 is below 2 \* n_strata\*\*2 = 128"):
        IntegratorSpec(n_samples=64, n_strata=8)
    with pytest.raises(ConfigurationError, match="n_strata: must be >= 1"):
        IntegratorSpec(n_samples=64, n_strata=0)
    assert IntegratorSpec(n_samples=128, n_strata=8).n_samples == 128


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, field", [
    (lambda: ShellRegularization(NAN), "epsilon"),
    (lambda: ShellRegularization(INF), "epsilon"),
    (lambda: MassAssignment.fixed([1.0, NAN, 1.0, 1.0]), "fixed masses"),
    (lambda: MassAssignment.fixed([INF] * 4), "fixed masses"),
    (lambda: MassAssignment((1.0, NAN, 1.0, 1.0)), "fixed masses"),
    (lambda: make_test((1.0, 0.0, 0.0), NAN, 0.8), "width"),
    (lambda: make_test((1.0, 0.0, 0.0), 0.4, INF), "radius"),
    (lambda: make_test((NAN, 0.0, 0.0), 0.4, 0.8), "finite components"),
    # squares and cubes that overflow or underflow
    (lambda: ShellRegularization(1e200), "epsilon must be > 0 with a finite square"),
    (lambda: MassAssignment.fixed([1e200] * 4), "fixed masses"),
    (lambda: make_test((1.0, 0.0, 0.0), 1e-300, 0.8), "width"),
    (lambda: make_test((1.0, 0.0, 0.0), 1e200, 0.8), "width"),
    (lambda: make_test((1.0, 0.0, 0.0), 0.4, 1e-200), "radius"),
    (lambda: make_test((1.0, 0.0, 0.0), 0.4, 1e200), "radius"),
    (lambda: make_test((1.0, 0.0, 0.0), -0.4, 0.8), "width"),
    # booleans, and integers beyond the float range, are not real inputs
    (lambda: MassAssignment.fixed([True] * 4), "masses: must be a real number"),
    (lambda: MassAssignment.fixed([10**400] * 4), "masses: int too large"),
    (lambda: ShellRegularization(True), "epsilon: must be a real number"),
    (lambda: ShellRegularization(10**400), "epsilon: int too large"),
    (lambda: make_test((0, 3, 0), True, 0.8), "width: must be a real number"),
    (lambda: make_test((0, 3, 0), 0.4, True), "radius: must be a real number"),
    (lambda: make_test((0, 10**400, 0), 0.4, 0.8), "center: int too large"),
    (lambda: make_test((True, 3, 0), 0.4, 0.8), "center: must be a real number"),
], ids=["epsilon_nan", "epsilon_inf", "mass_nan", "mass_inf", "direct_mass_nan",
        "width_nan", "radius_inf", "center_nan", "epsilon_1e200", "mass_1e200",
        "width_1e-300", "width_1e200", "radius_1e-200", "radius_1e200", "width_negative",
        "mass_bool", "mass_1e400", "epsilon_bool", "epsilon_1e400", "width_bool",
        "radius_bool", "center_1e400", "center_bool"])
def test_non_finite_wightman_inputs_rejected(build, field):
    with pytest.raises(ConfigurationError, match=field):
        build()


def test_integer_wightman_inputs_are_floats():
    # an int converts to the float it names, so every pairing keeps its bits
    t = make_test((1, 0, 0), 1, 2)
    assert (t.center, t.width, t.radius) == ((1.0, 0.0, 0.0), 1.0, 2.0)
    assert all(type(x) is float for x in (*t.center, t.width, t.radius))
    assert type(ShellRegularization(1).epsilon) is float
    assert MassAssignment.fixed([2] * 4).masses == (2.0,) * 4


def test_kernel_term_structure(masses):
    # for a single sample with leg 1 on the + shell, legs 3,4 on the - shell
    # and leg 2 far off shell, only the j=2 term contributes
    reg = ShellRegularization(0.1)
    k1 = np.array([[1.0, 0.0, 0.0]])
    k2 = np.array([[1.83, 0.0, 0.0]])
    k3 = np.array([[-np.sqrt(2.0), 1.0, 0.0]])
    k4 = np.array([[-np.sqrt(2.0), -1.0, 0.0]])
    val = truncated_kernel([k1, k2, k3, k4], masses, reg)[0]
    dp = reg.delta(0.0)
    pv2 = reg.pv(minkowski_sq(k2[0]) - 1.0)
    assert val == pytest.approx(dp * pv2 * dp * dp, rel=1e-10)


def test_zero_test_function_gives_zero():
    # space-like h1, h2 at eps 0.05: every shell delta underflows to 0
    est = _pinned_pairing("spacelike", 1.0, 0.05)
    assert est.value == 0.0
    assert est.stderr == 0.0
    assert est.n_nonzero == 0
    assert est.variance_share is None


def test_determinism(masses, control):
    est1 = wightman_n_regularized(control, masses, ShellRegularization(0.05),
                                  quick_spec(9))
    est2 = wightman_n_regularized(control, masses, ShellRegularization(0.05),
                                  quick_spec(9))
    assert est1.value == est2.value and est1.stderr == est2.stderr


def test_rotation_covariance(masses, control):
    # rotate all centers by 90 degrees about the x3 spatial axis
    def rot(t):
        c = t.center
        return MomentumTestFunction((c[0], -c[2], c[1]), t.width, t.radius)

    reg = ShellRegularization(0.1)
    a = wightman_n_regularized(control, masses, reg, quick_spec(5, 100_000))
    b = wightman_n_regularized(tuple(rot(t) for t in control), masses, reg,
                               quick_spec(6, 100_000))
    assert abs(a.value - b.value) <= 5.0 * np.hypot(a.stderr, b.stderr)


def test_control_scale_is_order_one(masses, control):
    est = wightman_n_regularized(control, masses, ShellRegularization(0.05),
                                 quick_spec(7, 100_000))
    assert abs(est.value) > 10.0 * est.stderr
    assert 1e-4 < abs(est.value) < 1.0
    # the integrand vanishes off h1's support ball, ~3/4 of the points
    assert 0 < est.n_nonzero < est.n_samples // 2


def test_baumann_requires_spacelike_supports(masses):
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8)
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8)
    h = make_test((0.0, 3.0, 0.0), 0.4, 0.8)
    timelike = make_test((2.0, 1.0, 0.0), 0.4, 0.1)
    for args, field in (((timelike, h), "h1_center"), ((h, timelike), "h2_center")):
        with pytest.raises(ConfigurationError,
                           match=f"{field}: support ball is not certifiably space-like"):
            baumann_check(masses, *args, f, g, (0.5, 0.05, 0.005), quick_spec())


def test_baumann_short_sequence_inconclusive(masses):
    h1 = make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8)
    h2 = make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8)
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8)
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8)
    rep = baumann_check(masses, h1, h2, f, g, (0.5,), quick_spec())
    assert rep.verdict == "INCONCLUSIVE"
    rep2 = baumann_check(masses, h1, h2, f, g, (0.5, 0.05, 0.2), quick_spec())
    assert rep2.verdict == "INCONCLUSIVE"


def test_baumann_rejects_unequal_masses():
    # the control puts every leg on leg 1's shell, so it has no unequal-mass twin
    h1 = make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8)
    h2 = make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8)
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8)
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8)
    with pytest.raises(ConfigurationError, match="masses"):
        baumann_check(MassAssignment.fixed([1.0, 1.0, 1.0, 2.0]), h1, h2, f, g,
                      (0.5, 0.05, 0.005), quick_spec())


@pytest.mark.parametrize("mass, h2_center, d", [
    (1.0, (0.0, -3.0, 0.0), 5.2),  # criterion 8: sup k^2 = 0.8^2 - 2.2^2 = -4.2
    (1.0, (0.0, -4.0, 0.0), 5.2),  # h2 farther out: h1 sets the minimum
    (2.0, (0.0, -3.0, 0.0), 8.2),
], ids=["criterion8", "h1_nearer", "mass2"])
def test_baumann_reports_shell_distance(mass, h2_center, d):
    h1 = make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8)
    h2 = make_spacelike_test(h2_center, 0.4, 0.8)
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8)
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8)
    rep = baumann_check(MassAssignment.fixed([mass] * 4), h1, h2, f, g, (0.5,),
                        quick_spec(n=2_000))
    assert rep.details["shell_distance"] == pytest.approx(d, rel=1e-12)


def test_report_round_trip(masses):
    h1 = make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8)
    h2 = make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8)
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8)
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8)
    rep = baumann_check(masses, h1, h2, f, g, (0.5, 0.05, 0.005),
                        quick_spec(11, 40_000))
    d = rep.to_dict()
    assert set(d) >= {"epsilons", "spacelike", "control", "verdict",
                      "control_vanishes"}
    fractions = d["details"]["nonzero_fraction"]
    assert set(fractions) == {"spacelike", "control"}
    assert len(fractions["control"]) == 3 and all(0.0 < x <= 1.0 for x in fractions["control"])
    bound = d["details"]["log10_spacelike_bound"]
    assert len(bound) == 3
    import json
    json.dumps(d)  # JSON-serializable
    # the bound certifies every space-like row: 0.0 +/- 10**bound, sampled
    # nowhere, so neither a nonzero fraction nor stratum shares
    assert d["spacelike"] == [{"value": 0.0, "stderr": 10.0 ** b} for b in bound]
    assert fractions["spacelike"] == [None, None, None]
    shares = d["details"]["variance_share"]
    assert set(shares) == {"spacelike", "control"}
    assert shares["spacelike"] == [None, None, None]
    # per control eps, a 4 x 4 table of stratum shares of stderr^2
    for share in shares["control"]:
        assert len(share) == 4 and all(len(row) == 4 for row in share)
        assert all(x >= 0.0 for row in share for x in row)
        assert sum(map(sum, share)) == pytest.approx(1.0, rel=1e-12)


def test_variance_share_is_the_stratum_variance():
    # stderr^2 (S^2 / vol)^2 is the sum over strata of var(values) / per, so
    # each share is one stratum's var / per over that sum
    f, h1, h2, g = shell_control_tests(1.0)
    spec = quick_spec(3, 2_000)
    est = wightman_n_regularized((f, h1, h2, g), MassAssignment.fixed([1.0] * 4),
                                 ShellRegularization(0.5), spec)
    S = spec.n_strata
    vol = np.prod([4.0 / 3.0 * np.pi * t.radius**3 for t in (f, h2, g)])
    var = (est.stderr * S * S / vol) ** 2
    per = spec.n_samples // (S * S)
    share = np.array(est.variance_share)
    assert share.shape == (S, S)
    assert share.sum() == pytest.approx(1.0, rel=1e-12)
    # a stratum's variance, recomputed from its own draws in a block of one
    (vals,) = wightman._block((f, h1, h2, g), MassAssignment.fixed([1.0] * 4),
                              ShellRegularization(0.5), spec.seed, S, [(1, 2)], per, 0.25)
    assert share[1, 2] == pytest.approx(vals.var(ddof=1) / per / var, rel=1e-9)


def _energy_reference(rng, lo, hi, peaks, sd):
    # the per-peak loop the integrator's proposal must reproduce bit for bit:
    # every peak draws for all samples, the chosen one is kept; a slab above its
    # peak is drawn in the reflected coordinate -z, whose mass is a lower tail;
    # a peak with no mass above the floor keeps the slab's draw and weighs as it
    n = len(lo)
    p_peak = (1.0 - P_UNIFORM) / len(peaks)
    b = sd / np.sqrt(2.0)
    comp, u_slab, u_peak = (rng.uniform(size=n) for _ in range(3))
    k0 = lo + (hi - lo) * u_slab

    def cdf(z):
        e = 0.5 * np.exp(-np.abs(z))
        return np.where(z <= 0.0, e, 1.0 - e)

    def truncated(mu):
        z_lo, z_hi = (lo - mu) / b, (hi - mu) / b
        above = z_lo > 0.0
        a = cdf(np.where(above, -z_hi, z_lo))
        mass = cdf(np.where(above, -z_lo, z_hi)) - a
        return np.where(above, -1.0, 1.0), a, mass, mass > wightman.MASS_FLOOR

    trunc = [truncated(mu) for mu in peaks]
    for i, (mu, (sign, a, mass, live)) in enumerate(zip(peaks, trunc)):
        in_comp = (comp >= P_UNIFORM + i * p_peak) & (comp < P_UNIFORM + (i + 1) * p_peak)
        p = np.clip(a + mass * u_peak, 1e-300, 1.0 - 1e-16)
        z = np.where(p <= 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
        k0 = np.where(in_comp & live, np.clip(mu + sign * b * z, lo, hi), k0)
    dens = np.full(n, P_UNIFORM) / (hi - lo)
    for mu, (_, a, mass, live) in zip(peaks, trunc):
        pdf = np.exp(-np.abs(k0 - mu) / b) / (2.0 * b)
        dens = dens + p_peak * np.where(live, pdf / np.where(live, mass, 1.0), 1.0 / (hi - lo))
    return k0, (1.0 / (hi - lo)) / dens


# ids count the shell masses: 2 or 6 peaks, then as many shifted by -0.3
@pytest.mark.parametrize("m2s", [(1.0,), (1.0, 2.0, 4.0)], ids=lambda m2s: str(len(m2s)))
def test_energy_proposal_matches_per_peak_reference(m2s):
    test = make_test((1.0, 0.5, 0.0), 0.4, 0.8)
    # 5000 points uniform in the ball, placed and given their slabs as _block does
    r = np.random.default_rng(4).uniform(size=(2, 5000))
    x, y, c = _disk(test, 1.0 - r[0], 2.0 * np.pi * r[1])
    lo, hi = _slab(test, c)
    shells = [e for m2 in m2s for e in _shell_energies(x, y, m2)]
    peaks = shells + [-0.3 + e for e in shells]
    sub = np.flatnonzero(np.random.default_rng(5).uniform(size=5000) < 0.3)
    for sd in (0.25, 0.025, 0.0025):  # at 0.0025 the far peaks have no mass on a slab
        u = np.random.default_rng(9).uniform(size=(3, 5000))
        k0 = _draw_energy(u, lo, hi, peaks, sd)
        w = _energy_weight(k0, lo, hi, peaks, sd)
        k_ref, w_ref = _energy_reference(np.random.default_rng(9), lo, hi, peaks, sd)
        assert np.array_equal(k0, k_ref) and np.array_equal(w, w_ref)
        # the stratum draws and weighs only the points still in play
        sub_peaks = [p[sub] for p in peaks]
        assert np.array_equal(_draw_energy(u[:, sub], lo[sub], hi[sub], sub_peaks, sd), k0[sub])
        assert np.array_equal(_energy_weight(k0[sub], lo[sub], hi[sub], sub_peaks, sd), w[sub])


@pytest.mark.parametrize("offset", [0.0, 40.0, 400.0, 2000.0])
def test_energy_proposal_is_unbiased_on_a_slab_far_from_its_peaks(offset):
    # 200 000 slabs of height 0.5 whose low end lies offset Laplace scales b
    # above the peak at 1.0; the peaks at 1.2 and -1.0 lie inside or below.
    # E[w] = 1 and E[w (k0 - lo)] = (hi - lo) / 2 for any proposal that covers
    # the slab; a peak whose mass on the slab is at the floor (all three at
    # 2000 b) draws and weighs as the slab, so no draw sits at the slab's end
    n, sd = 200_000, 0.025
    lo = np.full(n, 1.0 + offset * sd / np.sqrt(2.0))
    hi = lo + 0.5
    peaks = [np.full(n, mu) for mu in (1.0, 1.2, -1.0)]
    k0 = _draw_energy(np.random.default_rng(13).uniform(size=(3, n)), lo, hi, peaks, sd)
    w = _energy_weight(k0, lo, hi, peaks, sd)
    assert np.all((lo <= k0) & (k0 <= hi))
    if offset == 2000.0:  # every point weighs as the uniform: 1 up to rounding
        assert np.all(w == w[0]) and w[0] == pytest.approx(1.0, rel=1e-15)
    else:
        assert abs(w.mean() - 1.0) <= 4.0 * w.std(ddof=1) / np.sqrt(n)
    x = w * (k0 - lo)
    assert abs(x.mean() - 0.25) <= 4.0 * x.std(ddof=1) / np.sqrt(n)


# (value, stderr) hex of each pairing at 20000 points, 4 x 4 strata, seed 2024,
# keyed by the shell mass of all four legs: skipping the points off h1's
# support must not move a bit.  The nonzero entries were re-recorded when
# each stratum began to draw its energy uniforms for the points near h1's
# support only, and its radial variable through cbrt.
# At mass 0.7 neither m^2 nor sqrt(m^2) is exact, so those rows see how m^2 is
# stored and recovered.  At eps 0.05 the space-like shell deltas underflow, so
# the stratum loop reads exactly 0
PINNED = {
    ("spacelike", 1.0, 2.0): ("-0x1.230bc2540c17dp-33", "0x1.c7d785d7ca102p-37"),
    ("spacelike", 1.0, 0.05): ("0x0.0p+0", "0x0.0p+0"),
    ("spacelike", 0.7, 2.0): ("-0x1.56ea8c3b5074bp-31", "0x1.f656e260d46dcp-35"),
    ("spacelike", 0.7, 0.05): ("0x0.0p+0", "0x0.0p+0"),
    ("control", 1.0, 2.0): ("0x1.57eb10570d456p-14", "0x1.5b5ffffc0b102p-20"),
    ("control", 1.0, 0.05): ("0x1.c9f33ff7f893ep-10", "0x1.d43e658d0b27bp-13"),
    ("control", 0.7, 2.0): ("0x1.371c076f410f7p-14", "0x1.720dabfbdd85ep-20"),
    ("control", 0.7, 0.05): ("0x1.1dd59c75c9ad8p-7", "0x1.2f4482b9c6f1fp-9"),
}


def _pinned_pairing(tests_name, mass, eps):
    tests = shell_control_tests(mass) if tests_name == "control" else (
        make_test((1.0, 0.0, 0.0), 0.4, 0.8), make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8),
        make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8), make_test((-1.0, 0.0, 0.0), 0.4, 0.8))
    return wightman_n_regularized(tests, MassAssignment.fixed([mass] * 4),
                                  ShellRegularization(eps),
                                  IntegratorSpec(n_samples=20_000, n_strata=4, seed=2024))


@pytest.mark.parametrize("tests_name, mass, eps", PINNED)
def test_pairing_bits_pinned(tests_name, mass, eps):
    est = _pinned_pairing(tests_name, mass, eps)
    assert (est.value.hex(), est.stderr.hex()) == PINNED[tests_name, mass, eps]


@pytest.mark.parametrize("tests_name, mass, eps", PINNED)
def test_block_size_does_not_move_bits(monkeypatch, tests_name, mass, eps):
    # 1250 points per stratum: blocks of 6, 6 and 4 strata by default, then
    # one stratum per block, then all 16 in one
    def bits():
        est = _pinned_pairing(tests_name, mass, eps)
        share = None if est.variance_share is None else [
            [x.hex() for x in row] for row in est.variance_share]
        return est.value.hex(), est.stderr.hex(), est.n_nonzero, share

    default = bits()
    for points in (1, 16 * 1250):
        monkeypatch.setattr(wightman, "BLOCK_POINTS", points)
        assert bits() == default


def _unpruned_block(tests, masses, reg, seed, S, strata, per, sd):
    """_block with no prune past the spatial filter: every point near h1's
    support draws all three energies from _block's stream layout, and the
    full integrand is formed there from stacked (n, 3) momenta, the test
    functions' __call__ and truncated_kernel."""
    f, h1, h2, g = tests
    m2 = masses.m2
    rngs = [substream(seed, s3 * S + s4) for s3, s4 in strata]
    near, (x1, y1, c1), (x3, y3, c3), (x4, y4, c4) = wightman._near_points(
        tests, rngs, S, strata, per)
    cuts = np.searchsorted(near, np.arange(len(strata) + 1) * per)
    u = np.concatenate([rng.random((9, b - a)) for rng, a, b in zip(rngs, cuts, cuts[1:])],
                       axis=1)
    peaks3, peaks4 = _shell_energies(x3, y3, m2[2]), _shell_energies(x4, y4, m2[3])
    k30 = _draw_energy(u[0:3], *_slab(h2, c3), peaks3, sd)
    k40 = _draw_energy(u[3:6], *_slab(g, c4), peaks4, sd)
    peaks1 = _shell_energies(x1, y1, m2[0]) + [
        -(k30 + k40) + e for e in _shell_energies(x1 + (x3 + x4), y1 + (y3 + y4), m2[1])]
    k10 = _draw_energy(u[6:9], *_slab(f, c1), peaks1, sd)
    k1, k3, k4 = (np.stack(k, axis=1) for k in ((k10, x1, y1), (k30, x3, y3), (k40, x4, y4)))
    k2 = -((k1 + k3) + k4)
    vals = (_energy_weight(k10, *_slab(f, c1), peaks1, sd)
            * _energy_weight(k30, *_slab(h2, c3), peaks3, sd)
            * _energy_weight(k40, *_slab(g, c4), peaks4, sd)
            * f(k1) * h1(k2) * h2(k3) * g(k4) * truncated_kernel([k1, k2, k3, k4], masses, reg))
    out = np.zeros(len(strata) * per)
    out[near] = vals
    return out.reshape(len(strata), per)


def _j4_tests():
    """Bumps on the + shells of mass 1 for legs 1 to 3, k1 at rest and k2, k3
    at spatial momenta -/+ 1, so leg 4 = -(k1 + k2 + k3) sits far off its
    shell: only the j = 4 term, delta+(leg 3) with PV(leg 4), survives."""
    e2 = float(np.sqrt(2.0))
    return (make_test((1.0, 0.0, 0.0), CONTROL_WIDTH, CONTROL_RADIUS),
            make_test((e2, -1.0, 0.0), CONTROL_WIDTH, CONTROL_RADIUS),
            make_test((e2, 1.0, 0.0), CONTROL_WIDTH, CONTROL_RADIUS),
            make_test((-1.0 - 2.0 * e2, 0.0, 0.0), CONTROL_WIDTH, CONTROL_RADIUS))


@pytest.mark.parametrize("eps", [0.5, 0.005])
@pytest.mark.parametrize("geometry", ["control", "j4"])
def test_pruned_block_matches_unpruned_reference(monkeypatch, geometry, eps):
    # drawing leg 1 only where delta-(leg 4) or delta+(leg 3) is nonzero, and
    # the kernel only inside h1's ball, must not move a bit: at eps 0.005 most
    # near points are pruned before leg 1, at eps 0.5 almost none.  The
    # control keeps its points by leg 4's delta, the j = 4 bumps by leg 3's
    masses = MassAssignment.fixed([1.0] * 4)
    tests = shell_control_tests(1.0) if geometry == "control" else _j4_tests()
    reg, spec = ShellRegularization(eps), IntegratorSpec(n_samples=20_000, n_strata=4, seed=11)
    args = (tests, masses, reg, spec.seed, 4, [(1, 2), (3, 0)], 1250, eps / 2.0)
    block, ref = wightman._block(*args), _unpruned_block(*args)
    assert np.array_equal(block, ref) and np.count_nonzero(block) == np.count_nonzero(ref) > 0

    def bits():
        est = wightman_n_regularized(tests, masses, reg, spec)
        return (est.value.hex(), est.stderr.hex(), est.n_nonzero,
                [[x.hex() for x in row] for row in est.variance_share])

    pruned = bits()
    monkeypatch.setattr(wightman, "_block", _unpruned_block)
    assert bits() == pruned


def test_stratum_consumes_six_per_point_and_nine_per_near_point(monkeypatch):
    # stratum (1, 2) draws (6, per) spatial uniforms, then (9, n_near) energy
    # uniforms for its points near h1's support: no more, whatever is pruned
    masses, tests = MassAssignment.fixed([1.0] * 4), shell_control_tests(1.0)
    S, per, seed = 4, 1250, 3
    used = []
    monkeypatch.setattr(wightman, "substream", lambda *a: used.append(substream(*a)) or used[-1])
    wightman._block(tests, masses, ShellRegularization(0.005), seed, S, [(1, 2)], per, 0.0025)
    near = wightman._near_points(tests, [substream(seed, 1 * S + 2)], S, [(1, 2)], per)[0]
    assert 0 < len(near) < per
    fresh = substream(seed, 1 * S + 2)
    fresh.random(6 * per + 9 * len(near))
    (rng,) = used
    assert np.array_equal(rng.random(8), fresh.random(8))


# twice the 1.58 MiB that one such pairing allocated at peak when each stratum
# was evaluated on its own; baumann's 5% peak_rss_mb bound absorbs that rise
PAIRING_PEAK_BYTES = 3.2 * 2**20


@pytest.mark.parametrize("eps", [0.5, 0.05, 0.005])
def test_pairing_peak_memory_at_baumann_size(eps):
    masses, tests = MassAssignment.fixed([1.0] * 4), shell_control_tests(1.0)
    reg = ShellRegularization(eps)
    # a first, small pairing keeps one-time allocations out of the peak
    wightman_n_regularized(tests, masses, reg, IntegratorSpec(n_samples=2_000, n_strata=2))
    tracemalloc.start()
    try:
        wightman_n_regularized(tests, masses, reg,
                               IntegratorSpec(n_samples=250_000, n_strata=8, seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PAIRING_PEAK_BYTES


@pytest.mark.parametrize("seed", [1, 2024])
def test_control_keeps_its_mass_above_the_peak(seed):
    # at eps 0.3 leg 1's -E1 peak lies so far below its slab that ndtr(hi) -
    # ndtr(lo) cancelled to 0, and the control read ~6e-247 instead of ~1.6e-3
    est = wightman_n_regularized(shell_control_tests(1.0), MassAssignment.fixed([1.0] * 4),
                                 ShellRegularization(0.3),
                                 IntegratorSpec(n_samples=20_000, n_strata=4, seed=seed))
    assert est.value > 1e-5


def criterion8_tests():
    return (make_test((1.0, 0.0, 0.0), 0.4, 0.8), make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8),
            make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8), make_test((-1.0, 0.0, 0.0), 0.4, 0.8))


def test_stderr_survives_tiny_values():
    # every integrand value is ~1e-245, so var() of the unscaled values squared to 0
    est = wightman_n_regularized(criterion8_tests(), MassAssignment.fixed([1.0] * 4),
                                 ShellRegularization(0.25),
                                 IntegratorSpec(n_samples=250_000, n_strata=8, seed=5))
    assert est.n_nonzero == 2432
    assert est.value == pytest.approx(-1.439e-246, rel=1e-3)
    assert est.stderr > 0.0


def _within_spacelike_bound(epsilons):
    """Per eps, whether |mc| <= bound + 4 stderr at the criterion-8 geometry (d = 5.2)."""
    tests = criterion8_tests()
    f, h1, h2, g = tests
    out = []
    for eps in epsilons:
        reg = ShellRegularization(eps)
        est = wightman_n_regularized(tests, MassAssignment.fixed([1.0] * 4), reg,
                                     IntegratorSpec(n_samples=200_000, n_strata=8, seed=5))
        bound = 10.0 ** _log10_spacelike_bound(f, h1, h2, g, 5.2, reg)
        out.append(abs(est.value) <= bound + 4.0 * est.stderr)
    return out


BOUND_EPSILONS = (4.0, 2.0, 1.0, 0.5)


def test_spacelike_pairing_within_closed_form_bound():
    assert all(_within_spacelike_bound(BOUND_EPSILONS))


def test_widened_delta_breaks_the_bound(monkeypatch):
    # a shell delta twice as wide as the regularization puts weight nearer the
    # space-like supports than the bound's exp(-(d/eps)^2) allows
    def wide(self, q):
        e = self.epsilon
        return np.exp(-(q / (2.0 * e)) ** 2) / (e * np.sqrt(np.pi))
    monkeypatch.setattr(ShellRegularization, "delta", wide)
    assert not all(_within_spacelike_bound(BOUND_EPSILONS))


def test_verdict_needs_the_bound(masses):
    # decay and smallness hold for the Monte Carlo, but at eps 1.5 the bound
    # (~1e-5.4) does not lie below 1e-3 of the control (~1e-6.7): not
    # certified, so INCONCLUSIVE rather than FAIL
    f, h1, h2, g = criterion8_tests()
    rep = baumann_check(masses, h1, h2, f, g, (4.0, 2.0, 1.5),
                        IntegratorSpec(n_samples=40_000, n_strata=8, seed=3))
    assert rep.details["decay_ok"] and rep.details["smallness_ok"]
    assert rep.details["log10_spacelike_bound"][-1] > np.log10(1e-3 * rep.details["control_scale"])
    assert rep.verdict == "INCONCLUSIVE"
    assert "log10_spacelike_bound" in rep.details["reason"]


def test_verdict_fails_without_decay(masses):
    # at eps 6, 5, 4 the space-like pairing neither falls by (e1/e0)^2 per
    # step nor gets small: FAIL, whatever the bound
    f, h1, h2, g = criterion8_tests()
    rep = baumann_check(masses, h1, h2, f, g, (6.0, 5.0, 4.0),
                        IntegratorSpec(n_samples=40_000, n_strata=8, seed=3))
    assert not rep.details["decay_ok"] and not rep.details["smallness_ok"]
    assert rep.verdict == "FAIL"
    assert "reason" not in rep.details


def test_bound_certifies_criterion_8_without_spacelike_draws(monkeypatch, masses):
    # at the criterion-8 geometry the bound (10^-45.2 at eps 0.5) decides every
    # space-like row, so only the control draws: n_strata**2 strata per eps
    f, h1, h2, g = criterion8_tests()
    spec = IntegratorSpec(n_samples=80_000, n_strata=4, seed=5)
    calls = []
    real = wightman.substream
    monkeypatch.setattr(wightman, "substream", lambda *a: calls.append(a) or real(*a))
    rep = baumann_check(masses, h1, h2, f, g, (0.5, 0.05, 0.005), spec)
    assert len(calls) == 3 * spec.n_strata**2
    assert rep.verdict == "PASS"
    assert rep.spacelike == tuple((0.0, 10.0 ** b) for b in rep.details["log10_spacelike_bound"])
    # c_val is read before the space-like rows, also when there are none
    assert baumann_check(masses, h1, h2, f, g, (), spec).verdict == "INCONCLUSIVE"


def _hex(rows):
    return [(v.hex(), s.hex()) for v, s in rows]


# control (value, stderr) hex at 40 000 points, 8 x 8 strata, seed 5, the
# bits of the check that sampled every row
CONTROL_HEX = {
    2.0: ("0x1.55a54f6363f91p-14", "0x1.e7df25771340ep-21"),
    0.5: ("0x1.4ef796ac71d49p-10", "0x1.1763143705b75p-15"),
    0.3: ("0x1.c0e4c11c01489p-10", "0x1.2058f342240aap-14"),
    1.3: ("0x1.293d9a4daf44cp-12", "0x1.dad9dadecbe20p-19"),
}
SPACELIKE_EPS2_HEX = ("-0x1.cc662bf6612d9p-34", "0x1.ccba44ef34e53p-38")


def test_bound_certifies_only_where_it_decides(masses):
    # eps 2.0: the bound 10^-3.59 lies above 1e-3 c_val = 10^-5.77, so that row
    # is sampled (-1.05e-10 +/- 6.5e-12); eps 0.5 and 0.3 are certified
    f, h1, h2, g = criterion8_tests()
    eps = (2.0, 0.5, 0.3)
    rep = baumann_check(masses, h1, h2, f, g, eps,
                        IntegratorSpec(n_samples=40_000, n_strata=8, seed=5))
    bound = rep.details["log10_spacelike_bound"]
    assert _hex(rep.control) == [CONTROL_HEX[e] for e in eps]
    assert _hex(rep.spacelike[:1]) == [SPACELIKE_EPS2_HEX]
    assert rep.spacelike[1:] == ((0.0, 10.0 ** bound[1]), (0.0, 10.0 ** bound[2]))
    assert rep.details["nonzero_fraction"]["spacelike"][1:] == [None, None]
    assert rep.details["variance_share"]["spacelike"][0] is not None
    assert rep.verdict == "PASS"


def test_bound_that_breaks_the_decay_rule_is_sampled(masses):
    # at eps 1.3, 4 * 10^-6.86 is below 1e-3 c_val, but a row 0.0 +/- 10^-6.86
    # would not fall 100x per decade from eps 2.0's 1.3e-10, and the check would
    # read FAIL for a pairing that vanishes: that row is sampled, eps 0.5 is not
    f, h1, h2, g = criterion8_tests()
    eps = (2.0, 1.3, 0.5)
    rep = baumann_check(masses, h1, h2, f, g, eps,
                        IntegratorSpec(n_samples=40_000, n_strata=8, seed=5))
    bound = rep.details["log10_spacelike_bound"]
    assert 4.0 * 10.0 ** bound[1] <= 1e-3 * rep.details["control_scale"]
    assert _hex(rep.control[:2]) == [CONTROL_HEX[2.0], CONTROL_HEX[1.3]]
    assert _hex(rep.spacelike[:2]) == [SPACELIKE_EPS2_HEX,
                                       ("-0x1.0c28d58debf47p-51", "0x1.23a274f082662p-54")]
    assert rep.spacelike[2] == (0.0, 10.0 ** bound[2])
    assert rep.verdict == "PASS"
