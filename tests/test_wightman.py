import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from levylab import (BaumannReport, ConfigurationError, IntegratorSpec,
                     MassAssignment, MomentumTestFunction, ShellRegularization,
                     SpectralDensity, baumann_check, make_spacelike_test, make_test,
                     shell_control_tests, wightman_n_regularized)
from levylab.errors import ClassificationError
from levylab.wightman import (P_UNIFORM, _draw_energy, _energy_weight, _sample_spatial,
                              _shell_energies, minkowski_sq, truncated_kernel)


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
    with pytest.raises(ClassificationError):
        make_spacelike_test((2.0, 1.0, 0.0), 0.4, 0.1)  # center timelike
    with pytest.raises(ClassificationError):
        make_spacelike_test((0.0, 3.0, 0.0), 0.4, 3.0)  # ball touches the cone


def test_test_function_support_is_hard():
    f = make_test((0.0, 3.0, 0.0), 0.4, 0.8)
    inside = np.array([0.0, 3.0, 0.5])
    outside = np.array([0.0, 3.0, 0.9])
    assert f(inside) > 0.0
    assert f(outside) == 0.0
    assert f.scaled(2.5)(inside) == pytest.approx(2.5 * f(inside))


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
    with pytest.raises(ConfigurationError):
        MassAssignment.fixed([1.0, -1.0, 1.0, 1.0])
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
    (lambda: MassAssignment((((NAN, 1.0),),)), "m\\^2"),
    (lambda: MassAssignment((((1.0, NAN),),)), "weights"),
    (lambda: make_test((1.0, 0.0, 0.0), NAN, 0.8), "width"),
    (lambda: make_test((1.0, 0.0, 0.0), 0.4, INF), "radius"),
    (lambda: make_test((NAN, 0.0, 0.0), 0.4, 0.8), "finite components"),
], ids=["epsilon_nan", "epsilon_inf", "mass_nan", "mass_inf", "node_m2_nan",
        "node_weight_nan", "width_nan", "radius_inf", "center_nan"])
def test_non_finite_wightman_inputs_rejected(build, field):
    with pytest.raises(ConfigurationError, match=field):
        build()


def test_mass_superposition_nodes():
    ma = MassAssignment.superposed(0.5, 1.0, n_nodes=8)
    assert ma.n_legs == 4
    for leg in ma.legs:
        assert len(leg) == 8
        for m2, w in leg:
            assert m2 > 1.0 and w > 0.0
    with pytest.raises(ConfigurationError):
        MassAssignment.superposed(0.5, 1.0, n_nodes=9)


@pytest.mark.parametrize("alpha, n_nodes", [(0.3, 8), (0.5, 1), (0.75, 5)])
def test_mass_superposition_weights_use_spectral_constant(alpha, n_nodes):
    # the nodes integrate rho(s) ds = C/(1-alpha) du over u in [0, 25^(1-alpha)]
    expected = SpectralDensity(alpha, 1.0).constant * 25.0 ** (1.0 - alpha) / (1.0 - alpha)
    for leg in MassAssignment.superposed(alpha, 1.0, n_nodes=n_nodes).legs:
        assert sum(w for _, w in leg) == pytest.approx(expected, rel=1e-12)


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


def test_zero_test_function_gives_zero(masses, control):
    f, h1, h2, g = control
    est = wightman_n_regularized((f.scaled(0.0), h1, h2, g), masses,
                                 ShellRegularization(0.1), quick_spec())
    assert est.value == 0.0
    assert est.stderr == 0.0
    assert est.n_nonzero == 0


def test_multilinearity_at_fixed_seed(masses, control):
    f, h1, h2, g = control
    reg = ShellRegularization(0.1)
    base = wightman_n_regularized((f, h1, h2, g), masses, reg, quick_spec(3))
    scaled = wightman_n_regularized((f, h1.scaled(2.0), h2, g), masses, reg,
                                    quick_spec(3))
    assert scaled.value == pytest.approx(2.0 * base.value, rel=1e-12)


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
        return MomentumTestFunction((c[0], -c[2], c[1]), t.width, t.radius,
                                    "generic", t.amplitude)

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


def test_baumann_requires_spacelike_labels(masses):
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8)
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8)
    h_bad = make_test((0.0, 3.0, 0.0), 0.4, 0.8)  # unlabeled
    with pytest.raises(ClassificationError):
        baumann_check(masses, h_bad, h_bad, f, g, (0.5, 0.05, 0.005),
                      quick_spec())


def test_baumann_short_sequence_inconclusive(masses):
    h1 = make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8)
    h2 = make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8)
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8)
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8)
    rep = baumann_check(masses, h1, h2, f, g, (0.5,), quick_spec())
    assert rep.verdict == "INCONCLUSIVE"
    rep2 = baumann_check(masses, h1, h2, f, g, (0.5, 0.05, 0.2), quick_spec())
    assert rep2.verdict == "INCONCLUSIVE"


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
    assert all(len(fr) == 3 and all(0.0 <= x <= 1.0 for x in fr) for fr in fractions.values())
    assert fractions["control"][0] > 0.0
    import json
    json.dumps(d)  # JSON-serializable


def _energy_reference(rng, lo, hi, peaks, sd):
    # the per-peak loop the integrator's proposal must reproduce bit for bit:
    # every peak draws for all samples, the chosen one is kept
    n = len(lo)
    p_peak = (1.0 - P_UNIFORM) / len(peaks)
    comp, u_slab, u_norm = (rng.uniform(size=n) for _ in range(3))
    k0 = lo + (hi - lo) * u_slab
    trunc = [(ndtr((lo - mu) / sd), np.maximum(ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd),
                                               1e-300)) for mu in peaks]
    for i, (mu, (a, mass)) in enumerate(zip(peaks, trunc)):
        in_comp = (comp >= P_UNIFORM + i * p_peak) & (comp < P_UNIFORM + (i + 1) * p_peak)
        draw = mu + sd * ndtri(np.clip(a + mass * u_norm, 1e-300, 1.0 - 1e-16))
        k0 = np.where(in_comp, np.clip(draw, lo, hi), k0)
    dens = np.full(n, P_UNIFORM) / (hi - lo)
    for mu, (a, mass) in zip(peaks, trunc):
        pdf = np.exp(-0.5 * ((k0 - mu) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))
        dens = dens + p_peak * pdf / mass
    return k0, (1.0 / (hi - lo)) / dens


@pytest.mark.parametrize("n_nodes", [1, 3])
def test_energy_proposal_matches_per_peak_reference(n_nodes):
    test = make_test((1.0, 0.5, 0.0), 0.4, 0.8)
    x, y, half = _sample_spatial(test, np.random.default_rng(4), 5000, 0.0, 1.0)
    lo, hi = test.center[0] - half, test.center[0] + half
    nodes = MassAssignment.superposed(0.5, 1.0, n_nodes=n_nodes).legs[0]
    peaks = _shell_energies(x, y, nodes) + [-0.3 + e for e in _shell_energies(x, y, nodes)]
    sub = np.flatnonzero(np.random.default_rng(5).uniform(size=5000) < 0.3)
    for sd in (0.25, 0.025):
        u = np.random.default_rng(9).uniform(size=(3, 5000))
        k0 = _draw_energy(u, lo, hi, peaks, sd)
        w = _energy_weight(k0, lo, hi, peaks, sd)
        k_ref, w_ref = _energy_reference(np.random.default_rng(9), lo, hi, peaks, sd)
        assert np.array_equal(k0, k_ref) and np.array_equal(w, w_ref)
        # the stratum draws and weighs only the points still in play
        sub_peaks = [p[sub] for p in peaks]
        assert np.array_equal(_draw_energy(u[:, sub], lo[sub], hi[sub], sub_peaks, sd), k0[sub])
        assert np.array_equal(_energy_weight(k0[sub], lo[sub], hi[sub], sub_peaks, sd), w[sub])


# (value, stderr) hex of each pairing at 20000 points, 4 x 4 strata, seed 2024,
# recorded before support-first evaluation: skipping the points off h1's
# support must not move a bit
PINNED = {
    ("spacelike", "fixed", 2.0): ("-0x1.e4e379530376ap-34", "0x1.8c7497efe925ap-37"),
    ("spacelike", "fixed", 0.05): ("0x0.0p+0", "0x0.0p+0"),
    ("spacelike", "superposed", 2.0): ("-0x1.c201a21f5141fp-35", "0x1.c57213fc7fc4ap-38"),
    ("spacelike", "superposed", 0.05): ("0x0.0p+0", "0x0.0p+0"),
    ("control", "fixed", 2.0): ("0x1.533bff3a665cep-14", "0x1.7fddce589705cp-20"),
    ("control", "fixed", 0.05): ("0x1.2759d311dd465p-9", "0x1.2feeaf8546be7p-12"),
    ("control", "superposed", 2.0): ("-0x1.4f56a7cccc448p-14", "0x1.82b25f7c735dcp-20"),
    ("control", "superposed", 0.05): ("-0x1.41df902164255p-15", "0x1.e1f994017046fp-15"),
}


@pytest.mark.parametrize("tests_name, masses_name, eps", PINNED)
def test_pairing_bits_pinned(tests_name, masses_name, eps):
    tests = shell_control_tests(1.0) if tests_name == "control" else (
        make_test((1.0, 0.0, 0.0), 0.4, 0.8), make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8),
        make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8), make_test((-1.0, 0.0, 0.0), 0.4, 0.8))
    masses = (MassAssignment.fixed([1.0] * 4) if masses_name == "fixed"
              else MassAssignment.superposed(0.5, 1.0, 3))
    est = wightman_n_regularized(tests, masses, ShellRegularization(eps),
                                 IntegratorSpec(n_samples=20_000, n_strata=4, seed=2024))
    assert (est.value.hex(), est.stderr.hex()) == PINNED[tests_name, masses_name, eps]
