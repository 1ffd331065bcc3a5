import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import pdtr
from scipy.stats import poisson

import levylab
from levylab import (ConfigurationError, JumpLaw, LatticeField, LatticeSpec,
                     LevyCharacteristic, ModelParams, RangeError, SpectralDensity,
                     characteristic_functional, noise_cumulant, psi, sample_noise,
                     substream)
from levylab.noise import (MAX_CUMULANT_ORDER, MAX_SITE_MEAN, MAX_SITES, SCATTER_CHUNK,
                           SCATTER_MAX_MEAN, _poisson_table, _scatter)


# ---------------------------------------------------------------------------
# jump-law catalogue


def jump_laws():
    return [
        JumpLaw.atom(1.0),
        JumpLaw.atoms([(-1.0, 0.25), (2.0, 0.75)]),
        JumpLaw.uniform(0.5, 2.0),
        JumpLaw.uniform(-3.0, -1.0),
        JumpLaw.two_sided_exponential(0.7),
    ]


@pytest.mark.parametrize("law", jump_laws(), ids=lambda l: l.kind + str(l.params))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
def test_jump_moment_matches_quadrature(law, n):
    # independent oracle: numerical integration of s^n against the density
    if law.kind == "atoms":
        s, w = law.positions_weights()
        expected = float(np.sum(w * s**n))
    elif law.kind == "uniform":
        lo, hi = law.params
        expected = quad(lambda s: s**n / (hi - lo), lo, hi)[0]
    else:
        (scale,) = law.params
        if n % 2 == 1:
            expected = 0.0  # symmetric density, odd integrand
        else:
            expected = 2.0 * quad(
                lambda s: s**n * np.exp(-s / scale) / (2.0 * scale), 0, np.inf)[0]
    assert law.moment(n) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("law", jump_laws(), ids=lambda l: l.kind + str(l.params))
def test_char_minus_one_matches_quadrature(law):
    for t in (0.0, 0.3, -1.7, 4.0):
        val = law.char_minus_one(t)
        if law.kind == "atoms":
            s, w = law.positions_weights()
            expected = np.sum(w * (np.exp(1j * t * s) - 1.0))
        elif law.kind == "uniform":
            lo, hi = law.params
            expected = quad(lambda s: np.cos(t * s) / (hi - lo), lo, hi)[0] - 1.0
            expected += 1j * quad(lambda s: np.sin(t * s) / (hi - lo), lo, hi)[0]
        else:
            (scale,) = law.params
            dens = lambda s: np.exp(-abs(s) / scale) / (2.0 * scale)
            expected = quad(lambda s: (np.cos(t * s) - 1.0) * dens(s),
                            -np.inf, np.inf)[0]  # odd part integrates to 0
        assert val == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_jump_law_validation():
    with pytest.raises(ConfigurationError):
        JumpLaw.atom(0.0)  # mass at 0
    with pytest.raises(ConfigurationError):
        JumpLaw.atoms([(1.0, 0.5), (2.0, 0.2)])  # weights don't sum to 1
    with pytest.raises(ConfigurationError):
        JumpLaw.uniform(-1.0, 1.0)  # interval straddles 0
    with pytest.raises(ConfigurationError):
        JumpLaw.two_sided_exponential(0.0)
    with pytest.raises(ConfigurationError):
        JumpLaw("lognormal", (1.0,))


@pytest.mark.parametrize("kind, params, message", [
    ("uniform", (1.0,), "uniform takes 2 value"),
    ("two_sided_exponential", (1.0, 2.0), "two_sided_exponential takes 1 value"),
    ("atoms", (1.0, 0.5, 2.0), r"atoms takes \(position, weight\) pairs, got 3"),
], ids=["uniform", "two_sided_exponential", "atoms"])
def test_jump_law_parameter_count(kind, params, message):
    with pytest.raises(ConfigurationError, match="jump_params: " + message):
        JumpLaw(kind, params)


NAN, INF = float("nan"), float("inf")
NON_FINITE = {  # case -> (constructor call, field named in the message)
    "lattice_a_nan": (lambda: LatticeSpec(3, 4, NAN), "spacing a"),
    "lattice_a_inf": (lambda: LatticeSpec(3, 4, INF), "spacing a"),
    "model_m0_nan": (lambda: ModelParams(0.5, NAN), "m0"),
    "model_m0_inf": (lambda: ModelParams(0.5, INF), "m0"),
    "spectral_m0_nan": (lambda: SpectralDensity(0.5, NAN), "m0"),
    "sigma2_nan": (lambda: LevyCharacteristic(sigma2=NAN), "sigma2"),
    "lambda_nan": (lambda: LevyCharacteristic(lam=NAN, jump_law=JumpLaw.atom(1.0)),
                   "lambda"),
    "drift_nan": (lambda: LevyCharacteristic(b=NAN), "drift b"),
    "atom_position_nan": (lambda: JumpLaw.atoms([(NAN, 1.0)]), "atom positions"),
    "atom_weight_nan": (lambda: JumpLaw.atoms([(1.0, NAN)]), "atom weights"),
    "uniform_hi_inf": (lambda: JumpLaw.uniform(1.0, INF), "lo < hi"),
    "exponential_scale_nan": (lambda: JumpLaw.two_sided_exponential(NAN), "scale"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_parameters_rejected(case):
    build, field = NON_FINITE[case]
    with pytest.raises(ConfigurationError, match=field):
        build()


def test_jump_moment_order_cap():
    with pytest.raises(RangeError):
        JumpLaw.atom(1.0).moment(MAX_CUMULANT_ORDER + 1)


# ---------------------------------------------------------------------------
# psi and cumulants


@st.composite
def characteristics(draw):
    b = draw(st.floats(-2.0, 2.0))
    sigma2 = draw(st.floats(0.0, 3.0))
    lam = draw(st.floats(0.0, 5.0))
    law = draw(st.sampled_from(jump_laws())) if lam > 0 else None
    return LevyCharacteristic(b=b, sigma2=sigma2, lam=lam, jump_law=law)


@settings(max_examples=60)
@given(chi=characteristics(), t=st.floats(-50.0, 50.0))
def test_psi_invariants(chi, t):
    assert psi(chi, 0.0) == 0.0
    assert psi(chi, t).real <= 1e-12
    assert psi(chi, -t) == pytest.approx(np.conj(psi(chi, t)), abs=1e-12)


def test_psi_gaussian_closed_form():
    chi = LevyCharacteristic(b=0.5, sigma2=2.0)
    t = np.linspace(-3, 3, 11)
    expected = 1j * 0.5 * t - 1.0 * t**2
    assert np.allclose(psi(chi, t), expected)


def test_noise_cumulant_examples():
    assert noise_cumulant(LevyCharacteristic(b=0.5), 1) == 0.5
    chi = LevyCharacteristic(sigma2=1.0, lam=2.0, jump_law=JumpLaw.atom(1.0))
    assert noise_cumulant(chi, 2) == 3.0  # sigma2 + lam * r_2
    chi4 = LevyCharacteristic(lam=2.0, jump_law=JumpLaw.atom(1.0))
    assert noise_cumulant(chi4, 4) == 2.0  # lam * r_4
    with pytest.raises(RangeError):
        noise_cumulant(chi, MAX_CUMULANT_ORDER + 1)


def test_cumulants_are_psi_derivatives(mixed_chi):
    # kappa_n = psi^(n)(0) / i^n, via high-order finite differences
    h = 1e-2
    pts = np.arange(-4, 5) * h
    vals = psi(mixed_chi, pts)
    # 9-point central stencils for the first four derivatives
    w1 = np.array([3, -32, 168, -672, 0, 672, -168, 32, -3]) / (840 * h)
    w2 = np.array([-9, 128, -1008, 8064, -14350, 8064, -1008, 128, -9]) / (5040 * h**2)
    w3 = np.array([-7, 72, -338, 488, 0, -488, 338, -72, 7]) / (240 * h**3)
    w4 = np.array([7, -96, 676, -1952, 2730, -1952, 676, -96, 7]) / (240 * h**4)
    for n, w in enumerate((w1, w2, w3, w4), start=1):
        deriv = np.sum(w * vals) / 1j**n
        assert deriv.real == pytest.approx(noise_cumulant(mixed_chi, n),
                                           rel=1e-5, abs=1e-8)
        assert abs(deriv.imag) < 1e-8


# ---------------------------------------------------------------------------
# characteristic functional


def test_characteristic_functional_zero_field(small_spec, mixed_chi):
    assert characteristic_functional(mixed_chi, LatticeField.zeros(small_spec)) == 1.0


def test_characteristic_functional_gaussian_closed_form(small_spec, rng):
    chi = LevyCharacteristic(sigma2=1.3)
    f = LatticeField(small_spec, rng.normal(size=small_spec.shape))
    expected = np.exp(-0.5 * 1.3 * small_spec.cell_volume * np.sum(f.values**2))
    assert characteristic_functional(chi, f) == pytest.approx(expected, rel=1e-12)


def test_characteristic_functional_per_site_oracle(small_spec, mixed_chi, rng):
    f = LatticeField(small_spec, rng.normal(size=small_spec.shape))
    log_sum = sum(psi(mixed_chi, float(v)) for v in f.values.ravel())
    expected = np.exp(small_spec.cell_volume * log_sum)
    assert characteristic_functional(mixed_chi, f) == pytest.approx(expected, rel=1e-12)


def test_characteristic_functional_modulus(small_spec, mixed_chi, rng):
    for _ in range(100):
        f = LatticeField(small_spec, 5.0 * rng.normal(size=small_spec.shape))
        assert abs(characteristic_functional(mixed_chi, f)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# sampling


def test_sample_noise_pure_drift(small_spec, rng):
    chi = LevyCharacteristic(b=1.0)
    eta = sample_noise(chi, small_spec, rng)
    assert np.all(eta.values == 1.0)


def pairing(spec, f, eta):
    return spec.cell_volume * np.sum(f * eta.values)


@pytest.mark.parametrize("amp", [0.3, 1.0, 4.0])
def test_empirical_cumulants_of_pairing(small_spec, mixed_chi, amp):
    # cumulant of eta(f) of order n is kappa_n * a^d * sum f^n
    spec = LatticeSpec(3, 4, 0.5)
    axis = np.arange(spec.L)
    f = amp * (np.cos(2 * np.pi * axis / spec.L) + 0.5)
    f = f.reshape(-1, 1, 1) * np.ones(spec.shape)
    rng = substream(2024, int(amp * 10))
    n_draws = 4000
    x = np.array([pairing(spec, f, sample_noise(mixed_chi, spec, rng))
                  for _ in range(n_draws)])
    from scipy.stats import kstat
    for n in range(1, 5):
        expected = noise_cumulant(mixed_chi, n) * spec.cell_volume * np.sum(f**n)
        est = kstat(x, n)
        # crude stderr from subsample spread
        parts = np.array([kstat(c, n) for c in np.array_split(x, 10)])
        se = parts.std(ddof=1) / np.sqrt(10)
        assert abs(est - expected) <= 4.0 * se + 1e-12


def test_empirical_characteristic_functional(small_spec, poisson_chi):
    spec = LatticeSpec(3, 4, 0.5)
    f = 0.8 * np.ones(spec.shape)
    rng = substream(77)
    z = np.array([np.exp(1j * pairing(spec, f, sample_noise(poisson_chi, spec, rng)))
                  for _ in range(4000)])
    exact = characteristic_functional(poisson_chi, LatticeField(spec, f))
    se = max(z.real.std(ddof=1), z.imag.std(ddof=1)) / np.sqrt(len(z))
    assert abs(z.mean() - exact) <= 4.0 * se


@pytest.mark.parametrize("amp", [0.5, 6.0])
def test_atom_thinning_characteristic_functional(amp):
    # atom laws are drawn as one Poisson count per atom; two atoms of opposite
    # sign plus drift and diffusion must still give E exp(i eta(f))
    spec = LatticeSpec(3, 4, 0.5)
    chi = LevyCharacteristic(b=0.2, sigma2=0.1, lam=1.5,
                             jump_law=JumpLaw.atoms([(1.0, 0.6), (-0.5, 0.4)]))
    f = np.zeros(spec.shape)  # one line of sites keeps |E| well above 0
    f[:, 0, 0] = amp * (np.cos(2 * np.pi * np.arange(spec.L) / spec.L) + 0.5)
    assert_empirical_cf(chi, spec, f, substream(2002, int(amp * 10)), 3.0)


def assert_empirical_cf(chi, spec, f, rng, n_stderr, n_draws=40_000):
    """The mean of exp(i eta(f)) over n_draws noise draws is within n_stderr
    standard errors of the characteristic functional, per component."""
    exact = characteristic_functional(chi, LatticeField(spec, f))
    z = np.array([np.exp(1j * pairing(spec, f, sample_noise(chi, spec, rng)))
                  for _ in range(n_draws)])
    assert abs(exact) > 0.05
    assert abs(z.real.mean() - exact.real) <= n_stderr * z.real.std(ddof=1) / np.sqrt(n_draws)
    assert abs(z.imag.mean() - exact.imag) <= n_stderr * z.imag.std(ddof=1) / np.sqrt(n_draws)


CF_CASES = {  # case -> (lam, jump law, amplitude of f); per-site means lam * a^d * w_j
    "atom_mean_25": (200.0, JumpLaw.atom(1.0), 0.2),  # 25: per-site counts
    "atoms_mean_23.75_and_1.25": (200.0, JumpLaw.atoms([(0.5, 0.95), (-3.0, 0.05)]), 0.2),
    "two_sided_exponential": (2.0, JumpLaw.two_sided_exponential(0.7), 6.0),  # scattered
}


@pytest.mark.parametrize("case", CF_CASES)
def test_jump_route_characteristic_functional(case):
    # both draws of a Poisson component, and a law drawn jump by jump, must
    # give E exp(i eta(f)) with drift and diffusion added
    lam, law, amp = CF_CASES[case]
    spec = LatticeSpec(3, 4, 0.5)
    if law.kind == "atoms":
        means = lam * spec.cell_volume * law.positions_weights()[1]
        assert means[0] > SCATTER_MAX_MEAN and (means.size == 1 or means[1] < SCATTER_MAX_MEAN)
    chi = LevyCharacteristic(b=0.2, sigma2=0.1, lam=lam, jump_law=law)
    f = np.zeros(spec.shape)  # one line of sites keeps |E| well above 0
    f[:, 0, 0] = amp * (np.cos(2 * np.pi * np.arange(spec.L) / spec.L) + 0.5)
    assert_empirical_cf(chi, spec, f, substream(2003, list(CF_CASES).index(case)), 4.0)


@pytest.mark.parametrize("mean", [SCATTER_MAX_MEAN - 0.5, SCATTER_MAX_MEAN + 0.5, 12.5, 1000.0],
                         ids=["scattered", "per_site", "per_site_12.5", "per_site_1000"])
def test_atom_counts_are_independent_poisson(mean):
    # one atom at 1 adds a^(-d) per jump, so a^d * eta counts the jumps per site
    spec = LatticeSpec(3, 4, 0.5)
    chi = LevyCharacteristic(lam=mean / spec.cell_volume, jump_law=JumpLaw.atom(1.0))
    rng = substream(8101, int(10 * mean))
    counts = np.array([sample_noise(chi, spec, rng).values.ravel() * spec.cell_volume
                       for _ in range(1000)])
    assert np.array_equal(counts, np.rint(counts))
    # marginal: histogram against the Poisson pmf, one bin per count with >= 20
    # expected sites and one bin per tail, 5 binomial stderr per bin
    flat = counts.ravel()
    k = np.flatnonzero(poisson.pmf(np.arange(2 * mean + 100), mean) * flat.size >= 20)
    freq = np.array([np.mean(flat < k[0]), *(np.mean(flat == j) for j in k),
                     np.mean(flat > k[-1])])
    prob = np.array([poisson.cdf(k[0] - 1, mean), *poisson.pmf(k, mean),
                     poisson.sf(k[-1], mean)])
    assert np.all(np.abs(freq - prob) <= 5.0 * np.sqrt(prob * (1 - prob) / flat.size))
    # independence: the total over V sites has variance mean * V (4.4 stderr)
    totals = counts.sum(axis=1)
    assert abs(totals.var(ddof=1) / (mean * spec.n_sites) - 1.0) <= 0.2


@pytest.mark.parametrize("mean", [12.5, 100.0, 1e4])
def test_table_draw_is_inverse_cdf(mean):
    # per-site counts are the inverse Poisson CDF at one rng.random(V), bit for
    # bit, and the stream goes on exactly as after that one call
    spec = LatticeSpec(3, 16, 1.0)
    chi = LevyCharacteristic(lam=mean, jump_law=JumpLaw.atom(1.0))
    for i in range(3):
        ref, rng = substream(91, i), substream(91, i)
        u = ref.random(spec.n_sites)
        lo = int(max(0.0, mean - 50.0 * np.sqrt(mean)))
        k = np.arange(lo, mean + 50.0 * np.sqrt(mean) + 20.0)
        expected = np.searchsorted(pdtr(k, mean), u, side="right") + lo
        assert np.array_equal(sample_noise(chi, spec, rng).values.ravel(), 1.0 * expected)
        assert rng.random() == ref.random()


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_poisson_table_is_small_and_read_only():
    (lo, cdf, guide), peak = traced_peak(_poisson_table.__wrapped__, MAX_SITE_MEAN)  # uncached
    assert cdf.nbytes + guide.nbytes <= 1_000_000 and peak <= 2_000_000
    assert cdf[-1] == 1.0 and not cdf.flags.writeable and not guide.flags.writeable


def test_site_mean_cap():
    spec = LatticeSpec(3, 4, 0.5)
    for law in (JumpLaw.atom(1.0), JumpLaw.uniform(0.5, 2.0)):
        chi = LevyCharacteristic(lam=1e21, jump_law=law)  # numpy: "lam value too large"
        with pytest.raises(ConfigurationError, match=r"^lambda: .* MAX_SITE_MEAN"):
            sample_noise(chi, spec, substream(3))
    at_cap = LevyCharacteristic(lam=MAX_SITE_MEAN / spec.cell_volume, jump_law=JumpLaw.atom(1.0))
    values = sample_noise(at_cap, spec, substream(3)).values * spec.cell_volume
    assert abs(values.mean() / MAX_SITE_MEAN - 1.0) < 0.01


def test_noise_draws_import_no_scipy_stats():
    # a forked sampler worker starts with its parent's resident pages, so an
    # import made for the noise draw would count in every worker's RSS
    code = ("import sys\n"
            "import levylab.cli\n"
            "from levylab import JumpLaw, LatticeSpec, LevyCharacteristic, sample_noise, substream\n"
            "spec = LatticeSpec(3, 4, 0.5)\n"
            "for mean in (0.25, 12.5):\n"
            "    chi = LevyCharacteristic(lam=mean / spec.cell_volume, jump_law=JumpLaw.atom(1.0))\n"
            "    sample_noise(chi, spec, substream(1))\n"
            "print('scipy.stats' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(levylab.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_high_mean_atom_draw_is_o_of_sites(desk_spec):
    # mean 1000 per site: a scattered draw would hold 4e6 site indices (32 MB)
    chi = LevyCharacteristic(lam=1000.0 / desk_spec.cell_volume, jump_law=JumpLaw.atom(1.0))
    rng = substream(5)
    peak = traced_peak(sample_noise, chi, desk_spec, rng)[1]
    assert peak < 16 * desk_spec.n_sites * 8


def test_chunked_scatter_matches_one_draw():
    # a scattered atom draw at SCATTER_MAX_MEAN - 0.5 is one chunk: one
    # integers() call and its bincount.  Below SCATTER_MAX_MEAN < SCATTER_CHUNK
    # an atom draw never fills a chunk, so the chunks are crossed at mean 9.5
    # on _scatter itself: each draw crosses two chunk boundaries
    spec = LatticeSpec(3, 4, 1.0)
    n = spec.n_sites
    mean = SCATTER_MAX_MEAN - 0.5
    chi = LevyCharacteristic(lam=mean, jump_law=JumpLaw.atom(1.0))
    for i in range(5):
        ref, rng = substream(77, i), substream(77, i)
        counts = np.bincount(ref.integers(n, size=ref.poisson(mean * n)), minlength=n)
        assert np.array_equal(sample_noise(chi, spec, rng).values.ravel(), 1.0 * counts)
        assert rng.random() == ref.random()  # the stream goes on where one draw leaves it
        ref, rng = substream(78, i), substream(78, i)
        total = ref.poisson(9.5 * n)
        assert total > 2 * SCATTER_CHUNK * n
        counts = np.bincount(ref.integers(n, size=total), minlength=n)
        assert np.array_equal(_scatter(rng, n, rng.poisson(9.5 * n)), counts)
        assert rng.random() == ref.random()


def test_density_scatter_draws_sites_then_jumps_per_chunk():
    # one chunk (mean 3.5 < SCATTER_CHUNK) is all sites, then all jumps; at mean
    # 9.5 each chunk of SCATTER_CHUNK * V draws its sites, then its jumps
    spec = LatticeSpec(3, 4, 1.0)
    n, chunk = spec.n_sites, SCATTER_CHUNK * spec.n_sites
    for mean, crossings in ((3.5, 0), (9.5, 2)):
        chi = LevyCharacteristic(b=0.3, lam=mean, jump_law=JumpLaw.uniform(0.5, 2.0))
        for i in range(3):
            ref, rng = substream(79, i), substream(79, i)
            total = ref.poisson(mean * n)
            assert total // chunk == crossings
            sums = np.zeros(n)
            for start in range(0, total, chunk):
                sites = ref.integers(n, size=min(total - start, chunk))
                sums += np.bincount(sites, weights=ref.uniform(0.5, 2.0, sites.size),
                                    minlength=n)
            assert np.array_equal(sample_noise(chi, spec, rng).values.ravel(), 0.3 + sums)
            assert rng.random() == ref.random()


def test_scattered_atom_draw_memory_is_a_few_fields():
    # just below SCATTER_MAX_MEAN on 64^3 the int64 site indices of one chunk
    # hold at most SCATTER_CHUNK fields
    spec = LatticeSpec(3, 64, 1.0)
    chi = LevyCharacteristic(lam=SCATTER_MAX_MEAN - 0.5, jump_law=JumpLaw.atom(1.0))
    rng = substream(6)
    peak = traced_peak(sample_noise, chi, spec, rng)[1]
    assert peak < 8 * spec.n_sites * 8


def test_density_scatter_memory_is_a_few_fields():
    # mean 50 on 32^3: one unchunked draw held 1.6e6 int64 sites and as many
    # float jumps (100 fields); a chunk holds SCATTER_CHUNK fields of each
    spec = LatticeSpec(3, 32, 1.0)
    chi = LevyCharacteristic(lam=50.0, jump_law=JumpLaw.uniform(0.5, 2.0))
    rng = substream(7)
    peak = traced_peak(sample_noise, chi, spec, rng)[1]
    assert peak < 16 * spec.n_sites * 8


def test_lattice_site_cap():
    assert LatticeSpec(3, 256, 0.5).n_sites == MAX_SITES  # the cap is inclusive
    with pytest.raises(ConfigurationError, match=r"L\*\*d = 257\*\*3 .* MAX_SITES"):
        LatticeSpec(3, 257, 0.5)
    with pytest.raises(ConfigurationError, match=r"L\*\*d = 4\*\*30"):
        LatticeSpec(30, 4, 0.5)
    with pytest.raises(ConfigurationError, match="MAX_SITES"):
        LatticeSpec(np.int64(2), np.int64(2**40), 0.5)  # no int64 overflow


def test_lattice_spec_validation():
    with pytest.raises(ConfigurationError):
        LatticeSpec(0, 8, 0.5)
    with pytest.raises(ConfigurationError, match=r"dimension d must be in \[1, 64\)"):
        LatticeSpec(64, 2, 0.5)  # numpy arrays have at most 64 axes
    assert LatticeSpec(63, 1, 0.5).n_sites == 1
    with pytest.raises(ConfigurationError):
        LatticeSpec(3, 8, 0.0)
    with pytest.raises(ConfigurationError):
        LevyCharacteristic(lam=1.0)  # jump law missing
    with pytest.raises(ConfigurationError):
        LevyCharacteristic(sigma2=-1.0)
