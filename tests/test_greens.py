import numpy as np
import pytest
from scipy.integrate import quad

from levylab import (ConfigurationError, LatticeField, LatticeSpec, ModelParams,
                     NumericalError, SingularityError, green_real_fft,
                     green_real_kl, kl_momentum, rho, solve_spde,
                     spectral_integral, squared_momentum)
from levylab.greens import DISCRETE, green_momentum_sq, inverse_transform, yukawa


def test_model_params_validation():
    with pytest.raises(ConfigurationError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        ModelParams(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        ModelParams(0.5, -1.0)
    with pytest.raises(ConfigurationError):
        ModelParams(0.5, 1.0, "hexagonal")


def test_green_momentum_examples():
    assert green_momentum_sq(ModelParams(0.5, 1.0), 3.0) == pytest.approx(0.5)
    assert green_momentum_sq(ModelParams(0.3, 2.0), 0.0) == pytest.approx(2.0**-0.6)
    # large-|k| asymptotics ~ |k|^(-2 alpha)
    p = ModelParams(0.4, 1.0)
    k = 1e4
    assert green_momentum_sq(p, k**2) / k**-0.8 == pytest.approx(1.0, rel=1e-6)


def test_green_momentum_positive_monotone():
    p = ModelParams(0.7, 0.5)
    ksq = np.linspace(0.0, 50.0, 200)
    g = green_momentum_sq(p, ksq)
    assert np.all(g > 0)
    assert np.all(np.diff(g) < 0)


def test_green_momentum_singularity():
    with pytest.raises(SingularityError):
        green_momentum_sq(ModelParams(0.5, 0.0), 0.0)


def test_zero_mode_identity(model_half, desk_spec):
    g = green_real_fft(model_half, desk_spec)
    total = desk_spec.cell_volume * g.values.sum()
    assert total == pytest.approx(1.0, abs=1e-10)  # m0^(-2 alpha) with m0 = 1
    p3 = ModelParams(0.3, 2.0)
    g3 = green_real_fft(p3, desk_spec)
    assert desk_spec.cell_volume * g3.values.sum() == pytest.approx(2.0**-0.6, abs=1e-10)


def test_green_real_even(model_half, desk_spec):
    v = green_real_fft(model_half, desk_spec).values
    mirrored = np.roll(v[::-1, ::-1, ::-1], shift=1, axis=(0, 1, 2))
    assert np.allclose(v, mirrored, atol=1e-12)


def test_parseval(model_half, desk_spec):
    g = green_real_fft(model_half, desk_spec)
    ghat = green_momentum_sq(model_half, squared_momentum(desk_spec))
    lhs = desk_spec.cell_volume * np.sum(g.values**2)
    rhs = np.sum(ghat**2) / desk_spec.volume
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_yukawa_oracle_for_transform():
    # alpha formally 1 exercises the same inverse-transform machinery with the
    # closed-form massive kernel exp(-r)/(4 pi r) as oracle
    spec = LatticeSpec(3, 128, 0.0625)
    ghat = 1.0 / (squared_momentum(spec, DISCRETE) + 1.0)
    g = inverse_transform(spec, ghat[..., : spec.L // 2 + 1]).values
    period = spec.L * spec.a
    yuk = lambda r: np.exp(-r) / (4 * np.pi * r)
    for n_cells in (16, 24, 32):
        r = n_cells * spec.a
        # nearest periodic images: two along the axis, four face-diagonal
        expected = (yuk(r) + yuk(period - r) + yuk(period + r)
                    + 4 * yuk(np.hypot(r, period)))
        assert g[n_cells, 0, 0] == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("symbol", ["continuum", DISCRETE])
@pytest.mark.parametrize("a, L, rel", [(0.5, 16, 0.0), (0.5, 10, 0.0),
                                       (0.3, 16, 1e-15), (0.3, 10, 1e-15)])
def test_green_is_solve_of_unit_source(alpha, symbol, a, L, rel):
    # one route: G is the sampler's solve of the source delta/a^d, bit for bit
    # where 1/a^d is a power of two and so scales the half spectrum exactly
    spec = LatticeSpec(3, L, a)
    p = ModelParams(alpha, 1.0, symbol)
    source = np.zeros(spec.shape)
    source[0, 0, 0] = 1.0 / spec.cell_volume
    g = green_real_fft(p, spec).values
    solved = solve_spde(p, LatticeField(spec, source)).values
    if rel == 0.0:
        assert np.array_equal(g, solved)
    else:
        assert np.max(np.abs(g - solved)) <= rel * np.max(np.abs(g))


def test_yukawa_closed_form():
    # d = 3 reduction of the Bessel form
    for m, r in [(1.0, 0.5), (2.0, 1.5)]:
        assert yukawa(m, r, 3) == pytest.approx(np.exp(-m * r) / (4 * np.pi * r),
                                                rel=1e-12)
    with pytest.raises(SingularityError):
        yukawa(1.0, 0.0, 3)
    with pytest.raises(SingularityError):
        yukawa(0.0, 1.0, 3)


def test_rho_heaviside():
    p = ModelParams(0.5, 1.0)
    assert rho(p, 0.5) == 0.0
    assert rho(p, 2.0) > 0.0
    with pytest.raises(SingularityError):
        rho(p, 1.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("q2", [0.0, 1.0, 10.0])
def test_kl_identity(alpha, q2):
    exact = (q2 + 1.0) ** (-alpha)
    assert kl_momentum(ModelParams(alpha, 1.0), q2) == pytest.approx(exact, rel=1e-6)


def test_spectral_integral_against_direct_quad():
    # same integral without the endpoint substitution, split at the singularity
    p = ModelParams(0.4, 1.0)
    kern = lambda s: np.exp(-0.3 * (s - 1.0))
    direct = (quad(lambda s: rho(p, s) * kern(s), 1.0, 50.0,
                   points=[1.0], limit=400)[0]
              + quad(lambda s: rho(p, s) * kern(s), 50.0, np.inf)[0])
    assert spectral_integral(p, kern) == pytest.approx(direct, rel=1e-8)


def test_spectral_integral_nonconvergence():
    with pytest.raises(NumericalError):
        # growing kernel: integral diverges
        spectral_integral(ModelParams(0.5, 1.0), lambda s: np.exp(min(s, 700.0)))


def test_green_real_kl_monotone_decay(model_half):
    v1 = green_real_kl(model_half, [1.0, 0.0, 0.0])
    v2 = green_real_kl(model_half, [2.0, 0.0, 0.0])
    assert 0.0 < v2 < v1


def test_green_real_kl_bessel_oracle(model_half):
    # independent closed form at alpha = 1/2, d = 3, m0 = 1:
    # G(r) = K_1(r) / (2 pi^2 r)
    from scipy.special import kv

    for r in (0.5, 1.0, 2.5):
        exact = kv(1, r) / (2.0 * np.pi**2 * r)
        assert green_real_kl(model_half, [r, 0.0, 0.0]) == pytest.approx(
            exact, rel=1e-8)


def test_green_real_kl_requires_positive_radius(model_half):
    with pytest.raises(SingularityError):
        green_real_kl(model_half, [0.0, 0.0, 0.0])
    with pytest.raises(SingularityError):
        green_real_kl(ModelParams(0.5, 0.0), [1.0, 0.0, 0.0])


def test_discrete_symbol_small_momentum(desk_spec):
    cont = squared_momentum(desk_spec, "continuum")
    disc = squared_momentum(desk_spec, DISCRETE)
    # agree at k = 0 and to O(a^2 k^4) at the smallest nonzero mode
    assert disc.flat[0] == 0.0
    k1 = 2 * np.pi / (desk_spec.L * desk_spec.a)
    assert disc[1, 0, 0] == pytest.approx(k1**2, rel=0.02)
    assert np.all(disc <= cont + 1e-12)
