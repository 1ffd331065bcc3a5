"""Green function of (-Laplace + m0^2)^alpha and its mass superposition.

Fourier convention: forward transform with exp(i*k*x), inverse carries
(2*pi)^(-d).  On the periodic lattice the inverse transform is

    G(x) = (1/V) * sum_k Ghat(k) * exp(i*k*x),   V = (L*a)^d,

realized as numpy ifftn divided by a^d, so that a^d * sum_x G(x) = Ghat(0).

The propagator admits a superposition over masses,

    (q^2 + m0^2)^(-alpha) = integral_{m0^2}^inf rho(s) / (q^2 + s) ds,

with rho(s) = C * (s - m0^2)^(-alpha).  The working normalization is
C = sin(pi*alpha)/pi, which makes the identity exact; the alternative
constant 2*sin(pi*alpha) is kept as an option (it differs by the factor
2*pi and only affects overall positive scales downstream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import kv

from .errors import ConfigurationError, NumericalError, SingularityError
from .noise import LatticeField, LatticeSpec

CONTINUUM = "continuum"
DISCRETE = "discrete"

ANALYTIC = "analytic"
PAPER = "paper"

IMAG_TOL = 1e-10  # inverse_transform: largest relative imaginary residue


def _check_alpha_m0(alpha: float, m0: float) -> None:
    """Range policy for the exponent and mass of every model object."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    if not 0.0 <= m0 < np.inf:  # NaN fails too
        raise ConfigurationError("m0 must be finite and >= 0")


@dataclass(frozen=True)
class ModelParams:
    """Exponent alpha in (0,1), mass m0 >= 0 and the lattice momentum symbol."""

    alpha: float
    m0: float
    symbol: str = CONTINUUM

    def __post_init__(self):
        _check_alpha_m0(self.alpha, self.m0)
        if self.symbol not in (CONTINUUM, DISCRETE):
            raise ConfigurationError(f"unknown momentum symbol {self.symbol!r}")


@dataclass(frozen=True)
class SpectralDensity:
    """Mass-superposition weight rho_{alpha,m0}(m^2)."""

    alpha: float
    m0: float
    normalization: str = ANALYTIC

    def __post_init__(self):
        _check_alpha_m0(self.alpha, self.m0)
        if self.normalization not in (ANALYTIC, PAPER):
            raise ConfigurationError(f"unknown normalization {self.normalization!r}")

    @property
    def constant(self) -> float:
        if self.normalization == ANALYTIC:
            return np.sin(np.pi * self.alpha) / np.pi
        return 2.0 * np.sin(np.pi * self.alpha)


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive quadrature budget for mass-superposition integrals."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    limit: int = 200


def squared_momentum(spec: LatticeSpec, symbol: str = CONTINUUM) -> np.ndarray:
    """|k|^2 symbol on the dual FFT grid, shape (L,)*d.

    ``continuum``: sum of squared FFT frequencies (k in [-pi/a, pi/a)).
    ``discrete``: (2/a^2) * sum_i (1 - cos(a*k_i)), the periodic Laplacian.
    """
    k1 = 2.0 * np.pi * np.fft.fftfreq(spec.L, d=spec.a)
    if symbol == CONTINUUM:
        axis = k1**2
    elif symbol == DISCRETE:
        axis = (2.0 / spec.a**2) * (1.0 - np.cos(spec.a * k1))
    else:
        raise ConfigurationError(f"unknown momentum symbol {symbol!r}")
    ksq = np.zeros(spec.shape)
    for i in range(spec.d):
        shape = [1] * spec.d
        shape[i] = spec.L
        ksq = ksq + axis.reshape(shape)
    return ksq


def green_momentum(p: ModelParams, k) -> float:
    """Ghat(k) = (|k|^2 + m0^2)^(-alpha) for a momentum vector k."""
    ksq = float(np.sum(np.asarray(k, dtype=float) ** 2))
    return green_momentum_sq(p, ksq)


def green_momentum_sq(p: ModelParams, ksq):
    """Ghat as a function of |k|^2 (scalar or array)."""
    ksq = np.asarray(ksq, dtype=float)
    if p.m0 == 0.0 and np.any(ksq == 0.0):
        raise SingularityError("Ghat(0) diverges for m0 = 0")
    out = (ksq + p.m0**2) ** (-p.alpha)
    return float(out) if out.ndim == 0 else out


def inverse_transform(spec: LatticeSpec, ghat: np.ndarray) -> LatticeField:
    """Lattice inverse Fourier transform with the a^d density convention.

    Guards against a nonreal result: the imaginary residue must stay below
    IMAG_TOL times the field norm (catches symbol/convention bugs).
    """
    g = np.fft.ifftn(np.asarray(ghat, dtype=complex)) / spec.cell_volume
    scale = np.linalg.norm(g.real) + 1e-300
    if np.linalg.norm(g.imag) > IMAG_TOL * scale:
        raise NumericalError("inverse transform produced a non-real field")
    return LatticeField(spec, g.real)


def green_real_fft(p: ModelParams, spec: LatticeSpec) -> LatticeField:
    """Position-space Green function on the periodic lattice (FFT route)."""
    if p.m0 == 0.0:
        raise SingularityError("zero mode diverges for m0 = 0")
    ghat = green_momentum_sq(p, squared_momentum(spec, p.symbol))
    return inverse_transform(spec, ghat)


def rho(sd: SpectralDensity, m2) -> float:
    """Spectral density value at squared mass m2 (0 below m0^2)."""
    m2 = float(m2)
    if m2 == sd.m0**2:
        raise SingularityError("rho has an (integrable) singularity at m^2 = m0^2")
    if m2 < sd.m0**2:
        return 0.0
    return sd.constant * (m2 - sd.m0**2) ** (-sd.alpha)


def spectral_integral(sd: SpectralDensity, kernel, quad_spec: QuadratureSpec | None = None) -> float:
    """integral_{m0^2}^inf rho(s) * kernel(s) ds with the endpoint removed.

    Substituting u = (s - m0^2)^(1-alpha) turns rho(s) ds into the smooth
    measure constant/(1-alpha) du, eliminating the (s-m0^2)^(-alpha)
    singularity exactly.
    """
    qs = quad_spec or QuadratureSpec()
    alpha, m0sq = sd.alpha, sd.m0**2
    pwr = 1.0 / (1.0 - alpha)

    def integrand(u):
        try:
            return kernel(m0sq + u**pwr)
        except OverflowError:  # s past the float range (alpha near 1): the kernels vanish there
            return 0.0

    val, err = quad(integrand, 0.0, np.inf, epsrel=qs.rel_tol, epsabs=qs.abs_tol,
                    limit=qs.limit)
    if not np.isfinite(val) or err > max(qs.abs_tol, 10.0 * qs.rel_tol * abs(val)):
        raise NumericalError(
            f"mass-superposition quadrature did not converge (value={val}, err={err})")
    return sd.constant / (1.0 - alpha) * val


def kl_momentum(sd: SpectralDensity, q2: float,
                quad_spec: QuadratureSpec | None = None) -> float:
    """Propagator at |q|^2 via the mass superposition (quadrature route)."""
    return spectral_integral(sd, lambda s: 1.0 / (q2 + s), quad_spec)


def yukawa(m: float, r: float, d: int) -> float:
    """Massive (alpha = 1) Green function of (-Laplace + m^2) at radius r in d dims."""
    if r <= 0.0:
        raise SingularityError("Yukawa kernel evaluated at r = 0")
    if m <= 0.0:
        raise SingularityError("Yukawa kernel requires m > 0")
    nu = d / 2.0 - 1.0
    return float((2.0 * np.pi) ** (-d / 2.0) * m**nu * r**(-nu) * kv(nu, m * r))


def green_real_kl(p: ModelParams, x, quad_spec: QuadratureSpec | None = None) -> float:
    """Position-space Green function via the mass superposition.

    G_alpha(x) = integral rho(s) * Yukawa(sqrt(s), |x|) ds, with the analytic
    normalization (required for the identity to hold without extra constants).
    """
    if p.m0 == 0.0:
        raise SingularityError("mass superposition needs m0 > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    if r <= 0.0:
        raise SingularityError("green_real_kl requires |x| > 0")
    d = x.size
    sd = SpectralDensity(p.alpha, p.m0, ANALYTIC)
    return spectral_integral(sd, lambda s: yukawa(np.sqrt(s), r, d), quad_spec)
