"""Green function of (-Laplace + m0^2)^alpha and its mass superposition.

Fourier convention: forward transform with exp(i*k*x), inverse carries
(2*pi)^(-d).  On the periodic lattice the inverse transform is

    G(x) = (1/V) * sum_k Ghat(k) * exp(i*k*x),   V = (L*a)^d,

realized as numpy irfftn of Ghat on the half spectrum of rfftn divided by
a^d, so that a^d * sum_x G(x) = Ghat(0).  There is one route: the cached half
spectrum (_half_symbol) is the symbol of the sampler's solve and, through
inverse_transform, the source of green_real_fft, which is therefore the solve
of the unit source delta/a^d and real by construction.

The propagator admits a superposition over masses,

    (q^2 + m0^2)^(-alpha) = integral_{m0^2}^inf rho(s) / (q^2 + s) ds,

with rho(s) = C * (s - m0^2)^(-alpha) and the one constant
C = sin(pi*alpha)/pi, which makes the identity exact.  The paper's constant
2*sin(pi*alpha) differs from it by the factor 2*pi for every alpha.

The FFT route needs numpy only.  scipy.integrate (quad) is loaded at the first
spectral_integral, and scipy.special (kv) at the first yukawa call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericalError, SingularityError
from .noise import LatticeField, LatticeSpec, _real

CONTINUUM = "continuum"
DISCRETE = "discrete"

# spectral_integral: adaptive quadrature budget of the mass superposition
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-12
QUAD_LIMIT = 200


@dataclass(frozen=True)
class ModelParams:
    """Exponent alpha in (0,1), mass m0 >= 0 and the lattice momentum symbol."""

    alpha: float
    m0: float
    symbol: str = CONTINUUM

    def __post_init__(self):
        for name in ("alpha", "m0"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1)")
        if not 0.0 <= self.m0 < np.inf:  # NaN fails too
            raise ConfigurationError("m0 must be finite and >= 0")
        if self.symbol not in (CONTINUUM, DISCRETE):
            raise ConfigurationError(f"unknown momentum symbol {self.symbol!r}")


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


def green_momentum_sq(p: ModelParams, ksq):
    """Ghat = (|k|^2 + m0^2)^(-alpha) as a function of |k|^2 (scalar or array)."""
    ksq = np.asarray(ksq, dtype=float)
    if p.m0 == 0.0 and np.any(ksq == 0.0):
        raise SingularityError("Ghat(0) diverges for m0 = 0")
    out = (ksq + p.m0**2) ** (-p.alpha)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=2)
def _half_symbol(p: ModelParams, spec: LatticeSpec) -> np.ndarray:
    """Ghat on the half spectrum of rfftn (last axis 0..L//2); read-only.
    Half a field each, and a run solves one model at a time: two are kept."""
    ksq = squared_momentum(spec, p.symbol)[..., : spec.L // 2 + 1]
    ghat = green_momentum_sq(p, ksq)
    ghat.setflags(write=False)
    return ghat


def inverse_transform(spec: LatticeSpec, ghat: np.ndarray) -> LatticeField:
    """Lattice inverse Fourier transform with the a^d density convention of a
    half spectrum ghat (rfftn's layout, last axis 0..L//2): irfftn / a^d."""
    g = np.fft.irfftn(ghat, s=spec.shape, axes=tuple(range(spec.d)))
    g /= spec.cell_volume
    return LatticeField(spec, g)


def green_real_fft(p: ModelParams, spec: LatticeSpec) -> LatticeField:
    """Position-space Green function on the periodic lattice: the inverse
    transform of the solve's half spectrum, so the solve of delta/a^d."""
    if p.m0 == 0.0:
        raise SingularityError("zero mode diverges for m0 = 0")
    return inverse_transform(spec, _half_symbol(p, spec))


def rho(p: ModelParams, m2) -> float:
    """Spectral density value at squared mass m2 (0 below m0^2)."""
    m2 = float(m2)
    if m2 == p.m0**2:
        raise SingularityError("rho has an (integrable) singularity at m^2 = m0^2")
    if m2 < p.m0**2:
        return 0.0
    return np.sin(np.pi * p.alpha) / np.pi * (m2 - p.m0**2) ** (-p.alpha)


def spectral_integral(p: ModelParams, kernel) -> float:
    """integral_{m0^2}^inf rho(s) * kernel(s) ds with the endpoint removed.

    Substituting u = (s - m0^2)^(1-alpha) turns rho(s) ds into the smooth
    measure C/(1-alpha) du, eliminating the (s-m0^2)^(-alpha)
    singularity exactly.
    """
    from scipy.integrate import quad  # loaded by the quadrature routes only

    alpha, m0sq = p.alpha, p.m0**2
    pwr = 1.0 / (1.0 - alpha)

    def integrand(u):
        try:
            return kernel(m0sq + u**pwr)
        except OverflowError:  # s past the float range (alpha near 1): the kernels vanish there
            return 0.0

    val, err = quad(integrand, 0.0, np.inf, epsrel=QUAD_REL_TOL, epsabs=QUAD_ABS_TOL,
                    limit=QUAD_LIMIT)
    if not np.isfinite(val) or err > max(QUAD_ABS_TOL, 10.0 * QUAD_REL_TOL * abs(val)):
        raise NumericalError(
            f"mass-superposition quadrature did not converge (value={val}, err={err})")
    return np.sin(np.pi * p.alpha) / np.pi / (1.0 - alpha) * val


def kl_momentum(p: ModelParams, q2: float) -> float:
    """Propagator at |q|^2 via the mass superposition (quadrature route)."""
    return spectral_integral(p, lambda s: 1.0 / (q2 + s))


def yukawa(m: float, r: float, d: int) -> float:
    """Massive (alpha = 1) Green function of (-Laplace + m^2) at radius r in d dims."""
    if r <= 0.0:
        raise SingularityError("Yukawa kernel evaluated at r = 0")
    if m <= 0.0:
        raise SingularityError("Yukawa kernel requires m > 0")
    from scipy.special import kv

    nu = d / 2.0 - 1.0
    return float((2.0 * np.pi) ** (-d / 2.0) * m**nu * r**(-nu) * kv(nu, m * r))


def green_real_kl(p: ModelParams, x) -> float:
    """Position-space Green function via the mass superposition.

    G_alpha(x) = integral rho(s) * Yukawa(sqrt(s), |x|) ds.
    """
    if p.m0 == 0.0:
        raise SingularityError("mass superposition needs m0 > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    if r <= 0.0:
        raise SingularityError("green_real_kl requires |x| > 0")
    d = x.size
    return spectral_integral(p, lambda s: yukawa(np.sqrt(s), r, d))
