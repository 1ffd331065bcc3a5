"""Levy characteristic and lattice white-noise sampling.

The noise law is determined by the characteristic exponent

    psi(t) = i*b*t - (sigma2/2)*t**2 + lam * integral (exp(i*s*t) - 1) dr(s)

with drift b, diffusion sigma2 >= 0, jump intensity lam >= 0 and jump law r,
a probability measure on the reals excluding 0 with finite moments.  On a
periodic lattice with spacing a the smeared pairing is the Riemann sum
eta(f) = a^d * sum_x eta_x f_x, and site values are scaled so that lattice
cumulants converge to their continuum integrals as a -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np
from scipy.special import factorial, pdtr

from .errors import ConfigurationError, ContractViolation, RangeError

MAX_CUMULANT_ORDER = 8
MAX_SITES = 2**24  # a 256^3 lattice: 128 MiB per float64 field
# Cap on the per-site jump mean lam * a^d: one inverse-CDF table of a mean mu
# holds 3 * (80 sqrt(mu) + 11) int64/float64 entries, 0.6 MB at the cap.
MAX_SITE_MEAN = 1e5
# Per-site Poisson mean below which sample_noise scatters a jump component
# (Poisson(mean * V) jumps at uniform sites, bincount: O(N)) instead of one
# inverse-CDF count per site (O(V), flat in the mean).  Sweep on 4096 sites
# (Philox, min of 7), scattered vs per-site table in us: mean 1 34 vs 56,
# 1.5 47 vs 51, 2 69 vs 77, 2.5 80 vs 55, 4 118 vs 55, 9.5 257 vs 65, 12.5
# 323 vs 55 (rng.poisson per site: 170-475 us from mean 1 to 12.5).
SCATTER_MAX_MEAN = 2.0
# Scattered sites (and their jumps) are drawn and summed this many lattices'
# worth at a time, so the int64 indices never outgrow a few fields (chunked
# integers() calls continue the stream exactly; integer counts add exactly).
SCATTER_CHUNK = 4

_ATOMS = "atoms"
_UNIFORM = "uniform"
_TWO_SIDED_EXP = "two_sided_exponential"
_KINDS = (_ATOMS, _UNIFORM, _TWO_SIDED_EXP)
_N_PARAMS = {_UNIFORM: 2, _TWO_SIDED_EXP: 1}  # atoms: (position, weight) pairs


@dataclass(frozen=True)
class JumpLaw:
    """Jump distribution r from a closed catalogue with analytic moments.

    Kinds:
      * ``atoms``: finite mixture of point masses at nonzero positions.
      * ``uniform``: uniform density on an interval not containing 0 in its
        interior.
      * ``two_sided_exponential``: symmetric Laplace density with given scale.
    """

    kind: str
    params: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unsupported jump law kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        count = len(self.params)
        if self.kind == _ATOMS and count % 2:
            raise ConfigurationError(
                f"jump_params: atoms takes (position, weight) pairs, got {count} values")
        if count != _N_PARAMS.get(self.kind, count):
            raise ConfigurationError(
                f"jump_params: {self.kind} takes {_N_PARAMS[self.kind]} value(s), got {count}")
        # range checks are written so that NaN fails them
        if self.kind == _ATOMS:
            s, w = self.positions_weights()
            if s.size == 0:
                raise ConfigurationError("atom jump law needs at least one atom")
            if not np.all(np.isfinite(s)):
                raise ConfigurationError("atom positions must be finite")
            if np.any(s == 0.0):
                raise ConfigurationError("jump law may not place mass at 0")
            if not (np.all(w > 0.0) and abs(w.sum() - 1.0) <= 1e-12):
                raise ConfigurationError("atom weights must be positive and sum to 1")
        elif self.kind == _UNIFORM:
            lo, hi = self.params
            if not -np.inf < lo < hi < np.inf:
                raise ConfigurationError("uniform jump law needs finite lo < hi")
            if lo < 0.0 < hi:
                raise ConfigurationError("uniform jump interval must exclude 0")
        else:
            (scale,) = self.params
            if not 0.0 < scale < np.inf:
                raise ConfigurationError("two-sided exponential scale must be finite and > 0")

    @classmethod
    def atoms(cls, positions_weights) -> "JumpLaw":
        return cls(_ATOMS, tuple(v for s, w in positions_weights for v in (s, w)))

    @classmethod
    def atom(cls, position: float) -> "JumpLaw":
        return cls.atoms([(position, 1.0)])

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "JumpLaw":
        return cls(_UNIFORM, (lo, hi))

    @classmethod
    def two_sided_exponential(cls, scale: float) -> "JumpLaw":
        return cls(_TWO_SIDED_EXP, (scale,))

    def positions_weights(self):
        p = np.asarray(self.params, dtype=float).reshape(-1, 2)
        return p[:, 0], p[:, 1]

    def moment(self, n: int) -> float:
        """n-th moment r_n = integral s^n dr(s), exact per catalogue kind."""
        if n < 0 or n > MAX_CUMULANT_ORDER:
            raise RangeError(f"jump moment order {n} outside [0, {MAX_CUMULANT_ORDER}]")
        if self.kind == _ATOMS:
            s, w = self.positions_weights()
            return float(np.sum(w * s**n))
        if self.kind == _UNIFORM:
            lo, hi = self.params
            return float((hi ** (n + 1) - lo ** (n + 1)) / ((n + 1) * (hi - lo)))
        (scale,) = self.params
        if n % 2 == 1:
            return 0.0
        return float(factorial(n) * scale**n)

    def char_minus_one(self, t):
        """integral (exp(i*s*t) - 1) dr(s), vectorized over t, closed form."""
        t = np.asarray(t, dtype=float)
        if self.kind == _ATOMS:
            s, w = self.positions_weights()
            return np.sum(w * (np.exp(1j * np.multiply.outer(t, s)) - 1.0), axis=-1)
        if self.kind == _UNIFORM:
            lo, hi = self.params
            # (e^{ith} - e^{itl}) / (it(h-l)) = e^{it(h+l)/2} sinc(t(h-l)/(2 pi));
            # the sinc form stays finite for t = 0 and subnormal t, where the
            # naive quotient's denominator underflows.
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            val = np.exp(1j * t * mid) * np.sinc(t * half / np.pi)
            return val - 1.0
        (scale,) = self.params
        return 1.0 / (1.0 + scale**2 * t**2) - 1.0 + 0.0j

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size i.i.d. jumps from a density law; sample_noise draws an atom
        law as one Poisson count per atom, so it has no per-jump sampler."""
        if self.kind == _UNIFORM:
            return rng.uniform(*self.params, size=size)
        if self.kind == _TWO_SIDED_EXP:
            return rng.laplace(0.0, self.params[0], size=size)
        raise ContractViolation(f"{self.kind} jump laws are not sampled jump by jump")


@dataclass(frozen=True)
class LevyCharacteristic:
    """Drift + diffusion + compound Poisson triple defining psi."""

    b: float = 0.0
    sigma2: float = 0.0
    lam: float = 0.0
    jump_law: JumpLaw | None = None

    def __post_init__(self):
        if not np.isfinite(self.b):
            raise ConfigurationError("drift b must be finite")
        if not 0.0 <= self.sigma2 < np.inf:
            raise ConfigurationError("sigma2 must be finite and >= 0")
        if not 0.0 <= self.lam < np.inf:
            raise ConfigurationError("lambda must be finite and >= 0")
        if self.lam > 0.0 and self.jump_law is None:
            raise ConfigurationError("lambda > 0 requires a jump law")


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic d-dimensional grid with L sites per axis and spacing a."""

    d: int
    L: int
    a: float

    def __post_init__(self):
        if not isinstance(self.d, Integral) or not isinstance(self.L, Integral):
            raise ConfigurationError("lattice d and L must be integers")
        if not 1 <= self.d < 64:  # numpy arrays have at most 64 axes
            raise ConfigurationError(f"dimension d must be in [1, 64), got {self.d}")
        if self.L < 1:
            raise ConfigurationError("sites per axis L must be >= 1")
        if int(self.L) ** int(self.d) > MAX_SITES:
            raise ConfigurationError(
                f"L**d = {self.L}**{self.d} sites exceed the cap MAX_SITES = {MAX_SITES}")
        if not 0.0 < self.a < np.inf:
            raise ConfigurationError("lattice spacing a must be finite and > 0")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.L,) * self.d

    @property
    def n_sites(self) -> int:
        return self.L**self.d

    @property
    def cell_volume(self) -> float:
        return self.a**self.d

    @property
    def volume(self) -> float:
        return (self.L * self.a) ** self.d


def _check_points(spec: LatticeSpec, pts) -> list[tuple[int, ...]]:
    """Lattice points as int tuples; a non-integer coordinate (1.7, nan, a
    string), a wrong dimension or an off-lattice coordinate raises
    ConfigurationError naming the point."""
    out = []
    for p in pts:
        try:
            coords = tuple(p)
            q = tuple(int(c) for c in coords)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"point {p!r}: coordinates must be integers") from None
        if q != coords:
            raise ConfigurationError(f"point {coords}: coordinates must be integers")
        if len(q) != spec.d:
            raise ConfigurationError(f"point {q} has wrong dimension (d={spec.d})")
        if any(not 0 <= c < spec.L for c in q):
            raise ConfigurationError(f"point {q} outside the lattice")
        out.append(q)
    return out


@dataclass(frozen=True)
class LatticeField:
    """Real scalar field on a lattice; pairing convention a^d * sum_x."""

    spec: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.spec.shape:
            v = v.reshape(self.spec.shape)
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("lattice field values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, spec: LatticeSpec) -> "LatticeField":
        return cls(spec, np.zeros(spec.shape))


def psi(chi: LevyCharacteristic, t):
    """Characteristic exponent psi(t); accepts scalars or arrays."""
    t = np.asarray(t, dtype=float)
    out = 1j * chi.b * t - 0.5 * chi.sigma2 * t**2
    if chi.lam > 0.0:
        out = out + chi.lam * chi.jump_law.char_minus_one(t)
    if out.ndim == 0:
        return complex(out)
    return out


def noise_cumulant(chi: LevyCharacteristic, n: int) -> float:
    """n-th cumulant of the noise: kappa_1 = b + lam*r_1, kappa_2 = sigma2 + lam*r_2,
    kappa_n = lam*r_n for n >= 3."""
    if n < 1 or n > MAX_CUMULANT_ORDER:
        raise RangeError(f"cumulant order {n} outside [1, {MAX_CUMULANT_ORDER}]")
    jump = chi.lam * chi.jump_law.moment(n) if chi.lam > 0.0 else 0.0
    if n == 1:
        return chi.b + jump
    if n == 2:
        return chi.sigma2 + jump
    return jump


def characteristic_functional(chi: LevyCharacteristic, f: LatticeField) -> complex:
    """E[exp(i*eta(f))] = exp(a^d * sum_x psi(f_x)) on the lattice."""
    return complex(np.exp(f.spec.cell_volume * np.sum(psi(chi, f.values))))


def check_site_mean(chi: LevyCharacteristic, spec: LatticeSpec) -> None:
    """Reject a per-site jump mean lam * a^d above MAX_SITE_MEAN."""
    mean = chi.lam * spec.cell_volume
    if mean > MAX_SITE_MEAN:
        raise ConfigurationError(
            f"lambda: per-site jump mean lambda * a^d = {mean:g} exceeds the cap "
            f"MAX_SITE_MEAN = {MAX_SITE_MEAN:g}")


def _scatter(rng: np.random.Generator, n: int, total: int, jump_law=None) -> np.ndarray:
    """Per-site sums over total uniform site indices, drawn in chunks of
    SCATTER_CHUNK * n: int64 counts, or with a jump law the sums of jumps drawn
    right after each chunk's sites (one chunk: all sites, then all jumps)."""
    chunk = SCATTER_CHUNK * n

    def part(start):
        size = min(total - start, chunk)
        # arguments evaluate left to right: the sites are drawn before the jumps
        return np.bincount(rng.integers(n, size=size), minlength=n,
                           weights=None if jump_law is None else jump_law.sample(rng, size))

    out = part(0)
    for start in range(chunk, total, chunk):
        out += part(start)
    return out


@lru_cache(maxsize=8)
def _poisson_table(mean: float):
    """(lo, cdf, guide) for Poisson(mean) by inverse CDF, both arrays read-only.
    cdf[i] = P(N <= lo + i) for lo + i in [max(0, mean - 40 sqrt(mean)),
    mean + 40 sqrt(mean) + 10], its last entry set to 1 so that every u < 1
    lands inside; guide[j] is the first i with cdf[i] > j / m over m =
    2 len(cdf) equal cells, each threshold shaved by 2^-50 so that rounding in
    u * m never lifts a cell's guide past its answer."""
    half = 40.0 * np.sqrt(mean)
    lo = int(max(0.0, mean - half))
    cdf = pdtr(np.arange(lo, int(mean + half) + 11, dtype=float), mean)
    cdf[-1] = 1.0
    m = 2 * cdf.size
    guide = np.searchsorted(cdf, np.arange(m) * ((1.0 - 2.0**-50) / m), side="right")
    cdf.setflags(write=False)
    guide.setflags(write=False)
    return lo, cdf, guide


def _poisson_counts(rng: np.random.Generator, mean: float, n: int) -> np.ndarray:
    """n Poisson(mean) counts from one rng.random(n): the first i with cdf[i] > u,
    found from u's guide cell, one vectorized step, and a binary search for
    the few sites still short."""
    lo, cdf, guide = _poisson_table(mean)
    u = rng.random(n)
    k = guide[(u * guide.size).astype(np.intp)]
    k += cdf[k] <= u
    short = np.flatnonzero(cdf[k] <= u)
    k[short] = np.searchsorted(cdf, u[short], side="right")
    return k + lo


def sample_noise(chi: LevyCharacteristic, spec: LatticeSpec,
                 rng: np.random.Generator) -> LatticeField:
    """Draw one lattice noise realization.

    Site value: b + sigma*a^(-d/2)*N(0,1) + a^(-d) * sum of N jumps, with
    independent N ~ Poisson(lam * a^d) per site and i.i.d. jumps from the jump
    law, exactly.  A density law scatters Poisson(lam * a^d * V) jumps over
    uniform sites (superposition), sites and jumps SCATTER_CHUNK * V at a
    time.  Atom j (position s_j, weight w_j) adds s_j * a^(-d) * N_j,
    N_j ~ Poisson(mu_j), mu_j = lam * a^d * w_j (marking): scattered the same
    way if mu_j < SCATTER_MAX_MEAN, else one count per site by inverse CDF
    through a cached table (one rng.random(V)).  A per-site mean lam * a^d
    above MAX_SITE_MEAN raises ConfigurationError naming lambda.
    """
    check_site_mean(chi, spec)
    vol, n = spec.cell_volume, spec.n_sites
    values = np.full(n, chi.b)
    if chi.sigma2 > 0.0:
        values += np.sqrt(chi.sigma2 / vol) * rng.standard_normal(n)
    if chi.lam > 0.0 and chi.jump_law.kind == _ATOMS:
        for s, w in zip(*chi.jump_law.positions_weights()):
            mean = chi.lam * vol * w
            counts = (_poisson_counts(rng, mean, n) if mean >= SCATTER_MAX_MEAN else
                      _scatter(rng, n, rng.poisson(mean * n)))
            values += (s / vol) * counts
    elif chi.lam > 0.0:
        values += _scatter(rng, n, rng.poisson(chi.lam * vol * n), chi.jump_law) / vol
    return LatticeField(spec, values.reshape(spec.shape))
