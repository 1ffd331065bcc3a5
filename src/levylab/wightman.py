"""Regularized fixed-mass truncated Wightman pairings and the momentum-support
vanishing check.

The truncated four-point kernel in momentum space is the j-sum

    sum_{j=1..4}  prod_{l<j} delta+(k_l^2 - m_l^2) * PV 1/(k_j^2 - m_j^2)
                  * prod_{l>j} delta-(k_l^2 - m_l^2),

with overall momentum conservation sum_l k_l = 0, k^2 the Minkowski square
(k0^2 - |kvec|^2) and delta+- supported on the positive/negative energy mass
shell.  Shells and principal values are regularized at scale epsilon with a
Gaussian surrogate delta (its fast tails sharpen the support-separation
mechanism) and PV(q) = q / (q^2 + eps^2).

The pairing with four momentum-space test functions is evaluated by
stratified, importance-sampled Monte Carlo: legs 1, 3, 4 are sampled inside
their hard-support balls (radially stratified), leg 2 is fixed by momentum
conservation.  Each energy is drawn once from the chosen component of one
proposal: the uniform slab mixed with truncated Laplace peaks at the shell
energies (for leg 1 also where the conserved leg 2 is on shell), whose CDF and
inverse need only exp and log.

The strata are evaluated in blocks of about BLOCK_POINTS points, so that
numpy's fixed cost per call is paid once per block, not once per stratum.
Stratum (s3, s4) draws from substream(seed, s3 * n_strata + s4) in two
calls: (6, per) uniforms, the radial variable and the angle of legs 3, 4
and 1 at each of its points, then (9, n_near) uniforms, the energy uniforms
(comp, u_slab, u_peak) of legs 3, 4 and 1, at its n_near points whose leg 2
lies spatially within h1's support radius.  One pass over the block then
narrows the points in play stage by stage: legs 3 and 4 get their energies
at the near points, leg 1 only where delta+(leg 3) or delta-(leg 4) is
nonzero (every j-term carries one of them), the kernel only where leg 2
lies inside h1's support ball, and proposal weights and test functions only
where the kernel is nonzero; the integrand is exactly 0 at every other
point.  On the control at mass 1 (250 000 points, 8 x 8 strata, seed 5)
the stages keep 54.3% of the points, then 54.3 / 43.9 / 19.3%,
29.4 / 21.1 / 12.7% and 29.4 / 15.0 / 1.4% at eps 0.5 / 0.05 / 0.005.  The
pass is elementwise, and each stratum's draws depend on its own points
only, so the results are bit-identical to evaluating one stratum at a
time, for any block size.

If both middle test functions have purely space-like support, every j-term
carries at least one shell delta at a bounded distance d from its shell, so
the pairing vanishes as epsilon -> 0; a matched on-shell (time-like) control
does not.  baumann_check certifies that support (_sup_ksq), then bounds the
space-like pairing in closed form,
4 sup|h1| ||f||_1 ||h2||_1 ||g||_1 exp(-(d/eps)^2) / ((eps sqrt(pi))^3 * 2 eps)
with the certified distance d, and records a row where that bound already
decides it as certified, not sampled (BaumannReport).

One shell mass per leg is enough for the model.  Its truncated Wightman
function is c_4 times a positive-weight mass integral of fixed-mass kernels,
one per tuple (m_1..m_4) with every m_l >= m0.  The certified space-like shell
distance d = m^2 - sup_ball k^2 grows with m^2, so the check at m0 bounds
every tuple; baumann_check reports d.

The module needs numpy only; no code path here loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .noise import _real
from .streams import substream, substream_seed

_DIM = 3  # Minkowski dimension supported by the integrator
_LOG_MAX = float(np.log(np.finfo(float).max))


def _components(k) -> np.ndarray:
    """The components (k0, x, y) of (..., 3) momenta, each of shape (...)."""
    return np.moveaxis(np.asarray(k, dtype=float), -1, 0)


def _shell_offset(k0, x, y, m2: float) -> np.ndarray:
    """k^2 - m2 at the momenta with components k0, x, y, k^2 = k0^2 - (x^2 + y^2)."""
    return k0**2 - (x**2 + y**2) - m2


def minkowski_sq(k: np.ndarray) -> np.ndarray:
    """Invariant k^2 = (k0)^2 - |kvec|^2 for (..., 3) momenta."""
    return _shell_offset(*_components(k), 0.0)


@dataclass(frozen=True)
class MomentumTestFunction:
    """Truncated Gaussian bump exp(-|k-c|^2/(2 w^2)) on the ball |k-c| <= R."""

    center: tuple
    width: float
    radius: float

    def __post_init__(self):
        c = tuple(_real("center", x) for x in self.center)
        if len(c) != _DIM or not np.all(np.isfinite(c)):
            raise ConfigurationError(f"center: must have {_DIM} finite components, got {c!r}")
        w, r = _real("width", self.width), _real("radius", self.radius)
        # NaN fails too; the bump divides by w**2, and the sampled ball's
        # volume 4/3 pi R^3 enters the pairing and the closed-form bound
        if not (0.0 < w and 0.0 < w * w < np.inf):
            raise ConfigurationError(f"width: width**2 must be finite and > 0, got width {w!r}")
        if not (0.0 < r and 0.0 < r * r * r < np.inf):
            raise ConfigurationError(
                f"radius: radius**3 must be finite and > 0, got support radius {r!r}")
        k = sum(map(abs, c)) + r  # k * k bounds the norm and _sup_ksq's squares
        if not k * k < np.inf:
            raise ConfigurationError(
                f"center: (sum |center| + radius)**2 is not finite, got center {c!r}")
        for name, value in (("center", c), ("width", w), ("radius", r)):
            object.__setattr__(self, name, value)

    def _dsq(self, k0, x, y) -> np.ndarray:
        """|k - center|^2 at the momenta with components k0, x, y, added as
        ((k0 - c0)^2 + (x - c1)^2) + (y - c2)^2."""
        c = self.center
        return ((k0 - c[0]) ** 2 + (x - c[1]) ** 2) + (y - c[2]) ** 2

    def at(self, k0, x, y) -> np.ndarray:
        """The bump at the momenta with components k0, x, y."""
        dsq = self._dsq(k0, x, y)
        return np.exp(-dsq / (2.0 * self.width**2)) * (dsq <= self.radius**2)

    def __call__(self, k: np.ndarray) -> np.ndarray:
        return self.at(*_components(k))


def _sup_ksq(t: MomentumTestFunction, field: str) -> float:
    """The bound (|c0| + R)^2 - (|cvec| - R)^2 on k^2 over t's support ball,
    certified < 0: it holds where |cvec| > R, and a ball it does not certify
    space-like raises ConfigurationError naming field."""
    c, R = t.center, t.radius
    cs = float(np.linalg.norm(c[1:]))
    sup = (abs(c[0]) + R) ** 2 - (cs - R) ** 2
    if not (cs > R and sup < 0.0):
        raise ConfigurationError(f"{field}: support ball is not certifiably space-like")
    return sup


def make_test(k_c, w: float, R: float) -> MomentumTestFunction:
    return MomentumTestFunction(tuple(k_c), w, R)


def make_spacelike_test(k_c, w: float, R: float) -> MomentumTestFunction:
    """Bump with a hard, analytically certified space-like support."""
    t = make_test(k_c, w, R)
    _sup_ksq(t, "center")
    return t


@dataclass(frozen=True)
class ShellRegularization:
    """Gaussian surrogate for the shell deltas and the PV kernel at scale eps."""

    epsilon: float

    def __post_init__(self):
        e = _real("epsilon", self.epsilon)
        if not (0.0 < e and e * e < np.inf):  # pv() adds eps**2
            raise ConfigurationError(f"epsilon must be > 0 with a finite square, got {e!r}")
        object.__setattr__(self, "epsilon", e)
        if not self.log_kernel_scale < _LOG_MAX:  # else delta and the kernel overflow
            raise ConfigurationError(
                f"epsilon: kernel scale 1/((eps sqrt(pi))^3 * 2 eps) is not finite "
                f"at {self.epsilon!r}")

    @property
    def log_kernel_scale(self) -> float:
        """log of 1/((eps sqrt(pi))^3 * 2 eps), the bound on a j-term's three
        deltas (each <= 1/(eps sqrt(pi))) times its PV (|PV| <= 1/(2 eps))."""
        return -(4.0 * np.log(self.epsilon) + np.log(2.0 * np.pi**1.5))

    def delta(self, q: np.ndarray) -> np.ndarray:
        e = self.epsilon
        return np.exp(-(q / e) ** 2) / (e * np.sqrt(np.pi))

    def pv(self, q: np.ndarray) -> np.ndarray:
        e = self.epsilon
        return q / (q**2 + e**2)


@dataclass(frozen=True)
class MassAssignment:
    """The shell mass m_l of each of the four legs, finite and > 0.  A mass
    superposition needs no more (module docstring): check at m0."""

    masses: tuple

    def __post_init__(self):
        masses = tuple(_real("masses", m) for m in self.masses)
        if len(masses) != 4 or not all(0.0 < m and m * m < np.inf for m in masses):
            raise ConfigurationError(
                f"fixed masses must be four, > 0 and with a finite square m**2, "
                f"got {self.masses!r}")
        object.__setattr__(self, "masses", masses)

    @classmethod
    def fixed(cls, masses) -> "MassAssignment":
        return cls(tuple(masses))

    @property
    def m2(self) -> tuple:
        return tuple(m**2 for m in self.masses)


@dataclass(frozen=True)
class IntegratorSpec:
    """Stratified Monte-Carlo budget: n_strata^2 radial strata, fixed seed.

    Each stratum needs two points for its sample variance."""

    n_samples: int = 1_000_000
    n_strata: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_strata < 1:
            raise ConfigurationError(f"n_strata: must be >= 1, got {self.n_strata}")
        if self.n_samples < 2 * self.n_strata**2:
            raise ConfigurationError(
                f"n_samples: {self.n_samples} is below 2 * n_strata**2 = "
                f"{2 * self.n_strata**2} (two points per stratum)")


@dataclass(frozen=True)
class WightmanEstimate:
    value: float
    stderr: float
    n_samples: int
    n_nonzero: int  # points whose integrand is nonzero
    # per stratum (s3, s4), its share of stderr**2; None where stderr is 0
    variance_share: tuple | None = None


def _leg_factors(k0, x, y, m2: float, reg: ShellRegularization):
    """(delta+, delta-, PV) factors for one leg on the shell k^2 = m2, vectorized."""
    q = _shell_offset(k0, x, y, m2)
    shell = reg.delta(q)
    return shell * (k0 > 0.0), shell * (k0 < 0.0), reg.pv(q)


def truncated_kernel(ks, masses: MassAssignment, reg: ShellRegularization) -> np.ndarray:
    """The j-sum kernel for a list of n per-leg (..., 3) momentum arrays."""
    return _j_sum([_leg_factors(*_components(k), m2, reg) for k, m2 in zip(ks, masses.m2)])


def _j_sum(facs) -> np.ndarray:
    """The j-sum of the per-leg (delta+, delta-, PV) factors facs, in leg order."""
    n = len(facs)
    total = np.zeros_like(facs[0][0])
    for j in range(n):
        term = facs[j][2]
        for l in range(j):
            term = term * facs[l][0]
        for l in range(j + 1, n):
            term = term * facs[l][1]
        total = total + term
    return total


def _shell_energies(x, y, m2: float) -> list:
    """[+E, -E], the shell energies E = sqrt(|kvec|^2 + m2)."""
    e = np.sqrt(x**2 + y**2 + m2)
    return [e, -e]


P_UNIFORM = 0.4  # proposal share of the uniform slab; the peaks split the rest
MASS_FLOOR = 1e-300  # a peak with no more mass on its slab draws as the slab


def _draw_energy(u, lo, hi, peaks, sd: float) -> np.ndarray:
    """Energies on the slabs [lo, hi] from the uniforms u = (comp, u_slab,
    u_peak), each (n,): each point picks one component of a mixture of the
    uniform slab and truncated Laplace peaks of variance sd**2 at the peaks
    (one (n,) array per peak) and draws once from it.  A chosen peak with at
    most MASS_FLOOR on the slab keeps the slab's draw; the inverse CDF runs at
    the other chosen peaks only."""
    comp, u_slab, u_peak = u
    mu = np.array(peaks)
    p_peak = (1.0 - P_UNIFORM) / len(mu)
    # peak i owns [P_UNIFORM + i p_peak, P_UNIFORM + (i+1) p_peak); the rest is the slab
    edges = P_UNIFORM + np.arange(len(mu) + 1) * p_peak
    pick = np.searchsorted(edges, comp, side="right") - 1
    chosen = np.flatnonzero((pick >= 0) & (pick < len(mu)))
    b_s, a, mass = _truncated_mass(lo[chosen], hi[chosen], mu[pick[chosen], chosen], sd)
    live = mass > MASS_FLOOR
    at = chosen[live]
    k0 = lo + (hi - lo) * u_slab
    p = np.clip(a[live] + mass[live] * u_peak[at], 1e-300, 1.0 - 1e-16)
    t = np.log(2.0 * np.minimum(p, 1.0 - p))  # the inverse CDF is z = t, or -t above 1/2
    k0[at] = np.clip(mu[pick[at], at] + b_s[live] * np.where(p <= 0.5, t, -t), lo[at], hi[at])
    return k0


def _laplace_cdf(z: np.ndarray) -> np.ndarray:
    """The standard Laplace CDF, 0.5 exp(z) for z <= 0 and 1 - 0.5 exp(-z)
    above; exp(-|z|) never overflows."""
    e = 0.5 * np.exp(-np.abs(z))
    return np.where(z <= 0.0, e, 1.0 - e)


def _truncated_mass(lo, hi, mu, sd: float):
    """(b_s, a, mass): the Laplace law of mean mu and scale b = sd / sqrt(2)
    (variance sd**2) on [lo, hi] spans [a, a + mass] of the standard Laplace
    CDF in z = (k - mu) / b_s.  b_s = -b where the slab lies above its peak, so
    the mass is always taken in a lower tail, 0.5 exp(z): it stays exact out
    to about 745 b, and is 0 beyond."""
    b = sd / np.sqrt(2.0)
    b_s = np.where(lo > mu, -b, b)
    p_lo, p_hi = _laplace_cdf((lo - mu) / b_s), _laplace_cdf((hi - mu) / b_s)
    return b_s, np.minimum(p_lo, p_hi), np.abs(p_hi - p_lo)


def _energy_weight(k0, lo, hi, peaks, sd: float) -> np.ndarray:
    """The uniform over the proposal density of _draw_energy at the energies k0,
    so that vol * mean(weight * f) is unbiased for the ball integral of f: a
    peak with at most MASS_FLOOR on the slab adds its share as a uniform.
    Elementwise: weights on an index subset are the full weights there."""
    b = sd / np.sqrt(2.0)
    p_peak = (1.0 - P_UNIFORM) / len(peaks)
    dens = np.full(len(k0), P_UNIFORM) / (hi - lo)
    for mu in peaks:  # peak by peak, in order
        mass = _truncated_mass(lo, hi, mu, sd)[2]
        pdf = np.exp(-np.abs(k0 - mu) / b) / (2.0 * b)
        dens = dens + p_peak * np.divide(pdf, mass, out=1.0 / (hi - lo),
                                         where=mass > MASS_FLOOR)
    return (1.0 / (hi - lo)) / dens


def _disk(t: MomentumTestFunction, v, angle):
    """(x, y, c) of points uniform in t's ball: the spatial momenta (x, y) at
    the angle and at the radius whose CDF u has 1 - u = v, and c = cbrt(v),
    so that the ball's half height above (x, y) is R c."""
    c = np.cbrt(v)
    rho = t.radius * np.sqrt(np.maximum(0.0, 1.0 - c * c))
    return t.center[1] + rho * np.cos(angle), t.center[2] + rho * np.sin(angle), c


def _slab(t: MomentumTestFunction, c):
    """(lo, hi), the energies of t's ball above the points of half height R c."""
    half = t.radius * c
    return t.center[0] - half, t.center[0] + half


def _leg1_peaks(x1, y1, k3, k4, m2) -> list:
    """Leg 1's proposal peaks at the spatial momenta (x1, y1), with legs 3 and
    4 given as components (k0, x, y): its own shell energies, then those
    where the conserved leg 2 hits its shells."""
    a0 = k3[0] + k4[0]
    x2, y2 = x1 + (k3[1] + k4[1]), y1 + (k3[2] + k4[2])
    return _shell_energies(x1, y1, m2[0]) + [-a0 + e for e in _shell_energies(x2, y2, m2[1])]


def _take(idx, *groups) -> list:
    """Each group, a tuple of arrays over the same points, narrowed to idx."""
    return [tuple(a[idx] for a in group) for group in groups]


def _near_points(tests, rngs, S: int, strata, per: int):
    """The points of a block whose leg 2 lies within h1's support radius:
    their indices in the block, then (x, y, c) (_disk) of legs 1, 3 and 4
    there.  Each stratum draws its rows (radial variable, angle) of legs 3,
    4 and 1 as one (6, per) call."""
    f, h1, h2, g = tests
    n = len(strata) * per
    # a radial row holds v = 1 - u for the radial CDF variable u = (s + r) / S
    # on the stratum's [s/S, (s+1)/S) (leg 1: s = 0, S = 1); (S - s) - r is
    # exact where it is at most 1/2, so v > 0 and no slab has height 0
    u = np.empty((6, n))
    for b, ((s3, s4), rng) in enumerate(zip(strata, rngs)):
        sl = slice(b * per, (b + 1) * per)
        u[:, sl] = rng.random((6, per))
        u[0, sl] = ((S - s3) - u[0, sl]) / S
        u[2, sl] = ((S - s4) - u[2, sl]) / S
    u[4] = 1.0 - u[4]
    u[1::2] *= 2.0 * np.pi
    leg3, leg4, leg1 = (_disk(t, u[i], u[i + 1]) for i, t in zip((0, 2, 4), (h2, g, f)))
    # the spatial squares of h1's distance to k2 = -(k1 + k3 + k4), rounded as
    # h1._dsq rounds them; it adds them to an energy square e >= 0 as
    # (e + x) + y, never below x + y as rounding is monotone, so no point in
    # h1's ball is dropped
    c = h1.center
    dsq = ((-((leg1[0] + leg3[0]) + leg4[0]) - c[1]) ** 2
           + (-((leg1[1] + leg3[1]) + leg4[1]) - c[2]) ** 2)
    near = np.flatnonzero(dsq <= h1.radius**2)
    return (near, *_take(near, leg1, leg3, leg4))


BLOCK_POINTS = 8192  # points per block of strata: 2 strata of baumann's 3 906 points


def _block(tests, masses: MassAssignment, reg: ShellRegularization, seed: int, S: int,
           strata, per: int, sd: float) -> np.ndarray:
    """(len(strata), per): the integrand at the per points of each stratum
    (s3, s4) of one block, in its own row, evaluated support first (module
    docstring) in one pass over the block."""
    f, h1, h2, g = tests
    m2 = masses.m2
    rngs = [substream(seed, s3 * S + s4) for s3, s4 in strata]
    near, (x1, y1, c1), (x3, y3, c3), (x4, y4, c4) = _near_points(tests, rngs, S, strata, per)
    # then each stratum draws the energy uniforms (comp, u_slab, u_peak) of
    # legs 3, 4 and 1 for its own near points, as one (9, n_near) call
    cuts = np.searchsorted(near, np.arange(len(strata) + 1) * per)
    u = np.empty((9, len(near)))
    for rng, a, b in zip(rngs, cuts, cuts[1:]):
        u[:, a:b] = rng.random((9, b - a))
    k3 = (_draw_energy(u[0:3], *_slab(h2, c3), _shell_energies(x3, y3, m2[2]), sd), x3, y3)
    k4 = (_draw_energy(u[3:6], *_slab(g, c4), _shell_energies(x4, y4, m2[3]), sd), x4, y4)
    # every j-term carries delta-(leg 4) (j <= 3) or delta+(leg 3) (j = 4), so
    # the kernel is 0 wherever both are: leg 1 is drawn only where one is not
    live = np.flatnonzero(((k3[0] > 0.0) & (reg.delta(_shell_offset(*k3, m2[2])) > 0.0))
                          | ((k4[0] < 0.0) & (reg.delta(_shell_offset(*k4, m2[3])) > 0.0)))
    (near,), u, (x1, y1), k3, k4, c = _take(live, (near,), u[6:9], (x1, y1), k3, k4, (c1, c3, c4))
    del x3, y3, c3, x4, y4, c4, c1  # free the near-point arrays before leg 1's draw
    k1 = (_draw_energy(u, *_slab(f, c[0]), _leg1_peaks(x1, y1, k3, k4, m2), sd), x1, y1)
    del u, x1, y1
    # leg 2 by momentum conservation
    k2 = tuple(-((a1 + a3) + a4) for a1, a3, a4 in zip(k1, k3, k4))
    on = np.flatnonzero(h1._dsq(*k2) <= h1.radius**2)
    (near,), k1, k2, k3, k4, c = _take(on, (near,), k1, k2, k3, k4, c)
    kernel = _j_sum([_leg_factors(*k, m2[j], reg) for j, k in enumerate((k1, k2, k3, k4))])
    live = np.flatnonzero(kernel)  # every other factor is finite: 0 where the kernel is
    (near, kernel), k1, k2, k3, k4, (c1, c3, c4) = _take(live, (near, kernel), k1, k2, k3, k4, c)
    vals = (_energy_weight(k1[0], *_slab(f, c1), _leg1_peaks(k1[1], k1[2], k3, k4, m2), sd)
            * _energy_weight(k3[0], *_slab(h2, c3), _shell_energies(k3[1], k3[2], m2[2]), sd)
            * _energy_weight(k4[0], *_slab(g, c4), _shell_energies(k4[1], k4[2], m2[3]), sd)
            * f.at(*k1) * h1.at(*k2) * h2.at(*k3) * g.at(*k4) * kernel)
    out = np.zeros(len(strata) * per)
    out[near] = vals
    return out.reshape(len(strata), per)


def wightman_n_regularized(tests, masses: MassAssignment, reg: ShellRegularization,
                           integrator: IntegratorSpec) -> WightmanEstimate:
    """Regularized pairing of the truncated 4-point kernel with test functions.

    tests = (f, h1, h2, g); momentum conservation removes leg 2 analytically
    (k2 = -(k1 + k3 + k4)).  Leg l sits on the single shell k_l^2 = m_l^2 of
    masses; the pairing carries no mass-density factor.  Stratum (s3, s4), leg
    3's radial shell s3 and leg 4's s4, draws from substream(seed, s3 * S + s4)
    with S = n_strata.
    The strata run in blocks of max(1, BLOCK_POINTS // per) strata of per
    points each, one support-first pass per block (module docstring); each
    stratum's scaling, mean and variance are taken on its own row, so the
    bits do not depend on the block size.
    Every call samples; where the shell deltas underflow the pairing reads
    0.0 +/- 0.0.  A space-like row that baumann_check certifies by its
    closed-form bound does not call this (BaumannReport).

    Each stratum with a value below 1 is scaled up by a power of two that
    brings its largest |value| into [1/2, 1), so that var() does not square
    values near 1e-245 to 0; the strata are combined under the largest scale.
    Power-of-two scaling is exact, so the bits are those of the unscaled
    sums wherever these do not underflow.
    """
    if len(tests) != 4:
        raise ConfigurationError("the integrator supports exactly n = 4 legs")
    f, _, h2, g = tests
    S = integrator.n_strata
    per = integrator.n_samples // (S * S)
    vol = 1.0
    for t in (f, h2, g):
        vol *= 4.0 / 3.0 * np.pi * t.radius**3
    sd = max(reg.epsilon / 2.0, 1e-9)

    means = np.empty((S, S))
    variances = np.empty((S, S))
    # an all-zero stratum keeps -1100, below every double's exponent, so it
    # never sets the common scale
    exps = np.full((S, S), -1100)
    n_nonzero = 0
    strata = [(s3, s4) for s3 in range(S) for s4 in range(S)]
    step = max(1, BLOCK_POINTS // per)
    for j in range(0, S * S, step):
        block = _block(tests, masses, reg, integrator.seed, S, strata[j:j + step], per, sd)
        for s, vals in zip(strata[j:j + step], block):
            nz = int(np.count_nonzero(vals))
            if nz:
                exps[s] = min(np.frexp(np.abs(vals).max())[1], 0)
                vals = np.ldexp(vals, -exps[s])
            means[s] = vals.mean()
            variances[s] = vals.var(ddof=1) / per
            n_nonzero += nz
    top = exps.max()
    value = float(vol * np.ldexp(np.ldexp(means, exps - top).mean(), top))
    scaled = np.ldexp(variances, 2 * (exps - top))
    var_sum = scaled.sum()
    stderr = float(vol * np.ldexp(np.sqrt(var_sum), top) / (S * S))
    share = tuple(map(tuple, (scaled / var_sum).tolist())) if var_sum > 0.0 else None
    return WightmanEstimate(value, stderr, per * S * S, n_nonzero, share)


CONTROL_WIDTH, CONTROL_RADIUS = 0.4, 0.6  # the control's bumps, whatever the mass


def shell_control_tests(m: float):
    """Time-like control with bumps centered on the mass shells.

    Kinematics: k1 at rest on the + shell, k3 and k4 on the - shell with
    opposite spatial momenta p = m, so the conserved leg 2 is centered at
    energy (2*sqrt(2)-1)*m with k2^2 = (2*sqrt(2)-1)^2 m^2, time-like but a
    bounded distance from the shell.  Only the j = 2 term survives: its PV
    factor stays smooth over the support, so the epsilon -> 0 limit is a
    plain three-shell integral of order one and the Monte-Carlo variance
    stays bounded as the shells sharpen.
    """
    e = float(m)
    e2 = float(np.sqrt(2.0) * m)
    f = make_test((e, 0.0, 0.0), CONTROL_WIDTH, CONTROL_RADIUS)
    h1 = make_test((2.0 * e2 - e, 0.0, 0.0), CONTROL_WIDTH, CONTROL_RADIUS)
    h2 = make_test((-e2, e, 0.0), CONTROL_WIDTH, CONTROL_RADIUS)
    g = make_test((-e2, -e, 0.0), CONTROL_WIDTH, CONTROL_RADIUS)
    return f, h1, h2, g


@dataclass(frozen=True)
class BaumannReport:
    """baumann_check's result.  A space-like row certified by the closed-form
    bound reads (0.0, 10**log10_spacelike_bound), in baumann.json
    {"value": 0.0, "stderr": 10**log10_spacelike_bound}, with None (null) as
    its nonzero_fraction and variance_share in details."""

    epsilons: tuple
    spacelike: tuple          # (value, stderr) per epsilon
    control: tuple            # (value, stderr) per epsilon
    verdict: str              # PASS | FAIL | INCONCLUSIVE
    control_vanishes: bool    # the control must NOT pass the vanishing test
    details: dict

    def to_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "spacelike": [{"value": v, "stderr": s} for v, s in self.spacelike],
            "control": [{"value": v, "stderr": s} for v, s in self.control],
            "verdict": self.verdict,
            "control_vanishes": self.control_vanishes,
            "details": self.details,
        }


SMALLNESS_FACTOR = 1e-3


def _vanishing(pairs, epsilons, c_val: float):
    """(effective, decays, small) for the magnitudes |value| + 4 stderr: a fall
    of >= 100x per epsilon decade, and a last magnitude at most
    SMALLNESS_FACTOR * c_val."""
    eff = [abs(v) + 4.0 * s for v, s in pairs]
    decays = all(not v1 > v0 * (e1 / e0) ** 2
                 for v0, v1, e0, e1 in zip(eff, eff[1:], epsilons, epsilons[1:]))
    return eff, decays, eff[-1] <= SMALLNESS_FACTOR * c_val


def _log10_spacelike_bound(f, h1, h2, g, d: float, reg: ShellRegularization) -> float:
    """log10 of a closed-form bound on |pairing| when h1 and h2 are certified
    space-like at least d from their shells.  Every j-term carries a delta on
    h1's or h2's leg, at most exp(-(d/eps)^2) / (eps sqrt(pi)) there, so with
    the kernel scale |P_eps| <= 4 sup|h1| ||f||_1 ||h2||_1 ||g||_1
    exp(-(d/eps)^2) / ((eps sqrt(pi))^3 * 2 eps); leg 2 is fixed by momentum
    conservation, so h1 enters through its sup, 1.  An L1 norm is at most the
    volume 4/3 pi R^3 of the ball the integrator samples."""
    log_l1 = sum(np.log(4.0 / 3.0 * np.pi * t.radius**3) for t in (f, h2, g))
    log_bound = np.log(4.0) + log_l1 - (d / reg.epsilon) ** 2 + reg.log_kernel_scale
    return float(log_bound / np.log(10.0))


def baumann_check(masses: MassAssignment, h1: MomentumTestFunction,
                  h2: MomentumTestFunction, f: MomentumTestFunction,
                  g: MomentumTestFunction, epsilons,
                  integrator: IntegratorSpec) -> BaumannReport:
    """Vanishing check for space-like smearing against a time-like control.

    h1 and h2 must be certified space-like (_sup_ksq names h1_center or
    h2_center otherwise).  PASS requires: decreasing epsilon sequence of
    length >= 3; space-like magnitudes |value| + 4 stderr decaying at >= 100x
    per epsilon decade; the smallest-epsilon space-like magnitude, and the
    closed-form bound there, below 1e-3 of the matched control; and
    statistical errors small enough to resolve the control (otherwise
    INCONCLUSIVE).  A failed decay or smallness rule is FAIL; where only the
    bound misses, the verdict is INCONCLUSIVE.

    The control is sampled at every epsilon first.  A space-like row is then
    certified by the closed-form bound, not sampled, where the row (0.0,
    10**log10_spacelike_bound) already passes both rules after the row before
    it, against the control's |value| at the last epsilon; BaumannReport
    gives the certified row's form.  Every other row is sampled.  Branch
    b (0 space-like, 1 control) at the i-th epsilon draws from seed
    substream_seed(seed, b, i).

    details["nonzero_fraction"] holds, per branch and epsilon, the share of
    Monte-Carlo points whose integrand is nonzero (0.0 when it underflows);
    details["variance_share"], per branch and epsilon, each stratum's share
    of the squared stderr as n_strata rows (leg 3's radial shells) of n_strata
    values (leg 4's), or None where the variance is 0; both are None for a
    certified row.  details["shell_distance"] is the certified d = min over
    h1, h2 of (m^2 - sup_ball k^2), the least distance of a space-like leg
    from its shell; details["log10_spacelike_bound"] per epsilon the log10 of
    the closed-form bound on the space-like pairing at that d.

    The control puts every leg on one shell, so the four masses must be equal.
    Before any pairing, ((m^2 + K^2) / min(eps, 1))^2 must be finite, with K
    the sum of |center| + radius over the test functions and the control's,
    or a square the pairings form would overflow.  Where it is not finite
    with m = 0 and K over f, h1, h2 and g alone, the error names the center
    of the largest of them (f_center, ...); otherwise it names the mass.
    """
    if len(set(masses.masses)) != 1:
        raise ConfigurationError(
            f"masses: baumann_check needs four equal masses, got {masses.masses}")
    d = masses.m2[0] - max(_sup_ksq(h1, "h1_center"), _sup_ksq(h2, "h2_center"))
    regs = [ShellRegularization(e) for e in epsilons]
    eps = [reg.epsilon for reg in regs]
    reach = {name: sum(map(abs, t.center)) + t.radius
             for name, t in (("f", f), ("h1", h1), ("h2", h2), ("g", g))}

    def check(field: str, m2: float, k: float, over: str) -> None:
        # |k^2 - m^2| and every squared momentum component stay below m^2 + K^2,
        # so no square a pairing or the bound forms overflows if this one does not
        scale = (m2 + k * k) / min([*eps, 1.0])
        if not scale * scale < np.inf:
            raise ConfigurationError(
                f"{field}: ((m^2 + K^2) / min(eps, 1))^2 is not finite with m^2 = {m2:g} "
                f"and K = {k:g}, the sum of |center| + radius over {over}")

    k_max = sum(reach.values())
    check(f"{max(reach, key=reach.get)}_center", 0.0, k_max, "f, h1, h2 and g")
    # the control's bumps scale with the mass: check it first, or their centers overflow
    check("mass", masses.m2[0], k_max, "f, h1, h2 and g")
    control = shell_control_tests(masses.masses[0])
    k_max = sum((sum(map(abs, t.center)) + t.radius for t in control), k_max)
    check("mass", masses.m2[0], k_max, "the test functions and the control's")
    bound = [_log10_spacelike_bound(f, h1, h2, g, d, reg) for reg in regs]

    def sampled(tests, branch: int, i: int):
        """(value, stderr, nonzero_fraction, variance_share) of one pairing."""
        spec = replace(integrator, seed=substream_seed(integrator.seed, branch, i))
        est = wightman_n_regularized(tests, masses, regs[i], spec)
        return est.value, est.stderr, est.n_nonzero / est.n_samples, est.variance_share

    ctrl_rows = [sampled(control, 1, i) for i in range(len(eps))]
    c_val = abs(ctrl_rows[-1][0]) if ctrl_rows else 0.0
    space_rows = []
    for i in range(len(eps)):
        # certified where 0.0 +/- 10**bound already passes the decay and
        # smallness rules after the row before it; a bound above 1e300
        # certifies nothing, and the cap keeps 10**bound finite
        row = (0.0, 10.0 ** min(bound[i], 300.0), None, None)
        _, decays, small = _vanishing([r[:2] for r in space_rows[-1:] + [row]],
                                      eps[max(i - 1, 0):i + 1], c_val)
        space_rows.append(row if decays and small else sampled((f, h1, h2, g), 0, i))
    rows = {"spacelike": space_rows, "control": ctrl_rows}
    space, ctrl = ([r[:2] for r in rs] for rs in rows.values())
    pairings = (tuple(eps), tuple(space), tuple(ctrl))
    details = {"nonzero_fraction": {k: [r[2] for r in rs] for k, rs in rows.items()},
               "variance_share": {k: [r[3] for r in rs] for k, rs in rows.items()},
               "shell_distance": d, "log10_spacelike_bound": bound}
    if len(eps) < 3 or any(b >= a for a, b in zip(eps, eps[1:])):
        return BaumannReport(*pairings, "INCONCLUSIVE", False,
                             {"reason": "need >= 3 strictly decreasing epsilons", **details})
    if c_val <= 10.0 * ctrl[-1][1]:
        return BaumannReport(*pairings, "INCONCLUSIVE", False,
                             {"reason": "control scale not statistically resolved", **details})
    eff, decay_ok, small_ok = _vanishing(space, eps, c_val)
    _, ctrl_decays, ctrl_small = _vanishing(ctrl, eps, c_val)
    details.update({"control_scale": c_val, "decay_ok": decay_ok,
                    "smallness_ok": small_ok, "effective_spacelike": eff})
    bound_ok = bound[-1] < np.log10(SMALLNESS_FACTOR * c_val)
    verdict = "FAIL" if not (decay_ok and small_ok) else "PASS" if bound_ok else "INCONCLUSIVE"
    if verdict == "INCONCLUSIVE":  # the Monte Carlo vanishes; the bound does not certify it
        details["reason"] = "log10_spacelike_bound at the smallest epsilon above smallness"
    return BaumannReport(*pairings, verdict, ctrl_decays and ctrl_small, details)
