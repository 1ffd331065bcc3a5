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
proposal: the uniform slab mixed with truncated normals at the shell energies
(for leg 1 also where the conserved leg 2 is on shell).

Each stratum is evaluated support first, so that beyond its draws the work
goes to points whose integrand can be nonzero.  Every uniform is drawn for every
point, in stream order, so the results are bit-identical to evaluating all
points.  Energies are formed only where the spatial part of leg 2 lies within
h1's support radius (about half the points in the Baumann geometries), the
kernel only where leg 2 lies inside h1's support ball (about a quarter), and
proposal weights and test functions only where the kernel is nonzero; the
integrand is exactly 0 at every other point.

If both middle test functions have purely space-like support, every j-term
carries at least one shell delta at a bounded distance from its shell, so the
pairing vanishes as epsilon -> 0; a matched on-shell (time-like) control does
not.

One shell mass per leg is enough for the model.  Its truncated Wightman
function is c_4 times a positive-weight mass integral of fixed-mass kernels,
one per tuple (m_1..m_4) with every m_l >= m0.  The certified space-like shell
distance d = m^2 - sup_ball k^2 grows with m^2, so the check at m0 bounds
every tuple; baumann_check reports d.

scipy.special (ndtr, ndtri) is loaded at the first stratum, not with the
module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ClassificationError, ConfigurationError
from .streams import substream, substream_seed

SPACELIKE = "spacelike"
TIMELIKE = "timelike"
GENERIC = "generic"

_DIM = 3  # Minkowski dimension supported by the integrator


def _sum_sq(x: np.ndarray) -> np.ndarray:
    """Sum of squares over a short last axis, added left to right, (a + b) + c:
    the bits np.sum gives there, at about a fifth of its cost per element on
    a length-3 axis (no reduction loop)."""
    out = x[..., 0] ** 2
    for j in range(1, x.shape[-1]):
        out += x[..., j] ** 2
    return out


def minkowski_sq(k: np.ndarray) -> np.ndarray:
    """Invariant k^2 = (k0)^2 - |kvec|^2 for (..., d) arrays, d >= 2."""
    k = np.asarray(k, dtype=float)
    return k[..., 0] ** 2 - _sum_sq(k[..., 1:])


@dataclass(frozen=True)
class MomentumTestFunction:
    """Truncated Gaussian bump exp(-|k-c|^2/(2 w^2)) on the ball |k-c| <= R."""

    center: tuple
    width: float
    radius: float
    classification: str = GENERIC
    amplitude: float = 1.0

    def __post_init__(self):
        c = tuple(float(x) for x in self.center)
        if len(c) != _DIM or not np.all(np.isfinite(c)):
            raise ConfigurationError(f"momentum center must have {_DIM} finite components")
        if not (0.0 < self.width < np.inf and 0.0 < self.radius < np.inf):  # NaN fails too
            raise ConfigurationError("width and support radius must be finite and > 0")
        if self.classification not in (SPACELIKE, TIMELIKE, GENERIC):
            raise ConfigurationError(f"unknown classification {self.classification!r}")
        if self.classification == SPACELIKE and not (
                np.linalg.norm(c[1:]) > self.radius and _sup_ksq(c, self.radius) < 0.0):
            raise ClassificationError(
                "support ball is not certifiably space-like; refusing the label")
        object.__setattr__(self, "center", c)

    def _dsq(self, k: np.ndarray) -> np.ndarray:
        return _sum_sq(np.asarray(k, dtype=float) - np.asarray(self.center))

    def support(self, k: np.ndarray) -> np.ndarray:
        """True where k lies in the closed support ball."""
        return self._dsq(k) <= self.radius**2

    def __call__(self, k: np.ndarray) -> np.ndarray:
        dsq = self._dsq(k)
        return self.amplitude * np.exp(-dsq / (2.0 * self.width**2)) * (dsq <= self.radius**2)

    def scaled(self, c: float) -> "MomentumTestFunction":
        return replace(self, amplitude=self.amplitude * c)


def _sup_ksq(center, radius) -> float:
    """Upper bound (|c0| + R)^2 - (|cvec| - R)^2 on k^2 over the Euclidean
    R-ball around the center, valid where |cvec| > R.  A SPACELIKE label
    certifies it < 0."""
    c0 = abs(center[0])
    cs = float(np.linalg.norm(center[1:]))
    return (c0 + radius) ** 2 - (cs - radius) ** 2


def make_spacelike_test(k_c, w: float, R: float) -> MomentumTestFunction:
    """Bump with a hard, analytically certified space-like support."""
    return MomentumTestFunction(tuple(k_c), w, R, SPACELIKE)


def make_test(k_c, w: float, R: float,
              classification: str = GENERIC) -> MomentumTestFunction:
    return MomentumTestFunction(tuple(k_c), w, R, classification)


@dataclass(frozen=True)
class ShellRegularization:
    """Gaussian surrogate for the shell deltas and the PV kernel at scale eps."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigurationError("epsilon must be finite and > 0")

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
        masses = tuple(float(m) for m in self.masses)
        if len(masses) != 4 or not all(0.0 < m < np.inf for m in masses):
            raise ConfigurationError(
                f"fixed masses must be four, finite and > 0, got {self.masses!r}")
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


def _leg_factors(k: np.ndarray, m2: float, reg: ShellRegularization):
    """(delta+, delta-, PV) factors for one leg on the shell k^2 = m2, vectorized."""
    q = minkowski_sq(k) - m2
    shell = reg.delta(q)
    return shell * (k[..., 0] > 0.0), shell * (k[..., 0] < 0.0), reg.pv(q)


def truncated_kernel(ks, masses: MassAssignment, reg: ShellRegularization) -> np.ndarray:
    """The j-sum kernel for a list of n per-leg momentum arrays."""
    n = len(ks)
    facs = [_leg_factors(k, m2, reg) for k, m2 in zip(ks, masses.m2)]
    total = np.zeros_like(facs[0][0])
    for j in range(n):
        term = facs[j][2]
        for l in range(j):
            term = term * facs[l][0]
        for l in range(j + 1, n):
            term = term * facs[l][1]
        total = total + term
    return total


def _sample_spatial(test: MomentumTestFunction, rng, n: int, u_lo: float, u_hi: float):
    """(x, y, half): n spatial momenta uniform in the support disk, the radial
    CDF variable restricted to [u_lo, u_hi) (stratification), and the half
    height of the ball above each (its energy slab is center[0] -/+ half)."""
    c = np.asarray(test.center)
    R = test.radius
    u = rng.uniform(u_lo, u_hi, size=n)
    rho = R * np.sqrt(np.maximum(0.0, 1.0 - (1.0 - u) ** (2.0 / 3.0)))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    half = np.sqrt(np.maximum(R**2 - rho**2, 1e-300))
    return c[1] + rho * np.cos(phi), c[2] + rho * np.sin(phi), half


def _shell_energies(x, y, m2: float) -> list:
    """[+E, -E], the shell energies E = sqrt(|kvec|^2 + m2)."""
    e = np.sqrt(x**2 + y**2 + m2)
    return [e, -e]


P_UNIFORM = 0.4  # proposal share of the uniform slab; the peaks split the rest


def _draw_energy(u, lo, hi, peaks, sd: float) -> np.ndarray:
    """Energies on the slabs [lo, hi] from the uniforms u = (comp, u_slab,
    u_norm), each (n,): each point picks one component of a mixture of the
    uniform slab and truncated normals of width sd at the peaks (one (n,) array
    per peak) and draws once from it.  ndtr/ndtri run at the chosen peak only."""
    from scipy.special import ndtri

    comp, u_slab, u_norm = u
    mu = np.array(peaks)
    p_peak = (1.0 - P_UNIFORM) / len(mu)
    # peak i owns [P_UNIFORM + i p_peak, P_UNIFORM + (i+1) p_peak); the rest is the slab
    edges = P_UNIFORM + np.arange(len(mu) + 1) * p_peak
    pick = np.searchsorted(edges, comp, side="right") - 1
    chosen = np.flatnonzero((pick >= 0) & (pick < len(mu)))
    mu_c, lo_c, hi_c = mu[pick[chosen], chosen], lo[chosen], hi[chosen]
    sd_s, a, mass = _truncated_mass(lo_c, hi_c, mu_c, sd)
    k0 = lo + (hi - lo) * u_slab
    u_c = np.clip(a + mass * u_norm[chosen], 1e-300, 1.0 - 1e-16)
    k0[chosen] = np.clip(mu_c + sd_s * ndtri(u_c), lo_c, hi_c)
    return k0


def _truncated_mass(lo, hi, mu, sd: float):
    """(sd_s, a, mass): the normal of mean mu and width sd on [lo, hi] spans
    [a, a + mass] of the standard normal CDF in z = (k - mu) / sd_s.  sd_s =
    -sd where the slab lies above its peak, so the mass is always taken in a
    lower tail: there ndtr(z_hi) - ndtr(z_lo) cancels to 0 beyond ~8.3 sd."""
    from scipy.special import ndtr  # loaded at the first stratum only

    sd_s = np.where(lo > mu, -sd, sd)
    p_lo, p_hi = ndtr((lo - mu) / sd_s), ndtr((hi - mu) / sd_s)
    return sd_s, np.minimum(p_lo, p_hi), np.maximum(np.abs(p_hi - p_lo), 1e-300)


def _energy_weight(k0, lo, hi, peaks, sd: float) -> np.ndarray:
    """The uniform over the proposal density of _draw_energy at the energies k0,
    so that vol * mean(weight * f) is unbiased for the ball integral of f.
    Elementwise: weights on an index subset are the full weights there."""
    p_peak = (1.0 - P_UNIFORM) / len(peaks)
    dens = np.full(len(k0), P_UNIFORM) / (hi - lo)
    for mu in peaks:  # peak by peak, in order
        mass = _truncated_mass(lo, hi, mu, sd)[2]
        pdf = np.exp(-0.5 * ((k0 - mu) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))
        dens = dens + p_peak * pdf / mass
    return (1.0 / (hi - lo)) / dens


class _Leg:
    """One sampled leg of a stratum: the uniforms of every point, narrowed by
    keep() to the points still in play, then their energies and weights."""

    def __init__(self, test: MomentumTestFunction, rng, n: int, radial):
        self.x, self.y, half = _sample_spatial(test, rng, n, *radial)
        self.u = rng.uniform(size=(3, n))
        self.lo, self.hi = test.center[0] - half, test.center[0] + half

    def keep(self, idx) -> None:
        self.x, self.y, self.u = self.x[idx], self.y[idx], self.u[:, idx]
        self.lo, self.hi = self.lo[idx], self.hi[idx]

    def draw(self, peaks, sd: float) -> np.ndarray:
        """(n, 3) momenta with energies drawn from the proposal at the peaks."""
        self.peaks = peaks
        k0 = _draw_energy(self.u, self.lo, self.hi, peaks, sd)
        return np.stack([k0, self.x, self.y], axis=1)

    def weight(self, k0, idx, sd: float) -> np.ndarray:
        """Proposal weights of the drawn energies k0 of the points idx."""
        return _energy_weight(k0, self.lo[idx], self.hi[idx],
                              [p[idx] for p in self.peaks], sd)


def _stratum(tests, masses: MassAssignment, reg: ShellRegularization, rng, per: int,
             radial3, radial4, sd: float):
    """(vals, n_nonzero): the integrand at the per points of one stratum,
    evaluated support first (module docstring), and its nonzero count."""
    f, h1, h2, g = tests
    m2 = masses.m2
    # every uniform of the stratum, in stream order: legs 3, 4, 1, each its
    # spatial then its energy uniforms
    leg3 = _Leg(h2, rng, per, radial3)
    leg4 = _Leg(g, rng, per, radial4)
    leg1 = _Leg(f, rng, per, (0.0, 1.0))
    # x + y, the spatial squares of h1's distance to k2 = -(k1 + k3 + k4)
    # rounded as h1 rounds them; h1 sums (e + x) + y with an energy square
    # e >= 0, never below x + y as rounding is monotone, so no point in its
    # ball is dropped
    c = h1.center
    dsq = ((-((leg1.x + leg3.x) + leg4.x) - c[1]) ** 2
           + (-((leg1.y + leg3.y) + leg4.y) - c[2]) ** 2)
    near = np.flatnonzero(dsq <= h1.radius**2)
    for leg in (leg3, leg4, leg1):
        leg.keep(near)
    k3 = leg3.draw(_shell_energies(leg3.x, leg3.y, m2[2]), sd)
    k4 = leg4.draw(_shell_energies(leg4.x, leg4.y, m2[3]), sd)
    # leg 1 also peaks where the conserved leg 2 hits its shells
    a0 = k3[:, 0] + k4[:, 0]
    x2, y2 = leg1.x + (k3[:, 1] + k4[:, 1]), leg1.y + (k3[:, 2] + k4[:, 2])
    k1 = leg1.draw(_shell_energies(leg1.x, leg1.y, m2[0])
                   + [-a0 + e for e in _shell_energies(x2, y2, m2[1])], sd)
    k2 = -(k1 + k3 + k4)
    on = np.flatnonzero(h1.support(k2))
    ks = [k1[on], k2[on], k3[on], k4[on]]
    kernel = truncated_kernel(ks, masses, reg)
    live = np.flatnonzero(kernel)  # every other factor is finite: 0 where the kernel is
    at = on[live]
    k1, k2, k3, k4 = (k[live] for k in ks)
    vals = (leg1.weight(k1[:, 0], at, sd) * leg3.weight(k3[:, 0], at, sd)
            * leg4.weight(k4[:, 0], at, sd) * f(k1) * h1(k2) * h2(k3) * g(k4) * kernel[live])
    out = np.zeros(per)
    out[near[at]] = vals
    return out, int(np.count_nonzero(vals))


def wightman_n_regularized(tests, masses: MassAssignment, reg: ShellRegularization,
                           integrator: IntegratorSpec) -> WightmanEstimate:
    """Regularized pairing of the truncated 4-point kernel with test functions.

    tests = (f, h1, h2, g); momentum conservation removes leg 2 analytically
    (k2 = -(k1 + k3 + k4)).  Leg l sits on the single shell k_l^2 = m_l^2 of
    masses; the pairing carries no mass-density factor.
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
    n_nonzero = 0
    for s3 in range(S):
        for s4 in range(S):
            vals, nz = _stratum(tests, masses, reg, substream(integrator.seed, s3, s4), per,
                                (s3 / S, (s3 + 1) / S), (s4 / S, (s4 + 1) / S), sd)
            means[s3, s4] = vals.mean()
            variances[s3, s4] = vals.var(ddof=1) / per
            n_nonzero += nz
    value = float(vol * means.mean())
    stderr = float(vol * np.sqrt(variances.sum()) / (S * S))
    return WightmanEstimate(value, stderr, per * S * S, n_nonzero)


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
    f = make_test((e, 0.0, 0.0), CONTROL_WIDTH, CONTROL_RADIUS, TIMELIKE)
    h1 = make_test((2.0 * e2 - e, 0.0, 0.0), CONTROL_WIDTH, CONTROL_RADIUS, TIMELIKE)
    h2 = make_test((-e2, e, 0.0), CONTROL_WIDTH, CONTROL_RADIUS, TIMELIKE)
    g = make_test((-e2, -e, 0.0), CONTROL_WIDTH, CONTROL_RADIUS, TIMELIKE)
    return f, h1, h2, g


@dataclass(frozen=True)
class BaumannReport:
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
    of >= 100x per epsilon decade (or below 1e-12 of the control scale c_val),
    and a last magnitude at most SMALLNESS_FACTOR * c_val."""
    eff = [abs(v) + 4.0 * s for v, s in pairs]
    floor = 1e-12 * c_val
    decays = all(v1 <= floor or not v1 > v0 * (e1 / e0) ** 2
                 for v0, v1, e0, e1 in zip(eff, eff[1:], epsilons, epsilons[1:]))
    return eff, decays, eff[-1] <= SMALLNESS_FACTOR * c_val


def baumann_check(masses: MassAssignment, h1: MomentumTestFunction,
                  h2: MomentumTestFunction, f: MomentumTestFunction,
                  g: MomentumTestFunction, epsilons,
                  integrator: IntegratorSpec) -> BaumannReport:
    """Vanishing check for space-like smearing against a time-like control.

    PASS requires: decreasing epsilon sequence of length >= 3; space-like
    magnitudes decaying at >= 100x per epsilon decade; the smallest-epsilon
    space-like magnitude below 1e-3 of the matched control; and statistical
    errors small enough to resolve both thresholds (otherwise INCONCLUSIVE).
    details["nonzero_fraction"] holds, per branch and epsilon, the share of
    Monte-Carlo points whose integrand is nonzero (0.0 when it underflows);
    details["shell_distance"] the certified d = min over h1, h2 of
    (m^2 - sup_ball k^2), the least distance of a space-like leg from its shell.

    The control puts every leg on one shell, so the four masses must be equal.
    """
    if len(set(masses.masses)) != 1:
        raise ConfigurationError(
            f"masses: baumann_check needs four equal masses, got {masses.masses}")
    if h1.classification != SPACELIKE or h2.classification != SPACELIKE:
        raise ClassificationError("h1 and h2 must be certified space-like")
    eps = [float(e) for e in epsilons]
    branches = {"spacelike": (f, h1, h2, g), "control": shell_control_tests(masses.masses[0])}
    pairs = {name: [] for name in branches}
    nonzero = {name: [] for name in branches}
    for i, e in enumerate(eps):
        reg = ShellRegularization(e)
        for branch, (name, tests) in enumerate(branches.items()):
            spec = replace(integrator, seed=substream_seed(integrator.seed, branch, i))
            est = wightman_n_regularized(tests, masses, reg, spec)
            pairs[name].append((est.value, est.stderr))
            nonzero[name].append(est.n_nonzero / est.n_samples)
    space, ctrl = pairs["spacelike"], pairs["control"]

    pairings = (tuple(eps), tuple(space), tuple(ctrl))
    details = {"nonzero_fraction": nonzero, "shell_distance":
               masses.m2[0] - max(_sup_ksq(h.center, h.radius) for h in (h1, h2))}
    if len(eps) < 3 or any(b >= a for a, b in zip(eps, eps[1:])):
        return BaumannReport(*pairings, "INCONCLUSIVE", False,
                             {"reason": "need >= 3 strictly decreasing epsilons", **details})
    c_val = abs(ctrl[-1][0])
    if c_val <= 10.0 * ctrl[-1][1]:
        return BaumannReport(*pairings, "INCONCLUSIVE", False,
                             {"reason": "control scale not statistically resolved", **details})
    eff, decay_ok, small_ok = _vanishing(space, eps, c_val)
    _, ctrl_decays, ctrl_small = _vanishing(ctrl, eps, c_val)
    details.update({"control_scale": c_val, "decay_ok": decay_ok,
                    "smallness_ok": small_ok, "effective_spacelike": eff})
    return BaumannReport(*pairings, "PASS" if decay_ok and small_ok else "FAIL",
                         ctrl_decays and ctrl_small, details)
