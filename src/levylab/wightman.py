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
(for leg 1 also where the conserved leg 2 is on shell).  If both middle test
functions have purely space-like support, every j-term carries at least one
shell delta at a bounded distance from its shell, so the pairing vanishes as
epsilon -> 0; a matched on-shell (time-like) control does not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ClassificationError, ConfigurationError
from .streams import substream, substream_seed

SPACELIKE = "spacelike"
TIMELIKE = "timelike"
GENERIC = "generic"

_DIM = 3  # Minkowski dimension supported by the integrator


def minkowski_sq(k: np.ndarray) -> np.ndarray:
    """Invariant k^2 = (k0)^2 - |kvec|^2 for (..., d) arrays."""
    k = np.asarray(k, dtype=float)
    return k[..., 0] ** 2 - np.sum(k[..., 1:] ** 2, axis=-1)


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
        if self.classification == SPACELIKE and not _spacelike_ball(c, self.radius):
            raise ClassificationError(
                "support ball is not certifiably space-like; refusing the label")
        object.__setattr__(self, "center", c)

    def __call__(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        dsq = np.sum((k - np.asarray(self.center)) ** 2, axis=-1)
        return self.amplitude * np.exp(-dsq / (2.0 * self.width**2)) * (dsq <= self.radius**2)

    def scaled(self, c: float) -> "MomentumTestFunction":
        return replace(self, amplitude=self.amplitude * c)


def _spacelike_ball(center, radius) -> bool:
    """True iff sup of k^2 over the Euclidean R-ball around the center is < 0.

    Bound: (|c0| + R)^2 < (|cvec| - R)^2 with |cvec| > R.
    """
    c0 = abs(center[0])
    cs = float(np.linalg.norm(center[1:]))
    return cs > radius and (c0 + radius) ** 2 < (cs - radius) ** 2


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
    """Per-leg mass-shell content: tuples of (m^2, weight) quadrature nodes.

    Fixed-mass mode has a single unit-weight node per leg; the superposed mode
    carries the mass-density quadrature (at most 8 nodes per leg).
    """

    legs: tuple

    def __post_init__(self):
        legs = tuple(tuple((float(m2), float(w)) for m2, w in leg) for leg in self.legs)
        for leg in legs:
            if not leg:
                raise ConfigurationError("every leg needs at least one mass node")
            if not all(0.0 < m2 < np.inf for m2, _ in leg):
                raise ConfigurationError("mass nodes must have finite m^2 > 0")
            if not all(0.0 < w < np.inf for _, w in leg):
                raise ConfigurationError("mass node weights must be finite and > 0")
        object.__setattr__(self, "legs", legs)

    @classmethod
    def fixed(cls, masses) -> "MassAssignment":
        if not all(0.0 < float(m) < np.inf for m in masses):
            raise ConfigurationError("fixed masses must be finite and > 0")
        return cls(tuple(((float(m) ** 2, 1.0),) for m in masses))

    @classmethod
    def superposed(cls, alpha: float, m0: float, n_nodes: int = 8) -> "MassAssignment":
        """Gauss-Legendre nodes of the mass density on all 4 legs (analytic norm).

        The endpoint singularity is absorbed by u = (s - m0^2)^(1-alpha); the
        density integrated to s = m0^2 + 25.
        """
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1)")
        if n_nodes < 1 or n_nodes > 8:
            raise ConfigurationError("superposed mode supports 1..8 nodes per leg")
        u_max = 25.0 ** (1.0 - alpha)
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        u = 0.5 * u_max * (x + 1.0)
        du = 0.5 * u_max * w
        const = np.sin(np.pi * alpha) / np.pi / (1.0 - alpha)
        nodes = tuple((float(m0**2 + ui ** (1.0 / (1.0 - alpha))), float(const * dui))
                      for ui, dui in zip(u, du))
        return cls((nodes,) * 4)

    @property
    def n_legs(self) -> int:
        return len(self.legs)


@dataclass(frozen=True)
class IntegratorSpec:
    """Stratified Monte-Carlo budget: n_strata^2 radial strata, fixed seed."""

    n_samples: int = 1_000_000
    n_strata: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < self.n_strata**2:
            raise ConfigurationError("need at least one sample per stratum")
        if self.n_strata < 1:
            raise ConfigurationError("n_strata must be >= 1")


@dataclass(frozen=True)
class WightmanEstimate:
    value: float
    stderr: float
    n_samples: int


def _leg_factors(k: np.ndarray, leg_nodes, reg: ShellRegularization):
    """(delta+, delta-, PV) node-weighted factors for one leg, vectorized."""
    ksq = minkowski_sq(k)
    shell = np.zeros(ksq.shape)
    pv = np.zeros(ksq.shape)
    for m2, w in leg_nodes:
        shell += w * reg.delta(ksq - m2)
        pv += w * reg.pv(ksq - m2)
    return shell * (k[..., 0] > 0.0), shell * (k[..., 0] < 0.0), pv


def truncated_kernel(ks, masses: MassAssignment, reg: ShellRegularization) -> np.ndarray:
    """The j-sum kernel for a list of n per-leg momentum arrays."""
    n = len(ks)
    facs = [_leg_factors(k, masses.legs[l], reg) for l, k in enumerate(ks)]
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
    """(spatial, lo, hi): n spatial momenta uniform in the support disk, the
    radial CDF variable restricted to [u_lo, u_hi) (stratification), and the
    energy slab [lo, hi] of the ball above each."""
    c = np.asarray(test.center)
    R = test.radius
    u = rng.uniform(u_lo, u_hi, size=n)
    rho = R * np.sqrt(np.maximum(0.0, 1.0 - (1.0 - u) ** (2.0 / 3.0)))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    spatial = np.stack([c[1] + rho * np.cos(phi), c[2] + rho * np.sin(phi)], axis=1)
    half = np.sqrt(np.maximum(R**2 - rho**2, 1e-300))
    return spatial, c[0] - half, c[0] + half


def _shell_energies(spatial: np.ndarray, nodes) -> list:
    """The +/- shell energies sqrt(|kvec|^2 + m^2) of every mass node."""
    ssq = np.sum(spatial**2, axis=1)
    return [sign * np.sqrt(ssq + m2) for m2, _ in nodes for sign in (1.0, -1.0)]


def _sample_energy(rng, spatial, lo, hi, peaks, sd: float):
    """Energies on the slabs [lo, hi]: each sample picks one component of a
    mixture of the uniform slab and truncated normals of width sd at the peaks
    (one (n,) array per peak) and draws once from it.  Returns (k, weight),
    weight the uniform over the proposal density, so that vol * mean(weight *
    f) is unbiased for the ball integral of f."""
    n = len(lo)
    mu = np.array(peaks)
    p_uniform = 0.4
    p_peak = (1.0 - p_uniform) / len(mu)
    comp, u_slab, u_norm = rng.uniform(size=(3, n))  # three draws of n, in this order
    a = ndtr((lo - mu) / sd)
    mass = np.maximum(ndtr((hi - mu) / sd) - a, 1e-300)
    # peak i owns [p_uniform + i p_peak, p_uniform + (i+1) p_peak); the rest is the slab
    edges = p_uniform + np.arange(len(mu) + 1) * p_peak
    pick = np.searchsorted(edges, comp, side="right") - 1
    chosen = np.flatnonzero((pick >= 0) & (pick < len(mu)))
    at = (pick[chosen], chosen)
    k0 = lo + (hi - lo) * u_slab
    u = np.clip(a[at] + mass[at] * u_norm[chosen], 1e-300, 1.0 - 1e-16)
    k0[chosen] = np.clip(mu[at] + sd * ndtri(u), lo[chosen], hi[chosen])
    dens = np.full(n, p_uniform) / (hi - lo)
    for mu_i, mass_i in zip(mu, mass):  # peak by peak, in order
        pdf = np.exp(-0.5 * ((k0 - mu_i) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))
        dens = dens + p_peak * pdf / mass_i
    weight = (1.0 / (hi - lo)) / dens
    return np.concatenate([k0[:, None], spatial], axis=1), weight


def wightman_n_regularized(tests, masses: MassAssignment, reg: ShellRegularization,
                           integrator: IntegratorSpec) -> WightmanEstimate:
    """Regularized pairing of the truncated 4-point kernel with test functions.

    tests = (f, h1, h2, g); momentum conservation removes leg 2 analytically
    (k2 = -(k1 + k3 + k4)).  The result carries an overall positive constant
    (mass-density normalization) that cancels in every ratio reported here.
    """
    if len(tests) != 4 or masses.n_legs != 4:
        raise ConfigurationError("the integrator supports exactly n = 4 legs")
    f, h1, h2, g = tests
    S = integrator.n_strata
    per = integrator.n_samples // (S * S)
    vol = 1.0
    for t in (f, h2, g):
        vol *= 4.0 / 3.0 * np.pi * t.radius**3
    sd = max(reg.epsilon / 2.0, 1e-9)
    legs = masses.legs

    means = np.empty((S, S))
    variances = np.empty((S, S))
    for s3 in range(S):
        for s4 in range(S):
            rng = substream(integrator.seed, s3, s4)
            sp3, lo3, hi3 = _sample_spatial(h2, rng, per, s3 / S, (s3 + 1) / S)
            k3, w3 = _sample_energy(rng, sp3, lo3, hi3, _shell_energies(sp3, legs[2]), sd)
            sp4, lo4, hi4 = _sample_spatial(g, rng, per, s4 / S, (s4 + 1) / S)
            k4, w4 = _sample_energy(rng, sp4, lo4, hi4, _shell_energies(sp4, legs[3]), sd)
            sp1, lo1, hi1 = _sample_spatial(f, rng, per, 0.0, 1.0)
            # leg 1 also peaks where the conserved leg 2 hits its shells
            a0 = k3[:, 0] + k4[:, 0]
            sp2 = sp1 + (k3[:, 1:] + k4[:, 1:])
            peaks = (_shell_energies(sp1, legs[0])
                     + [-a0 + e for e in _shell_energies(sp2, legs[1])])
            k1, w1 = _sample_energy(rng, sp1, lo1, hi1, peaks, sd)
            k2 = -(k1 + k3 + k4)
            vals = (w1 * w3 * w4 * f(k1) * h1(k2) * h2(k3) * g(k4)
                    * truncated_kernel([k1, k2, k3, k4], masses, reg))
            means[s3, s4] = vals.mean()
            variances[s3, s4] = vals.var(ddof=1) / per
    value = float(vol * means.mean())
    stderr = float(vol * np.sqrt(variances.sum()) / (S * S))
    return WightmanEstimate(value, stderr, per * S * S)


def shell_control_tests(m: float, width: float = 0.4, radius: float = 0.6):
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
    f = make_test((e, 0.0, 0.0), width, radius, TIMELIKE)
    h1 = make_test((2.0 * e2 - e, 0.0, 0.0), width, radius, TIMELIKE)
    h2 = make_test((-e2, e, 0.0), width, radius, TIMELIKE)
    g = make_test((-e2, -e, 0.0), width, radius, TIMELIKE)
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
    """
    if h1.classification != SPACELIKE or h2.classification != SPACELIKE:
        raise ClassificationError("h1 and h2 must be certified space-like")
    eps = [float(e) for e in epsilons]
    space, ctrl = [], []
    ctests = shell_control_tests(float(np.sqrt(masses.legs[0][0][0])))
    for i, e in enumerate(eps):
        reg = ShellRegularization(e)
        for branch, (tests, out) in enumerate((((f, h1, h2, g), space), (ctests, ctrl))):
            spec = replace(integrator, seed=substream_seed(integrator.seed, branch, i))
            est = wightman_n_regularized(tests, masses, reg, spec)
            out.append((est.value, est.stderr))

    pairings = (tuple(eps), tuple(space), tuple(ctrl))
    if len(eps) < 3 or any(b >= a for a, b in zip(eps, eps[1:])):
        return BaumannReport(*pairings, "INCONCLUSIVE", False,
                             {"reason": "need >= 3 strictly decreasing epsilons"})
    c_val = abs(ctrl[-1][0])
    if c_val <= 10.0 * ctrl[-1][1]:
        return BaumannReport(*pairings, "INCONCLUSIVE", False,
                             {"reason": "control scale not statistically resolved"})
    eff, decay_ok, small_ok = _vanishing(space, eps, c_val)
    _, ctrl_decays, ctrl_small = _vanishing(ctrl, eps, c_val)
    details = {"control_scale": c_val, "decay_ok": decay_ok,
               "smallness_ok": small_ok, "effective_spacelike": eff}
    return BaumannReport(*pairings, "PASS" if decay_ok and small_ok else "FAIL",
                         ctrl_decays and ctrl_small, details)
