"""Reflection-positivity Gram matrices and negative-metric witnesses.

A monomial basis collects products of at most two field evaluations at
positive Euclidean times.  With theta the time reflection (on the torus
t -> L - t, bases confined to 0 < t < L/2 so reflected points never wrap),
the Gram matrix

    M[a, b] = E[ (theta monomial_a) * monomial_b ]

is positive semidefinite for every reflection-positive model.  A unit vector
w with w^T M w < 0 is an explicit non-positivity witness; witnesses are
re-verified both analytically and by Monte Carlo on a fresh ensemble.
Monomials use the centered field (mean subtracted) by default, which removes
the trivial mixing with the constant sector.

Each entry is a moment of at most four field values at the (at most 12)
distinct points of the basis and its reflection.  The Gram build takes them
from one cumulants.schwinger_moments over those points: the noise cumulants
c_n times lattice sums from a table that holds no noise parameter, so the
builds of a lambda scan and the rebuild in verify_witness share one table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

# full_schwinger_moment stays a module attribute: bench/tracer patches it by name
from .cumulants import (analytic_truncated_schwinger, full_schwinger_moment,  # noqa: F401
                        schwinger_moments)
from .errors import ConfigurationError, ContractViolation, LevyLabError, RangeError
from .greens import ModelParams
from .noise import JumpLaw, LatticeSpec, LevyCharacteristic, _check_points, check_site_mean
from .sampler import sample_point_values

MAX_MOMENT_ORDER = 4


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of degree <= 2 in field values at positive-time points."""

    spec: LatticeSpec
    monomials: tuple
    time_axis: int = 0

    def __post_init__(self):
        try:
            axis = operator.index(self.time_axis)
        except TypeError:
            axis = -1
        if not 0 <= axis < self.spec.d:
            raise ConfigurationError(
                f"time_axis: {self.time_axis!r} outside [0, {self.spec.d})")
        mons = tuple(tuple(_check_points(self.spec, mon)) for mon in self.monomials)
        if not mons:
            raise ConfigurationError("basis must contain at least one monomial")
        half = self.spec.L / 2.0
        for mon in mons:
            if len(mon) > 2:
                raise ConfigurationError("monomial degree capped at 2")
            for pt in mon:
                t = pt[axis]
                if not 0 < t < half:
                    raise ConfigurationError(
                        f"monomial point {pt} must have time in (0, L/2)")
        object.__setattr__(self, "monomials", mons)
        object.__setattr__(self, "time_axis", axis)

    def reflect(self, pt):
        out = list(pt)
        out[self.time_axis] = (self.spec.L - pt[self.time_axis]) % self.spec.L
        return tuple(out)

    @property
    def size(self) -> int:
        return len(self.monomials)

    @classmethod
    def degree_one(cls, spec: LatticeSpec, points, time_axis: int = 0):
        return cls(spec, tuple((tuple(p),) for p in points), time_axis)

    @classmethod
    def up_to_degree_two(cls, spec: LatticeSpec, points, time_axis: int = 0):
        """Constant, all singles and all unordered pairs over the point list."""
        pts = [tuple(p) for p in points]
        mons = [()]
        mons += [(p,) for p in pts]
        mons += [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i, len(pts))]
        return cls(spec, tuple(mons), time_axis)


@dataclass(frozen=True)
class GramReport:
    matrix: np.ndarray
    min_eig: float
    witness: np.ndarray
    basis: MonomialBasis
    params: dict

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ContractViolation("Gram matrix must be symmetric")
        w = np.asarray(self.witness, dtype=float)
        if abs(np.linalg.norm(w) - 1.0) > 1e-8:
            raise ContractViolation("witness must be normalized")
        rayleigh = float(w @ m @ w)
        if abs(rayleigh - self.min_eig) > 1e-8 * max(1.0, np.max(np.abs(m))):
            raise ContractViolation("witness does not achieve the minimal eigenvalue")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "witness", w)


def params_snapshot(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                    centered: bool) -> dict:
    law = chi.jump_law
    return {
        "alpha": p.alpha, "m0": p.m0, "symbol": p.symbol,
        "b": chi.b, "sigma2": chi.sigma2, "lambda": chi.lam,
        "jump_law": None if law is None else {"kind": law.kind, "params": list(law.params)},
        "lattice": {"d": spec.d, "L": spec.L, "a": spec.a},
        "centered": centered,
    }


def params_from_snapshot(snap: dict):
    law = snap.get("jump_law")
    jl = None if law is None else JumpLaw(law["kind"], tuple(law["params"]))
    p = ModelParams(snap["alpha"], snap["m0"], snap.get("symbol", "continuum"))
    chi = LevyCharacteristic(b=snap["b"], sigma2=snap["sigma2"],
                             lam=snap["lambda"], jump_law=jl)
    lat = snap["lattice"]
    spec = LatticeSpec(lat["d"], lat["L"], lat["a"])
    return p, chi, spec, bool(snap.get("centered", True))


def _reflected(basis: MonomialBasis):
    """(theta monomials, sorted distinct points of the basis and its
    reflection, point -> index into them)."""
    mons = basis.monomials
    theta = tuple(tuple(basis.reflect(pt) for pt in mon) for mon in mons)
    points = tuple(sorted({pt for mon in mons + theta for pt in mon}))
    return theta, points, {pt: i for i, pt in enumerate(points)}


def build_reflection_gram(p: ModelParams, chi: LevyCharacteristic,
                          basis: MonomialBasis, centered: bool = True) -> np.ndarray:
    """Gram matrix of reflected-times-unreflected monomial moments."""
    mons = basis.monomials
    theta, points, index = _reflected(basis)
    moment = schwinger_moments(p, chi, basis.spec, points, centered=centered)
    n = len(mons)
    m = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            idx = tuple(sorted(index[pt] for pt in theta[a] + mons[b]))
            if len(idx) > MAX_MOMENT_ORDER:
                raise RangeError("combined monomial degree exceeds supported moments")
            m[a, b] = moment(idx)
    asym = np.max(np.abs(m - m.T))
    if asym > 1e-10 * max(1.0, np.max(np.abs(m))):
        raise ContractViolation(f"Gram construction produced asymmetry {asym}")
    return 0.5 * (m + m.T)


def min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue and its unit eigenvector of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation("matrix must be square")
    if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
        raise ContractViolation("matrix must be symmetric")
    vals, vecs = np.linalg.eigh(m)
    return float(vals[0]), vecs[:, 0]


def gram_report(p: ModelParams, chi: LevyCharacteristic, basis: MonomialBasis,
                centered: bool = True) -> GramReport:
    m = build_reflection_gram(p, chi, basis, centered=centered)
    eig, witness = min_eigenvalue(m)
    return GramReport(m, eig, witness, basis,
                      params_snapshot(p, chi, basis.spec, centered))


def rp_scan(alphas, lambdas, m0: float, chi_template: LevyCharacteristic,
            basis: MonomialBasis, symbol: str = "continuum",
            centered: bool = True):
    """Grid scan over (alpha, lambda); failures are recorded, not raised.

    Returns a list of dict rows {alpha, lambda, min_eig, report | error}.
    A non-negative min_eig means only "no witness found at this basis size",
    never a positivity claim.
    """
    rows = []
    for alpha in alphas:
        for lam in lambdas:
            row = {"alpha": float(alpha), "lambda": float(lam)}
            try:
                chi = replace(chi_template, lam=float(lam))
                p = ModelParams(float(alpha), m0, symbol)
                rep = gram_report(p, chi, basis, centered=centered)
                row["min_eig"] = rep.min_eig
                row["report"] = rep
            except LevyLabError as exc:  # record and continue the scan
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    return rows


def witness_record(report: GramReport) -> dict:
    """JSON-serializable archive entry for one witness."""
    return {
        "params": report.params,
        "basis": [[list(pt) for pt in mon] for mon in report.basis.monomials],
        "time_axis": report.basis.time_axis,
        "coefficients": [float(c) for c in report.witness],
        "min_eig": report.min_eig,
        "verification": "UNVERIFIED",
    }


def _monomial_values(values: np.ndarray, index_of, mons, shift: float):
    """Per-sample values of sum_a w_a prod_{pt in mon_a}(phi(pt) - shift)."""
    out = []
    for mon in mons:
        prod = np.ones(values.shape[0])
        for pt in mon:
            prod = prod * (values[:, index_of[pt]] - shift)
        out.append(prod)
    return np.stack(out, axis=1)


def witness_quadratic_form_mc(p: ModelParams, chi: LevyCharacteristic,
                              basis: MonomialBasis, coefficients,
                              centered: bool, n_samples: int, seed: int,
                              workers: int = 1) -> tuple[float, float]:
    """Monte-Carlo estimate of w^T M w from a fresh ensemble."""
    w = np.asarray(coefficients, dtype=float)
    mons = basis.monomials
    theta_mons, needed, index_of = _reflected(basis)
    values = sample_point_values(p, chi, basis.spec, needed, n_samples, seed,
                                 workers=workers)
    shift = analytic_truncated_schwinger(p, chi, basis.spec,
                                         [needed[0]]) if centered and needed else 0.0
    a_vals = _monomial_values(values, index_of, theta_mons, shift) @ w
    b_vals = _monomial_values(values, index_of, mons, shift) @ w
    q = a_vals * b_vals
    return float(q.mean()), float(q.std(ddof=1) / np.sqrt(n_samples))


def verify_witness(record: dict, fresh_seed: int, n_samples: int = 20_000,
                   workers: int = 1) -> dict:
    """Re-verify an archived witness analytically and by fresh Monte Carlo.

    CONFIRMED requires the recomputed quadratic form to be negative and the
    Monte-Carlo estimate to be consistent with it (within 4 stderr) and not
    significantly positive.
    """
    if n_samples < 2:  # the Monte-Carlo stderr needs two samples
        raise ConfigurationError(f"n_samples: must be >= 2, got {n_samples}")
    try:
        w = np.asarray(record["coefficients"], dtype=float)
        p, chi, spec, centered = params_from_snapshot(record["params"])
        monomials = tuple(tuple(tuple(pt) for pt in mon) for mon in record["basis"])
    except KeyError as exc:
        raise ConfigurationError(f"witness: {exc.args[0]}: missing") from exc
    except (AttributeError, TypeError, ValueError) as exc:  # e.g. a list for an object
        raise ConfigurationError(f"witness: malformed entry ({exc})") from exc
    try:
        check_site_mean(chi, spec)
    except ConfigurationError as exc:
        raise ConfigurationError(f"witness: params.{exc}") from exc
    if w.ndim != 1:
        raise ConfigurationError("witness: coefficients: must be a flat list")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("witness: coefficients: non-finite")
    if np.linalg.norm(w) < 1e-12:
        raise ConfigurationError("degenerate witness: zero coefficient vector")
    w = w / np.linalg.norm(w)
    basis = MonomialBasis(spec, monomials, record.get("time_axis", 0))
    if len(w) != basis.size:
        raise ConfigurationError("witness length does not match basis size")
    m = build_reflection_gram(p, chi, basis, centered=centered)
    analytic = float(w @ m @ w)
    mc, mc_err = witness_quadratic_form_mc(p, chi, basis, w, centered,
                                           n_samples, fresh_seed, workers=workers)
    consistent = abs(mc - analytic) <= 4.0 * mc_err if mc_err > 0 else mc == analytic
    negative_mc = mc < 4.0 * mc_err
    status = "CONFIRMED" if (analytic < 0.0 and consistent and negative_mc) else "REJECTED"
    return {
        "analytic_form": analytic,
        "mc_form": mc,
        "mc_stderr": mc_err,
        "n_samples": n_samples,
        "seed": fresh_seed,
        "status": status,
    }
