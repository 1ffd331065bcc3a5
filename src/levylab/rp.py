"""Reflection-positivity Gram matrices and negative-metric witnesses.

A monomial basis collects products of at most two field evaluations at
positive Euclidean times.  With theta the time reflection (on the torus
t -> L - t, bases confined to 0 < t < L/2 so reflected points never wrap),
the Gram matrix

    M[a, b] = E[ (theta monomial_a) * monomial_b ]

is positive semidefinite for every reflection-positive model.  A unit vector
w with w^T M w < 0 is an explicit non-positivity witness; witnesses are
re-verified both analytically and by Monte Carlo on a fresh ensemble.
Time is lattice axis 0, and monomials always use the centered field (mean
subtracted), which removes the trivial mixing with the constant sector.
Neither is an option.  Both momentum symbols are sums of one 1-D symbol over
the axes, so a reflection along another axis is this one with the axes
relabelled.  Centering hides no witness of the uncentered Gram: with the
constant in the basis the two are congruent (same inertia), and without it
the uncentered Gram adds mu^2 * 11^T, which only raises eigenvalues.

Each entry is a moment of at most four field values at the (at most 12)
distinct points of the basis and its reflection: a sum over the set
partitions of prod_B c_|B| K(B), with the noise cumulants c_n and the
lattice sums K.  Only c_n depends on the noise, so everything else is a plan
cached per (ModelParams, MonomialBasis) (_gram_plan): the distinct index
tuples of the entries, the partitions without a singleton block per tuple
length, and K of their blocks (cumulants.lattice_sum_rows).  The builds of a
lambda scan and the rebuild in verify_witness share it, and each costs a few
array operations; every entry has the bits of the scalar partition sum over
the same points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby

import numpy as np

from .cumulants import (_partitions, analytic_truncated_schwinger, cumulant_from_subset_sums,
                        lattice_sum_rows)
# full_schwinger_moment stays a module attribute: bench/tracer patches it by name
from .cumulants import full_schwinger_moment  # noqa: F401
from .errors import ConfigurationError, ContractViolation, LevyLabError
from .greens import ModelParams
from .noise import (JumpLaw, LatticeSpec, LevyCharacteristic, _check_points,
                    check_site_mean, noise_cumulant)
from .sampler import sample_point_values


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of degree <= 2 in field values at positive times (axis 0)."""

    spec: LatticeSpec
    monomials: tuple

    def __post_init__(self):
        mons = tuple(tuple(_check_points(self.spec, mon)) for mon in self.monomials)
        if not mons:
            raise ConfigurationError("basis must contain at least one monomial")
        half = self.spec.L / 2.0
        for mon in mons:
            if len(mon) > 2:
                raise ConfigurationError("monomial degree capped at 2")
            for pt in mon:
                if not 0 < pt[0] < half:
                    raise ConfigurationError(
                        f"monomial point {pt} must have time in (0, L/2)")
        object.__setattr__(self, "monomials", mons)

    def reflect(self, pt):
        return ((self.spec.L - pt[0]) % self.spec.L,) + tuple(pt[1:])

    @property
    def size(self) -> int:
        return len(self.monomials)

    @classmethod
    def degree_one(cls, spec: LatticeSpec, points):
        return cls(spec, tuple((tuple(p),) for p in points))

    @classmethod
    def up_to_degree_two(cls, spec: LatticeSpec, points):
        """Constant, all singles and all unordered pairs over the point list."""
        pts = [tuple(p) for p in points]
        mons = [()]
        mons += [(p,) for p in pts]
        mons += [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i, len(pts))]
        return cls(spec, tuple(mons))


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


def params_snapshot(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec) -> dict:
    law = chi.jump_law
    return {
        "alpha": p.alpha, "m0": p.m0, "symbol": p.symbol,
        "b": chi.b, "sigma2": chi.sigma2, "lambda": chi.lam,
        "jump_law": None if law is None else {"kind": law.kind, "params": list(law.params)},
        "lattice": {"d": spec.d, "L": spec.L, "a": spec.a},
    }


def params_from_snapshot(snap: dict):
    """(ModelParams, LevyCharacteristic, LatticeSpec) of a witness's params; a
    rejected value raises ConfigurationError "witness: params: ..."."""
    law = snap.get("jump_law")
    try:
        jl = None if law is None else JumpLaw(law["kind"], tuple(law["params"]))
        p = ModelParams(snap["alpha"], snap["m0"], snap.get("symbol", "continuum"))
        chi = LevyCharacteristic(b=snap["b"], sigma2=snap["sigma2"],
                                 lam=snap["lambda"], jump_law=jl)
        lat = snap["lattice"]
        spec = LatticeSpec(lat["d"], lat["L"], lat["a"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"witness: params: {exc}") from exc
    return p, chi, spec


def _reflected(basis: MonomialBasis):
    """(theta monomials, sorted distinct points of the basis and its
    reflection, point -> index into them)."""
    mons = basis.monomials
    theta = tuple(tuple(basis.reflect(pt) for pt in mon) for mon in mons)
    points = tuple(sorted({pt for mon in mons + theta for pt in mon}))
    return theta, points, {pt: i for i, pt in enumerate(points)}


@lru_cache(maxsize=8)
def _gram_plan(p: ModelParams, basis: MonomialBasis):
    """The part of build_reflection_gram that holds no noise parameter.

    Each Gram entry is a moment over a sorted tuple of indices into the
    distinct points of the basis and its reflection.  Returns (entry, groups,
    k): entry (n*n,) maps each entry to its tuple among the distinct ones,
    ordered by length; groups holds per length (start, stop, terms), with one
    term per set partition of the tuple positions without a singleton block
    (c_1 = 0 for the centered field): (block sizes, per block the index into
    k of each tuple's block); k holds the blocks' lattice sums
    (cumulants.lattice_sum_rows).  The tuples are sorted and matched in
    Python; what is kept is a few small arrays.
    """
    theta, points, index = _reflected(basis)
    keys = [tuple(sorted(index[pt] for pt in ta + mb)) for ta in theta for mb in basis.monomials]
    distinct = sorted(set(keys), key=lambda t: (len(t), t))
    position = {t: i for i, t in enumerate(distinct)}
    blocks = {}  # block tuple -> its index into k
    groups, start = [], 0
    for length, group in groupby(distinct, key=len):
        group = list(group)
        terms = [(tuple(map(len, part)),
                  [np.array([blocks.setdefault(tuple(t[i] for i in b), len(blocks))
                             for t in group]) for b in part])
                 for part in _partitions(length) if all(len(b) > 1 for b in part)]
        groups.append((start, start + len(group), terms))
        start += len(group)
    k = lattice_sum_rows(p, basis.spec, points, list(blocks))
    return np.array([position[t] for t in keys]), groups, k


def build_reflection_gram(p: ModelParams, chi: LevyCharacteristic,
                          basis: MonomialBasis) -> np.ndarray:
    """Gram matrix of reflected-times-unreflected centered monomial moments.

    Each moment is the partition sum of prod_B c_|B| K(B), added partition by
    partition in cumulants._partitions order (a partition with a zero c adds
    nothing and is skipped); the lattice sums K and the partitions come from
    the noise-free _gram_plan, so a lambda costs a few array operations.
    """
    entry, groups, k = _gram_plan(p, basis)
    c = {s: noise_cumulant(chi, s) for _, _, terms in groups for part, _ in terms for s in part}
    moments = np.empty(groups[-1][1])
    for start, stop, terms in groups:
        total = np.zeros(stop - start)
        for part, kidx in terms:
            if all(c[s] != 0.0 for s in part):
                prod = 1.0
                for s, ki in zip(part, kidx):
                    prod = prod * (c[s] * k[ki])
                total += prod
        moments[start:stop] = total
    n = basis.size
    m = moments[entry].reshape(n, n)
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


def gram_report(p: ModelParams, chi: LevyCharacteristic, basis: MonomialBasis) -> GramReport:
    m = build_reflection_gram(p, chi, basis)
    eig, witness = min_eigenvalue(m)
    return GramReport(m, eig, witness, basis, params_snapshot(p, chi, basis.spec))


def rp_scan(alphas, lambdas, p_template: ModelParams, chi_template: LevyCharacteristic,
            basis: MonomialBasis):
    """Grid scan over (alpha, lambda) of the templates with those values
    replaced; failures are recorded, not raised.

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
                p = replace(p_template, alpha=float(alpha))
                rep = gram_report(p, chi, basis)
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
        "coefficients": [float(c) for c in report.witness],
        "min_eig": report.min_eig,
        "verification": "UNVERIFIED",
    }


def _monomial_values(values: np.ndarray, index_of, mons, shift: float):
    """Per-sample prod_{pt in mon}(phi(pt) - shift), one column per monomial."""
    centered = values - shift
    return np.stack([centered[:, [index_of[pt] for pt in mon]].prod(axis=1) for mon in mons],
                    axis=1)


def witness_quadratic_form_mc(p: ModelParams, chi: LevyCharacteristic,
                              basis: MonomialBasis, coefficients, n_samples: int,
                              seed: int, workers: int = 1) -> tuple[float, float]:
    """Monte-Carlo estimate of w^T M w from a fresh ensemble, the field
    centered by its analytic mean."""
    w = np.asarray(coefficients, dtype=float)
    mons = basis.monomials
    theta_mons, needed, index_of = _reflected(basis)
    values = sample_point_values(p, chi, basis.spec, needed, n_samples, seed,
                                 workers=workers)
    shift = analytic_truncated_schwinger(p, chi, basis.spec, [needed[0]]) if needed else 0.0
    a_vals = _monomial_values(values, index_of, theta_mons, shift) @ w
    b_vals = _monomial_values(values, index_of, mons, shift) @ w
    est = cumulant_from_subset_sums((a_vals * b_vals)[:, None, None], np.ones(n_samples), 1)
    return est.value, est.stderr


def _require_fixed(field: str, value, fixed) -> None:
    if type(value) is not type(fixed) or value != fixed:
        raise ConfigurationError(f"witness: {field}: must be {fixed!r}, got {value!r}")


def verify_witness(record: dict, fresh_seed: int, n_samples: int = 20_000,
                   workers: int = 1) -> dict:
    """Re-verify an archived witness analytically and by fresh Monte Carlo.

    CONFIRMED requires the recomputed quadratic form to be negative and the
    Monte-Carlo estimate to be consistent with it (within 4 stderr) and not
    significantly positive.  Whether the Monte Carlo resolves the sign on its
    own is reported beside it: sign_z = mc_form / mc_stderr (None where the
    stderr is 0), and sign_resolved, true where mc_form + 4 mc_stderr < 0.
    """
    if n_samples < 2:  # the Monte-Carlo stderr needs two samples
        raise ConfigurationError(f"n_samples: must be >= 2, got {n_samples}")
    try:
        coefficients = record["coefficients"]
        p, chi, spec = params_from_snapshot(record["params"])
        monomials = tuple(tuple(tuple(pt) for pt in mon) for mon in record["basis"])
        # records written while these were options carry the fixed values
        _require_fixed("time_axis", record.get("time_axis", 0), 0)
        _require_fixed("params.centered", record["params"].get("centered", True), True)
    except KeyError as exc:
        raise ConfigurationError(f"witness: {exc.args[0]}: missing") from exc
    except (AttributeError, TypeError, ValueError) as exc:  # e.g. a list for an object
        raise ConfigurationError(f"witness: malformed entry ({exc})") from exc
    try:
        check_site_mean(chi, spec)
    except ConfigurationError as exc:
        raise ConfigurationError(f"witness: params.{exc}") from exc
    try:
        w = np.asarray(coefficients, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:  # e.g. an int beyond float range
        raise ConfigurationError(f"witness: coefficients: {exc}") from exc
    if w.ndim != 1:
        raise ConfigurationError("witness: coefficients: must be a flat list")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("witness: coefficients: non-finite")
    if np.linalg.norm(w) < 1e-12:
        raise ConfigurationError("degenerate witness: zero coefficient vector")
    w = w / np.linalg.norm(w)
    try:
        basis = MonomialBasis(spec, monomials)
    except ConfigurationError as exc:
        raise ConfigurationError(f"witness: basis: {exc}") from exc
    if len(w) != basis.size:
        raise ConfigurationError("witness length does not match basis size")
    m = build_reflection_gram(p, chi, basis)
    analytic = float(w @ m @ w)
    mc, mc_err = witness_quadratic_form_mc(p, chi, basis, w, n_samples, fresh_seed,
                                           workers=workers)
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
        "sign_z": mc / mc_err if mc_err > 0 else None,
        "sign_resolved": mc + 4.0 * mc_err < 0.0,
    }
