"""Truncated Schwinger functions, empirical cumulants and partition algebra.

The analytic truncated n-point function is the noise cumulant times a lattice
sum,

    S_n^T(x_1, ..., x_n) = c_n * K(x_1, ..., x_n),
    K(x_1, ..., x_n) = a^d * sum_y prod_j G(x_j - y),

with c_n the n-th noise cumulant (c_1 = b + lam*r_1, c_2 = sigma2 + lam*r_2,
c_n = lam*r_n for n >= 3).  Only c_n depends on the noise; the lattice sums K
are kept in one table per (ModelParams, LatticeSpec, point set), filled on
first use from the Green rows the point sampler also uses, so every noise law
on the same points (an rp-scan over lambda, a witness re-check) shares it.
Full moments are the set-partition sum of products of c_|B| * K(B) over that
table.  Empirical joint cumulants are estimated by the set-partition Moebius
formula over sample moments: of point values (joint_cumulant_jackknife), or
translation-averaged from subset sums, made by one kernel (_subset_rows) on
stored fields or inside the sampler's workers (sample_subset_sums).  The
two-point map streams too (empirical_two_point): no field leaves its worker.
Every standard error comes from one delete-block jackknife (_jackknife); the
leave-one-out jackknife is the same with blocks of one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, RangeError
# green_real_fft stays a module attribute: bench/tracer patches it by name
from .greens import ModelParams, green_real_fft  # noqa: F401
from .noise import LatticeSpec, LevyCharacteristic, _check_points, noise_cumulant
from . import sampler
from .sampler import _green_rows

MAX_ANALYTIC_ORDER = 6
TWO_POINT_BLOCKS = 50
SUM_BLOCK = 250  # samples per block of sample_subset_sums


@dataclass(frozen=True)
class CumulantEstimate:
    value: float
    stderr: float
    n_samples: int
    order: int

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ConfigurationError("stderr must be >= 0")
        if self.n_samples < 2:
            raise ConfigurationError("an estimate with stderr needs >= 2 samples")


def set_partitions(items):
    """Yield all partitions of a sequence as lists of blocks (lists)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple:
    """set_partitions(range(n)) as tuples; positions ascend within each block."""
    return tuple(tuple(tuple(block) for block in part)
                 for part in set_partitions(range(n)))


def _mobius_cumulant(moments, n):
    """Joint cumulant from subset moments: sum over partitions of
    (-1)^(b-1) (b-1)! prod of block moments."""
    total = 0.0
    for part in _partitions(n):
        b = len(part)
        prod = (-1.0) ** (b - 1) * math.factorial(b - 1)
        for block in part:
            prod = prod * moments[frozenset(block)]
        total = total + prod
    return total


@lru_cache(maxsize=4096)
def _lattice_sums(p: ModelParams, spec: LatticeSpec, points: tuple):
    """K over one point set as a function of a sorted tuple of indices into
    points: a^d * sum_y prod_j G(x_j - y), from the Green rows, each computed
    once.  Holds no noise parameter, and no rows (those stay in the smaller
    _green_rows cache), so many point sets stay cached."""

    @cache
    def lattice_sum(idx: tuple) -> float:
        rows = _green_rows(p, spec, points)
        prod = rows[idx[0]]
        for i in idx[1:]:
            prod = prod * rows[i]
        return float(spec.cell_volume * prod.sum())

    return lattice_sum


def schwinger_moments(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                      points: tuple, centered: bool = False):
    """Full Schwinger moments over distinct lattice points, as a function of a
    sorted tuple of indices into points (repeats allowed, () gives 1).

    Each moment is the partition sum of prod_B c_|B| * K(B) with the lattice
    sums K from the table shared by every noise law on these points; with
    centered=True c_1 is 0.  Points are not validated here.
    """
    lattice_sum = _lattice_sums(p, spec, points)
    c = [0.0]  # c[k] = c_k, extended to the highest order asked for

    @cache
    def moment(idx: tuple) -> float:
        while len(c) <= len(idx):
            k = len(c)
            c.append(0.0 if centered and k == 1 else noise_cumulant(chi, k))
        total = 0.0
        for part in _partitions(len(idx)):
            prod = 1.0
            for block in part:
                c_k = c[len(block)]
                if c_k == 0.0:
                    prod = 0.0
                    break
                prod *= c_k * lattice_sum(tuple(idx[i] for i in block))
            total += prod
        return total

    return moment


def _canonical(spec: LatticeSpec, pts) -> tuple[tuple, tuple]:
    """(distinct points, sorted index tuple) after translating the smallest
    point to the origin; exact on the torus, and equal for any permutation."""
    base = min(pts)
    canon = sorted(tuple((c - b) % spec.L for c, b in zip(q, base)) for q in pts)
    points = tuple(sorted(set(canon)))
    index = {q: i for i, q in enumerate(points)}
    return points, tuple(index[q] for q in canon)


def analytic_truncated_schwinger(p: ModelParams, chi: LevyCharacteristic,
                                 spec: LatticeSpec, pts) -> float:
    """Exact lattice S_n^T at the given integer lattice points (n <= 6)."""
    pts = _check_points(spec, pts)
    n = len(pts)
    if not 1 <= n <= MAX_ANALYTIC_ORDER:
        raise RangeError(f"analytic order {n} outside [1, {MAX_ANALYTIC_ORDER}]")
    c_n = noise_cumulant(chi, n)
    if c_n == 0.0:
        return 0.0
    points, idx = _canonical(spec, pts)
    return c_n * _lattice_sums(p, spec, points)(idx)


def moments_from_cumulants(cumulants, n: int) -> float:
    """Moment of order n from a map frozenset(indices) -> joint cumulant."""
    if n < 1:
        raise RangeError("moment order must be >= 1")
    total = 0.0
    for part in _partitions(n):
        prod = 1.0
        for block in part:
            key = frozenset(block)
            if key not in cumulants:
                raise ConfigurationError(f"missing cumulant for subset {sorted(block)}")
            prod *= cumulants[key]
        total += prod
    return total


def full_schwinger_moment(p: ModelParams, chi: LevyCharacteristic,
                          spec: LatticeSpec, pts, centered: bool = False) -> float:
    """Full (non-truncated) Schwinger moment via the partition sum.

    With centered=True the order-1 cumulant is dropped (field minus its mean),
    so partitions containing singleton blocks contribute zero.
    """
    pts = _check_points(spec, pts)
    n = len(pts)
    if not 1 <= n <= MAX_ANALYTIC_ORDER:
        raise RangeError(f"moment order {n} outside [1, {MAX_ANALYTIC_ORDER}]")
    points, idx = _canonical(spec, pts)
    return schwinger_moments(p, chi, spec, points, centered)(idx)


def _subset_keys(n: int):
    return [frozenset(idx) for size in range(1, n + 1)
            for idx in combinations(range(n), size)]


@lru_cache(maxsize=32)
def _product_steps(configs: tuple) -> tuple:
    """Plan of the subset products of point configurations.  Each product is
    its parent's (S minus its largest index) times the column of the point at
    max S, a step (parent row or -1, point); equal steps make one row.
    Returns (the distinct steps in row order, per configuration the row of
    every subset in _subset_keys order)."""
    steps, rows = {}, []
    for pts in configs:
        if not pts:
            raise RangeError("a point configuration needs at least one point")
        row = {}
        for key in _subset_keys(len(pts)):
            top = max(key)
            row[key] = steps.setdefault((row.get(key - {top}, -1), pts[top]), len(steps))
        rows.append(tuple(row.values()))
    return tuple(steps), tuple(rows)


def _subset_products(cols, steps, out=None) -> np.ndarray:
    """The rows of a _product_steps plan, with cols[point] the point's column;
    out, if given, is a (len(steps) + 1, n) buffer to fill."""
    if out is None:
        out = np.empty((len(steps) + 1,) + cols[steps[0][1]].shape)
    out[-1] = 1.0  # the parent of the singletons
    for k, (parent, q) in enumerate(steps):
        np.multiply(out[parent], cols[q], out=out[k])
    return out[:-1]


def _jackknife(block_sums, counts, estimate):
    """Delete-block jackknife of estimate(*pooled means).

    block_sums: arrays with a leading block axis, one per pooled quantity;
    counts: samples per block.  estimate is evaluated once on the pooled
    means and once on all deleted pools together (a new leading axis), so it
    must broadcast over leading axes.  Blocks of one sample give the
    leave-one-out jackknife.  Returns (value, stderr); stderr is 0 for fewer
    than two blocks.
    """
    counts = np.asarray(counts, dtype=float)
    n_total, b = counts.sum(), len(counts)
    totals = [s.sum(axis=0) for s in block_sums]
    value = estimate(*(t / n_total for t in totals))
    if b < 2:
        return value, np.zeros_like(value)
    deleted_means = [t - s for t, s in zip(totals, block_sums)]
    for d in deleted_means:  # in place: one pool-sized copy per quantity
        d /= (n_total - counts).reshape((b,) + (1,) * (d.ndim - 1))
    deleted = estimate(*deleted_means)
    stderr = np.sqrt((b - 1) / b * np.sum((deleted - deleted.mean(axis=0)) ** 2, axis=0))
    return value, stderr


def cumulant_from_subset_sums(block_sums: np.ndarray, block_counts,
                              order: int) -> CumulantEstimate:
    """Translation-averaged cumulant with delete-block jackknife stderr.

    block_sums: shape (B, n_subsets, V) of per-block subset sums.  The value is
    the plug-in estimate, biased by O(1/N): z = -3.2, -3.5, -3.0, -1.6 against
    an analytic 0 at 200 samples on 16^3 (seeds 7-10), so N must be large.
    """
    block_sums = np.asarray(block_sums, dtype=float)
    keys = _subset_keys(order)

    def estimate(means):
        moments = {key: means[..., k, :] for k, key in enumerate(keys)}
        return np.mean(_mobius_cumulant(moments, order), axis=-1)

    value, stderr = _jackknife([block_sums], block_counts, estimate)
    return CumulantEstimate(float(value), float(stderr),
                            int(np.sum(block_counts)), order)


def joint_cumulant_jackknife(values: np.ndarray) -> tuple[float, float]:
    """Joint cumulant of the columns of an (N, n) sample matrix, plus its
    leave-one-out jackknife standard error."""
    x = np.asarray(values, dtype=float)
    # (n_subsets, N) in memory, so sums over samples stay pairwise
    prods = _subset_products(x.T, _product_steps((tuple(range(x.shape[1])),))[0])
    est = cumulant_from_subset_sums(prods.T[:, :, None], np.ones(len(x)), x.shape[1])
    return est.value, est.stderr


@lru_cache(maxsize=16)
def _translation_index(spec: LatticeSpec, q: tuple) -> np.ndarray:
    """Flat site indices of tau + q over the lattice translations tau, so that
    field.ravel()[index] is np.roll(field, -q).ravel(); read-only."""
    grids = np.indices(spec.shape, sparse=True)
    index = np.ravel_multi_index([(g + c) % spec.L for g, c in zip(grids, q)],
                                 spec.shape).ravel()
    index.setflags(write=False)
    return index


def _subset_rows(spec: LatticeSpec, steps, field: np.ndarray, out=None) -> np.ndarray:
    """The subset-sum kernel: the rows of a _product_steps plan over the
    lattice translations tau of one field, point x standing for phi(tau + x).
    Each distinct point's column is one gather; out as in _subset_products."""
    # a gather from unaligned data (say a view into file bytes) is several times slower
    flat = np.require(field, float, "CA").ravel()
    cols = {q: flat[_translation_index(spec, q)] for q in {q for _, q in steps}}
    return _subset_products(cols, steps, out)


def _solved_subset_rows(p: ModelParams, spec: LatticeSpec, steps, eta) -> np.ndarray:
    return _subset_rows(spec, steps, sampler.solve_spde(p, eta).values)


def accumulate_subset_sums(fields: np.ndarray, spec: LatticeSpec, pts) -> np.ndarray:
    """Sum over samples of prod_{j in S} phi(tau + x_j), for every subset S.

    Returns shape (n_subsets, V); tau runs over all lattice translations.
    Used by the translation-averaged cumulant estimator.
    """
    steps, (rows,) = _product_steps((tuple(_check_points(spec, pts)),))
    sums = np.zeros((len(steps), spec.n_sites))
    products = np.empty((len(steps) + 1, spec.n_sites))  # one buffer for every sample
    for f in fields:
        sums += _subset_rows(spec, steps, f, products)
    return sums[list(rows)]


def sample_subset_sums(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                       configs, n_samples: int, master_seed: int,
                       workers: int = 1) -> list:
    """accumulate_subset_sums of each configuration, one (n_subsets, V) array
    each, over the fields sample_ensemble would draw; no field leaves its
    worker.  Blocks of SUM_BLOCK samples merged in block order make the sums
    bit-identical for any worker count and equal to the stored-field ones to
    rounding."""
    steps, rows = _product_steps(tuple(tuple(_check_points(spec, pts)) for pts in configs))
    blocks = sampler._sample_blocks(chi, spec, n_samples, master_seed,
                                    partial(_solved_subset_rows, p, spec, steps),
                                    (len(steps), spec.n_sites), SUM_BLOCK, workers)
    total = blocks.sum(axis=0)
    return [total[list(r)] for r in rows]


def _autocorrelation_row(p: ModelParams, eta) -> np.ndarray:
    """The solved field's autocorrelation sum_y phi(y) phi(y + x) / V over
    the separations x, then its mean: one (V + 1,) row."""
    phi = sampler.solve_spde(p, eta).values
    axes = tuple(range(phi.ndim))
    auto = np.fft.irfftn(np.abs(np.fft.rfftn(phi)) ** 2, s=phi.shape, axes=axes)
    return np.append(auto.ravel() / phi.size, phi.mean())


def empirical_two_point(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                        n_samples: int, master_seed: int, workers: int = 1):
    """Translation-averaged connected two-point map C(x) of the fields
    sample_ensemble would draw, with jackknife errors over blocks of
    ceil(n_samples / TWO_POINT_BLOCKS) samples; no field leaves its worker,
    and the map is bit-identical for any worker count.

    Returns (values, stderr) arrays of lattice shape; C(x) estimates
    S_2^T(0, x).
    """
    size = -(-n_samples // TWO_POINT_BLOCKS)
    blocks = sampler._sample_blocks(chi, spec, n_samples, master_seed,
                                    partial(_autocorrelation_row, p),
                                    (spec.n_sites + 1,), size, workers)
    counts = np.minimum(size, n_samples - size * np.arange(len(blocks)))
    value, stderr = _jackknife([blocks[:, :-1], blocks[:, -1:]], counts,
                               lambda auto, mean: auto - mean ** 2)
    return value.reshape(spec.shape), stderr.reshape(spec.shape)
