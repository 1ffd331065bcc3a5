"""Truncated Schwinger functions, empirical cumulants and partition algebra.

The analytic truncated n-point function is the noise cumulant times a lattice
sum,

    S_n^T(x_1, ..., x_n) = c_n * K(x_1, ..., x_n),
    K(x_1, ..., x_n) = a^d * sum_y prod_j G(x_j - y),

with c_n the n-th noise cumulant (c_1 = b + lam*r_1, c_2 = sigma2 + lam*r_2,
c_n = lam*r_n for n >= 3).  Only c_n depends on the noise.  lattice_sum_rows
computes K for many index tuples into a point set from the Green rows the
point sampler also uses, each with the same bits however many are asked for;
rp's Gram plan takes all its sums from one call, and each scalar value
(analytic_truncated_schwinger, full_schwinger_moment) from one call of its
own, with no cache.  A full moment is moments_from_cumulants over the
c_|S| * K(S) of every subset S of its points; it and the Moebius cumulant
are one partition sum (_partition_sum).  Empirical joint cumulants have
one shape and one estimator.  One kernel (_subset_means) turns a field into
the translation mean of every subset product, shape (n_subsets, 1);
accumulate_subset_sums sums these over stored fields, and the sampler's
workers over the blocks of sample_subset_sums, so no field leaves its
worker.  cumulant_from_subset_sums applies the set-partition Moebius formula
to these moments, pooled over the samples, and takes its standard error from
the one delete-block jackknife (_jackknife) over min(n_samples, N_BLOCKS)
blocks; a plain sample mean is the order-1 case on (N, 1, 1) columns with
blocks of one sample, the leave-one-out jackknife.  The two-point map
(empirical_two_point) streams the same way through the same jackknife, which
takes one block array and holds at most JACKKNIFE_BYTES of deleted pools at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, RangeError
# green_real_fft stays a module attribute: bench/tracer patches it by name
from .greens import ModelParams, green_real_fft  # noqa: F401
from .noise import LatticeSpec, LevyCharacteristic, _check_points, noise_cumulant
from . import sampler
from .sampler import _green_rows

MAX_ANALYTIC_ORDER = 6
N_BLOCKS = 50  # jackknife blocks of every streamed estimate


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


def _partition_sum(terms, n, weight):
    """Sum over the partitions of range(n) of weight(b) times the product of
    terms[frozenset(block)] over its b blocks: the joint cumulant from subset
    moments with the Moebius weight (-1)^(b-1) (b-1)!, the moment from joint
    cumulants with weight 1."""
    total = 0.0
    for part in _partitions(n):
        prod = weight(len(part))
        for block in part:
            prod = prod * terms[frozenset(block)]
        total = total + prod
    return total


def lattice_sum_rows(p: ModelParams, spec: LatticeSpec, points: tuple, idx) -> np.ndarray:
    """K for each index tuple (at least one index into points) in idx:
    a^d * sum_y prod_j G(x_j - y) from the Green rows, the product taken left
    to right and summed over the sites as one contiguous row.  One tuple at
    a time: products of several rows at once were no faster, and their
    buffers stayed in the heap."""
    rows = _green_rows(p, spec, points)
    out = np.empty(len(idx))
    for r, (first, *rest) in enumerate(idx):
        prod = rows[first]
        for i in rest:
            prod = prod * rows[i]
        out[r] = prod.sum()
    return spec.cell_volume * out


def _canonical(spec: LatticeSpec, pts) -> tuple[tuple, tuple]:
    """(distinct points, sorted index tuple) after translating the smallest
    point to the origin; exact on the torus, and equal for any permutation."""
    base = min(pts)
    canon = sorted(tuple((c - b) % spec.L for c, b in zip(q, base)) for q in pts)
    points = tuple(sorted(set(canon)))
    index = {q: i for i, q in enumerate(points)}
    return points, tuple(index[q] for q in canon)


def _checked(spec: LatticeSpec, pts, what: str) -> tuple[int, tuple, tuple]:
    """(n, *_canonical) of points checked on the lattice, 1 <= n <= 6."""
    pts = _check_points(spec, pts)
    n = len(pts)
    if not 1 <= n <= MAX_ANALYTIC_ORDER:
        raise RangeError(f"{what} order {n} outside [1, {MAX_ANALYTIC_ORDER}]")
    return n, *_canonical(spec, pts)


def analytic_truncated_schwinger(p: ModelParams, chi: LevyCharacteristic,
                                 spec: LatticeSpec, pts) -> float:
    """Exact lattice S_n^T at the given integer lattice points (n <= 6)."""
    n, points, idx = _checked(spec, pts, "analytic")
    c_n = noise_cumulant(chi, n)
    if c_n == 0.0:
        return 0.0
    return c_n * float(lattice_sum_rows(p, spec, points, [idx])[0])


def moments_from_cumulants(cumulants, n: int) -> float:
    """Moment of order n from a map frozenset(indices) -> joint cumulant."""
    if n < 1:
        raise RangeError("moment order must be >= 1")
    try:
        return _partition_sum(cumulants, n, lambda b: 1.0)
    except KeyError as exc:  # the first block, in partition order, with no cumulant
        raise ConfigurationError(f"missing cumulant for subset {sorted(exc.args[0])}") from None


def full_schwinger_moment(p: ModelParams, chi: LevyCharacteristic,
                          spec: LatticeSpec, pts, centered: bool = False) -> float:
    """Full (non-truncated) Schwinger moment: moments_from_cumulants over
    the c_|S| * K(S) of every subset S of the points, all K from one
    lattice_sum_rows call; one moment at a time.

    With centered=True the order-1 cumulant is dropped (field minus its mean),
    so partitions containing singleton blocks contribute zero.
    """
    n, points, idx = _checked(spec, pts, "moment")
    c = {size: 0.0 if centered and size == 1 else noise_cumulant(chi, size)
         for size in range(1, n + 1)}
    keys = _subset_keys(n)
    k = lattice_sum_rows(p, spec, points, [[idx[i] for i in sorted(key)] for key in keys])
    return moments_from_cumulants({key: c[len(key)] * ks for key, ks in zip(keys, k.tolist())}, n)


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


JACKKNIFE_BYTES = 1 << 22  # deleted pools held at once by _jackknife


def _jackknife(block_sums, counts, estimate):
    """Delete-block jackknife of estimate(pooled means).

    block_sums: one array whose leading axis is the blocks; counts: samples
    per block.  estimate is evaluated once on the pooled means and once on
    the deleted pools, as many together (a new leading axis) as fit in
    JACKKNIFE_BYTES, so it must broadcast over leading axes and treat each
    leading index alone.  Blocks of one sample give the leave-one-out
    jackknife.  Returns (value, stderr); stderr is 0 for fewer than two
    blocks.
    """
    counts = np.asarray(counts, dtype=float)
    n_total, b = counts.sum(), len(counts)
    total = block_sums.sum(axis=0)
    value = estimate(total / n_total)
    if b < 2:
        return value, np.zeros_like(value)
    step = max(1, JACKKNIFE_BYTES // block_sums[0].nbytes)
    deleted = []
    for lo in range(0, b, step):
        rest = n_total - counts[lo:lo + step]
        deleted.append(estimate((total - block_sums[lo:lo + step])
                                / rest.reshape((-1,) + (1,) * total.ndim)))
    deleted = np.concatenate(deleted)
    stderr = np.sqrt((b - 1) / b * np.sum((deleted - deleted.mean(axis=0)) ** 2, axis=0))
    return value, stderr


def cumulant_from_subset_sums(block_sums: np.ndarray, block_counts,
                              order: int) -> CumulantEstimate:
    """The joint cumulant of order points from their subset moments, with
    delete-block jackknife stderr; the one empirical cumulant estimator.

    block_sums: shape (B, 2^order - 1, V), per block the sums of each subset
    product in _subset_keys order, whose moments are pooled over the last
    axis before the Moebius formula: V = 1 for translation means (a length-1
    axis keeps every bit), or the sites of per-translation sums.
    block_counts: the samples in each of the B blocks, each >= 1.  The
    plug-in estimate is biased by O(1/N): z = -1.73, -1.50, -1.61, -0.38
    against an analytic 0 at 200 samples on 16^3 (seeds 7-10).
    """
    sums = np.asarray(block_sums, dtype=float)
    if order < 1:
        raise RangeError(f"cumulant order {order} must be >= 1")
    if sums.ndim != 3 or sums.shape[1] != 2 ** order - 1:
        raise ConfigurationError(f"block sums of shape {sums.shape} are not "
                                 f"(blocks, {2 ** order - 1} subsets, V) for order {order}")
    if np.shape(block_counts) != sums.shape[:1]:
        raise ConfigurationError(f"{np.size(block_counts)} block counts for "
                                 f"{len(sums)} blocks")
    counts = np.asarray(block_counts)
    if np.any(counts < 1):
        raise ConfigurationError(f"block counts {counts.tolist()} must each be >= 1")
    keys = _subset_keys(order)

    def estimate(means):
        return _partition_sum({key: means[..., k] for k, key in enumerate(keys)}, order,
                              lambda b: (-1.0) ** (b - 1) * math.factorial(b - 1))

    value, stderr = _jackknife(sums.mean(axis=-1), block_counts, estimate)
    return CumulantEstimate(float(value), float(stderr),
                            int(np.sum(block_counts)), order)


@lru_cache(maxsize=4)
def _gather_indices(spec: LatticeSpec, steps: tuple) -> dict:
    """Per nonzero point q of a _product_steps plan, the flat site indices of
    tau + q over the lattice translations tau, so that field.ravel()[index]
    is np.roll(field, -q).ravel(); read-only, and built once per plan.  A
    field of indices per point, and a run uses a few plans: four are kept."""
    grids = np.indices(spec.shape, sparse=True)
    indices = {}
    for parent, q in steps:
        if parent < 0 and any(q):
            index = np.ravel_multi_index([(g + c) % spec.L for g, c in zip(grids, q)],
                                         spec.shape).ravel()
            index.setflags(write=False)
            indices[q] = index
    return indices


def _subset_means(spec: LatticeSpec, steps, field: np.ndarray) -> np.ndarray:
    """The subset-moment kernel: the translation mean of every product of a
    _product_steps plan over one field, shape (len(steps), 1), point x
    standing for phi(tau + x).  A singleton's row gathers its point's column
    (the origin's is copied), and every other row is its parent's row times
    that singleton's; a singleton's step precedes every step that uses its
    point.  The (len(steps), V) product buffer is the call's own."""
    # a gather from unaligned data (say a view into file bytes) is several times slower
    flat = np.require(field, float, "CA").ravel()
    out = np.empty((len(steps), spec.n_sites))
    indices = _gather_indices(spec, steps)
    single = {}
    for k, (parent, q) in enumerate(steps):
        if parent >= 0:
            np.multiply(out[parent], out[single[q]], out=out[k])
            continue
        single[q] = k
        if q in indices:  # the indices are in range: "clip" gathers unbuffered into the row
            np.take(flat, indices[q], out=out[k], mode="clip")
        else:
            np.copyto(out[k], flat)
    return out.mean(-1, keepdims=True)


def _solved_subset_means(p: ModelParams, spec: LatticeSpec, steps, eta) -> np.ndarray:
    return _subset_means(spec, steps, sampler.solve_spde(p, eta).values)


def accumulate_subset_sums(fields: np.ndarray, spec: LatticeSpec, pts) -> np.ndarray:
    """Sum over the fields of the translation mean of prod_{j in S}
    phi(tau + x_j), for every subset S in _subset_keys order: shape
    (n_subsets, 1), a block of cumulant_from_subset_sums.  Fields whose
    per-sample shape is not the lattice's raise ConfigurationError."""
    steps, (rows,) = _product_steps((tuple(_check_points(spec, pts)),))
    fields = np.asarray(fields)
    if fields.shape[1:] != spec.shape:
        raise ConfigurationError(f"fields of shape {fields.shape[1:]} are not on the "
                                 f"{spec.shape} lattice")
    sums = np.zeros((len(steps), 1))
    for f in fields:
        sums += _subset_means(spec, steps, f)
    return sums[list(rows)]


def sample_subset_sums(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                       configs, n_samples: int, master_seed: int, workers: int = 1):
    """(sums, counts) of sampler._sample_blocks in at most N_BLOCKS blocks:
    sums lists, per configuration, the (n_blocks, n_subsets, 1) block sums of
    the kernel's translation means over the fields sample_ensemble would
    draw, the input of cumulant_from_subset_sums.  No field leaves its
    worker; bit-identical for any worker count, and summed over blocks equal
    to accumulate_subset_sums on the stored fields to rounding."""
    steps, rows = _product_steps(tuple(tuple(_check_points(spec, pts)) for pts in configs))
    blocks, counts = sampler._sample_blocks(chi, spec, n_samples, master_seed,
                                            partial(_solved_subset_means, p, spec, steps),
                                            (len(steps), 1), N_BLOCKS, workers)
    return [blocks[:, list(r)] for r in rows], counts


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
    sample_ensemble would draw, with jackknife errors over N_BLOCKS blocks; no
    field leaves its worker, and the map is bit-identical for any worker count.

    Returns (values, stderr) arrays of lattice shape; C(x) estimates
    S_2^T(0, x).
    """
    blocks, counts = sampler._sample_blocks(chi, spec, n_samples, master_seed,
                                            partial(_autocorrelation_row, p),
                                            (spec.n_sites + 1,), N_BLOCKS, workers)
    value, stderr = _jackknife(blocks, counts, lambda m: m[..., :-1] - m[..., -1:] ** 2)
    return value.reshape(spec.shape), stderr.reshape(spec.shape)
