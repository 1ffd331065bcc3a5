"""Spectral SPDE solver, ensemble generation and the ensemble file format.

The equation (-Laplace + m0^2)^alpha phi = eta is diagonal in the FFT basis,
so phi_hat(k) = eta_hat(k) * (|k|^2 + m0^2)^(-alpha); this is exact on the
periodic lattice and O(V log V).  The solve plan is the half-spectrum symbol
that rfftn/irfftn work on (greens._half_symbol), cached per (ModelParams,
LatticeSpec), so the field is real by construction; greens.green_real_fft is
the same irfftn of the same symbol, so G is the solve of a unit source.
Point-only sampling skips the solve: phi(x) = a^d * sum_y G(x - y) eta_y is
one product per sample with a cached matrix of Green rows, each read from the
one cached G by index.  Every sampler runs one loop (_sample_chunk): sample i
draws from the counter-based stream (master_seed, i), one per-sample map turns
the noise into a result (solved field, point values, cumulants' subset means
or two-point rows, or noise-check's phases) and the results are summed over
fixed blocks of samples in sample order, so sums are bit-identical for any
worker count.  The block sums are always one anonymous shared mapping; a
worker pool forks its workers from an explicit fork context after it is
made, and each worker adds its blocks into its own rows of it, so no result
is pickled back or concatenated.  An ensemble file's samples are read into
such a mapping too, so that their pages go back to the system when the
ensemble is freed.
concurrent.futures and multiprocessing are imported only when a pool starts,
mmap only when a mapping is made.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigurationError, SingularityError
from .greens import CONTINUUM, DISCRETE, ModelParams, _half_symbol, green_real_fft
# module attributes only because bench/tracer patches them by name
from .greens import green_momentum_sq, inverse_transform, squared_momentum  # noqa: F401
from .noise import (JumpLaw, LatticeField, LatticeSpec, LevyCharacteristic,
                    _check_points, sample_noise)
from .streams import substream

MAGIC = b"LFLB"
FORMAT_VERSION = 2

_JUMP_TAGS = {None: 0, "atoms": 1, "uniform": 2, "two_sided_exponential": 3}
_TAG_KINDS = {v: k for k, v in _JUMP_TAGS.items()}
_SYMBOL_TAGS = {CONTINUUM: 0, DISCRETE: 1}
_TAG_SYMBOLS = {v: k for k, v in _SYMBOL_TAGS.items()}


@dataclass(frozen=True)
class Ensemble:
    """Immutable collection of field realizations sharing one lattice."""

    params: ModelParams
    chi: LevyCharacteristic
    spec: LatticeSpec
    master_seed: int
    fields: np.ndarray  # shape (n_samples,) + spec.shape

    def __post_init__(self):
        f = np.asarray(self.fields, dtype=float)
        if f.ndim != self.spec.d + 1 or f.shape[1:] != self.spec.shape:
            raise ConfigurationError("ensemble field array does not match lattice spec")
        if f.shape[0] < 1:
            raise ConfigurationError("ensemble needs at least one sample")
        f = np.ascontiguousarray(f)
        f.setflags(write=False)
        object.__setattr__(self, "fields", f)

    @property
    def n_samples(self) -> int:
        return self.fields.shape[0]


def solve_spde(p: ModelParams, eta: LatticeField) -> LatticeField:
    """Solve the lattice equation for one noise realization (FFT route)."""
    if p.m0 == 0.0:
        raise SingularityError("zero mode diverges for m0 = 0")
    axes = tuple(range(eta.spec.d))
    phi_hat = np.fft.rfftn(eta.values, axes=axes) * _half_symbol(p, eta.spec)
    return LatticeField(eta.spec, np.fft.irfftn(phi_hat, s=eta.spec.shape, axes=axes))


@lru_cache(maxsize=2)
def _green(p: ModelParams, spec: LatticeSpec) -> np.ndarray:
    """G on the lattice (green_real_fft: the irfftn of the solve's half
    spectrum), read-only; one field each, so few are kept."""
    return green_real_fft(p, spec).values


@lru_cache(maxsize=2)
def _green_rows(p: ModelParams, spec: LatticeSpec, points: tuple) -> np.ndarray:
    """(n_points, V) matrix whose row for x holds G(x - y) over the sites y,
    so that a^d * row @ eta is phi(x); read-only.  Each row is read from the
    one cached G by index, G[(x - y) mod L].  Also the source of the
    analytic lattice sums (cumulants.lattice_sum_rows).  A field per point,
    so two are kept: a run uses one or two point sets per model."""
    g = _green(p, spec)
    rows = np.empty((len(points), spec.n_sites))
    for r, x in enumerate(points):
        rows[r].reshape(spec.shape)[...] = g[np.ix_(*[(c - np.arange(spec.L)) % spec.L
                                                      for c in x])]
    rows.setflags(write=False)
    return rows


def _solved(p: ModelParams, eta: LatticeField) -> np.ndarray:
    return solve_spde(p, eta).values


def _point_values(p: ModelParams, spec: LatticeSpec, points: tuple, eta) -> np.ndarray:
    # one matrix-vector product per sample: no BLAS blocking across samples
    return spec.cell_volume * (_green_rows(p, spec, points) @ eta.values.ravel())


def _sample_chunk(chi, spec, master_seed, first, bounds, fn, out):
    """Add fn(eta_i), from zero and in sample order, into row first + k of out
    for i in bounds[k] .. bounds[k + 1] - 1; bounds is the slice of
    _sample_blocks' block bounds that starts at block first."""
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), first):
        for i in range(lo, hi):
            out[b] += fn(sample_noise(chi, spec, substream(master_seed, i)))


_shared = None  # in a pool worker: the parent's output array, in shared memory


def _share(out) -> None:
    global _shared
    _shared = out


def _pool_chunk(args) -> None:
    _sample_chunk(*args, _shared)


def _mapped_zeros(shape: tuple, dtype=float) -> np.ndarray:
    """A zero-filled array in its own anonymous shared mapping (MAP_SHARED):
    workers forked while it lives share its pages, and freeing it unmaps
    them.  An array of this size from the heap can stay resident after it is
    freed, in every process forked later too, once glibc has raised its
    mmap threshold.  MAP_POPULATE (Linux) maps every page in one call, not
    one page fault each later.  A mapping cannot be empty, so an empty array
    still maps one word."""
    import mmap

    count = math.prod(shape)
    size = count * np.dtype(dtype).itemsize
    flags = mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, max(size, 8), flags=flags), dtype, count).reshape(shape)


def _sample_blocks(chi: LevyCharacteristic, spec: LatticeSpec, n_samples: int,
                   master_seed: int, fn, shape: tuple, max_blocks: int | None = None,
                   workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(sums, counts): sums of fn(eta_i) (a module-level function, so it
    pickles) over B = min(n_samples, max_blocks) blocks, shape (B,) + shape,
    and the samples per block; eta_i draws from substream(master_seed, i).
    Block b holds samples bounds[b] to bounds[b + 1] - 1, bounds[b] =
    ceil(b * n / B), so sizes differ by at most one; without max_blocks every
    sample is a block.  The sums are one anonymous shared mapping
    (_mapped_zeros).  Chunks are runs of whole blocks, each handed its slice
    of the bounds, so the sums are bit-identical for any worker count; at
    most os.cpu_count() workers.  A pool forks its workers (an explicit fork
    context, so they inherit the mapping); each adds its chunks straight
    into their rows and returns nothing."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    n_blocks = n_samples if max_blocks is None else min(n_samples, max_blocks)
    # a fork pool starts all its processes at once: never more than the cores
    workers = min(workers, os.cpu_count() or 1)
    try:  # without max_blocks, the bounds and sums grow with n_samples
        bounds = -(-np.arange(n_blocks + 1) * n_samples // n_blocks)
        counts = np.diff(bounds)
        out = _mapped_zeros((n_blocks,) + shape)
    except (MemoryError, OSError, OverflowError, ValueError) as exc:  # refused by numpy or mmap
        raise ConfigurationError(
            f"n_samples: {n_samples} samples cannot be allocated ({exc})") from exc
    if workers <= 1:
        _sample_chunk(chi, spec, master_seed, 0, bounds, fn, out)
        return out, counts
    import multiprocessing  # only a pool needs these
    from concurrent.futures import ProcessPoolExecutor

    chunks = np.array_split(np.arange(n_blocks), min(4 * workers, n_blocks))
    args = [(chi, spec, master_seed, c[0], bounds[c[0]:c[-1] + 2], fn) for c in chunks]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=fork,
                             initializer=_share, initargs=(out,)) as ex:
        list(ex.map(_pool_chunk, args))  # re-raises a worker's error
    return out, counts


def sample_ensemble(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                    n_samples: int, master_seed: int, workers: int = 1) -> Ensemble:
    """Generate an ensemble; bit-identical for any worker count, and never
    more worker processes than os.cpu_count()."""
    fields, _ = _sample_blocks(chi, spec, n_samples, master_seed, partial(_solved, p),
                               spec.shape, workers=workers)
    return Ensemble(p, chi, spec, master_seed, fields)


def sample_point_values(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                        points, n_samples: int, master_seed: int,
                        workers: int = 1) -> np.ndarray:
    """phi at the given lattice points of the ensemble sample_ensemble would
    draw, shape (n_samples, n_points), as a^d * sum_y G(x - y) eta_y with
    cached Green rows: no solve, equal to the stored fields to rounding, and
    bit-identical for any worker count."""
    points = tuple(_check_points(spec, points))
    return _sample_blocks(chi, spec, n_samples, master_seed,
                          partial(_point_values, p, spec, points), (len(points),),
                          workers=workers)[0]


def write_ensemble(path, e: Ensemble) -> None:
    """Write the LFLB v2 binary format (little-endian, contiguous f64 samples)."""
    law = e.chi.jump_law if e.chi.lam > 0.0 else None
    tag = _JUMP_TAGS[None if law is None else law.kind]
    params = () if law is None else law.params
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<II", e.spec.d, e.spec.L))
        fh.write(struct.pack("<d", e.spec.a))
        fh.write(struct.pack("<5d", e.params.alpha, e.params.m0,
                             e.chi.b, e.chi.sigma2, e.chi.lam))
        fh.write(struct.pack("<II", tag, len(params)))
        if params:
            fh.write(struct.pack(f"<{len(params)}d", *params))
        fh.write(struct.pack("<IQ", _SYMBOL_TAGS[e.params.symbol], e.master_seed))
        fh.write(struct.pack("<Q", e.n_samples))
        # the array's own buffer (a copy only on a big-endian host): no bytes copy
        fh.write(np.ascontiguousarray(e.fields, dtype="<f8").data)


def _unpack(fh, size_total: int, fmt: str, path, field: str):
    """struct.unpack of the next bytes of fh that names the field when the file
    (size_total bytes) is too short; nothing is read past its end."""
    size = struct.calcsize(fmt)
    if size_total - fh.tell() < size:
        raise ConfigurationError(f"{path}: {field}: truncated file")
    return struct.unpack(fmt, fh.read(size))


def read_ensemble(path, master_seed: int | None = None) -> Ensemble:
    """Read an LFLB v2 file back into an Ensemble.

    The file stores the momentum symbol and the master seed; a master_seed
    passed here must agree with the stored one.  Any other version (v1 stored
    neither), a truncated file, an unknown tag, trailing bytes or a seed
    mismatch raise ConfigurationError.  The samples are read straight into a
    new, aligned array in its own mapping (_mapped_zeros): the header leaves
    them at a file offset of 4 mod 8, which np.frombuffer would keep.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != MAGIC:
            raise ConfigurationError(f"{path}: not an LFLB ensemble file")
        unpack = partial(_unpack, fh, size, path=path)
        (version,) = unpack("<I", field="version")
        if version != FORMAT_VERSION:
            raise ConfigurationError(f"{path}: unsupported format version {version}")
        d, L, a = unpack("<IId", field="lattice")
        spec = LatticeSpec(d, L, a)
        alpha, m0, b, sigma2, lam = unpack("<5d", field="model and noise")
        tag, n_params = unpack("<II", field="jump tag")
        if tag not in _TAG_KINDS:
            raise ConfigurationError(f"{path}: jump tag: unknown value {tag}")
        params = unpack(f"<{n_params}d", field="jump params")
        symbol_tag, seed = unpack("<IQ", field="symbol and seed")
        if symbol_tag not in _TAG_SYMBOLS:
            raise ConfigurationError(f"{path}: symbol: unknown value {symbol_tag}")
        if master_seed is not None and master_seed != seed:
            raise ConfigurationError(
                f"{path}: master_seed: {master_seed} passed, file stores {seed}")
        (n_samples,) = unpack("<Q", field="n_samples")
        extra = size - fh.tell() - 8 * n_samples * spec.n_sites
        if extra < 0:
            raise ConfigurationError(f"{path}: sample data: truncated file")
        if extra > 0:
            raise ConfigurationError(f"{path}: sample data: {extra} trailing bytes")
        fields = _mapped_zeros((n_samples,) + spec.shape, "<f8")
        if fh.readinto(fields) != fields.nbytes:  # the file shrank since fstat
            raise ConfigurationError(f"{path}: sample data: truncated file")
    kind = _TAG_KINDS[tag]
    law = None if kind is None else JumpLaw(kind, params)
    chi = LevyCharacteristic(b=b, sigma2=sigma2, lam=lam, jump_law=law)
    return Ensemble(ModelParams(alpha, m0, _TAG_SYMBOLS[symbol_tag]), chi, spec, seed, fields)
