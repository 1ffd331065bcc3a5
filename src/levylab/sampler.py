"""Spectral SPDE solver, ensemble generation and the ensemble file format.

The equation (-Laplace + m0^2)^alpha phi = eta is diagonal in the FFT basis,
so phi_hat(k) = eta_hat(k) * (|k|^2 + m0^2)^(-alpha); this is exact on the
periodic lattice and O(V log V).  The solve plan is the half-spectrum symbol
that rfftn/irfftn work on, cached per (ModelParams, LatticeSpec), so the field
is real by construction.  Point-only sampling skips the solve:
phi(x) = a^d * sum_y G(x - y) eta_y is one product per sample with a cached
matrix of Green rows.  Every sampler runs one loop (_sample_chunk): sample i
draws from the counter-based stream (master_seed, i), one per-sample map turns
the noise into a result (solved field, point values, or cumulants' subset or
two-point rows) and the results are summed over fixed blocks of samples in
sample order, so sums are bit-identical for any worker count.  A worker pool
forks its workers from an explicit fork context after the block sums are
allocated as one anonymous shared mapping; each worker adds its blocks into
its own rows of it, so no result is pickled back or concatenated.
concurrent.futures, multiprocessing and mmap are imported only when a pool
starts.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigurationError, SingularityError
from .greens import (CONTINUUM, DISCRETE, ModelParams, green_momentum_sq,
                     green_real_fft, squared_momentum)
# inverse_transform stays a module attribute: bench/tracer patches it by name
from .greens import inverse_transform  # noqa: F401
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


@lru_cache(maxsize=32)
def _half_symbol(p: ModelParams, spec: LatticeSpec) -> np.ndarray:
    """Ghat on the half spectrum of rfftn (last axis 0..L//2); read-only."""
    ksq = squared_momentum(spec, p.symbol)[..., : spec.L // 2 + 1]
    ghat = green_momentum_sq(p, ksq)
    ghat.setflags(write=False)
    return ghat


def solve_spde(p: ModelParams, eta: LatticeField) -> LatticeField:
    """Solve the lattice equation for one noise realization (FFT route)."""
    if p.m0 == 0.0:
        raise SingularityError("zero mode diverges for m0 = 0")
    axes = tuple(range(eta.spec.d))
    phi_hat = np.fft.rfftn(eta.values, axes=axes) * _half_symbol(p, eta.spec)
    return LatticeField(eta.spec, np.fft.irfftn(phi_hat, s=eta.spec.shape, axes=axes))


@lru_cache(maxsize=2)
def _doubled_green(p: ModelParams, spec: LatticeSpec) -> np.ndarray:
    """G(-z) for z in [0, 2L)^d (green_real_fft, continued periodically), so
    that every Green row is one slice of it.  2^d times the size of G, so few
    are kept."""
    minus = (-np.arange(spec.L)) % spec.L
    flipped = green_real_fft(p, spec).values[np.ix_(*[minus] * spec.d)]
    return np.tile(flipped, (2,) * spec.d)


@lru_cache(maxsize=32)
def _green_rows(p: ModelParams, spec: LatticeSpec, points: tuple) -> np.ndarray:
    """(n_points, V) matrix whose row for x holds G(x - y) over the sites y,
    so that a^d * row @ eta is phi(x); read-only.  Also the source of the
    analytic lattice sums (cumulants._lattice_sums)."""
    grid = _doubled_green(p, spec)
    rows = np.empty((len(points), spec.n_sites))
    for r, x in enumerate(points):
        # grid[L - x + y] = G(x - y - L) = G(x - y)
        rows[r].reshape(spec.shape)[...] = grid[tuple(slice(spec.L - c, 2 * spec.L - c)
                                                      for c in x)]
    rows.setflags(write=False)
    return rows


def _solved(p: ModelParams, eta: LatticeField) -> np.ndarray:
    return solve_spde(p, eta).values


def _point_values(p: ModelParams, spec: LatticeSpec, points: tuple, eta) -> np.ndarray:
    # one matrix-vector product per sample: no BLAS blocking across samples
    return spec.cell_volume * (_green_rows(p, spec, points) @ eta.values.ravel())


def _sample_chunk(chi, spec, master_seed, lo, hi, size, fn, out):
    """Add fn(eta_i), from zero and in sample order, into out[i // size] for
    i in lo..hi-1."""
    for i in range(lo, hi):
        out[i // size] += fn(sample_noise(chi, spec, substream(master_seed, i)))


_shared = None  # in a pool worker: the parent's output array, in shared memory


def _share(out) -> None:
    global _shared
    _shared = out


def _pool_chunk(args) -> None:
    _sample_chunk(*args, _shared)


def _sample_blocks(chi: LevyCharacteristic, spec: LatticeSpec, n_samples: int,
                   master_seed: int, fn, shape: tuple, size: int = 1,
                   workers: int = 1) -> np.ndarray:
    """Sums of fn(eta_i) (a module-level function, so it pickles) over blocks
    of `size` samples, shape (n_blocks,) + shape; eta_i draws from
    substream(master_seed, i).  Chunks are runs of whole blocks, so the sums
    are bit-identical for any worker count; at most os.cpu_count() workers.
    A pool allocates the sums as one anonymous shared mapping and forks its
    workers (an explicit fork context, so they inherit it); each worker adds
    its chunks straight into their rows and returns nothing."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    n_blocks = -(-n_samples // size)
    # a fork pool starts all its processes at once: never more than the cores
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        out = np.zeros((n_blocks,) + shape)
        _sample_chunk(chi, spec, master_seed, 0, n_samples, size, fn, out)
        return out
    import mmap  # only a pool needs these
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    count = n_blocks * math.prod(shape)
    # zero-filled and shared with the forked workers (MAP_SHARED).  The parent
    # reads every page in the end; MAP_POPULATE (Linux) maps them in one call
    # here, not one page fault each later.  A mapping cannot be empty, and an
    # empty point set gives count 0.
    flags = mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0)
    out = np.frombuffer(mmap.mmap(-1, max(8 * count, 8), flags=flags), count=count)
    out = out.reshape((n_blocks,) + shape)
    chunks = np.array_split(np.arange(n_blocks), min(4 * workers, n_blocks))
    args = [(chi, spec, master_seed, int(c[0]) * size, min(n_samples, int(c[-1] + 1) * size),
             size, fn) for c in chunks]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=fork,
                             initializer=_share, initargs=(out,)) as ex:
        list(ex.map(_pool_chunk, args))  # re-raises a worker's error
    return out


def sample_ensemble(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                    n_samples: int, master_seed: int, workers: int = 1) -> Ensemble:
    """Generate an ensemble; bit-identical for any worker count, and never
    more worker processes than os.cpu_count()."""
    fields = _sample_blocks(chi, spec, n_samples, master_seed, partial(_solved, p),
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
                          workers=workers)


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
    """Read an LFLB file (v2, or v1) back into an Ensemble.

    v2 stores the momentum symbol and the master seed; a master_seed passed
    here must then agree with the stored one.  A v1 file assumes the continuum
    symbol and takes master_seed (default 0).  A truncated file, an unknown
    tag, trailing bytes or a seed mismatch raise ConfigurationError.  The
    samples are read straight into a new, aligned array: the header leaves
    them at a file offset of 4 mod 8, which np.frombuffer would keep.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != MAGIC:
            raise ConfigurationError(f"{path}: not an LFLB ensemble file")
        unpack = partial(_unpack, fh, size, path=path)
        (version,) = unpack("<I", field="version")
        if version not in (1, FORMAT_VERSION):
            raise ConfigurationError(f"{path}: unsupported format version {version}")
        d, L, a = unpack("<IId", field="lattice")
        spec = LatticeSpec(d, L, a)
        alpha, m0, b, sigma2, lam = unpack("<5d", field="model and noise")
        tag, n_params = unpack("<II", field="jump tag")
        if tag not in _TAG_KINDS:
            raise ConfigurationError(f"{path}: jump tag: unknown value {tag}")
        params = unpack(f"<{n_params}d", field="jump params")
        symbol, seed = CONTINUUM, (0 if master_seed is None else master_seed)
        if version >= 2:
            symbol_tag, seed = unpack("<IQ", field="symbol and seed")
            if symbol_tag not in _TAG_SYMBOLS:
                raise ConfigurationError(f"{path}: symbol: unknown value {symbol_tag}")
            symbol = _TAG_SYMBOLS[symbol_tag]
            if master_seed is not None and master_seed != seed:
                raise ConfigurationError(
                    f"{path}: master_seed: {master_seed} passed, file stores {seed}")
        (n_samples,) = unpack("<Q", field="n_samples")
        extra = size - fh.tell() - 8 * n_samples * spec.n_sites
        if extra < 0:
            raise ConfigurationError(f"{path}: sample data: truncated file")
        if extra > 0:
            raise ConfigurationError(f"{path}: sample data: {extra} trailing bytes")
        fields = np.empty((n_samples,) + spec.shape, dtype="<f8")
        if fh.readinto(fields) != fields.nbytes:  # the file shrank since fstat
            raise ConfigurationError(f"{path}: sample data: truncated file")
    kind = _TAG_KINDS[tag]
    law = None if kind is None else JumpLaw(kind, params)
    chi = LevyCharacteristic(b=b, sigma2=sigma2, lam=lam, jump_law=law)
    return Ensemble(ModelParams(alpha, m0, symbol), chi, spec, seed, fields)
