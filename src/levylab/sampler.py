"""Spectral SPDE solver, ensemble generation and the ensemble file format.

The equation (-Laplace + m0^2)^alpha phi = eta is diagonal in the FFT basis,
so phi_hat(k) = eta_hat(k) * (|k|^2 + m0^2)^(-alpha); this is exact on the
periodic lattice and O(V log V).  Ensemble sample i always draws from the
counter-based stream (master_seed, i), making results bit-identical for any
worker count.
"""

from __future__ import annotations

import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularityError
from .greens import ModelParams, green_momentum_sq, inverse_transform, squared_momentum
from .noise import JumpLaw, LatticeField, LatticeSpec, LevyCharacteristic, sample_noise
from .streams import substream

MAGIC = b"LFLB"
FORMAT_VERSION = 1

_JUMP_TAGS = {None: 0, "atoms": 1, "uniform": 2, "two_sided_exponential": 3}
_TAG_KINDS = {v: k for k, v in _JUMP_TAGS.items()}


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
    ghat = green_momentum_sq(p, squared_momentum(eta.spec, p.symbol))
    phi_hat = np.fft.fftn(eta.values) * ghat
    # inverse_transform divides by a^d; undo it, phi is a plain field value
    out = inverse_transform(eta.spec, phi_hat * eta.spec.cell_volume)
    return out


def apply_forward_symbol(p: ModelParams, phi: LatticeField) -> LatticeField:
    """Apply (-Laplace + m0^2)^alpha; inverse of solve_spde."""
    sym = (squared_momentum(phi.spec, p.symbol) + p.m0**2) ** p.alpha
    out = inverse_transform(phi.spec, np.fft.fftn(phi.values) * sym * phi.spec.cell_volume)
    return out


def _sample_one(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                master_seed: int, index: int) -> np.ndarray:
    rng = substream(master_seed, index)
    eta = sample_noise(chi, spec, rng)
    return solve_spde(p, eta).values


def _sample_chunk(args):
    p, chi, spec, master_seed, indices, points = args
    if points is None:
        out = np.empty((len(indices),) + spec.shape)
        for j, i in enumerate(indices):
            out[j] = _sample_one(p, chi, spec, master_seed, i)
    else:
        pts = tuple(np.asarray(points, dtype=int).T)
        out = np.empty((len(indices), len(points)))
        for j, i in enumerate(indices):
            out[j] = _sample_one(p, chi, spec, master_seed, i)[pts]
    return out


def _run_chunks(p, chi, spec, n_samples, master_seed, points, workers):
    indices = np.arange(n_samples)
    if workers <= 1:
        return _sample_chunk((p, chi, spec, master_seed, indices, points))
    chunks = np.array_split(indices, 4 * workers)
    chunks = [c for c in chunks if len(c)]
    args = [(p, chi, spec, master_seed, c, points) for c in chunks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(_sample_chunk, args))
    return np.concatenate(parts, axis=0)


def sample_ensemble(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                    n_samples: int, master_seed: int, workers: int = 1) -> Ensemble:
    """Generate an ensemble; bit-identical for any worker count."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    fields = _run_chunks(p, chi, spec, n_samples, master_seed, None, workers)
    return Ensemble(p, chi, spec, master_seed, fields)


def sample_point_values(p: ModelParams, chi: LevyCharacteristic, spec: LatticeSpec,
                        points, n_samples: int, master_seed: int,
                        workers: int = 1) -> np.ndarray:
    """Stream an ensemble, keeping only phi at the given lattice points.

    Returns shape (n_samples, n_points).  Memory stays O(n_samples * n_points)
    instead of O(n_samples * V); the per-sample streams are the same as in
    sample_ensemble, so values agree with a stored ensemble at equal seed.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    return _run_chunks(p, chi, spec, n_samples, master_seed, list(points), workers)


def write_ensemble(path, e: Ensemble) -> None:
    """Write the LFLB binary format (little-endian, contiguous f64 samples)."""
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
        fh.write(struct.pack("<Q", e.n_samples))
        fh.write(np.ascontiguousarray(e.fields, dtype="<f8").tobytes())


def _unpack(buf: bytes, pos: int, fmt: str, path, field: str):
    """struct.unpack_from that names the field when the file is too short."""
    size = struct.calcsize(fmt)
    if len(buf) - pos < size:
        raise ConfigurationError(f"{path}: {field}: truncated file")
    return struct.unpack_from(fmt, buf, pos), pos + size


def read_ensemble(path, master_seed: int = 0) -> Ensemble:
    """Read an LFLB file back into an Ensemble (continuum symbol assumed); a
    truncated file, unknown jump tag or trailing bytes raise ConfigurationError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise ConfigurationError(f"{path}: not an LFLB ensemble file")
    (version,), pos = _unpack(buf, 4, "<I", path, "version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(f"{path}: unsupported format version {version}")
    (d, L, a), pos = _unpack(buf, pos, "<IId", path, "lattice")
    if d >= 64:  # beyond numpy's array rank; L**d could not be sized either
        raise ConfigurationError(f"{path}: lattice: d = {d} is unsupported")
    (alpha, m0, b, sigma2, lam), pos = _unpack(buf, pos, "<5d", path, "model and noise")
    (tag, n_params), pos = _unpack(buf, pos, "<II", path, "jump tag")
    if tag not in _TAG_KINDS:
        raise ConfigurationError(f"{path}: jump tag: unknown value {tag}")
    params, pos = _unpack(buf, pos, f"<{n_params}d", path, "jump params")
    (n_samples,), pos = _unpack(buf, pos, "<Q", path, "n_samples")
    spec = LatticeSpec(d, L, a)
    n_values = n_samples * spec.n_sites
    extra = len(buf) - pos - 8 * n_values
    if extra < 0:
        raise ConfigurationError(f"{path}: sample data: truncated file")
    if extra > 0:
        raise ConfigurationError(f"{path}: sample data: {extra} trailing bytes")
    data = np.frombuffer(buf, dtype="<f8", count=n_values, offset=pos)
    kind = _TAG_KINDS[tag]
    law = None if kind is None else JumpLaw(kind, params)
    chi = LevyCharacteristic(b=b, sigma2=sigma2, lam=lam, jump_law=law)
    fields = data.reshape((n_samples,) + spec.shape)
    return Ensemble(ModelParams(alpha, m0), chi, spec, master_seed, fields)
