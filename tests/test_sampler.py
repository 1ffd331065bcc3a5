import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levylab import (ConfigurationError, JumpLaw, LatticeField, LatticeSpec,
                     LevyCharacteristic, ModelParams, RangeError, SingularityError,
                     apply_forward_symbol, green_real_fft, read_ensemble,
                     sample_ensemble, sample_point_values, solve_spde,
                     write_ensemble)
from levylab import sampler
from levylab.cumulants import accumulate_subset_sums, sample_subset_sums
from levylab.greens import green_momentum_sq, squared_momentum


def test_solve_spde_zero(model_half, small_spec):
    phi = solve_spde(model_half, LatticeField.zeros(small_spec))
    assert np.all(phi.values == 0.0)


def test_solve_spde_impulse_is_green(model_half, small_spec):
    eta = np.zeros(small_spec.shape)
    eta[0, 0, 0] = 1.0 / small_spec.cell_volume  # lattice delta
    phi = solve_spde(model_half, LatticeField(small_spec, eta))
    g = green_real_fft(model_half, small_spec)
    assert np.allclose(phi.values, g.values, atol=1e-12)


def test_solve_spde_plane_wave(model_half, small_spec):
    k_index = 3
    x = np.arange(small_spec.L)
    wave = np.cos(2 * np.pi * k_index * x / small_spec.L)
    eta = wave.reshape(-1, 1, 1) * np.ones(small_spec.shape)
    phi = solve_spde(model_half, LatticeField(small_spec, eta))
    k = 2 * np.pi * k_index / (small_spec.L * small_spec.a)
    scale = green_momentum_sq(model_half, k**2)
    assert np.allclose(phi.values, scale * eta, atol=1e-12)


def test_solve_spde_m0_zero():
    with pytest.raises(SingularityError):
        solve_spde(ModelParams(0.5, 0.0), LatticeField.zeros(LatticeSpec(3, 8, 0.5)))


@settings(max_examples=20)
@given(eta=arrays(float, (8, 8, 8), elements=st.floats(-10, 10)),
       c=st.floats(-3, 3))
def test_solve_spde_linearity_and_inverse(eta, c):
    spec = LatticeSpec(3, 8, 0.5)
    p = ModelParams(0.7, 1.0)
    f = LatticeField(spec, eta)
    phi = solve_spde(p, f)
    scaled = solve_spde(p, LatticeField(spec, c * eta))
    assert np.allclose(scaled.values, c * phi.values, atol=1e-9)
    back = apply_forward_symbol(p, phi)
    assert np.allclose(back.values, eta, atol=1e-10 * (1 + np.abs(eta).max()))


def test_ensemble_determinism(model_half, small_spec, gaussian_chi):
    e1 = sample_ensemble(model_half, gaussian_chi, small_spec, 3, 99)
    e2 = sample_ensemble(model_half, gaussian_chi, small_spec, 3, 99)
    assert np.array_equal(e1.fields, e2.fields)
    e3 = sample_ensemble(model_half, gaussian_chi, small_spec, 3, 100)
    assert not np.array_equal(e1.fields, e3.fields)


def test_worker_count_independence(model_half, small_spec, poisson_chi):
    serial = sample_ensemble(model_half, poisson_chi, small_spec, 10, 7, workers=1)
    parallel = sample_ensemble(model_half, poisson_chi, small_spec, 10, 7, workers=4)
    assert np.array_equal(serial.fields, parallel.fields)


def test_point_values_match_ensemble(model_half, small_spec, mixed_chi):
    # Green rows and the FFT solve agree to rounding; a misaligned sample
    # stream would differ by O(1)
    pts = [(0, 0, 0), (1, 2, 3), (7, 7, 7)]
    e = sample_ensemble(model_half, mixed_chi, small_spec, 5, 21)
    vals = sample_point_values(model_half, mixed_chi, small_spec, pts, 5, 21)
    for j, pt in enumerate(pts):
        ref = e.fields[(slice(None),) + pt]
        assert np.all(np.abs(vals[:, j] - ref) <= 1e-12 * (1.0 + np.abs(ref).max()))


def test_point_values_worker_count_independence(model_half, small_spec, poisson_chi):
    pts = [(0, 0, 0), (1, 2, 3), (7, 7, 7), (3, 0, 5)]
    serial = sample_point_values(model_half, poisson_chi, small_spec, pts, 10, 7, workers=1)
    parallel = sample_point_values(model_half, poisson_chi, small_spec, pts, 10, 7, workers=4)
    assert np.array_equal(serial.view(np.uint64), parallel.view(np.uint64))


ROUTE_LAWS = {  # a density law, and two atoms at per-site means 23.75 and 1.25 (a = 0.5)
    "two_sided_exponential": LevyCharacteristic(lam=2.0,
                                                jump_law=JumpLaw.two_sided_exponential(0.7)),
    "atoms_straddling": LevyCharacteristic(
        lam=200.0, jump_law=JumpLaw.atoms([(0.5, 0.95), (-3.0, 0.05)])),
}


@pytest.mark.parametrize("law", ROUTE_LAWS)
def test_noise_routes_worker_count_independence(model_half, small_spec, law):
    chi = ROUTE_LAWS[law]
    pts = [(0, 0, 0), (1, 2, 3), (7, 7, 7)]
    vals = [sample_point_values(model_half, chi, small_spec, pts, 6, 7, workers=w)
            for w in (1, 2)]
    assert np.array_equal(vals[0].view(np.uint64), vals[1].view(np.uint64))
    fields = [sample_ensemble(model_half, chi, small_spec, 6, 7, workers=w).fields
              for w in (1, 2)]
    assert np.array_equal(fields[0].view(np.uint64), fields[1].view(np.uint64))


class RecordingPool:  # records (max_workers, chunks) and runs them in-process
    started = None

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        args = list(args)
        self.started.append((self.max_workers, len(args)))
        return map(fn, args)


@pytest.fixture
def recording_pool(monkeypatch):
    """Returns set_cpus(n); the pools started are recorded in RecordingPool.started."""
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(sampler, "ProcessPoolExecutor", RecordingPool)
    return lambda cpus: monkeypatch.setattr(sampler.os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("cpus, pools", [(3, [(3, 12)]), (None, [])])
def test_worker_pool_capped_at_cpu_count(recording_pool, model_half, small_spec, poisson_chi,
                                         cpus, pools):
    recording_pool(cpus)
    pts = [(0, 0, 0), (1, 2, 3)]
    many = sample_point_values(model_half, poisson_chi, small_spec, pts, 20, 7, workers=5000)
    assert RecordingPool.started == pools
    serial = sample_point_values(model_half, poisson_chi, small_spec, pts, 20, 7, workers=1)
    assert np.array_equal(many.view(np.uint64), serial.view(np.uint64))


SUM_CONFIGS = [[(0, 0), (0, 0), (1, 0), (1, 0)], [(0, 0), (1, 0), (0, 1), (3, 3)], [(2, 1)]]


def test_subset_sums_worker_count_independence(recording_pool, model_half, poisson_chi):
    # 1100 samples are 5 blocks of SUM_BLOCK = 250 or fewer, so 5 chunks on 3 cores
    recording_pool(3)
    spec = LatticeSpec(2, 4, 0.5)
    many = sample_subset_sums(model_half, poisson_chi, spec, SUM_CONFIGS, 1100, 7,
                              workers=5000)
    assert RecordingPool.started == [(3, 5)]
    serial = sample_subset_sums(model_half, poisson_chi, spec, SUM_CONFIGS, 1100, 7)
    for a, b in zip(many, serial):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_subset_sums_match_stored_ensemble(model_half, poisson_chi):
    # equal products; only the grouping of the sums differs (blocks of 250)
    spec = LatticeSpec(2, 4, 0.5)
    e = sample_ensemble(model_half, poisson_chi, spec, 600, 11)
    sums = sample_subset_sums(model_half, poisson_chi, spec, SUM_CONFIGS, 600, 11)
    for cfg, s in zip(SUM_CONFIGS, sums):
        ref = accumulate_subset_sums(e.fields, spec, cfg)
        assert s.shape == ref.shape == (2 ** len(cfg) - 1, spec.n_sites)
        assert np.all(np.abs(s - ref) <= 1e-12 * np.abs(ref))
    with pytest.raises(RangeError, match="at least one point"):
        accumulate_subset_sums(e.fields, spec, [])


def test_point_values_reject_non_integer_points(model_half, small_spec, gaussian_chi):
    with pytest.raises(ConfigurationError, match=r"point \(1\.7, 0, 0\)"):
        sample_point_values(model_half, gaussian_chi, small_spec, [(1.7, 0, 0)], 2, 0)
    ints = sample_point_values(model_half, gaussian_chi, small_spec, [(1, 0, 0)], 2, 0)
    same = sample_point_values(model_half, gaussian_chi, small_spec,
                               [np.array([1, 0, 0])], 2, 0)
    assert np.array_equal(ints, same)


def test_lattice_rejects_non_integer_sizes():
    for d, L in [(3.0, 8), (3, 8.5), ("3", 8)]:
        with pytest.raises(ConfigurationError, match="d and L must be integers"):
            LatticeSpec(d, L, 0.5)
    assert LatticeSpec(np.int64(3), np.int32(8), 0.5).n_sites == 512


def test_gaussian_excess_kurtosis(model_half, gaussian_chi):
    from scipy.stats import kstat
    spec = LatticeSpec(3, 8, 0.5)
    e = sample_ensemble(model_half, gaussian_chi, spec, 10_000, 5, workers=2)
    x = e.fields[:, 0, 0, 0]
    k4 = kstat(x, 4)
    parts = np.array([kstat(c, 4) for c in np.array_split(x, 20)])
    se = parts.std(ddof=1) / np.sqrt(20)
    assert abs(k4) <= 4.0 * se


def test_ensemble_immutable(model_half, small_spec, gaussian_chi):
    e = sample_ensemble(model_half, gaussian_chi, small_spec, 2, 1)
    with pytest.raises(ValueError):
        e.fields[0, 0, 0, 0] = 1.0


def test_lflb_round_trip_symbol_and_seed(tmp_path):
    # format v2 keeps the momentum symbol and the master seed
    spec = LatticeSpec(2, 4, 0.5)
    p = ModelParams(0.5, 1.0, "discrete")
    e = sample_ensemble(p, LevyCharacteristic(sigma2=1.0), spec, 3, 77)
    path = tmp_path / "d.lflb"
    write_ensemble(path, e)
    back = read_ensemble(path)
    assert back.params == p
    assert back.master_seed == 77
    assert np.array_equal(back.fields, e.fields)
    assert read_ensemble(path, master_seed=77).master_seed == 77
    with pytest.raises(ConfigurationError, match="master_seed"):
        read_ensemble(path, master_seed=78)


def test_lflb_reads_v1(tmp_path, model_half, small_spec, gaussian_chi):
    # a v1 file has no symbol or seed fields: continuum and the caller's seed
    e = sample_ensemble(model_half, gaussian_chi, small_spec, 2, 5)
    path = tmp_path / "v2.lflb"
    write_ensemble(path, e)
    data = path.read_bytes()
    v1 = data[:4] + struct.pack("<I", 1) + data[8:HEADER] + data[HEADER + 12:]
    path.write_bytes(v1)
    back = read_ensemble(path, master_seed=5)
    assert back.params == model_half
    assert back.master_seed == 5
    assert read_ensemble(path).master_seed == 0
    assert np.array_equal(back.fields, e.fields)


def test_lflb_round_trip(tmp_path, model_half, small_spec, mixed_chi):
    e = sample_ensemble(model_half, mixed_chi, small_spec, 4, 31)
    path = tmp_path / "e.lflb"
    write_ensemble(path, e)
    back = read_ensemble(path, master_seed=31)
    assert np.array_equal(back.fields, e.fields)
    assert back.spec == e.spec
    assert back.chi == e.chi
    assert back.params == e.params
    assert back.master_seed == 31
    # byte-identical on rewrite
    path2 = tmp_path / "e2.lflb"
    write_ensemble(path2, back)
    assert path.read_bytes() == path2.read_bytes()


HEADER = 4 + 4 + 8 + 8 + 40 + 8  # magic .. jump tag and parameter count
MALFORMED = {  # case -> (corruption of a valid file, expected message)
    "bad_magic": (lambda data: b"NOPE" + b"\x00" * 64, "not an LFLB"),
    "short_header": (lambda data: data[:20], "lattice: truncated"),
    "truncated_body": (lambda data: data[:-3], "sample data: truncated"),
    "unknown_tag": (lambda data: data[:HEADER - 8] + struct.pack("<I", 9) + data[HEADER - 4:],
                    "jump tag: unknown value 9"),
    "trailing_bytes": (lambda data: data + b"\x00", "sample data: 1 trailing bytes"),
    "rank_70": (lambda data: data[:8] + struct.pack("<I", 70) + data[12:],
                r"dimension d must be in \[1, 64\)"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_lflb_rejects_garbage(tmp_path, model_half, small_spec, gaussian_chi, case):
    corrupt, message = MALFORMED[case]
    good = tmp_path / "good.lflb"
    write_ensemble(good, sample_ensemble(model_half, gaussian_chi, small_spec, 2, 0))
    path = tmp_path / "bad.lflb"
    path.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(ConfigurationError, match=message):
        read_ensemble(path)


def test_lflb_rejects_wrong_jump_param_count(tmp_path, model_half, small_spec, mixed_chi):
    good = tmp_path / "good.lflb"
    write_ensemble(good, sample_ensemble(model_half, mixed_chi, small_spec, 2, 0))
    data = good.read_bytes()  # uniform law: 2 parameters after the count
    path = tmp_path / "bad.lflb"
    path.write_bytes(data[:HEADER - 4] + struct.pack("<I", 1) + data[HEADER:HEADER + 8]
                     + data[HEADER + 16:])
    with pytest.raises(ConfigurationError, match="jump_params: uniform takes 2 value"):
        read_ensemble(path)


def test_lflb_rejects_bad_version(tmp_path, model_half, small_spec, gaussian_chi):
    e = sample_ensemble(model_half, gaussian_chi, small_spec, 1, 0)
    path = tmp_path / "v.lflb"
    write_ensemble(path, e)
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(ConfigurationError):
        read_ensemble(path)


def test_lflb_site_cap(tmp_path, model_half, small_spec, gaussian_chi):
    good = tmp_path / "good.lflb"
    write_ensemble(good, sample_ensemble(model_half, gaussian_chi, small_spec, 1, 0))
    data = good.read_bytes()
    path = tmp_path / "big.lflb"
    path.write_bytes(data[:8] + struct.pack("<II", 30, 4) + data[16:])
    with pytest.raises(ConfigurationError, match=r"L\*\*d = 4\*\*30 .* MAX_SITES"):
        read_ensemble(path)


# LFLB v2 header slots of an atoms file with two atoms, in file order
_LFLB_SLOTS = ["<I"] * 3 + ["<d"] * 6 + ["<I"] * 2 + ["<d"] * 4 + ["<I", "<Q", "<Q"]
_LFLB_OFFSETS = [4 + sum(struct.calcsize(f) for f in _LFLB_SLOTS[:i])
                 for i in range(len(_LFLB_SLOTS))]
_SLOT_VALUES = {"<I": st.integers(0, 2**32 - 1), "<Q": st.integers(0, 2**64 - 1),
                "<d": st.floats(allow_nan=True, allow_infinity=True)}
_LFLB_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 200), st.none()),
    *[st.tuples(st.just("set"), st.sampled_from([i for i, f in enumerate(_LFLB_SLOTS)
                                                 if f == fmt]), values)
      for fmt, values in _SLOT_VALUES.items()],
)


@pytest.fixture(scope="module")
def lflb_file(tmp_path_factory):
    chi = LevyCharacteristic(b=0.1, sigma2=0.5, lam=1.0,
                             jump_law=JumpLaw.atoms([(1.0, 0.5), (-2.0, 0.5)]))
    path = tmp_path_factory.mktemp("lflb") / "e.lflb"
    write_ensemble(path, sample_ensemble(ModelParams(0.5, 1.0, "discrete"), chi,
                                         LatticeSpec(2, 4, 0.5), 3, 9))
    return path


@example(mutations=[("set", 1, 30), ("set", 2, 4)])  # d = 30, L = 4
@example(mutations=[("set", 10, 2**32 - 1)])  # jump parameter count
@settings(max_examples=200)
@given(mutations=st.lists(_LFLB_MUTATION, min_size=1, max_size=3))
def test_lflb_header_fuzz(lflb_file, mutations):
    """A mutated or truncated header is read back or rejected, never a crash."""
    data = bytearray(lflb_file.read_bytes())
    for op, where, value in mutations:
        if op == "truncate":
            del data[where:]
        elif _LFLB_OFFSETS[where] + struct.calcsize(_LFLB_SLOTS[where]) <= len(data):
            struct.pack_into(_LFLB_SLOTS[where], data, _LFLB_OFFSETS[where], value)
    path = lflb_file.with_name("fuzz.lflb")
    path.write_bytes(bytes(data))
    try:
        read_ensemble(path)
    except ConfigurationError:
        pass
