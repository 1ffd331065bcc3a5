"""Acceptance gate: the ten quantitative criteria, at their stated tolerances.

Heavy Monte-Carlo fixtures are module-scoped and shared between criteria.
All runs are seeded, so every assertion here is deterministic.
"""

import json

import numpy as np
import pytest

from levylab import (IntegratorSpec, JumpLaw, LatticeField, LatticeSpec,
                     LevyCharacteristic, MassAssignment, ModelParams,
                     MonomialBasis, SpectralDensity, analytic_truncated_schwinger,
                     baumann_check, characteristic_functional,
                     empirical_cumulant, empirical_two_point, gram_report,
                     green_real_fft, green_real_kl, kl_momentum,
                     make_spacelike_test, make_test, moments_from_cumulants,
                     rp_scan, sample_ensemble, sample_noise, substream,
                     verify_witness, witness_record)
from levylab.cumulants import cumulant_from_subset_sums, sample_subset_sums
from levylab.wightman import substream_seed

DESK_SPEC = LatticeSpec(3, 16, 0.5)
GAUSSIAN = LevyCharacteristic(b=0.0, sigma2=1.0, lam=0.0)
POISSON = LevyCharacteristic(b=0.0, sigma2=0.0, lam=2.0,
                             jump_law=JumpLaw.atom(1.0))
ALPHA_HALF = ModelParams(0.5, 1.0)

WITNESS_BASIS_POINTS = [(1, 1, 0), (1, 2, 0), (2, 0, 0),
                        (2, 1, 0), (2, 2, 0), (2, 3, 0)]
PSD_BASIS_POINTS = [(1, 0, 0), (2, 0, 0), (3, 0, 0),
                    (1, 1, 0), (2, 1, 0), (3, 1, 0)]


@pytest.fixture(scope="module")
def gaussian_ensemble():
    return sample_ensemble(ALPHA_HALF, GAUSSIAN, DESK_SPEC, 10_000, 101,
                           workers=4)


@pytest.fixture(scope="module")
def poisson_ensemble():
    return sample_ensemble(ALPHA_HALF, POISSON, DESK_SPEC, 10_000, 102,
                           workers=4)


# ---------------------------------------------------------------------------
# 1. noise law: empirical characteristic functional


def test_criterion_1_noise_law():
    spec = LatticeSpec(3, 4, 0.5)
    chi = LevyCharacteristic(b=0.2, sigma2=0.8, lam=1.5,
                             jump_law=JumpLaw.uniform(0.5, 2.0))
    axis = np.arange(spec.L)
    base = (np.cos(2 * np.pi * axis / spec.L) + 0.5).reshape(-1, 1, 1)
    base = base * np.ones(spec.shape)
    n_draws = 100_000
    for j, amp in enumerate([0.5, 1.0, 8.0]):  # includes a large amplitude
        f = LatticeField(spec, amp * base)
        exact = characteristic_functional(chi, f)
        rng = substream(2001, j)
        z = np.empty(n_draws, dtype=complex)
        for i in range(n_draws):
            eta = sample_noise(chi, spec, rng)
            z[i] = np.exp(1j * spec.cell_volume * np.sum(f.values * eta.values))
        se_re = z.real.std(ddof=1) / np.sqrt(n_draws)
        se_im = z.imag.std(ddof=1) / np.sqrt(n_draws)
        assert abs(z.real.mean() - exact.real) <= 3.0 * se_re
        assert abs(z.imag.mean() - exact.imag) <= 3.0 * se_im


# ---------------------------------------------------------------------------
# 2. two-point agreement at separations up to L*a/4


@pytest.mark.parametrize("which", ["gaussian", "poisson"])
def test_criterion_2_two_point(which, gaussian_ensemble, poisson_ensemble):
    e = gaussian_ensemble if which == "gaussian" else poisson_ensemble
    vals, _ = empirical_two_point(e)
    max_cells = int(DESK_SPEC.L / 4)  # separation L*a/4 in physical units
    for sep in range(0, max_cells + 1):
        an = analytic_truncated_schwinger(ALPHA_HALF, e.chi, DESK_SPEC,
                                          [(0, 0, 0), (sep, 0, 0)])
        # the three axis directions are exchangeable; average them
        est = np.mean([vals[sep, 0, 0], vals[0, sep, 0], vals[0, 0, sep]])
        assert abs(est - an) / an <= 0.05


# ---------------------------------------------------------------------------
# 3. four-point cumulant, Poisson vs zero


def test_criterion_3_four_point_poisson():
    configs = [
        [(0, 0, 0)] * 4,
        [(0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 0)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    ]
    n_blocks, per_block = 20, 5_000  # 1e5 samples total
    block_sums = [sample_subset_sums(ALPHA_HALF, POISSON, DESK_SPEC, configs, per_block,
                                     substream_seed(301, b), workers=4)
                  for b in range(n_blocks)]
    counts = [per_block] * n_blocks
    for i, cfg in enumerate(configs):
        est = cumulant_from_subset_sums(np.stack([s[i] for s in block_sums]), counts, 4)
        an = analytic_truncated_schwinger(ALPHA_HALF, POISSON, DESK_SPEC, cfg)
        assert an > 0.0
        assert abs(est.value - an) / an <= 0.15


def test_criterion_3_four_point_gaussian_zero(gaussian_ensemble):
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert analytic_truncated_schwinger(ALPHA_HALF, GAUSSIAN, DESK_SPEC, pts) == 0.0
    est = empirical_cumulant(gaussian_ensemble, pts)
    assert abs(est.value) <= 4.0 * est.stderr


# ---------------------------------------------------------------------------
# 4. Green-function cross-validation


def test_criterion_4_green_cross_validation():
    from itertools import product

    spec = LatticeSpec(3, 256, 0.03125)
    p = ModelParams(0.5, 1.0, "discrete")
    g = green_real_fft(p, spec).values
    period = spec.L * spec.a
    p_cont = ModelParams(0.5, 1.0)
    for k in range(10):
        r = 1.25 + 0.25 * k
        cells = round(r / spec.a)
        # periodize the infinite-volume reference over the nearest images
        ref = 0.0
        for n in product((-1, 0, 1), repeat=3):
            d = np.linalg.norm([r + n[0] * period, n[1] * period, n[2] * period])
            ref += green_real_kl(p_cont, [float(d), 0.0, 0.0])
        assert abs(g[cells, 0, 0] - ref) / ref <= 1e-3


def test_criterion_4_kl_quadrature_identity():
    for alpha in (0.3, 0.5, 0.75):
        sd = SpectralDensity(alpha, 1.0)
        for q2 in (0.0, 0.5, 1.0, 4.0, 10.0):
            exact = (q2 + 1.0) ** (-alpha)
            assert abs(kl_momentum(sd, q2) - exact) / exact <= 1e-6


# ---------------------------------------------------------------------------
# 5-7. reflection positivity


def test_criterion_5_free_field_positive():
    basis = MonomialBasis.up_to_degree_two(DESK_SPEC, PSD_BASIS_POINTS)
    rep = gram_report(ModelParams(0.5, 1.0, "discrete"), GAUSSIAN, basis,
                      centered=True)
    norm = np.linalg.norm(rep.matrix, 2)
    assert rep.min_eig >= -1e-8 * norm


def test_criterion_6_two_point_negative_witness():
    basis = MonomialBasis.degree_one(DESK_SPEC, WITNESS_BASIS_POINTS)
    rep = gram_report(ModelParams(0.75, 1.0, "discrete"), GAUSSIAN, basis)
    assert rep.min_eig < 0.0
    record = witness_record(rep)
    verdict = verify_witness(record, fresh_seed=601, n_samples=20_000,
                             workers=4)
    assert verdict["status"] == "CONFIRMED"


def test_criterion_7_poisson_scan_with_reverification():
    basis = MonomialBasis.up_to_degree_two(DESK_SPEC, PSD_BASIS_POINTS)
    chi = LevyCharacteristic(b=0.0, sigma2=0.0, lam=1.0,
                             jump_law=JumpLaw.atom(1.0))
    rows = rp_scan([0.5], [1.0, 10.0, 100.0], 1.0, chi, basis,
                   symbol="discrete")
    assert len(rows) == 3 and all("min_eig" in r for r in rows)
    negatives = [r for r in rows if r["min_eig"] < 0.0]
    for i, row in enumerate(negatives):
        record = witness_record(row["report"])
        verdict = verify_witness(record, fresh_seed=substream_seed(701, i),
                                 n_samples=10_000, workers=4)
        assert verdict["status"] == "CONFIRMED"


# ---------------------------------------------------------------------------
# 8. Baumann vanishing check


def test_criterion_8_baumann():
    masses = MassAssignment.fixed([1.0] * 4)
    h1 = make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8)
    h2 = make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8)
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8, "timelike")
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8, "timelike")
    report = baumann_check(masses, h1, h2, f, g, (0.5, 0.05, 0.005),
                           IntegratorSpec(n_samples=1_000_000, n_strata=8,
                                          seed=801))
    assert report.verdict == "PASS"
    # the time-like control does not vanish: it fails the same decay test
    assert report.control_vanishes is False
    assert json.dumps(report.to_dict())  # report is serializable


# ---------------------------------------------------------------------------
# 9. combinatorics oracle


def _partitions_rgs(n):
    out = []
    code = [0] * n

    def rec(i, mx):
        if i == n:
            blocks = {}
            for idx, lab in enumerate(code):
                blocks.setdefault(lab, []).append(idx)
            out.append(list(blocks.values()))
            return
        for lab in range(mx + 2):
            code[i] = lab
            rec(i + 1, max(mx, lab))

    rec(0, -1)
    return out


def test_criterion_9_partition_oracle():
    from itertools import combinations
    rng = np.random.default_rng(901)
    for trial in range(100):
        n = int(rng.integers(1, 7))
        # integer-valued cumulants keep both sums exact in floating point
        cums = {frozenset(s): float(rng.integers(-3, 4))
                for size in range(1, n + 1)
                for s in combinations(range(n), size)}
        expected = 0.0
        for part in _partitions_rgs(n):
            prod = 1.0
            for block in part:
                prod *= cums[frozenset(block)]
            expected += prod
        assert moments_from_cumulants(cums, n) == expected


# ---------------------------------------------------------------------------
# 10. determinism of every command


CONFIG_SMALL = """\
[model]
alpha = 0.75
m0 = 1.0
symbol = discrete

[noise]
b = 0.0
sigma2 = 1.0
lambda = 0.0

[lattice]
d = 3
L = 16
a = 0.5

[run]
seed = 7
n_samples = 200
workers = 1

[points]
pair = 0,0,0; 1,0,0
quad = 0,0,0; 1,0,0; 0,1,0; 0,0,1

[basis]
points = 1,1,0; 1,2,0; 2,0,0; 2,1,0; 2,2,0; 2,3,0
degree = 1

[scan]
alphas = 0.75
lambdas = 0.0

[noise_check]
amplitudes = 0.5, 8.0
n_draws = 300

[baumann]
epsilons = 0.5, 0.05, 0.005
mass = 1.0
h1_center = 0.0, 3.0, 0.0
h2_center = 0.0, -3.0, 0.0
f_center = 1.0, 0.0, 0.0
g_center = -1.0, 0.0, 0.0
n_samples = 20000
n_strata = 4
"""

COMMAND_ARTIFACTS = {
    "noise-check": ["noise_check.json"],
    "sample": ["ensemble.lflb"],
    "cumulants": ["cumulants.json"],
    "schwinger": ["schwinger.json"],
    "rp-check": ["rp_check.json"],
    "rp-scan": ["rp_scan.csv", "rp_scan_witnesses.json"],
    "baumann": ["baumann.json"],
    "spectral": ["spectral.json"],
}


def test_criterion_10_determinism(tmp_path):
    from levylab.cli import main

    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG_SMALL)

    def run_all(out, workers):
        out.mkdir()
        blobs = {}
        for command, artifacts in COMMAND_ARTIFACTS.items():
            code = main([command, "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)])
            assert code in (0, 3)
            for name in artifacts:
                blobs[name] = (out / name).read_bytes()
        # verify-witness consumes rp-check's archived witness
        witness = tmp_path / f"w_{out.name}.json"
        record = json.loads(blobs["rp_check.json"])["results"]["witness"]
        witness.write_text(json.dumps(record))
        code = main(["verify-witness", "--config", str(cfg), "--out", str(out),
                     "--witness", str(witness), "--workers", str(workers)])
        assert code in (0, 3)
        blobs["verify_witness.json"] = (out / "verify_witness.json").read_bytes()
        return blobs

    first = run_all(tmp_path / "run1", 1)
    rerun = run_all(tmp_path / "run2", 1)
    parallel = run_all(tmp_path / "run3", 4)
    assert first == rerun
    assert first == parallel
