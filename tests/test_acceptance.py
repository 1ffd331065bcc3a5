"""Acceptance gate: the ten quantitative criteria, at their stated tolerances.

Every Monte-Carlo estimate streams through the samplers (criterion 1 through
the noise-check command), so no ensemble is kept.  All runs are seeded, so
every assertion here is deterministic.
"""

import hashlib
import json

import numpy as np
import pytest

from levylab import (IntegratorSpec, JumpLaw, LatticeSpec, LevyCharacteristic,
                     MassAssignment, ModelParams, MonomialBasis,
                     analytic_truncated_schwinger, baumann_check,
                     empirical_two_point, gram_report, green_real_fft,
                     green_real_kl, kl_momentum, make_spacelike_test,
                     make_test, moments_from_cumulants, rp_scan,
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


# ---------------------------------------------------------------------------
# 1. noise law: empirical characteristic functional


CRITERION_1_CONFIG = """\
[noise]
b = 0.2
sigma2 = 0.8
lambda = 1.5
jump_kind = uniform
jump_params = 0.5, 2.0

[lattice]
d = 3
L = 4
a = 0.5

[run]
seed = 2001
n_samples = 100000
workers = 2

[noise_check]
amplitudes = 0.5, 1.0, 8.0
"""


def test_criterion_1_noise_law(tmp_path):
    # the base profile cos(2 pi x_0 / L) + 0.5 on the sampler's loop; 8.0 is
    # a large amplitude
    from levylab.cli import main

    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CRITERION_1_CONFIG)
    assert main(["noise-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "noise_check.json").read_text())["results"]["tests"]
    assert [row["amplitude"] for row in rows] == [0.5, 1.0, 8.0]
    for row in rows:
        assert row["n_draws"] == 100_000
        for part in (0, 1):  # real and imaginary
            assert abs(row["empirical"][part] - row["exact"][part]) <= 3.0 * row["stderr"][part]


# ---------------------------------------------------------------------------
# 2. two-point agreement at separations up to L*a/4


@pytest.mark.parametrize("which", ["gaussian", "poisson"])
def test_criterion_2_two_point(which):
    chi, seed = (GAUSSIAN, 101) if which == "gaussian" else (POISSON, 102)
    vals, _ = empirical_two_point(ALPHA_HALF, chi, DESK_SPEC, 10_000, seed, workers=4)
    max_cells = int(DESK_SPEC.L / 4)  # separation L*a/4 in physical units
    for sep in range(0, max_cells + 1):
        an = analytic_truncated_schwinger(ALPHA_HALF, chi, DESK_SPEC,
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
    sums, counts = sample_subset_sums(ALPHA_HALF, POISSON, DESK_SPEC, configs, 100_000, 301,
                                      workers=4)
    for cfg, s in zip(configs, sums, strict=True):
        est = cumulant_from_subset_sums(s, counts, 4)
        an = analytic_truncated_schwinger(ALPHA_HALF, POISSON, DESK_SPEC, cfg)
        assert an > 0.0
        assert abs(est.value - an) / an <= 0.15
        assert abs(est.value - an) <= 4.0 * est.stderr


def test_criterion_3_four_point_gaussian_zero():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert analytic_truncated_schwinger(ALPHA_HALF, GAUSSIAN, DESK_SPEC, pts) == 0.0
    (sums,), counts = sample_subset_sums(ALPHA_HALF, GAUSSIAN, DESK_SPEC, [pts], 10_000, 101,
                                         workers=4)
    est = cumulant_from_subset_sums(sums, counts, 4)
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
        p = ModelParams(alpha, 1.0)
        for q2 in (0.0, 0.5, 1.0, 4.0, 10.0):
            exact = (q2 + 1.0) ** (-alpha)
            assert abs(kl_momentum(p, q2) - exact) / exact <= 1e-6


# ---------------------------------------------------------------------------
# 5-7. reflection positivity


def test_criterion_5_free_field_positive():
    basis = MonomialBasis.up_to_degree_two(DESK_SPEC, PSD_BASIS_POINTS)
    rep = gram_report(ModelParams(0.5, 1.0, "discrete"), GAUSSIAN, basis)
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


# lambda -> (min_eig, sha256 of the witness coefficients as little-endian
# float64, analytic_form, mc_form, mc_stderr) in hex, recorded when time axis
# and centering were still options (at their defaults): fixing them as
# conventions must not move a bit.  mc_stderr comes from the one jackknife,
# which moved it by 1 and 2 ulp at lambda 1 and 10.  All were re-recorded
# when G became the irfftn of the solve's half spectrum: they moved by at
# most 3.5e-12 relative (analytic_form at lambda 100)
CRITERION_7_PINS = {
    1.0: ("-0x1.6fedc4e3107cep-8",
          "d18795a50d38a158c3a378334945d38630aa0774d1813d910729fadd78eda183",
          "-0x1.6fedc4e3107c2p-8", "-0x1.512cfe3c1678dp-7", "0x1.539e112abd4d2p-8"),
    10.0: ("-0x1.08c8e5f46b68dp-6",
           "59d096bfe81d8891c994e68d715d9704aca9b01d01e3262e194116286b764fc8",
           "-0x1.08c8e5f46bb24p-6", "-0x1.4bf3ecbad6317p-2", "0x1.e4986ace21018p-3"),
    100.0: ("-0x1.202335db6e81dp-5",
            "98e91199eb0cbbe99fd5f59df33bb7231a8f31703a7e5d12dd5f18c4a5b343e5",
            "-0x1.202335db7327cp-5", "0x1.fec34931ce45dp+5", "0x1.774fefeef65adp+4"),
}


def test_criterion_7_poisson_scan_with_reverification():
    basis = MonomialBasis.up_to_degree_two(DESK_SPEC, PSD_BASIS_POINTS)
    chi = LevyCharacteristic(b=0.0, sigma2=0.0, lam=1.0,
                             jump_law=JumpLaw.atom(1.0))
    rows = rp_scan([0.5], [1.0, 10.0, 100.0], ModelParams(0.5, 1.0, "discrete"),
                   chi, basis)
    assert len(rows) == 3 and all("min_eig" in r for r in rows)
    negatives = [r for r in rows if r["min_eig"] < 0.0]
    assert [r["lambda"] for r in negatives] == list(CRITERION_7_PINS)
    for i, row in enumerate(negatives):
        record = witness_record(row["report"])
        verdict = verify_witness(record, fresh_seed=substream_seed(701, i),
                                 n_samples=10_000, workers=4)
        assert verdict["status"] == "CONFIRMED"
        coefficients = np.asarray(record["coefficients"], dtype="<f8").tobytes()
        assert (row["min_eig"].hex(), hashlib.sha256(coefficients).hexdigest(),
                verdict["analytic_form"].hex(), verdict["mc_form"].hex(),
                verdict["mc_stderr"].hex()) == CRITERION_7_PINS[row["lambda"]]


def test_criterion_7_sign_unresolved_at_lambda_100():
    # a finding: at the benchmark's 1000 samples the lambda = 100 witness is
    # CONFIRMED, yet its Monte-Carlo stderr is about 2000 times the analytic
    # form, so the sample resolves no sign
    basis = MonomialBasis.up_to_degree_two(DESK_SPEC, PSD_BASIS_POINTS)
    chi = LevyCharacteristic(lam=100.0, jump_law=JumpLaw.atom(1.0))
    rep = gram_report(ModelParams(0.5, 1.0, "discrete"), chi, basis)
    verdict = verify_witness(witness_record(rep), fresh_seed=substream_seed(701, 2),
                             n_samples=1000)
    assert verdict["status"] == "CONFIRMED"
    assert verdict["sign_resolved"] is False
    assert verdict["mc_stderr"] > 1000.0 * abs(verdict["analytic_form"])


# ---------------------------------------------------------------------------
# 8. Baumann vanishing check


def test_criterion_8_baumann():
    masses = MassAssignment.fixed([1.0] * 4)
    h1 = make_spacelike_test((0.0, 3.0, 0.0), 0.4, 0.8)
    h2 = make_spacelike_test((0.0, -3.0, 0.0), 0.4, 0.8)
    f = make_test((1.0, 0.0, 0.0), 0.4, 0.8)
    g = make_test((-1.0, 0.0, 0.0), 0.4, 0.8)
    report = baumann_check(masses, h1, h2, f, g, (0.5, 0.05, 0.005),
                           IntegratorSpec(n_samples=1_000_000, n_strata=8,
                                          seed=801))
    assert report.verdict == "PASS"
    # the closed-form bound certifies every space-like row: none is sampled
    assert report.details["nonzero_fraction"]["spacelike"] == [None] * 3
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
