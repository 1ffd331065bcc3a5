"""The benchmark's three closed-loop workloads.

Every workload runs on the 16^3 lattice with a = 0.5 and m0 = 1.  One round is
one checked result; the runner repeats rounds back to back.  levylab only ever
sees the configs and seeds generated here from the benchmark's ``--seed``.

* ``ensemble4pt`` -- criterion-3 path through the library: a round is one
  500-sample Poisson block from ``sample_ensemble`` (2 workers), its LFLB
  write and bit-exact read-back, an in-process replay of 10 of its samples and
  subset sums for the three criterion-3 four-point configurations; the run
  ends with the translation-averaged cumulants of all blocks checked against
  the analytic values.
* ``rpscan`` -- a round is one ``levylab rp-scan`` invocation in process at
  criterion-7 settings (discrete symbol, alpha = 1/2, lambda in {1, 10, 100},
  degree-2 basis over 6 points) with 1000 verification samples per witness.
* ``baumann`` -- a round is one ``levylab baumann`` invocation in process with
  the criterion-8 test functions and epsilons, 2.5e5 points per pairing.

Rounds are kept short (0.6 to 6 s) so that a run's median rests on many of
them: on a shared 2-core box the CPU speed drifts by up to 2x within seconds.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import nullcontext
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from levylab import (IntegratorSpec, JumpLaw, LatticeSpec, LevyCharacteristic,
                     MassAssignment, ModelParams, MonomialBasis,
                     ShellRegularization, analytic_truncated_schwinger,
                     build_reflection_gram, gram_report, green_real_fft,
                     make_spacelike_test, make_test, min_eigenvalue,
                     sample_ensemble, sample_noise, sample_point_values,
                     solve_spde, substream, verify_witness,
                     wightman_n_regularized, witness_record)
from levylab import cli, cumulants, greens, rp, sampler, wightman
from levylab.cumulants import accumulate_subset_sums, cumulant_from_subset_sums

SPEC = LatticeSpec(3, 16, 0.5)
ALPHA_HALF = ModelParams(0.5, 1.0)
POISSON = LevyCharacteristic(lam=2.0, jump_law=JumpLaw.atom(1.0))
GAUSSIAN = LevyCharacteristic(sigma2=1.0)
BASIS_POINTS = ((1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0))
FOUR_POINT_CONFIGS = (
    ((0, 0, 0),) * 4,
    ((0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 0)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
)
BAUMANN_TESTS = dict(h1=(0.0, 3.0, 0.0), h2=(0.0, -3.0, 0.0),
                     f=(1.0, 0.0, 0.0), g=(-1.0, 0.0, 0.0), width=0.4, radius=0.8)


def child_seed(seed: int, *path: int) -> int:
    """63-bit seed for one (run seed, path) pair, made by the benchmark itself."""
    ss = np.random.SeedSequence([int(seed), len(path), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def bitwise_equal(a, b) -> bool:
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def clear_levylab_caches() -> None:
    """Empty every functools cache in levylab, as a fresh CLI process has them."""
    for mod in (cumulants, greens, sampler, rp, wightman, cli):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def schwinger_cache_info():
    """(hits, misses) of the analytic Schwinger cache, or (0, 0) without one."""
    cached = getattr(cumulants, "_schwinger_cached", None)
    if cached is None:
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def poisson_atom_jumps(values, cell_volume: float, ghat0: float = 1.0) -> int:
    """Exact jump count behind Poisson noise with one atom at 1 and b = sigma2 = 0.

    Each jump adds 1/a^d to one site, so a^d * sum(eta) counts the jumps; a
    solved field keeps that sum times Ghat(0) in its zero mode.
    """
    return int(np.rint(np.asarray(values).reshape(len(values), -1).sum(axis=1)
                       * cell_volume / ghat0).sum())


# ---------------------------------------------------------------------------
# hooks: what a traced call records as its span tag


def _noise_tag(args, kwargs, result):
    return {"jumps": poisson_atom_jumps(result.values[None], result.spec.cell_volume)}


def _ensemble_tag(args, kwargs, result):
    ghat0 = result.params.m0 ** (-2.0 * result.params.alpha)
    return {"n": result.n_samples, "bytes": result.fields.nbytes,
            "jumps": poisson_atom_jumps(result.fields, result.spec.cell_volume, ghat0)}


def _points_tag(args, kwargs, result):
    return {"n": result.shape[0], "bytes": result.nbytes}


def _subset_tag(args, kwargs, result):
    return {"n": len(args[0]), "bytes": np.asarray(args[0]).nbytes + result.nbytes}


def _gram_tag(args, kwargs, result):
    return {"n": result.shape[0]}


def _verify_tag(args, kwargs, result):
    return {"n": result["n_samples"]}


def _pairing_tag(args, kwargs, result):
    return {"n": result.n_samples, "zero": result.value == 0.0 and result.stderr == 0.0}


def _schwinger_misses():
    return schwinger_cache_info()[1]


# Per call site: (module whose attribute the caller looks up, attribute,
# span name, hook, probe).  Only the sites a workload's path reaches are
# patched for that workload.
_SAMPLER_STAGES = [
    (sampler, "substream", "streams.substream", None, None),
    (sampler, "sample_noise", "noise.sample_noise", _noise_tag, None),
    (sampler, "solve_spde", "sampler.solve_spde", None, None),
    (sampler, "squared_momentum", "greens.squared_momentum", None, None),
    (sampler, "green_momentum_sq", "greens.green_momentum_sq", None, None),
    (sampler, "inverse_transform", "greens.inverse_transform", None, None),
]
_SCHWINGER_SITES = [
    (cumulants, "analytic_truncated_schwinger", "cumulants.analytic_truncated_schwinger",
     None, _schwinger_misses),
    (cumulants, "green_real_fft", "greens.green_real_fft", None, None),
]

_FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def _fft_bytes(args, result):
    return np.asarray(args[0]).nbytes + result.nbytes


def install(tracer, sites) -> None:
    """Patch every call site and count the FFTs made inside a solve."""
    for module, attr, name, hook, probe in sites:
        tracer.patch(module, attr, tracer.wrapped(name, getattr(module, attr), hook, probe))
    for attr in _FFT_NAMES:
        if hasattr(np.fft, attr):
            tracer.patch(np.fft, attr, tracer.counted(
                "sampler.fft", getattr(np.fft, attr), _fft_bytes,
                within="sampler.solve_spde"))


class Workload:
    """One round is one checked result; ``finish`` adds the run's final checks."""

    name = ""
    ops_per_round = 1
    direct: dict = {}     # span name -> function the benchmark calls itself
    sites: list = []      # call sites inside levylab patched when traced

    def calls(self, tracer):
        """Namespace of the functions the benchmark calls, wrapped when traced."""
        ns = {name.split(".", 1)[1]: (tracer.wrapped(name, fn, hook) if tracer else fn)
              for name, (fn, hook) in self.direct.items()}
        ns["span"] = tracer.span if tracer else (lambda name: nullcontext())
        return SimpleNamespace(**ns)

    def reset(self) -> None:
        """Runs before each round, outside its timing."""

    def finish(self, calls) -> list:
        return []


class Ensemble4pt(Workload):
    name = "ensemble4pt"
    BLOCK = 500            # 500 x 16^3 x 8 B = 16 MB per LFLB block
    WORKERS = 2
    REPLAY = tuple(range(0, 500, 50))
    GROUPS = 20            # jackknife groups; fixed so memory does not grow with run length
    MAX_Z = 5.0
    MAX_REL_STDERR = 0.2   # above this a zero estimate would pass |z| <= 5
    direct = {
        "sampler.sample_ensemble": (sample_ensemble, _ensemble_tag),
        "sampler.write_ensemble": (sampler.write_ensemble, None),
        "sampler.read_ensemble": (sampler.read_ensemble, None),
        "streams.substream": (substream, None),
        "noise.sample_noise": (sample_noise, _noise_tag),
        "sampler.solve_spde": (solve_spde, None),
        "cumulants.accumulate_subset_sums": (accumulate_subset_sums, _subset_tag),
        "cumulants.cumulant_from_subset_sums": (cumulant_from_subset_sums, None),
    }
    sites = _SAMPLER_STAGES[3:] + _SCHWINGER_SITES

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.path = os.path.join(workdir, "block.lflb")
        self.analytic = [analytic_truncated_schwinger(ALPHA_HALF, POISSON, SPEC, c)
                         for c in FOUR_POINT_CONFIGS]
        self.sums = [None] * self.GROUPS
        self.counts = [0] * self.GROUPS
        self.max_abs_z = 0.0

    def replay(self, f, block_seed: int, i: int) -> np.ndarray:
        with f.span("bench.replay_sample"):
            eta = f.sample_noise(POISSON, SPEC, f.substream(block_seed, i))
            return f.solve_spde(ALPHA_HALF, eta).values

    def round(self, r: int, f) -> dict:
        block_seed = child_seed(self.seed, r)
        e = f.sample_ensemble(ALPHA_HALF, POISSON, SPEC, self.BLOCK, block_seed,
                              workers=self.WORKERS)
        f.write_ensemble(self.path, e)
        back = f.read_ensemble(self.path, master_seed=block_seed)
        io_ok = bitwise_equal(back.fields, e.fields)
        # sample i draws from substream(seed, i) for any worker count
        replay_ok = all(bitwise_equal(self.replay(f, block_seed, i), e.fields[i])
                        for i in self.REPLAY)
        sums = [f.accumulate_subset_sums(back.fields, SPEC, c) for c in FOUR_POINT_CONFIGS]
        g = r % self.GROUPS
        self.sums[g] = sums if self.sums[g] is None else [a + b for a, b in zip(self.sums[g], sums)]
        self.counts[g] += self.BLOCK
        return {"ops": [("block", io_ok and replay_ok,
                         f"lflb read-back identical={io_ok} replay identical={replay_ok}")],
                "samples": self.BLOCK, "lflb_bytes": os.path.getsize(self.path)}

    def finish(self, f) -> list:
        used = [g for g in range(self.GROUPS) if self.counts[g]]
        ops = []
        for k, an in enumerate(self.analytic):
            est = f.cumulant_from_subset_sums(np.stack([self.sums[g][k] for g in used]),
                                              [self.counts[g] for g in used], 4)
            z = (est.value - an) / est.stderr if est.stderr > 0 else math.inf
            rel = est.stderr / abs(an)
            self.max_abs_z = max(self.max_abs_z, abs(z))
            ops.append((f"cumulant_config{k}",
                        abs(z) <= self.MAX_Z and rel <= self.MAX_REL_STDERR,
                        f"estimate={est.value:.6g} analytic={an:.6g} z={z:.2f} "
                        f"rel_stderr={rel:.3f} n={est.n_samples} groups={len(used)}"))
        return ops


class _CliWorkload(Workload):
    command = ""
    direct = {"cli.main": (cli.main, None)}

    def __init__(self, seed: int, workdir: str):
        self.ini = os.path.join(workdir, f"{self.command}.ini")
        self.out = os.path.join(workdir, "out")
        with open(self.ini, "w") as fh:
            fh.write(self.config(child_seed(seed, 0)))

    def reset(self) -> None:
        clear_levylab_caches()  # every CLI invocation starts cold

    def run_cli(self, f) -> int:
        return f.main([self.command, "--config", self.ini, "--out", self.out])


class RpScan(_CliWorkload):
    name = "rpscan"
    command = "rp-scan"
    N_VERIFY = 1000
    LAMBDAS = (1.0, 10.0, 100.0)
    ops_per_round = 1 + len(LAMBDAS)
    sites = _SAMPLER_STAGES + _SCHWINGER_SITES + [
        (cli, "rp_scan", "rp.rp_scan", None, None),
        (cli, "verify_witness", "rp.verify_witness", _verify_tag, None),
        (rp, "gram_report", "rp.gram_report", None, None),
        (rp, "build_reflection_gram", "rp.build_reflection_gram", _gram_tag, None),
        (rp, "min_eigenvalue", "rp.min_eigenvalue", None, None),
        (rp, "witness_quadratic_form_mc", "rp.witness_quadratic_form_mc", None, None),
        (rp, "full_schwinger_moment", "cumulants.full_schwinger_moment", None, None),
        (rp, "analytic_truncated_schwinger", "cumulants.analytic_truncated_schwinger",
         None, _schwinger_misses),
        (rp, "sample_point_values", "sampler.sample_point_values", _points_tag, None),
    ]

    def config(self, seed: int) -> str:
        pts = "; ".join(",".join(map(str, p)) for p in BASIS_POINTS)
        lams = ", ".join(map(str, self.LAMBDAS))
        return (f"[model]\nalpha = 0.5\nm0 = 1.0\nsymbol = discrete\n\n"
                f"[noise]\nlambda = 1.0\njump_kind = atoms\njump_params = 1.0, 1.0\n\n"
                f"[lattice]\nd = 3\nL = 16\na = 0.5\n\n"
                f"[run]\nseed = {seed}\nn_samples = {self.N_VERIFY}\nworkers = 1\n\n"
                f"[basis]\npoints = {pts}\ndegree = 2\n\n"
                f"[scan]\nalphas = 0.5\nlambdas = {lams}\n")

    def round(self, r: int, f) -> dict:
        rc = self.run_cli(f)
        with open(os.path.join(self.out, "rp_scan.csv"), newline="") as fh:
            rows = {float(row["lambda"]): row for row in csv.DictReader(fh)}
        with open(os.path.join(self.out, "rp_scan_witnesses.json")) as fh:
            witnesses = json.load(fh)["results"]["witnesses"]
        status = {w["record"]["params"]["lambda"]: w["verdict"]["status"] for w in witnesses}
        ops = [("exit_code", rc == 0, f"rc={rc}")]
        for lam in self.LAMBDAS:
            row = rows.get(lam, {})
            ok = (bool(row) and not row["error"] and row["min_eig"] != ""
                  and float(row["min_eig"]) < 0.0 and status.get(lam) == "CONFIRMED")
            ops.append((f"row_lambda{lam:g}", ok,
                        f"min_eig={row.get('min_eig')} error={row.get('error')!r} "
                        f"verdict={status.get(lam)}"))
        return {"ops": ops, "samples": sum(w["verdict"]["n_samples"] for w in witnesses)}


class Baumann(_CliWorkload):
    name = "baumann"
    command = "baumann"
    N_POINTS = 250_000
    N_STRATA = 8
    EPSILONS = (0.5, 0.05, 0.005)
    ops_per_round = 2 * len(EPSILONS) + 1
    sites = [
        (cli, "baumann_check", "wightman.baumann_check", None, None),
        (wightman, "wightman_n_regularized", "wightman.wightman_n_regularized",
         _pairing_tag, None),
        (wightman, "substream", "streams.substream", None, None),
    ]

    def config(self, seed: int) -> str:
        t = BAUMANN_TESTS
        vec = lambda v: ", ".join(map(str, v))  # noqa: E731
        return (f"[run]\nseed = {seed}\n\n"
                f"[baumann]\nepsilons = {vec(self.EPSILONS)}\nmass = 1.0\n"
                f"h1_center = {vec(t['h1'])}\nh2_center = {vec(t['h2'])}\n"
                f"f_center = {vec(t['f'])}\ng_center = {vec(t['g'])}\n"
                f"width = {t['width']}\nradius = {t['radius']}\n"
                f"n_samples = {self.N_POINTS}\nn_strata = {self.N_STRATA}\n")

    def round(self, r: int, f) -> dict:
        rc = self.run_cli(f)
        with open(os.path.join(self.out, "baumann.json")) as fh:
            res = json.load(fh)["results"]
        ops = []
        for kind in ("spacelike", "control"):
            pairs = res[kind] + [None] * (len(self.EPSILONS) - len(res[kind]))
            for eps, pair in zip(self.EPSILONS, pairs):
                ok = pair is not None and all(math.isfinite(pair[k]) for k in ("value", "stderr"))
                ops.append((f"{kind}_eps{eps:g}", ok, f"{pair}"))
        ops.append(("verdict", rc == 0 and res["verdict"] == "PASS"
                    and res["control_vanishes"] is False,
                    f"rc={rc} verdict={res['verdict']} control_vanishes={res['control_vanishes']}"))
        ctrl = res["control"][-1]
        per_pairing = (self.N_POINTS // self.N_STRATA**2) * self.N_STRATA**2
        return {"ops": ops, "samples": 2 * len(self.EPSILONS) * per_pairing,
                "control_rel_stderr": ctrl["stderr"] / abs(ctrl["value"])}


WORKLOADS = {w.name: w for w in (Ensemble4pt, RpScan, Baumann)}


# ---------------------------------------------------------------------------
# Probes: per-call costs on the standard model (16^3, alpha = 1/2, Poisson
# lambda = 2), timed only for the layers a workload's own path does not reach,
# so every per-call metric is a measured, nonzero time on every workload.


def _median_time(fn, reps: int = 5, per: int = 1) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / per)
    return float(np.median(times))


def _probe_schwinger_miss() -> float:
    green_real_fft(ALPHA_HALF, SPEC)
    times = []
    for k in range(2, 7):  # distinct shapes, so each call is a cache miss
        pts = [(0, 0, 0), (k, 0, 0), (0, k, 0), (0, 0, k)]
        lam = POISSON.lam + 1e-3 * k
        chi = LevyCharacteristic(lam=lam, jump_law=POISSON.jump_law)
        t0 = perf_counter()
        analytic_truncated_schwinger(ALPHA_HALF, chi, SPEC, pts)
        times.append(perf_counter() - t0)
    return float(np.median(times))


def _probe_gram() -> float:
    basis = MonomialBasis.degree_one(SPEC, BASIS_POINTS)
    times = []
    for k in range(3):  # a new lambda per build keeps the Schwinger cache cold
        chi = LevyCharacteristic(lam=POISSON.lam + 1e-3 * (k + 1), jump_law=POISSON.jump_law)
        t0 = perf_counter()
        build_reflection_gram(ALPHA_HALF, chi, basis)
        times.append(perf_counter() - t0)
    return float(np.median(times))


def _probe_verify() -> float:
    basis = MonomialBasis.degree_one(SPEC, [(1, 1, 0), (1, 2, 0), (2, 0, 0),
                                            (2, 1, 0), (2, 2, 0), (2, 3, 0)])
    record = witness_record(gram_report(ModelParams(0.75, 1.0, "discrete"), GAUSSIAN, basis))
    return _median_time(lambda: verify_witness(record, 5, n_samples=100), reps=3, per=100)


def _baumann_args(n_samples: int, n_strata: int):
    t = BAUMANN_TESTS
    tests = (make_test(t["f"], t["width"], t["radius"]),
             make_spacelike_test(t["h1"], t["width"], t["radius"]),
             make_spacelike_test(t["h2"], t["width"], t["radius"]),
             make_test(t["g"], t["width"], t["radius"]))
    return (tests, MassAssignment.fixed([1.0] * 4),
            ShellRegularization(Baumann.EPSILONS[-1]),
            IntegratorSpec(n_samples=n_samples, n_strata=n_strata, seed=1))


def stratum_ms() -> float:
    """One public wightman_n_regularized call over one stratum of baumann's size."""
    args = _baumann_args(Baumann.N_POINTS // Baumann.N_STRATA**2, 1)
    return 1e3 * _median_time(lambda: wightman_n_regularized(*args))


def _probe_solve() -> float:
    eta = sample_noise(POISSON, SPEC, substream(1, 0))
    return _median_time(lambda: solve_spde(ALPHA_HALF, eta))


def _probe_subset_sums() -> float:
    fields = sample_ensemble(ALPHA_HALF, POISSON, SPEC, 10, 1).fields
    return _median_time(lambda: accumulate_subset_sums(fields, SPEC, FOUR_POINT_CONFIGS[2]),
                        per=len(fields))


def _probe_jackknife() -> float:
    sums = np.random.default_rng(0).random((20, 15, SPEC.n_sites))
    return _median_time(lambda: cumulant_from_subset_sums(sums, [25] * 20, 4))


def _probe_eigh() -> float:
    m = np.random.default_rng(0).random((28, 28))
    return _median_time(lambda: min_eigenvalue(m + m.T))


PROBES = {
    "streams.substream": lambda: _median_time(lambda: substream(1, 2), reps=21),
    "noise.sample_noise": lambda: _median_time(
        lambda: sample_noise(POISSON, SPEC, np.random.default_rng(1))),
    "greens.green_real_fft": lambda: _median_time(lambda: green_real_fft(ALPHA_HALF, SPEC)),
    "sampler.solve_spde": _probe_solve,
    "sampler.sample_point_values": lambda: _median_time(
        lambda: sample_point_values(ALPHA_HALF, POISSON, SPEC, BASIS_POINTS, 20, 1), per=20),
    "cumulants.accumulate_subset_sums": _probe_subset_sums,
    "cumulants.cumulant_from_subset_sums": _probe_jackknife,
    "cumulants.analytic_truncated_schwinger": _probe_schwinger_miss,
    "rp.build_reflection_gram": _probe_gram,
    "rp.min_eigenvalue": _probe_eigh,
    "rp.verify_witness": _probe_verify,
    "wightman.wightman_n_regularized": lambda: _median_time(
        lambda: wightman_n_regularized(*_baumann_args(64 * 50, 8)), reps=3, per=64 * 50),
}
