"""levylab benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload {ensemble4pt,rpscan,baumann} \\
        --seed N --seconds S --trace {0,1}

The run imports levylab from ``src/`` of the working directory, repeats the
workload's rounds back to back for about ``--seconds`` seconds, checks every
output and prints a human-readable report followed, as the last line, by one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics, including the tracing overhead.

End-to-end metrics (untraced rounds):
  setup_s       median over fresh interpreters of process start to first
                operation (imports, config and input generation)
  wall_s        median round time; a round is one checked result
  samples_per_s median over rounds of Monte-Carlo samples per second: field
                samples (ensemble4pt, rpscan) or Wightman integrand points
                (baumann, where it is the mc_points_per_s of the report)
  peak_rss_mb   peak RSS of this process plus that of its largest child
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process: ensemble4pt runs 2 sampler workers on a
# 2-core box, so processes x threads stays within nproc.
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3
LAYERS = ("streams", "noise", "greens", "sampler", "cumulants", "rp", "wightman", "cli")

# Per-call metrics: (name, unit, span, scale, tag key dividing the duration,
# required parent span, tag filter).  The median over the workload's traced
# calls is reported; a workload that makes no such call reports the median of
# a few probe calls on the standard model instead.
PER_CALL = [
    ("streams.substream_us", "us", "streams.substream", 1e6, None, None, None),
    ("noise.sample_noise_us", "us", "noise.sample_noise", 1e6, None, None, None),
    ("greens.green_grid_ms", "ms", "greens.green_real_fft", 1e3, None, None, None),
    ("sampler.solve_spde_us", "us", "sampler.solve_spde", 1e6, None, None, None),
    ("sampler.point_values_us_per_sample", "us", "sampler.sample_point_values", 1e6, "n",
     None, None),
    ("cumulants.subset_sums_us", "us", "cumulants.accumulate_subset_sums", 1e6, "n",
     None, None),
    ("cumulants.jackknife_ms", "ms", "cumulants.cumulant_from_subset_sums", 1e3, None,
     None, None),
    ("cumulants.schwinger_miss_us", "us", "cumulants.analytic_truncated_schwinger", 1e6,
     None, None, lambda misses: misses > 0),
    ("rp.gram_build_ms", "ms", "rp.build_reflection_gram", 1e3, None, "rp.gram_report",
     None),
    ("rp.eigh_us", "us", "rp.min_eigenvalue", 1e6, None, None, None),
    ("rp.verify_us_per_sample", "us", "rp.verify_witness", 1e6, "n", None, None),
    ("wightman.pairing_us_per_point", "us", "wightman.wightman_n_regularized", 1e6, "n",
     None, None),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, default=None,
                    help=argparse.SUPPRESS)  # monotonic time the parent spawned us
    return ap.parse_args(argv)


def _output(argv, cwd=None):
    """Stripped standard output of a short command, or None if it cannot run."""
    try:
        res = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None if res.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    has_git = os.path.isdir(os.path.join(ROOT, ".git"))
    return {
        "nproc": os.cpu_count(),
        # glibc answers from cpuid, so nothing outside the checkout is read
        "llc_bytes": _output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_pins": THREAD_PINS,
        "git_commit": _output(["git", "rev-parse", "HEAD"], ROOT) if has_git else None,
        "seed": seed,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    t0 = time.monotonic()
    res = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                          "--seed", str(seed), "--seconds", "0", "--setup-probe", repr(t0)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    return float(res.stdout.strip().splitlines()[-1])


def run_rounds(wl, args, tracer, workloads) -> list:
    """Rounds back to back until the next one would overrun ``--seconds``."""
    rounds = []
    t_start = time.perf_counter()
    min_rounds = 2 if tracer else 1  # a traced run needs an untraced and a traced round
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        rec = {"traced": traced}
        wl.reset()
        if traced:
            workloads.install(tracer, wl.sites)
            rec["counts_before"] = dict(tracer.counts)
            rec["cache_before"] = workloads.schwinger_cache_info()
        calls = wl.calls(tracer if traced else None)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.round") as idx:
                    rec.update(wl.round(r, calls))
                rec["root"] = idx
            else:
                rec.update(wl.round(r, calls))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rec["ops"] = [("round", False, "raised")] * wl.ops_per_round
            rec.setdefault("samples", 0)
        finally:
            rec["wall"] = time.perf_counter() - t0
            if traced:
                rec["counts_after"] = dict(tracer.counts)
                rec["cache_after"] = workloads.schwinger_cache_info()
                tracer.restore()
        rounds.append(rec)
        r += 1
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(x["wall"] for x in rounds)
        if r >= min_rounds and elapsed + typical > args.seconds:
            return rounds


def finish(wl, tracer, workloads) -> tuple[list, int | None]:
    root = None
    try:
        if tracer:
            workloads.install(tracer, wl.sites)
            with tracer.span("bench.final") as root:
                ops = wl.finish(wl.calls(tracer))
        else:
            ops = wl.finish(wl.calls(None))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ops = [("final", False, "raised")]
    finally:
        if tracer:
            tracer.restore()
    return ops, root


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(rounds, setup_s: float, rss: float) -> dict:
    plain = [x for x in rounds if not x["traced"]]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(x["wall"] for x in plain), "s"),
        "samples_per_s": (statistics.median(x["samples"] / x["wall"] for x in plain), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(wl, rounds, tracer, final_root, workloads) -> tuple[dict, dict, dict]:
    """Per-layer metrics, the self-time table and where each per-call value came from."""
    traced = [x for x in rounds if x["traced"]]
    plain = [x for x in rounds if not x["traced"]]
    roots = [x["root"] for x in traced if "root" in x]
    if final_root is not None:
        roots.append(final_root)
    spans = roots + tracer.children_of(roots)
    total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    self_s = tracer.self_times(spans)
    m, source = {}, {}
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (self_s.get(layer, 0.0) / total, "frac")

    for name, unit, span, scale, per, parent, where in PER_CALL:
        found = tracer.durations(span, spans, parent, where)
        if found:
            value = statistics.median(d / (tag[per] if per else 1) for d, tag in found)
            source[name] = f"trace, {len(found)} calls"
        else:
            value = workloads.PROBES[span]()
            source[name] = "probe"
        m[name] = (value * scale, unit)
    m["wightman.stratum_ms"] = (workloads.stratum_ms(), "ms")
    source["wightman.stratum_ms"] = "probe"

    # exact counts from the first traced round (fixed by the seed)
    first = traced[0]
    one = [first["root"]] + tracer.children_of([first["root"]]) if "root" in first else []

    def tags(span_name):
        return [tag for _, tag in tracer.durations(span_name, one)]

    def delta(key):
        return first["counts_after"].get(key, 0) - first["counts_before"].get(key, 0)

    ens = tags("sampler.sample_ensemble")
    n_solves = len(tags("sampler.solve_spde"))
    worker_solves = sum(t["n"] for t in ens)
    ffts, fft_bytes = delta("sampler.fft"), delta("sampler.fft_bytes")
    if n_solves:  # worker solves: computed from the FFTs of the in-process solves
        ffts += ffts * worker_solves // n_solves
        fft_bytes += fft_bytes * worker_solves // n_solves
    hits = first["cache_after"][0] - first["cache_before"][0]
    misses = first["cache_after"][1] - first["cache_before"][1]
    grams = [t["n"] for t in tags("rp.build_reflection_gram")]
    pairings = tags("wightman.wightman_n_regularized")
    m.update({
        "noise.jumps": (sum(t["jumps"] for t in tags("noise.sample_noise") + ens), "count"),
        "sampler.fft_count": (ffts, "count"),
        "sampler.fft_bytes": (fft_bytes, "B"),
        "sampler.bytes_returned": (sum(t["bytes"] for t in ens + tags(
            "sampler.sample_point_values")), "B"),
        "cumulants.subset_sums_bytes": (sum(
            t["bytes"] for t in tags("cumulants.accumulate_subset_sums")), "B"),
        "cumulants.schwinger_hits": (hits, "count"),
        "cumulants.schwinger_misses": (misses, "count"),
        "cumulants.schwinger_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                          "frac"),
        "rp.gram_entries": (sum(n * n for n in grams), "count"),
        "rp.gram_size": (max(grams, default=0), "count"),
        "wightman.integrand_evals": (sum(t["n"] for t in pairings), "count"),
        "wightman.zero_pairings": (sum(t["zero"] for t in pairings), "count"),
    })

    # ratios and diagnostics
    durations = {}
    for i in spans:
        name, t0, t1 = tracer.spans[i][:3]
        durations.setdefault(name, []).append(t1 - t0)

    def med(span_name):
        found = durations.get(span_name)
        return statistics.median(found) if found else None

    def med_round(key):
        found = [x[key] for x in rounds if key in x]
        return statistics.median(found) if found else 0.0

    replay, ens_span = med("bench.replay_sample"), med("sampler.sample_ensemble")
    write, read = med("sampler.write_ensemble"), med("sampler.read_ensemble")
    lflb = med_round("lflb_bytes")
    m.update({
        "sampler.pool_efficiency": (
            replay * wl.BLOCK / (ens_span * wl.WORKERS) if replay and ens_span else 0.0,
            "frac"),
        "sampler.lflb_write_MBps": (lflb / write / 1e6 if write else 0.0, "MB/s"),
        "sampler.lflb_read_MBps": (lflb / read / 1e6 if read else 0.0, "MB/s"),
        "cumulants.max_abs_z": (getattr(wl, "max_abs_z", 0.0), "z"),
        "wightman.control_rel_stderr": (med_round("control_rel_stderr"), "frac"),
        "trace.overhead_frac": (statistics.median(x["wall"] for x in traced)
                                / statistics.median(x["wall"] for x in plain) - 1.0, "frac"),
    })
    layers = {layer: (secs, secs / total) for layer, secs in sorted(self_s.items())}
    by_name = tracer.self_times(spans, key=lambda name: name)
    calls = {name: (len(durations[name]), med(name), secs) for name, secs in by_name.items()}
    return m, (layers, calls), source


def report(args, env, rounds, final_ops, metrics, extra, table=None, source=None) -> None:
    print(f"levylab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    walls = [f"{x['wall']:.3f}{'*' if x['traced'] else ''}" for x in rounds]
    print(f"rounds: {len(rounds)} (wall s; * = traced): {' '.join(walls)}")
    earlier = [op for x in rounds[:-1] for op in x["ops"] if not op[1]]
    for name, ok, detail in earlier + rounds[-1]["ops"] + final_ops:
        print(f"  op {name}: {'ok' if ok else 'FAILED'}  {detail}")
    print(f"{'metric':40s} {'value':>16s}  unit")
    for name, (value, unit) in {**metrics, **extra}.items():
        note = f"  [{source[name]}]" if source and name in source else ""
        print(f"{name:40s} {value:16.6g}  {unit}{note}")
    if table:
        layers, calls = table
        total = sum(s for s, _ in layers.values())
        print(f"{'layer':12s} {'self_s':>10s} {'self_frac':>10s}   (traced rounds and "
              f"final checks, {total:.3f} s)")
        for layer in LAYERS + ("bench",):
            secs, frac = layers.get(layer, (0.0, 0.0))
            print(f"{layer:12s} {secs:10.4f} {frac:10.4f}")
        traced = statistics.median(x["wall"] for x in rounds if x["traced"])
        plain = statistics.median(x["wall"] for x in rounds if not x["traced"])
        print(f"tracing overhead: traced median round {traced:.4f} s - untraced "
              f"{plain:.4f} s = {traced - plain:+.4f} s ({traced / plain - 1:+.1%})")
        print(f"{'span':44s} {'calls':>7s} {'median_us':>12s} {'self_s':>10s}")
        for name, (n, med, secs) in sorted(calls.items(), key=lambda kv: -kv[1][2]):
            print(f"{name:44s} {n:7d} {med * 1e6:12.1f} {secs:10.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levylab", "__init__.py")):
        print(f"error: no levylab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import levylab
    if not os.path.realpath(levylab.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: levylab was imported from {levylab.__file__}, not from src/",
              file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe is not None:
            print(time.monotonic() - args.setup_probe)
            return 0
        tracer = Tracer() if args.trace else None
        rounds = run_rounds(wl, args, tracer, workloads)
        final_ops, final_root = finish(wl, tracer, workloads)
        rss = peak_rss_mb()  # before the set-up probes, which are children too
        setup_s = statistics.median(setup_probe(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = [op for x in rounds for op in x["ops"]] + final_ops
    failed = sum(not ok for _, ok, _ in ops)
    e2e = end_to_end(rounds, setup_s, rss)
    extra = {"ops_failed_frac": (failed / len(ops), "frac")}
    rel = [x["control_rel_stderr"] for x in rounds
           if "control_rel_stderr" in x and not x["traced"]]
    if rel:  # baumann
        extra["mc_points_per_s"] = e2e["samples_per_s"]
        extra["s_to_1pct"] = (e2e["wall_s"][0] * (statistics.median(rel) / 0.01) ** 2, "s")
    env = environment(args.seed)
    if args.trace:
        metrics, table, source = per_layer(wl, rounds, tracer, final_root, workloads)
        report(args, env, rounds, final_ops, metrics, {**e2e, **extra}, table, source)
    else:
        metrics = e2e
        report(args, env, rounds, final_ops, metrics, extra)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
