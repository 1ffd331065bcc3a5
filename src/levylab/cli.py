"""Command-line orchestration: config parsing, experiment drivers, reports.

One artifact format per artifact class: INI for configs, JSON for reports,
CSV for scan tables, the LFLB binary for ensembles.  Every report embeds the
parsed config as a JSON snapshot (minus the worker count, which never affects
results) and the effective seed, so artifacts are self-describing and
byte-identical across reruns and worker counts.

Every command runs one pipeline: parse the config, check it and build the
model, noise and lattice once (_validate), run the command's runner, write
its JSON report.  A bad input exits 1 naming its section or field.  Exit
codes: 0 success, 1 invalid config/usage, 2 numerical failure, 3 physics
check failed or inconclusive.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .cumulants import (MAX_ANALYTIC_ORDER, analytic_truncated_schwinger,
                        cumulant_from_subset_sums, sample_subset_sums)
from .errors import (ConfigurationError, ContractViolation, LevyLabError,
                     NumericalError, RangeError, SingularityError)
from .greens import ModelParams, green_momentum_sq, kl_momentum
from .noise import (JumpLaw, LatticeField, LatticeSpec, LevyCharacteristic,
                    _check_points, characteristic_functional, check_site_mean)
from .rp import MonomialBasis, gram_report, rp_scan, verify_witness, witness_record
from .sampler import _sample_blocks, sample_ensemble, write_ensemble
from .streams import substream_seed
from .wightman import (IntegratorSpec, MassAssignment, ShellRegularization,
                       baumann_check, make_test)

# ---------------------------------------------------------------------------
# Config schema: (section, key) -> (type tag, required).  A required key must
# be present whenever a command reads its section.

_SCHEMA = {
    ("model", "alpha"): ("float", True),
    ("model", "m0"): ("float", True),
    ("model", "symbol"): ("str", False),
    ("noise", "b"): ("float", False),
    ("noise", "sigma2"): ("float", False),
    ("noise", "lambda"): ("float", False),
    ("noise", "jump_kind"): ("str", False),
    ("noise", "jump_params"): ("floats", False),
    ("lattice", "d"): ("int", True),
    ("lattice", "L"): ("int", True),
    ("lattice", "a"): ("float", True),
    ("run", "seed"): ("int", False),
    ("run", "n_samples"): ("int", True),
    ("run", "workers"): ("int", False),
    ("points", "*"): ("points", False),
    ("basis", "points"): ("points", True),
    ("basis", "degree"): ("int", False),
    ("scan", "alphas"): ("floats", True),
    ("scan", "lambdas"): ("floats", True),
    ("baumann", "epsilons"): ("floats", True),
    ("baumann", "mass"): ("float", True),
    ("baumann", "h1_center"): ("floats", True),
    ("baumann", "h2_center"): ("floats", True),
    ("baumann", "f_center"): ("floats", True),
    ("baumann", "g_center"): ("floats", True),
    ("baumann", "width"): ("float", False),
    ("baumann", "radius"): ("float", False),
    ("baumann", "n_samples"): ("int", True),
    ("baumann", "n_strata"): ("int", False),
    ("noise_check", "amplitudes"): ("floats", False),
    ("spectral", "q2_grid"): ("floats", False),
    ("spectral", "alphas"): ("floats", False),
}

_SECTIONS = {sec for sec, _ in _SCHEMA}


def _parse_value(tag: str, raw: str):
    if tag == "float":
        return float(raw)
    if tag == "int":
        return int(raw)
    if tag == "str":
        return raw.strip()
    if tag == "floats":
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if tag == "points":
        pts = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if chunk:
                pts.append(tuple(int(tok) for tok in chunk.split(",")))
        return tuple(pts)
    raise ValueError(f"unknown schema tag {tag}")


def parse_config(text: str) -> dict:
    """Parse an INI config into {section: {key: typed value}}.

    Unknown sections/keys and malformed values are collected into a single
    field-by-field ConfigurationError.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep key case (e.g. lattice L)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax: {exc}") from exc
    out: dict = {}
    problems = []
    for sec in cp.sections():
        if sec not in _SECTIONS:
            problems.append(f"[{sec}]: unknown section")
            continue
        out[sec] = {}
        for key, raw in cp.items(sec):
            entry = _SCHEMA.get((sec, key)) or _SCHEMA.get((sec, "*"))
            if entry is None:
                problems.append(f"{sec}.{key}: unknown key")
                continue
            try:
                out[sec][key] = _parse_value(entry[0], raw)
            except ValueError as exc:
                problems.append(f"{sec}.{key}: {exc}")
    if problems:
        raise ConfigurationError("invalid config:\n  " + "\n  ".join(problems))
    return out


def build_model(cfg: dict) -> ModelParams:
    m = cfg["model"]
    return ModelParams(m["alpha"], m["m0"], m.get("symbol", "continuum"))


def build_chi(cfg: dict) -> LevyCharacteristic:
    n = cfg["noise"]
    law = None
    if n.get("jump_kind"):
        law = JumpLaw(n["jump_kind"], tuple(n.get("jump_params", ())))
    return LevyCharacteristic(b=n.get("b", 0.0), sigma2=n.get("sigma2", 0.0),
                              lam=n.get("lambda", 0.0), jump_law=law)


def build_lattice(cfg: dict) -> LatticeSpec:
    lat = cfg["lattice"]
    return LatticeSpec(lat["d"], lat["L"], lat["a"])


_BUILDERS = {"model": build_model, "noise": build_chi, "lattice": build_lattice}
_OPTIONAL = {"noise_check", "spectral"}  # may be missing; checked when given


def _validate(cfg: dict, sections) -> tuple:
    """Check each section the command reads for missing keys and empty lists,
    then build the model, noise and lattice once and check the per-site jump
    mean against noise.MAX_SITE_MEAN.  Returns (ModelParams,
    LevyCharacteristic, LatticeSpec), None for a section not read."""
    problems: list = []
    built = {}
    for section in sections:
        if section not in cfg:
            if section not in _OPTIONAL:
                problems.append(f"[{section}]: missing section")
            continue
        found = [f"{section}.{key}: missing" for (sec, key), (_, required) in _SCHEMA.items()
                 if sec == section and required and key not in cfg[section]]
        found += [f"{section}.{key}: empty" for key, v in cfg[section].items() if v == ()]
        problems += found
        if section in _BUILDERS and not found:
            try:
                built[section] = _BUILDERS[section](cfg)
            except LevyLabError as exc:
                problems.append(f"[{section}]: {exc}")
    if "noise" in built and "lattice" in built:
        try:
            check_site_mean(built["noise"], built["lattice"])
        except ConfigurationError as exc:
            problems.append(f"noise.{exc}")
    if problems:
        raise ConfigurationError("invalid config:\n  " + "\n  ".join(problems))
    return built.get("model"), built.get("noise"), built.get("lattice")


def _read_text(path, field: str) -> str:
    """The UTF-8 text of an input file; a file that is missing, a directory,
    unreadable or not UTF-8 raises ConfigurationError naming the field."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"{field}: {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{field}: {path}: not UTF-8 text (byte {exc.start})") from exc


@contextmanager
def _named(field: str, sep: str = ": "):
    """Re-raise a rejected input value as a ConfigurationError naming its field
    (sep "." when the message starts with the key)."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{field}{sep}{exc}") from exc


# ---------------------------------------------------------------------------
# Artifacts


def _atomic_write(path: str, write) -> None:
    """Write an artifact via write(tmp_path), then rename it into place."""
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def _config_snapshot(cfg: dict) -> dict:
    snap = {sec: dict(body) for sec, body in cfg.items()}
    # the worker count never affects any result; keep artifacts byte-identical
    if "run" in snap:
        snap["run"].pop("workers", None)
    return snap


def _write_report(path: str, command: str, cfg: dict, seed: int, results) -> None:
    report = {
        "command": command,
        "seed": seed,
        "config": _config_snapshot(cfg),
        "results": results,
    }
    try:  # strict JSON: NaN and Infinity are not JSON tokens
        data = json.dumps(report, sort_keys=True, indent=2, default=_jsonify, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{os.path.basename(path)}: a result is not finite ({exc})") from exc
    _atomic_write(path, lambda tmp: Path(tmp).write_bytes((data + "\n").encode()))


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# Commands: each runner checks its own sections before it computes, and
# returns (results for the JSON report, exit code)


def _n_samples(cfg, least: int) -> int:
    """run.n_samples, rejected below least (2 where a standard error is reported)."""
    n = cfg["run"]["n_samples"]
    if n < least:
        raise ConfigurationError(f"run.n_samples: must be >= {least}, got {n}")
    return n


def _phases(base, amplitudes, eta) -> np.ndarray:
    """cos and sin of amp * a^d * sum_x base_x eta_x for each amplitude, shape
    (n_amplitudes, 2): one noise draw serves every amplitude."""
    arg = amplitudes * (eta.spec.cell_volume * np.sum(base * eta.values))
    return np.stack([np.cos(arg), np.sin(arg)], axis=1)


def _cmd_noise_check(cfg, p, chi, spec, args):
    n_samples = _n_samples(cfg, 2)
    amplitudes = np.array(cfg.get("noise_check", {}).get("amplitudes", (0.5, 1.0, 8.0)))
    axis = np.arange(spec.L)
    profile = np.cos(2.0 * np.pi * axis / spec.L) + 0.5
    base = profile.reshape((spec.L,) + (1,) * (spec.d - 1)) * np.ones(spec.shape)
    with _named("noise_check.amplitudes"):  # every amplitude, before any draw
        exact = [characteristic_functional(chi, LatticeField(spec, amp * base))
                 for amp in amplitudes]
    phases, counts = _sample_blocks(chi, spec, n_samples, args.seed,
                                    partial(_phases, base, amplitudes), (len(amplitudes), 2),
                                    workers=args.workers)
    rows = []
    for j, amp in enumerate(amplitudes):
        # the first cumulant is the mean; its jackknife stderr is std / sqrt(n)
        re, im = (cumulant_from_subset_sums(phases[:, j, c, None, None], counts, 1)
                  for c in (0, 1))
        rows.append({
            "amplitude": float(amp),
            "exact": [exact[j].real, exact[j].imag],
            "empirical": [re.value, im.value],
            "stderr": [re.stderr, im.stderr],
            "n_draws": n_samples,
            "within_3_stderr": (abs(re.value - exact[j].real) <= 3.0 * max(re.stderr, 1e-15)
                                and abs(im.value - exact[j].imag) <= 3.0 * max(im.stderr, 1e-15)),
        })
    ok = all(row["within_3_stderr"] for row in rows)
    return {"tests": rows, "all_within": ok}, 0 if ok else 3


def _cmd_sample(cfg, p, chi, spec, args):
    e = sample_ensemble(p, chi, spec, _n_samples(cfg, 1), args.seed, workers=args.workers)
    _atomic_write(os.path.join(args.out, "ensemble.lflb"),
                  lambda tmp: write_ensemble(tmp, e))
    return None, 0


def _point_sets(cfg, spec):
    """Sorted (name, points) pairs, each on the lattice with <= MAX_ANALYTIC_ORDER points."""
    sets = cfg["points"]
    if not sets:
        raise ConfigurationError("invalid config:\n  [points]: missing section")
    for name, pts in sets.items():
        with _named(f"points.{name}"):
            _check_points(spec, pts)
            if len(pts) > MAX_ANALYTIC_ORDER:
                raise ConfigurationError(
                    f"order {len(pts)} outside [1, {MAX_ANALYTIC_ORDER}]")
    return [(name, sets[name]) for name in sorted(sets)]


def _cmd_cumulants(cfg, p, chi, spec, args):
    n_samples = _n_samples(cfg, 2)
    sets = _point_sets(cfg, spec)
    sums, counts = sample_subset_sums(p, chi, spec, [pts for _, pts in sets], n_samples,
                                      args.seed, workers=args.workers)
    rows = []
    for (name, pts), s in zip(sets, sums):
        est = cumulant_from_subset_sums(s, counts, len(pts))
        analytic = analytic_truncated_schwinger(p, chi, spec, pts)
        rows.append({
            "name": name,
            "points": [list(pt) for pt in pts],
            "order": len(pts),
            "analytic": analytic,
            "empirical": est.value,
            "stderr": est.stderr,
            "z": (est.value - analytic) / est.stderr if est.stderr > 0.0 else None,
            "n_samples": est.n_samples,
        })
    return {"cumulants": rows}, 0


def _cmd_schwinger(cfg, p, chi, spec, args):
    rows = [{
        "name": name,
        "points": [list(pt) for pt in pts],
        "order": len(pts),
        "value": analytic_truncated_schwinger(p, chi, spec, pts),
    } for name, pts in _point_sets(cfg, spec)]
    return {"schwinger": rows}, 0


def _build_basis(cfg, spec):
    b = cfg["basis"]
    degree = b.get("degree", 1)
    if degree not in (1, 2):
        raise ConfigurationError(f"basis.degree: must be 1 or 2, got {degree}")
    build = MonomialBasis.up_to_degree_two if degree == 2 else MonomialBasis.degree_one
    with _named("[basis]"):
        return build(spec, b["points"])


def _cmd_rp_check(cfg, p, chi, spec, args):
    rep = gram_report(p, chi, _build_basis(cfg, spec))
    return {
        "min_eig": rep.min_eig,
        "gram_norm": float(np.linalg.norm(rep.matrix, 2)),
        "matrix": rep.matrix,
        "witness": witness_record(rep) if rep.min_eig < 0.0 else None,
    }, 0


def _cmd_rp_scan(cfg, p, chi, spec, args):
    n_samples = _n_samples(cfg, 2)
    scan = cfg["scan"]
    basis = _build_basis(cfg, spec)
    # reject a bad grid value here; rp_scan records failures inside the scan
    with _named("scan.alphas"):
        for alpha in scan["alphas"]:
            replace(p, alpha=alpha)
    with _named("scan.lambdas"):
        for lam in scan["lambdas"]:
            check_site_mean(replace(chi, lam=lam), spec)
    rows = rp_scan(scan["alphas"], scan["lambdas"], p, chi, basis)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "lambda", "min_eig", "error"])
    witnesses = []
    for i, row in enumerate(rows):
        if "error" in row:
            writer.writerow([repr(row["alpha"]), repr(row["lambda"]), "", row["error"]])
            continue
        writer.writerow([repr(row["alpha"]), repr(row["lambda"]),
                         repr(row["min_eig"]), ""])
        if row["min_eig"] < 0.0:
            record = witness_record(row["report"])
            verdict = verify_witness(record, substream_seed(args.seed, i),
                                     n_samples=n_samples, workers=args.workers)
            record["verification"] = verdict["status"]
            witnesses.append({"record": record, "verdict": verdict})
    _atomic_write(os.path.join(args.out, "rp_scan.csv"),
                  lambda tmp: Path(tmp).write_bytes(buf.getvalue().encode()))
    return {"witnesses": witnesses}, 0


def _cmd_baumann(cfg, p, chi, spec, args):
    b = cfg["baumann"]
    width = b.get("width", 0.4)
    radius = b.get("radius", 0.8)
    tests = []  # baumann_check's order
    with _named("baumann", sep="."):  # every message starts with its key
        for key in ("h1", "h2", "f", "g"):
            try:
                tests.append(make_test(b[f"{key}_center"], width, radius))
            except ConfigurationError as exc:
                if str(exc).startswith("center"):  # name it by its key, {key}_center
                    raise ConfigurationError(f"{key}_{exc}") from exc
                raise
        with _named("mass"):
            masses = MassAssignment.fixed([b["mass"]] * 4)
        with _named("epsilons"):  # every shell scale, before any pairing runs
            for eps in b["epsilons"]:
                ShellRegularization(eps)
        ispec = IntegratorSpec(n_samples=b["n_samples"],
                               n_strata=b.get("n_strata", 8), seed=args.seed)
        report = baumann_check(masses, *tests, b["epsilons"], ispec)
    return report.to_dict(), 0 if report.verdict == "PASS" else 3


def _cmd_spectral(cfg, p, chi, spec, args):
    sec = cfg.get("spectral", {})
    q2_grid = sec.get("q2_grid", (0.0, 1.0, 10.0))
    alphas = sec.get("alphas", (0.3, 0.5, 0.75))
    # every grid value, before any quadrature runs
    with _named("spectral.alphas"):
        models = [ModelParams(alpha, p.m0) for alpha in alphas]
    for q2 in q2_grid:
        if not 0.0 <= q2 < np.inf:  # NaN fails too
            raise ConfigurationError(f"spectral.q2_grid: must be finite and >= 0, got {q2}")
    rows = []
    worst = 0.0
    for model in models:
        for q2 in q2_grid:
            exact = green_momentum_sq(model, q2)
            val = kl_momentum(model, q2)
            rel = abs(val - exact) / abs(exact)
            worst = max(worst, rel)
            rows.append({
                "alpha": float(model.alpha), "q2": float(q2),
                "closed_form": exact, "quadrature": val, "rel_error": rel,
                # the paper's constant 2 sin(pi alpha) over sin(pi alpha)/pi
                "paper_normalization_ratio": 2.0 * np.pi,
            })
    return {"identity": rows, "worst_rel_error": worst}, 0


def _cmd_verify_witness(cfg, p, chi, spec, args):
    n_samples = _n_samples(cfg, 2)
    if not args.witness:
        raise ConfigurationError("verify-witness requires --witness PATH")
    try:
        record = json.loads(_read_text(args.witness, "witness"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"witness: invalid JSON ({exc})") from exc
    verdict = verify_witness(record, args.seed, n_samples=n_samples, workers=args.workers)
    return ({"witness": record, "verdict": verdict},
            0 if verdict["status"] == "CONFIRMED" else 3)


_MODEL = ("model", "noise", "lattice")
# command -> (runner, sections it reads, JSON report or None)
_COMMANDS = {
    "noise-check": (_cmd_noise_check, ("noise", "lattice", "run", "noise_check"),
                    "noise_check.json"),
    "sample": (_cmd_sample, _MODEL + ("run",), None),
    "cumulants": (_cmd_cumulants, _MODEL + ("run", "points"), "cumulants.json"),
    "schwinger": (_cmd_schwinger, _MODEL + ("points",), "schwinger.json"),
    "rp-check": (_cmd_rp_check, _MODEL + ("basis",), "rp_check.json"),
    "rp-scan": (_cmd_rp_scan, _MODEL + ("basis", "scan", "run"), "rp_scan_witnesses.json"),
    "baumann": (_cmd_baumann, ("baumann",), "baumann.json"),
    "spectral": (_cmd_spectral, ("model", "spectral"), "spectral.json"),
    "verify-witness": (_cmd_verify_witness, ("run",), "verify_witness.json"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Euclidean random fields from generalized Levy white noise")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the config worker count")
    parser.add_argument("--out", default=None,
                        help="output directory (default $LFL_OUT or cwd)")
    parser.add_argument("--witness", default=None,
                        help="witness archive entry (verify-witness only)")
    args = parser.parse_args(argv)

    args.out = args.out or os.environ.get("LFL_OUT") or os.getcwd()
    try:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"out: {args.out}: {exc.strerror or exc}") from exc
        cfg = parse_config(_read_text(args.config, "config"))
        run = cfg.get("run", {})
        args.seed = args.seed if args.seed is not None else run.get("seed", 0)
        if args.seed < 0:
            raise ConfigurationError("run.seed: must be >= 0")
        args.workers = args.workers if args.workers is not None else run.get("workers", 1)
        if args.workers < 1:
            raise ConfigurationError(f"run.workers: must be >= 1, got {args.workers}")
        runner, sections, report = _COMMANDS[args.command]
        try:
            results, code = runner(cfg, *_validate(cfg, sections), args)
        except ConfigurationError as exc:  # the samplers' n_samples is run.n_samples
            if str(exc).startswith("n_samples:"):
                raise ConfigurationError(f"run.{exc}") from exc
            raise
        if report:
            _write_report(os.path.join(args.out, report), args.command, cfg,
                          args.seed, results)
        return code
    except (ConfigurationError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, SingularityError, ContractViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
