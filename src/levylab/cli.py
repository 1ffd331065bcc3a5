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
from pathlib import Path

import numpy as np

from .cumulants import (MAX_ANALYTIC_ORDER, analytic_truncated_schwinger,
                        joint_cumulant_jackknife)
from .errors import (ConfigurationError, ContractViolation, LevyLabError,
                     NumericalError, RangeError, SingularityError)
from .greens import (ANALYTIC, PAPER, ModelParams, SpectralDensity,
                     green_momentum_sq, kl_momentum)
from .noise import (JumpLaw, LatticeField, LatticeSpec, LevyCharacteristic,
                    _check_points, characteristic_functional, check_site_mean,
                    sample_noise)
from .rp import MonomialBasis, gram_report, rp_scan, verify_witness, witness_record
from .sampler import sample_ensemble, sample_point_values, write_ensemble
from .streams import substream, substream_seed
from .wightman import (IntegratorSpec, MassAssignment, ShellRegularization,
                       baumann_check, make_spacelike_test, make_test)

# ---------------------------------------------------------------------------
# Config schema: (section, key) -> (type tag, required)

_SCHEMA = {
    ("model", "alpha"): "float",
    ("model", "m0"): "float",
    ("model", "symbol"): "str",
    ("noise", "b"): "float",
    ("noise", "sigma2"): "float",
    ("noise", "lambda"): "float",
    ("noise", "jump_kind"): "str",
    ("noise", "jump_params"): "floats",
    ("lattice", "d"): "int",
    ("lattice", "L"): "int",
    ("lattice", "a"): "float",
    ("run", "seed"): "int",
    ("run", "n_samples"): "int",
    ("run", "workers"): "int",
    ("points", "*"): "points",
    ("basis", "points"): "points",
    ("basis", "degree"): "int",
    ("basis", "centered"): "bool",
    ("basis", "time_axis"): "int",
    ("scan", "alphas"): "floats",
    ("scan", "lambdas"): "floats",
    ("baumann", "epsilons"): "floats",
    ("baumann", "mass"): "float",
    ("baumann", "h1_center"): "floats",
    ("baumann", "h2_center"): "floats",
    ("baumann", "f_center"): "floats",
    ("baumann", "g_center"): "floats",
    ("baumann", "width"): "float",
    ("baumann", "radius"): "float",
    ("baumann", "n_samples"): "int",
    ("baumann", "n_strata"): "int",
    ("noise_check", "amplitudes"): "floats",
    ("noise_check", "n_draws"): "int",
    ("spectral", "q2_grid"): "floats",
    ("spectral", "alphas"): "floats",
}

_SECTIONS = {sec for sec, _ in _SCHEMA}


def _parse_value(tag: str, raw: str):
    if tag == "float":
        return float(raw)
    if tag == "int":
        return int(raw)
    if tag == "bool":
        low = raw.strip().lower()
        if low not in ("true", "false"):
            raise ValueError(f"expected true/false, got {raw!r}")
        return low == "true"
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
            tag = _SCHEMA.get((sec, key)) or _SCHEMA.get((sec, "*"))
            if tag is None:
                problems.append(f"{sec}.{key}: unknown key")
                continue
            try:
                out[sec][key] = _parse_value(tag, raw)
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


# keys a section must have whenever a command reads it
_REQUIRED = {"model": ("alpha", "m0"), "lattice": ("d", "L", "a"), "run": ("n_samples",),
             "basis": ("points",), "scan": ("alphas", "lambdas"),
             "baumann": ("epsilons", "mass", "h1_center", "h2_center", "f_center",
                         "g_center", "n_samples")}
_BUILDERS = {"model": build_model, "noise": build_chi, "lattice": build_lattice}
_OPTIONAL = {"spectral"}  # may be missing; its lists are still checked when given


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
        found = [f"{section}.{key}: missing"
                 for key in _REQUIRED.get(section, ()) if key not in cfg[section]]
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
    data = json.dumps(report, sort_keys=True, indent=2, default=_jsonify)
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


def _cmd_noise_check(cfg, p, chi, spec, args):
    amplitudes = cfg["noise_check"].get("amplitudes", (0.5, 1.0, 8.0))
    n_draws = cfg["noise_check"].get("n_draws", cfg["run"]["n_samples"])
    if n_draws < 2:  # a standard error needs two draws
        raise ConfigurationError(f"noise_check.n_draws: must be >= 2, got {n_draws}")
    axis = np.arange(spec.L)
    profile = np.cos(2.0 * np.pi * axis / spec.L) + 0.5
    base = profile.reshape((spec.L,) + (1,) * (spec.d - 1)) * np.ones(spec.shape)
    rows = []
    ok = True
    for j, amp in enumerate(amplitudes):
        f = LatticeField(spec, amp * base)
        exact = characteristic_functional(chi, f)
        rng = substream(args.seed, j)
        z = np.empty(n_draws, dtype=complex)
        fv = f.values
        for i in range(n_draws):
            eta = sample_noise(chi, spec, rng)
            z[i] = np.exp(1j * spec.cell_volume * np.sum(fv * eta.values))
        emp = z.mean()
        se_re = float(z.real.std(ddof=1) / np.sqrt(n_draws))
        se_im = float(z.imag.std(ddof=1) / np.sqrt(n_draws))
        within = (abs(emp.real - exact.real) <= 3.0 * max(se_re, 1e-15)
                  and abs(emp.imag - exact.imag) <= 3.0 * max(se_im, 1e-15))
        ok = ok and within
        rows.append({
            "amplitude": float(amp),
            "exact": [exact.real, exact.imag],
            "empirical": [float(emp.real), float(emp.imag)],
            "stderr": [se_re, se_im],
            "n_draws": int(n_draws),
            "within_3_stderr": within,
        })
    return {"tests": rows, "all_within": ok}, 0 if ok else 3


def _cmd_sample(cfg, p, chi, spec, args):
    e = sample_ensemble(p, chi, spec, cfg["run"]["n_samples"],
                        args.seed, workers=args.workers)
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
    sets = _point_sets(cfg, spec)
    needed = sorted({pt for _, pts in sets for pt in pts})
    index_of = {pt: i for i, pt in enumerate(needed)}
    values = sample_point_values(p, chi, spec, needed, cfg["run"]["n_samples"],
                                 args.seed, workers=args.workers)
    rows = []
    for name, pts in sets:
        cols = values[:, [index_of[pt] for pt in pts]]
        est, stderr = joint_cumulant_jackknife(cols)
        rows.append({
            "name": name,
            "points": [list(pt) for pt in pts],
            "order": len(pts),
            "analytic": analytic_truncated_schwinger(p, chi, spec, pts),
            "empirical": est,
            "stderr": stderr,
            "n_samples": int(values.shape[0]),
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
        return build(spec, b["points"], b.get("time_axis", 0))


def _cmd_rp_check(cfg, p, chi, spec, args):
    rep = gram_report(p, chi, _build_basis(cfg, spec),
                      centered=cfg["basis"].get("centered", True))
    return {
        "min_eig": rep.min_eig,
        "gram_norm": float(np.linalg.norm(rep.matrix, 2)),
        "matrix": rep.matrix,
        "witness": witness_record(rep) if rep.min_eig < 0.0 else None,
    }, 0


def _cmd_rp_scan(cfg, p, chi, spec, args):
    scan = cfg["scan"]
    basis = _build_basis(cfg, spec)
    # reject a bad grid value here; rp_scan records failures inside the scan
    with _named("scan.alphas"):
        for alpha in scan["alphas"]:
            replace(p, alpha=alpha)
    with _named("scan.lambdas"):
        for lam in scan["lambdas"]:
            check_site_mean(replace(chi, lam=lam), spec)
    rows = rp_scan(scan["alphas"], scan["lambdas"], p.m0, chi, basis,
                   symbol=p.symbol, centered=cfg["basis"].get("centered", True))
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
                                     n_samples=cfg["run"]["n_samples"],
                                     workers=args.workers)
            record["verification"] = verdict["status"]
            witnesses.append({"record": record, "verdict": verdict})
    _atomic_write(os.path.join(args.out, "rp_scan.csv"),
                  lambda tmp: Path(tmp).write_bytes(buf.getvalue().encode()))
    return {"witnesses": witnesses}, 0


def _cmd_baumann(cfg, p, chi, spec, args):
    b = cfg["baumann"]
    width = b.get("width", 0.4)
    radius = b.get("radius", 0.8)
    with _named("[baumann]"):
        h1 = make_spacelike_test(b["h1_center"], width, radius)
        h2 = make_spacelike_test(b["h2_center"], width, radius)
        f = make_test(b["f_center"], width, radius)
        g = make_test(b["g_center"], width, radius)
        masses = MassAssignment.fixed([b["mass"]] * 4)
        for eps in b["epsilons"]:  # every shell scale, before any pairing runs
            ShellRegularization(eps)
    with _named("baumann", sep="."):  # the message starts with n_samples or n_strata
        ispec = IntegratorSpec(n_samples=b["n_samples"],
                               n_strata=b.get("n_strata", 8), seed=args.seed)
    report = baumann_check(masses, h1, h2, f, g, b["epsilons"], ispec)
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
        alpha = model.alpha
        sd = SpectralDensity(alpha, p.m0, ANALYTIC)
        sd_paper = SpectralDensity(alpha, p.m0, PAPER)
        for q2 in q2_grid:
            exact = green_momentum_sq(model, q2)
            val = kl_momentum(sd, q2)
            rel = abs(val - exact) / abs(exact)
            worst = max(worst, rel)
            rows.append({
                "alpha": float(alpha), "q2": float(q2),
                "closed_form": exact, "quadrature": val, "rel_error": rel,
                "paper_normalization_ratio": kl_momentum(sd_paper, q2) / val,
            })
    return {"identity": rows, "worst_rel_error": worst}, 0


def _cmd_verify_witness(cfg, p, chi, spec, args):
    if not args.witness:
        raise ConfigurationError("verify-witness requires --witness PATH")
    with open(args.witness) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"witness: invalid JSON ({exc})") from exc
    verdict = verify_witness(record, args.seed, n_samples=cfg["run"]["n_samples"],
                             workers=args.workers)
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
        os.makedirs(args.out, exist_ok=True)
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        run = cfg.get("run", {})
        args.seed = args.seed if args.seed is not None else run.get("seed", 0)
        if args.seed < 0:
            raise ConfigurationError("run.seed: must be >= 0")
        args.workers = args.workers if args.workers is not None else run.get("workers", 1)
        runner, sections, report = _COMMANDS[args.command]
        results, code = runner(cfg, *_validate(cfg, sections), args)
        if report:
            _write_report(os.path.join(args.out, report), args.command, cfg,
                          args.seed, results)
        return code
    except (ConfigurationError, RangeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, SingularityError, ContractViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
