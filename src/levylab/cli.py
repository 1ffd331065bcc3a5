"""Command-line orchestration: config parsing, experiment drivers, reports.

One artifact format per artifact class: INI for configs, JSON for reports,
CSV for scan tables, the LFLB binary for ensembles.  Every report embeds the
canonical config (minus the worker count, which never affects results) and
the effective seed, so artifacts are self-describing and byte-identical
across reruns and worker counts.

Exit codes: 0 success, 1 invalid config/usage, 2 numerical failure,
3 physics check failed or inconclusive.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from .cumulants import analytic_truncated_schwinger, joint_cumulant_jackknife
from .errors import (ConfigurationError, ContractViolation, LevyLabError,
                     NumericalError, RangeError, SingularityError)
from .greens import (ANALYTIC, PAPER, ModelParams, SpectralDensity,
                     green_momentum_sq, kl_momentum)
from .noise import (JumpLaw, LatticeField, LatticeSpec, LevyCharacteristic,
                    characteristic_functional, sample_noise)
from .rp import gram_report, rp_scan, verify_witness, witness_record
from .sampler import sample_ensemble, sample_point_values, write_ensemble
from .streams import substream, substream_seed
from .wightman import (IntegratorSpec, MassAssignment, baumann_check,
                       make_spacelike_test, make_test)

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

_SECTION_ORDER = []
for _sec, _ in _SCHEMA:
    if _sec not in _SECTION_ORDER:
        _SECTION_ORDER.append(_sec)


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


def _format_value(tag: str, value) -> str:
    if tag == "float":
        return repr(float(value))
    if tag == "int":
        return str(int(value))
    if tag == "bool":
        return "true" if value else "false"
    if tag == "str":
        return str(value)
    if tag == "floats":
        return ", ".join(repr(float(v)) for v in value)
    if tag == "points":
        return "; ".join(",".join(str(int(c)) for c in p) for p in value)
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
        if sec not in _SECTION_ORDER:
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


def serialize_config(cfg: dict) -> str:
    """Canonical INI serialization; parse(serialize(cfg)) == cfg."""
    lines = []
    for sec in _SECTION_ORDER:
        if sec not in cfg:
            continue
        lines.append(f"[{sec}]")
        for key in sorted(cfg[sec]):
            tag = _SCHEMA.get((sec, key)) or _SCHEMA[(sec, "*")]
            lines.append(f"{key} = {_format_value(tag, cfg[sec][key])}")
        lines.append("")
    return "\n".join(lines)


def _require(cfg, problems, section, keys):
    if section not in cfg:
        problems.append(f"[{section}]: missing section")
        return
    for key in keys:
        if key not in cfg[section]:
            problems.append(f"{section}.{key}: missing")


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


def _validate(cfg: dict, needs: dict) -> None:
    """Check required sections/keys, then touch every domain constructor the
    command will use so rejection happens before any computation."""
    problems: list = []
    for section, keys in needs.items():
        _require(cfg, problems, section, keys)
    if problems:
        raise ConfigurationError("invalid config:\n  " + "\n  ".join(problems))
    builders = {"model": build_model, "noise": build_chi, "lattice": build_lattice}
    for section in needs:
        if section in builders:
            try:
                builders[section](cfg)
            except LevyLabError as exc:
                problems.append(f"[{section}]: {exc}")
    if problems:
        raise ConfigurationError("invalid config:\n  " + "\n  ".join(problems))


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
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# Commands


def _cmd_noise_check(cfg, seed, workers, outdir):
    _validate(cfg, {"noise": (), "lattice": ("d", "L", "a"),
                    "run": ("n_samples",), "noise_check": ()})
    chi = build_chi(cfg)
    spec = build_lattice(cfg)
    amplitudes = cfg.get("noise_check", {}).get("amplitudes", (0.5, 1.0, 8.0))
    n_draws = cfg.get("noise_check", {}).get("n_draws", cfg["run"]["n_samples"])
    if not amplitudes:
        raise ConfigurationError("noise_check.amplitudes: empty")
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
        rng = substream(seed, j)
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
    _write_report(os.path.join(outdir, "noise_check.json"),
                  "noise-check", cfg, seed, {"tests": rows, "all_within": ok})
    return 0 if ok else 3


def _cmd_sample(cfg, seed, workers, outdir):
    _validate(cfg, {"model": ("alpha", "m0"), "noise": (),
                    "lattice": ("d", "L", "a"), "run": ("n_samples",)})
    e = sample_ensemble(build_model(cfg), build_chi(cfg), build_lattice(cfg),
                        cfg["run"]["n_samples"], seed, workers=workers)
    _atomic_write(os.path.join(outdir, "ensemble.lflb"),
                  lambda tmp: write_ensemble(tmp, e))
    return 0


def _point_sets(cfg):
    sets = cfg.get("points", {})
    if not sets:
        raise ConfigurationError("invalid config:\n  [points]: missing section")
    for name, pts in sets.items():
        if not pts:
            raise ConfigurationError(f"points.{name}: empty")
    return [(name, sets[name]) for name in sorted(sets)]


def _cmd_cumulants(cfg, seed, workers, outdir):
    _validate(cfg, {"model": ("alpha", "m0"), "noise": (),
                    "lattice": ("d", "L", "a"), "run": ("n_samples",),
                    "points": ()})
    p, chi, spec = build_model(cfg), build_chi(cfg), build_lattice(cfg)
    sets = _point_sets(cfg)
    needed = sorted({pt for _, pts in sets for pt in pts})
    index_of = {pt: i for i, pt in enumerate(needed)}
    values = sample_point_values(p, chi, spec, needed,
                                 cfg["run"]["n_samples"], seed, workers=workers)
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
    _write_report(os.path.join(outdir, "cumulants.json"),
                  "cumulants", cfg, seed, {"cumulants": rows})
    return 0


def _cmd_schwinger(cfg, seed, workers, outdir):
    _validate(cfg, {"model": ("alpha", "m0"), "noise": (),
                    "lattice": ("d", "L", "a"), "points": ()})
    p, chi, spec = build_model(cfg), build_chi(cfg), build_lattice(cfg)
    rows = [{
        "name": name,
        "points": [list(pt) for pt in pts],
        "order": len(pts),
        "value": analytic_truncated_schwinger(p, chi, spec, pts),
    } for name, pts in _point_sets(cfg)]
    _write_report(os.path.join(outdir, "schwinger.json"),
                  "schwinger", cfg, seed, {"schwinger": rows})
    return 0


def _build_basis(cfg, spec):
    from .rp import MonomialBasis
    b = cfg["basis"]
    pts = b["points"]
    axis = b.get("time_axis", 0)
    if b.get("degree", 1) >= 2:
        return MonomialBasis.up_to_degree_two(spec, pts, axis)
    return MonomialBasis.degree_one(spec, pts, axis)


def _cmd_rp_check(cfg, seed, workers, outdir):
    _validate(cfg, {"model": ("alpha", "m0"), "noise": (),
                    "lattice": ("d", "L", "a"), "basis": ("points",)})
    spec = build_lattice(cfg)
    centered = cfg["basis"].get("centered", True)
    rep = gram_report(build_model(cfg), build_chi(cfg),
                      _build_basis(cfg, spec), centered=centered)
    results = {
        "min_eig": rep.min_eig,
        "gram_norm": float(np.linalg.norm(rep.matrix, 2)),
        "matrix": rep.matrix,
        "witness": witness_record(rep) if rep.min_eig < 0.0 else None,
    }
    _write_report(os.path.join(outdir, "rp_check.json"),
                  "rp-check", cfg, seed, results)
    return 0


def _cmd_rp_scan(cfg, seed, workers, outdir):
    _validate(cfg, {"model": ("alpha", "m0"), "noise": (),
                    "lattice": ("d", "L", "a"), "basis": ("points",),
                    "scan": ("alphas", "lambdas"), "run": ("n_samples",)})
    spec = build_lattice(cfg)
    centered = cfg["basis"].get("centered", True)
    rows = rp_scan(cfg["scan"]["alphas"], cfg["scan"]["lambdas"],
                   cfg["model"]["m0"], build_chi(cfg), _build_basis(cfg, spec),
                   symbol=cfg["model"].get("symbol", "continuum"),
                   centered=centered)
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
            verdict = verify_witness(record, substream_seed(seed, i),
                                     n_samples=cfg["run"]["n_samples"],
                                     workers=workers)
            record["verification"] = verdict["status"]
            witnesses.append({"record": record, "verdict": verdict})
    _atomic_write(os.path.join(outdir, "rp_scan.csv"),
                  lambda tmp: Path(tmp).write_bytes(buf.getvalue().encode()))
    _write_report(os.path.join(outdir, "rp_scan_witnesses.json"),
                  "rp-scan", cfg, seed, {"witnesses": witnesses})
    return 0


def _cmd_baumann(cfg, seed, workers, outdir):
    _validate(cfg, {"baumann": ("epsilons", "mass", "h1_center", "h2_center",
                                "f_center", "g_center", "n_samples")})
    b = cfg["baumann"]
    width = b.get("width", 0.4)
    radius = b.get("radius", 0.8)
    h1 = make_spacelike_test(b["h1_center"], width, radius)
    h2 = make_spacelike_test(b["h2_center"], width, radius)
    f = make_test(b["f_center"], width, radius)
    g = make_test(b["g_center"], width, radius)
    masses = MassAssignment.fixed([b["mass"]] * 4)
    ispec = IntegratorSpec(n_samples=b["n_samples"],
                           n_strata=b.get("n_strata", 8), seed=seed)
    report = baumann_check(masses, h1, h2, f, g, b["epsilons"], ispec)
    _write_report(os.path.join(outdir, "baumann.json"),
                  "baumann", cfg, seed, report.to_dict())
    return 0 if report.verdict == "PASS" else 3


def _cmd_spectral(cfg, seed, workers, outdir):
    _validate(cfg, {"model": ("m0",)})
    m0 = cfg["model"]["m0"]
    sec = cfg.get("spectral", {})
    q2_grid = sec.get("q2_grid", (0.0, 1.0, 10.0))
    alphas = sec.get("alphas", (0.3, 0.5, 0.75))
    rows = []
    worst = 0.0
    for alpha in alphas:
        p = ModelParams(alpha, m0)
        sd = SpectralDensity(alpha, m0, ANALYTIC)
        sd_paper = SpectralDensity(alpha, m0, PAPER)
        for q2 in q2_grid:
            exact = green_momentum_sq(p, q2)
            val = kl_momentum(sd, q2)
            rel = abs(val - exact) / abs(exact)
            worst = max(worst, rel)
            rows.append({
                "alpha": float(alpha), "q2": float(q2),
                "closed_form": exact, "quadrature": val, "rel_error": rel,
                "paper_normalization_ratio": kl_momentum(sd_paper, q2) / val,
            })
    _write_report(os.path.join(outdir, "spectral.json"),
                  "spectral", cfg, seed,
                  {"identity": rows, "worst_rel_error": worst})
    return 0


def _cmd_verify_witness(cfg, seed, workers, outdir, witness_path):
    if not witness_path:
        raise ConfigurationError("verify-witness requires --witness PATH")
    _validate(cfg, {"run": ("n_samples",)})
    with open(witness_path) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"witness: invalid JSON ({exc})") from exc
    verdict = verify_witness(record, seed, n_samples=cfg["run"]["n_samples"],
                             workers=workers)
    _write_report(os.path.join(outdir, "verify_witness.json"),
                  "verify-witness", cfg, seed,
                  {"witness": record, "verdict": verdict})
    return 0 if verdict["status"] == "CONFIRMED" else 3


_COMMANDS = {
    "noise-check": _cmd_noise_check,
    "sample": _cmd_sample,
    "cumulants": _cmd_cumulants,
    "schwinger": _cmd_schwinger,
    "rp-check": _cmd_rp_check,
    "rp-scan": _cmd_rp_scan,
    "baumann": _cmd_baumann,
    "spectral": _cmd_spectral,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Euclidean random fields from generalized Levy white noise")
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["verify-witness"])
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

    outdir = args.out or os.environ.get("LFL_OUT") or os.getcwd()
    try:
        if not os.path.isdir(outdir):
            os.makedirs(outdir, exist_ok=True)
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        run = cfg.get("run", {})
        seed = args.seed if args.seed is not None else run.get("seed", 0)
        if seed < 0:
            raise ConfigurationError("run.seed: must be >= 0")
        workers = args.workers if args.workers is not None else run.get("workers", 1)
        if args.command == "verify-witness":
            return _cmd_verify_witness(cfg, seed, workers, outdir, args.witness)
        return _COMMANDS[args.command](cfg, seed, workers, outdir)
    except (ConfigurationError, RangeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, SingularityError, ContractViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
