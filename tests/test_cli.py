import copy
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levylab.cli import main, parse_config
from levylab.errors import ConfigurationError

BASE_CONFIG = """\
[model]
alpha = 0.5
m0 = 1.0
symbol = continuum

[noise]
b = 0.0
sigma2 = 1.0
lambda = 0.0

[lattice]
d = 3
L = 8
a = 0.5

[run]
seed = 7
n_samples = 150
workers = 1

[points]
pair = 0,0,0; 1,0,0
quad = 0,0,0; 1,0,0; 0,1,0; 0,0,1

[noise_check]
amplitudes = 0.5, 1.0, 8.0
n_draws = 400
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(BASE_CONFIG)
    return str(path)


def run_cli(command, config_path, out, *extra):
    return main([command, "--config", config_path, "--out", str(out), *extra])


# ---------------------------------------------------------------------------
# config handling


def test_config_unknown_fields_listed():
    bad = BASE_CONFIG + "\n[model2]\nx = 1\n"
    with pytest.raises(ConfigurationError, match="model2"):
        parse_config(bad)
    with pytest.raises(ConfigurationError, match="model.granularity"):
        parse_config("[model]\ngranularity = 3\n")


def test_config_bad_values_listed_per_field():
    text = "[model]\nalpha = banana\nm0 = split\n"
    with pytest.raises(ConfigurationError) as exc:
        parse_config(text)
    assert "model.alpha" in str(exc.value)
    assert "model.m0" in str(exc.value)


def test_missing_config_file(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "none.ini"),
                 "--out", str(tmp_path)]) == 1


def test_nan_lattice_spacing_exit_1(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text(BASE_CONFIG.replace("a = 0.5", "a = nan"))
    assert run_cli("sample", str(path), tmp_path) == 1
    err = capsys.readouterr().err
    assert "lattice spacing a" in err
    assert "Traceback" not in err


def test_missing_section_exit_code(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[model]\nalpha = 0.5\nm0 = 1.0\n")
    assert run_cli("sample", str(path), tmp_path) == 1


# ---------------------------------------------------------------------------
# commands


def test_sample_determinism(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("sample", config_path, out1) == 0
    assert run_cli("sample", config_path, out2, "--workers", "4") == 0
    b1 = (out1 / "ensemble.lflb").read_bytes()
    b2 = (out2 / "ensemble.lflb").read_bytes()
    assert b1 == b2


def test_noise_check(config_path, tmp_path):
    assert run_cli("noise-check", config_path, tmp_path) == 0
    report = json.loads((tmp_path / "noise_check.json").read_text())
    assert report["results"]["all_within"] is True
    assert report["seed"] == 7
    assert report["config"]["model"]["alpha"] == 0.5
    assert "workers" not in report["config"].get("run", {})


def test_cumulants_gaussian_fourth_is_zero(config_path, tmp_path):
    assert run_cli("cumulants", config_path, tmp_path) == 0
    report = json.loads((tmp_path / "cumulants.json").read_text())
    rows = {r["name"]: r for r in report["results"]["cumulants"]}
    assert rows["quad"]["analytic"] == 0.0
    assert abs(rows["quad"]["empirical"]) <= 5.0 * rows["quad"]["stderr"]
    assert rows["pair"]["analytic"] > 0.0


def test_schwinger_report(config_path, tmp_path):
    assert run_cli("schwinger", config_path, tmp_path) == 0
    report = json.loads((tmp_path / "schwinger.json").read_text())
    rows = {r["name"]: r for r in report["results"]["schwinger"]}
    assert rows["quad"]["value"] == 0.0


def test_spectral_report(config_path, tmp_path):
    assert run_cli("spectral", config_path, tmp_path) == 0
    report = json.loads((tmp_path / "spectral.json").read_text())
    assert report["results"]["worst_rel_error"] < 1e-6


def test_spectral_alpha_near_one(tmp_path, capsys):
    # pwr = 1/(1 - alpha) = 1e6 overflowed u**pwr in the substituted integrand
    path = tmp_path / "near_one.ini"
    path.write_text("[model]\nalpha = 0.5\nm0 = 1.0\n\n[spectral]\nalphas = 0.999999\n")
    assert run_cli("spectral", str(path), tmp_path) == 0
    report = json.loads((tmp_path / "spectral.json").read_text())
    assert report["results"]["worst_rel_error"] < 1e-4


def test_seed_override(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("sample", config_path, out1)
    run_cli("sample", config_path, out2, "--seed", "8")
    assert ((out1 / "ensemble.lflb").read_bytes()
            != (out2 / "ensemble.lflb").read_bytes())


def test_out_env_var(config_path, tmp_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("LFL_OUT", str(env_out))
    assert main(["schwinger", "--config", config_path]) == 0
    assert (env_out / "schwinger.json").exists()


def test_rp_check_negative_witness(tmp_path):
    text = """\
[model]
alpha = 0.75
m0 = 1.0
symbol = discrete

[noise]
sigma2 = 1.0

[lattice]
d = 3
L = 16
a = 0.5

[basis]
points = 1,1,0; 1,2,0; 2,0,0; 2,1,0; 2,2,0; 2,3,0
degree = 1
"""
    path = tmp_path / "rp.ini"
    path.write_text(text)
    assert run_cli("rp-check", str(path), tmp_path) == 0
    report = json.loads((tmp_path / "rp_check.json").read_text())
    assert report["results"]["min_eig"] < 0.0
    assert report["results"]["witness"] is not None


def test_baumann_inconclusive_exit_code(tmp_path):
    text = """\
[run]
seed = 1

[baumann]
epsilons = 0.5
mass = 1.0
h1_center = 0.0, 3.0, 0.0
h2_center = 0.0, -3.0, 0.0
f_center = 1.0, 0.0, 0.0
g_center = -1.0, 0.0, 0.0
n_samples = 4000
n_strata = 2
"""
    path = tmp_path / "b.ini"
    path.write_text(text)
    assert run_cli("baumann", str(path), tmp_path) == 3
    report = json.loads((tmp_path / "baumann.json").read_text())
    assert report["results"]["verdict"] == "INCONCLUSIVE"


def test_baumann_one_point_per_stratum_exit_1(tmp_path, capsys):
    # 64 points over the default 8 x 8 strata: one point each, no variance
    text = """\
[baumann]
epsilons = 0.5, 0.05, 0.005
mass = 1.0
h1_center = 0.0, 3.0, 0.0
h2_center = 0.0, -3.0, 0.0
f_center = 1.0, 0.0, 0.0
g_center = -1.0, 0.0, 0.0
n_samples = 64
"""
    path = tmp_path / "b.ini"
    path.write_text(text)
    assert run_cli("baumann", str(path), tmp_path) == 1
    assert "baumann.n_samples: 64 is below 2 * n_strata**2 = 128" in capsys.readouterr().err
    assert not (tmp_path / "baumann.json").exists()


def test_reports_are_atomic_no_tmp_left(config_path, tmp_path):
    run_cli("schwinger", config_path, tmp_path)
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_negative_seed_is_config_error(config_path, tmp_path, capsys):
    assert run_cli("schwinger", config_path, tmp_path, "--seed", "-1") == 1
    assert "run.seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("content, field", [
    ("{not json", "witness: invalid JSON"),
    ('{"coefficients": [1.0], "basis": [[[0, 0, 0]]]}', "witness: params: missing"),
    ("[1.0]", "witness: malformed entry"),
])
def test_verify_witness_malformed_exit_1(config_path, tmp_path, capsys,
                                         content, field):
    witness = tmp_path / "witness.json"
    witness.write_text(content)
    assert run_cli("verify-witness", config_path, tmp_path,
                   "--witness", str(witness)) == 1
    assert field in capsys.readouterr().err


RP_INI = """\
[model]
alpha = 0.75
m0 = 1.0
symbol = discrete

[noise]
sigma2 = 1.0

[lattice]
d = 3
L = 8
a = 0.5

[basis]
points = 1,0,0; 2,1,0
time_axis = {axis}
"""


def test_ini_time_axis_out_of_range_exit_1(tmp_path, capsys):
    path = tmp_path / "rp.ini"
    path.write_text(RP_INI.format(axis=5))
    assert run_cli("rp-check", str(path), tmp_path) == 1
    assert "time_axis" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# witness files: every input is verified or rejected with an exit code

WITNESS_INI = "[run]\nseed = 3\nn_samples = 40\nworkers = 1\n"
WITNESS = {
    "params": {"alpha": 0.75, "m0": 1.0, "symbol": "discrete", "b": 0.0,
               "sigma2": 1.0, "lambda": 0.5,
               "jump_law": {"kind": "atoms", "params": [1.0, 1.0]},
               "lattice": {"d": 3, "L": 6, "a": 0.5}, "centered": True},
    "basis": [[[1, 0, 0]], [[2, 0, 0]], [[1, 1, 0]], [[1, 0, 0], [2, 1, 0]]],
    "time_axis": 0,
    "coefficients": [0.5, -0.5, 0.5, -0.5],
    "min_eig": -1.0,
    "verification": "UNVERIFIED",
}


def _paths(node, prefix=()):
    """Path (keys and indices) of every value below node."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(record, op, path, value):
    node = record
    try:
        for key in path[:-1]:
            node = node[key]
        if op == "drop":
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation removed or replaced this path


def run_witness(record, out):
    witness, config = out / "witness.json", out / "witness.ini"
    witness.write_text(json.dumps(record))
    config.write_text(WITNESS_INI)
    return run_cli("verify-witness", str(config), out, "--witness", str(witness))


@pytest.fixture(scope="module")
def witness_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("witness")


def test_verify_witness_base_record_runs(witness_dir):
    assert run_witness(WITNESS, witness_dir) in (0, 3)


@pytest.mark.parametrize("path, value, field", [
    (("time_axis",), 5, "time_axis"),
    (("time_axis",), -1, "time_axis"),
    (("basis", 0, 0, 0), 1.7, "point (1.7, 0, 0)"),
    (("coefficients", 1), float("nan"), "witness: coefficients: non-finite"),
    (("coefficients", 1), float("inf"), "witness: coefficients: non-finite"),
    (("params", "lattice", "L"), 6.0, "d and L must be integers"),
], ids=["time_axis_5", "time_axis_-1", "point_1.7", "coefficient_nan", "coefficient_inf",
        "float_L"])
def test_verify_witness_bad_field_exit_1(witness_dir, capsys, path, value, field):
    record = copy.deepcopy(WITNESS)
    _mutate(record, "set", path, value)
    assert run_witness(record, witness_dir) == 1
    assert field in capsys.readouterr().err


_PATHS = list(_paths(WITNESS))
_WRONG_TYPES = [None, "x", [], {}, 1.5, 6.0, True, -1, 0]
_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_PATHS), st.none()),
    st.tuples(st.just("set"), st.sampled_from(_PATHS), st.sampled_from(_WRONG_TYPES)),
    st.tuples(st.just("set"), st.just(("time_axis",)),
              st.sampled_from([-1, 3, 5, 1.5, float("nan"), float("inf"), "0"])),
    st.tuples(st.just("set"), st.sampled_from([p for p in _PATHS if p[0] == "basis"
                                               and len(p) == 4]),
              st.sampled_from([-1, 6, 1.7, float("nan"), float("inf"), 1e20, "1"])),
    st.tuples(st.just("set"), st.sampled_from([p for p in _PATHS if p[0] == "coefficients"]),
              st.sampled_from([float("nan"), float("inf"), -float("inf")])),
)


@example(mutations=[("set", ("time_axis",), 5)])
@settings(max_examples=60)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_verify_witness_fuzz(witness_dir, mutations):
    record = copy.deepcopy(WITNESS)
    for op, path, value in mutations:
        _mutate(record, op, path, value)
    assert run_witness(record, witness_dir) in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# INI configs: every mutation is accepted or rejected with an exit code


def test_jump_params_count_exit_1(tmp_path, capsys):
    path = tmp_path / "jump.ini"
    path.write_text(BASE_CONFIG.replace(
        "lambda = 0.0", "lambda = 1.0\njump_kind = uniform\njump_params = 1.0"))
    assert run_cli("schwinger", str(path), tmp_path) == 1
    assert "jump_params: uniform takes 2 value(s), got 1" in capsys.readouterr().err


def test_lattice_rank_exit_1(tmp_path, capsys):
    path = tmp_path / "rank.ini"
    path.write_text(BASE_CONFIG.replace("d = 3", "d = 70"))
    assert run_cli("noise-check", str(path), tmp_path) == 1
    assert "dimension d must be in [1, 64)" in capsys.readouterr().err


def test_empty_point_set_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.ini"
    path.write_text(BASE_CONFIG.replace("pair = 0,0,0; 1,0,0", "pair ="))
    assert run_cli("cumulants", str(path), tmp_path) == 1
    assert "points.pair: empty" in capsys.readouterr().err


FUZZ_INI = {  # a small valid config: 4^3 sites, few samples
    "model": {"alpha": "0.5", "m0": "1.0", "symbol": "discrete"},
    "noise": {"b": "0.1", "sigma2": "0.5", "lambda": "1.0", "jump_kind": "atoms",
              "jump_params": "1.0, 0.5, -2.0, 0.5"},
    "lattice": {"d": "3", "L": "4", "a": "0.5"},
    "run": {"seed": "3", "n_samples": "40", "workers": "1"},
    "points": {"pair": "0,0,0; 1,0,0", "quad": "0,0,0; 1,0,0; 0,1,0; 0,0,1"},
    "noise_check": {"amplitudes": "0.5, 2.0", "n_draws": "30"},
}
# never the worker count, and no value that could size a large lattice
_INI_KEYS = [(sec, key) for sec, body in FUZZ_INI.items() for key in body if key != "workers"]
_NUMERIC_KEYS = [(sec, key) for sec, key in _INI_KEYS
                 if sec != "points" and key not in ("symbol", "jump_kind")]
_INI_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_INI_KEYS), st.none()),
    st.tuples(st.just("set"), st.sampled_from(_INI_KEYS),
              st.sampled_from(["x", "", "1.5", "1", "true", "0,0,0; 1", "1, 2"])),
    st.tuples(st.just("set"), st.sampled_from(_NUMERIC_KEYS),
              st.sampled_from(["nan", "inf", "-inf", "-1", "-0.5", "0"])),
    st.tuples(st.just("set"), st.just(("noise", "jump_kind")),
              st.sampled_from(["uniform", "two_sided_exponential", "atoms", "lognormal"])),
    st.tuples(st.just("set"), st.just(("noise", "jump_params")),
              st.sampled_from(["1.0", "0.5, 2.0", "1.0, 1.0, 2.0", "", "1.0, nan"])),
    st.tuples(st.just("set"), st.just(("lattice", "d")), st.sampled_from(["70", "64", "2"])),
)


@pytest.fixture(scope="module")
def ini_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ini")


@example(mutations=[("set", ("noise", "jump_kind"), "uniform"),
                    ("set", ("noise", "jump_params"), "1.0")])
@example(mutations=[("set", ("lattice", "d"), "70")])
@example(mutations=[("set", ("noise_check", "n_draws"), "-1")])
@settings(max_examples=60)
@given(mutations=st.lists(_INI_MUTATION, min_size=1, max_size=3))
def test_ini_config_fuzz(ini_dir, mutations):
    cfg = copy.deepcopy(FUZZ_INI)
    for op, (sec, key), value in mutations:
        if op == "drop":
            cfg[sec].pop(key, None)
        else:
            cfg[sec][key] = value
    path = ini_dir / "fuzz.ini"
    path.write_text("\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                              for sec, body in cfg.items()))
    for command in ("schwinger", "cumulants", "noise-check"):
        assert run_cli(command, str(path), ini_dir) in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# every command: a bad value exits 1 naming its field, before any computation

FUZZ_ALL = {**FUZZ_INI,  # every command's sections: 4^3 sites, 300 Wightman points
            "basis": {"points": "1,0,0; 1,1,0", "degree": "2"},
            "scan": {"alphas": "0.5", "lambdas": "0.5, 2.0"},
            "baumann": {"epsilons": "0.5, 0.05, 0.005", "mass": "1.0",
                        "h1_center": "0.0, 3.0, 0.0", "h2_center": "0.0, -3.0, 0.0",
                        "f_center": "1.0, 0.0, 0.0", "g_center": "-1.0, 0.0, 0.0",
                        "width": "0.4", "radius": "0.8", "n_samples": "300",
                        "n_strata": "2"},
            "spectral": {"q2_grid": "0.0, 1.0", "alphas": "0.5"}}
_READS = {  # the sections each command reads
    "schwinger": {"model", "noise", "lattice", "points"},
    "cumulants": {"model", "noise", "lattice", "run", "points"},
    "noise-check": {"noise", "lattice", "run", "noise_check"},
    "sample": {"model", "noise", "lattice", "run"},
    "rp-check": {"model", "noise", "lattice", "basis"},
    "rp-scan": {"model", "noise", "lattice", "run", "basis", "scan"},
    "baumann": {"baumann"},
    "spectral": {"model", "spectral"},
}
BAD_INPUTS = {  # case -> (command, section, key, value, text of the message)
    "mass_nan": ("baumann", "baumann", "mass", "nan", "[baumann]"),
    "epsilon_nan": ("baumann", "baumann", "epsilons", "0.5, nan, 0.005", "[baumann]"),
    "width_nan": ("baumann", "baumann", "width", "nan", "[baumann]"),
    "n_samples_1": ("baumann", "baumann", "n_samples", "1", "baumann.n_samples"),
    "alpha_1.5": ("rp-scan", "scan", "alphas", "1.5", "scan.alphas"),
    "lambda_nan": ("rp-scan", "scan", "lambdas", "nan", "scan.lambdas"),
    "alphas_empty": ("rp-scan", "scan", "alphas", "", "scan.alphas: empty"),
    "degree_7": ("rp-check", "basis", "degree", "7", "basis.degree: must be 1 or 2"),
    "degree_-2": ("rp-scan", "basis", "degree", "-2", "basis.degree: must be 1 or 2"),
    "seven_points": ("cumulants", "points", "seven",
                     "0,0,0; 1,0,0; 2,0,0; 3,0,0; 0,1,0; 0,2,0; 0,3,0",
                     "points.seven: order 7 outside [1, 6]"),
    "d_30": ("noise-check", "lattice", "d", "30", "L**d = 4**30"),
    "lambda_1e21": ("sample", "noise", "lambda", "1e21", "noise.lambda: per-site jump mean"),
    "scan_lambda_1e21": ("rp-scan", "scan", "lambdas", "0.5, 1e21",
                         "scan.lambdas: lambda: per-site jump mean"),
    "q2_nan": ("spectral", "spectral", "q2_grid", "0.0, nan", "spectral.q2_grid"),
    "q2_negative": ("spectral", "spectral", "q2_grid", "-5.0", "spectral.q2_grid"),
    "spectral_alpha_1.5": ("spectral", "spectral", "alphas", "0.5, 1.5", "spectral.alphas"),
    "spectral_alphas_empty": ("spectral", "spectral", "alphas", "", "spectral.alphas: empty"),
    "q2_grid_empty": ("spectral", "spectral", "q2_grid", "", "spectral.q2_grid: empty"),
}
# invalid whatever else the config holds (d = 30 is valid with L = 1)
_ALWAYS_BAD = {(sec, key, value) for _, sec, key, value, _ in BAD_INPUTS.values()
               if key != "d"}


def write_ini(path, cfg):
    path.write_text("\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                              for sec, body in cfg.items()))
    return str(path)


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_value_exit_1_names_field(ini_dir, capsys, case):
    command, sec, key, value, field = BAD_INPUTS[case]
    cfg = copy.deepcopy(FUZZ_ALL)
    cfg[sec][key] = value
    assert run_cli(command, write_ini(ini_dir / "bad.ini", cfg), ini_dir) == 1
    assert field in capsys.readouterr().err


def _must_reject(cfg, command) -> bool:
    """True if the command reads a value that is invalid whatever else the config holds."""
    return any((sec, key, value) in _ALWAYS_BAD
               or (value in ("nan", "inf", "-inf") and key != "jump_params")
               for sec in _READS[command] & cfg.keys() for key, value in cfg[sec].items())


_NEW_KEYS = [(sec, key) for sec in ("basis", "scan", "baumann", "spectral")
             for key in FUZZ_ALL[sec]]
_ALL_MUTATION = st.one_of(
    _INI_MUTATION,
    st.tuples(st.just("drop"), st.sampled_from(_NEW_KEYS), st.none()),
    st.tuples(st.just("set"), st.sampled_from(_NEW_KEYS),
              st.sampled_from(["x", "", "1.5", "1", "0", "-1", "nan", "inf", "-inf", "1, 2"])),
    st.sampled_from([("set", (sec, key), value)
                     for _, sec, key, value, _ in BAD_INPUTS.values()]),
)


@example(mutations=[("set", ("baumann", "mass"), "nan")])
@example(mutations=[("set", ("baumann", "epsilons"), "0.5, nan, 0.005")])
@example(mutations=[("set", ("baumann", "width"), "nan")])
@example(mutations=[("set", ("baumann", "n_samples"), "1")])
@example(mutations=[("set", ("scan", "alphas"), "1.5")])
@example(mutations=[("set", ("scan", "lambdas"), "nan")])
@example(mutations=[("set", ("scan", "alphas"), "")])
@example(mutations=[("set", ("basis", "degree"), "7")])
@example(mutations=[("set", ("basis", "degree"), "-2")])
@example(mutations=[("set", ("points", "seven"), BAD_INPUTS["seven_points"][3])])
@example(mutations=[("set", ("lattice", "d"), "30")])
@example(mutations=[("set", ("noise", "lambda"), "1e21")])
@example(mutations=[("set", ("spectral", "q2_grid"), "0.0, nan")])
@example(mutations=[("set", ("spectral", "q2_grid"), "-5.0")])
@example(mutations=[("set", ("spectral", "alphas"), "0.5, 1.5")])
@example(mutations=[("set", ("spectral", "alphas"), "")])
@example(mutations=[("set", ("spectral", "q2_grid"), "")])
@settings(max_examples=60)
@given(mutations=st.lists(_ALL_MUTATION, min_size=1, max_size=3))
def test_ini_config_fuzz_every_command(ini_dir, mutations):
    cfg = copy.deepcopy(FUZZ_ALL)
    for op, (sec, key), value in mutations:
        if op == "drop":
            cfg[sec].pop(key, None)
        else:
            cfg[sec][key] = value
    path = write_ini(ini_dir / "fuzz_all.ini", cfg)
    for command in _READS:
        code = run_cli(command, path, ini_dir)
        assert code == 1 if _must_reject(cfg, command) else code in (0, 1, 2, 3), command


def test_verify_witness_site_cap_exit_1(witness_dir, capsys):
    record = copy.deepcopy(WITNESS)
    _mutate(record, "set", ("params", "lattice", "d"), 30)
    assert run_witness(record, witness_dir) == 1
    assert "exceed the cap MAX_SITES" in capsys.readouterr().err


def test_verify_witness_site_mean_cap_exit_1(witness_dir, capsys):
    record = copy.deepcopy(WITNESS)
    _mutate(record, "set", ("params", "lambda"), 1e21)
    assert run_witness(record, witness_dir) == 1
    assert "witness: params.lambda: per-site jump mean" in capsys.readouterr().err
