import copy
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levylab.cli import main, parse_config, serialize_config
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


def test_config_round_trip_fixed_point():
    cfg = parse_config(BASE_CONFIG)
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


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
