"""The benchmark's hooks into levylab still resolve.

bench/workloads.py patches levylab module attributes by name when it traces a
run, calls library functions directly and times probes named after them; a
renamed function or a call that no longer goes through the patched module
attribute would silently drop a metric.  The module is imported as it is.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from levylab import (JumpLaw, LatticeSpec, LevyCharacteristic, ModelParams,
                     cli, sample_ensemble, sample_point_values, wightman)
from levylab.cumulants import sample_subset_sums

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _resolve(span_name):
    layer, attr = span_name.split(".", 1)
    return getattr(importlib.import_module(f"levylab.{layer}"), attr)


def test_patched_sites_resolve(workloads):
    for wl in workloads.WORKLOADS.values():
        for module, attr, _, _, _ in wl.sites:
            assert callable(getattr(module, attr, None)), (wl.name, module.__name__, attr)


def test_trace_only_imports_are_patched_sites(workloads):
    # a name imported with "# noqa: F401" and unused in its module is kept
    # only as a site to patch; once no workload patches it, the import goes
    sites = {(module.__name__, attr)
             for wl in workloads.WORKLOADS.values() for module, attr, *_ in wl.sites}
    kept = set()
    for path in (BENCH.parent / "src" / "levylab").glob("*.py"):
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                kept |= {(f"levylab.{path.stem}", alias.asname or alias.name)
                         for alias in node.names if (alias.asname or alias.name) not in used}
    assert kept, "no trace-only import found"
    assert kept <= sites, sorted(kept - sites)


def test_direct_entries_resolve(workloads):
    for wl in workloads.WORKLOADS.values():
        for name, (fn, _) in wl.direct.items():
            assert _resolve(name) is fn, (wl.name, name)


def test_probe_names_resolve(workloads):
    for name in workloads.PROBES:
        assert callable(_resolve(name)), name


def test_cli_workload_configs_validate(workloads, tmp_path):
    # each CLI workload's INI, as its constructor writes it, parses and passes
    # its command's section checks: a broken config fails here, not only as
    # failed operations in a benchmark run
    cli_workloads = [wl for wl in workloads.WORKLOADS.values()
                     if issubclass(wl, workloads._CliWorkload)]
    assert cli_workloads
    for wl in cli_workloads:
        workdir = tmp_path / wl.name
        workdir.mkdir()
        ini = Path(wl(1234, str(workdir)).ini)
        _, sections, _ = cli._COMMANDS[wl.command]
        cli._validate(cli.parse_config(ini.read_text()), sections)


@pytest.mark.parametrize("name", ["ensemble4pt", "rpscan", "baumann"])
def test_workload_round_checks_pass(workloads, tmp_path, name):
    # one untraced round of each workload: a change that breaks a workload's
    # checks fails here, not only as failed operations in a benchmark run
    # (ensemble4pt's finish needs many rounds and is not run)
    wl = workloads.WORKLOADS[name](1234, str(tmp_path))
    wl.reset()
    ops = wl.round(0, wl.calls(None))["ops"]
    assert len(ops) == wl.ops_per_round
    assert [op for op in ops if not op[1]] == []


def test_sampler_loop_calls_patched_stages(workloads):
    # the loop looks up substream, sample_noise and solve_spde on the sampler
    # module at call time, so a traced run sees every sample
    tracer = _load("tracer").Tracer()
    spec = LatticeSpec(2, 4, 0.5)
    p, chi = ModelParams(0.5, 1.0), LevyCharacteristic(lam=2.0, jump_law=JumpLaw.atom(1.0))
    workloads.install(tracer, workloads._SAMPLER_STAGES)
    try:
        sample_ensemble(p, chi, spec, 3, 1)
        sample_point_values(p, chi, spec, [(0, 0), (1, 2)], 4, 2)
        sample_subset_sums(p, chi, spec, [[(0, 0), (1, 0)]], 5, 3)
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["streams.substream"] == calls["noise.sample_noise"] == 12
    assert calls["sampler.solve_spde"] == 8


def test_wightman_loop_calls_patched_substream(workloads):
    # the block loop looks up substream on the wightman module for every
    # stratum, so a traced baumann run sees each stratum's stream
    tracer = _load("tracer").Tracer()
    workloads.install(tracer, workloads.Baumann.sites)
    try:
        wightman.wightman_n_regularized(*workloads._baumann_args(16 * 50, 4))
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["streams.substream"] == 16
    assert calls["wightman.wightman_n_regularized"] == 1
