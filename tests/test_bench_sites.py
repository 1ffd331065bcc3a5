"""The benchmark's hooks into levylab still resolve.

bench/workloads.py patches levylab module attributes by name when it traces a
run, calls library functions directly and times probes named after them; a
renamed function or a call that no longer goes through the patched module
attribute would silently drop a metric.  The module is imported as it is.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from levylab import (JumpLaw, LatticeSpec, LevyCharacteristic, ModelParams,
                     sample_ensemble, sample_point_values)
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


def test_direct_entries_resolve(workloads):
    for wl in workloads.WORKLOADS.values():
        for name, (fn, _) in wl.direct.items():
            assert _resolve(name) is fn, (wl.name, name)


def test_probe_names_resolve(workloads):
    for name in workloads.PROBES:
        assert callable(_resolve(name)), name


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
