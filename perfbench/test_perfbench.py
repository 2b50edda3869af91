"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracer as tracing
import worker
import workloads


def _bindings():
    """Every binding the tracer may patch, keyed by (owner, attribute)."""
    owners = [m for k, m in sys.modules.items() if k.startswith("homoeoid.")] + [workloads]
    found = {(o.__name__, a): v for o in owners for a, v in vars(o).items()}
    field = sys.modules["homoeoid.maximal"].Field
    found[("Field", "__call__")] = field.__dict__["__call__"]
    return found


def test_install_then_remove_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer(extra_modules=[workloads])
    tracer.install()
    try:
        during = _bindings()
        mc = sys.modules["homoeoid.mc"]
        geometry = sys.modules["homoeoid.geometry"]
        importers = [k for k, v in before.items() if v is mc.derive_stream and k[0] != mc.__name__]
        assert len(importers) >= 7
        assert all(during[k] is not mc.derive_stream for k in importers)
        # calls inside one module stay unwrapped ...
        assert during[("homoeoid.mc", "derive_stream")] is mc.derive_stream
        assert during[("homoeoid.geometry", "defining_value")] is geometry.defining_value
        # ... except the entry points the tracer lists
        assert during[("homoeoid.maximal", "annulus_average")] is not before[
            ("homoeoid.maximal", "annulus_average")
        ]
        proxy = during[("homoeoid.volumes", "geo")]
        assert isinstance(proxy, types.ModuleType) and proxy is not geometry
        assert proxy.AnnulusSpec is geometry.AnnulusSpec
        assert proxy.annulus_contains.__wrapped__ is geometry.annulus_contains
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(workload, seed, tmp_path):
    units = workloads.build(workload, seed, size="tiny")
    *_, plain = worker.run_pass(units, tmp_path, 1)
    *_, again = worker.run_pass(units, tmp_path, 2)
    tracer = tracing.Tracer(extra_modules=[workloads])
    *_, traced = worker.traced_pass(units, tmp_path, tracer)
    assert None not in plain
    assert [body for body, _ in traced] == [body for body, _ in plain]
    assert [body for body, _ in again] == [body for body, _ in plain]

    stats = tracer.stats()
    assert stats.calls("mc.mc_mean") > 0
    for unit in units:
        assert stats.calls(f"unit.{unit.name}") == 1
    metrics = tracing.layer_metrics(stats)
    assert all(value >= 0.0 for value in metrics.values())
    # every span closes inside its parent, and self time never exceeds it
    assert tracer._stack == [-1]
    for name in tracer.names:
        assert stats.self_time(name) <= stats.busy(name) + 1e-9


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    stats = tracer.stats()
    inner = stats.busy("inner")
    assert stats.self_time("outer") == pytest.approx(stats.busy("outer") - inner)
    assert stats.calls("inner") == 1


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = [(n, u, b) for n, u, b, *_ in (*tracing.LAYER_METRICS, tracing.OVERHEAD_METRIC)]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer
