"""The span tracer: self-time accounting, wrapping by name, and that a
traced run partitions exactly as an untraced one."""
import json
import os
import sys
import types

import pytest

import run
import workloads
from tracer import Tracer

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.fixture
def fake_package():
    """fakepkg.a defines the functions; fakepkg.b imports one by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def spin(n):
        return sum(i * i for i in range(n))

    def leaf(n):
        return spin(n)

    def middle(n):
        return spin(n) + a.leaf(n) + a.leaf(n)

    def top(n):
        return spin(n) + a.middle(n) + b.leaf(n)

    a.leaf, a.middle, a.top = leaf, middle, top
    b.leaf = leaf
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    try:
        yield a, b
    finally:
        for name in mods:
            sys.modules.pop(name)


def test_self_times_sum_to_span_total(fake_package):
    a, b = fake_package
    layers = [("a", "top", None, None), ("a", "middle", None, None),
              ("a", "leaf", None, None)]
    originals = (a.top, a.middle, a.leaf, b.leaf)
    with Tracer(package="fakepkg", layers=layers) as tracer:
        assert b.leaf is a.leaf is not originals[2]
        a.top(20000)
        a.top(5000)
    assert (a.top, a.middle, a.leaf, b.leaf) == originals

    times = tracer.self_times()
    assert {k: v[1] for k, v in times.items()} == {
        "a.top": 2, "a.middle": 2, "a.leaf": 6}
    total = sum(seconds for seconds, _ in times.values())
    assert total == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert all(seconds > 0 for seconds, _ in times.values())
    parents = {(tracer.spans[p][0] if p >= 0 else None)
               for label, _, _, p in tracer.spans if label == "a.leaf"}
    assert parents == {"a.middle", "a.top"}


SMALL = {
    "offline": workloads.Spec(200, 2000, 1, "edge-emergence", "sequential",
                              None),
    "snowball": workloads.Spec(200, 2000, 3, "snowball", "sequential", 0),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_round_is_byte_identical(name):
    sb = workloads.load_sbpart(ROOT)
    spec = SMALL[name]
    inputs = workloads.make_inputs(sb, spec, 3, 0)
    plain = workloads.run_round(sb, spec, inputs)
    with Tracer() as tracer:
        traced = workloads.run_round(sb, spec, inputs)
    assert [r.assignment.tobytes() for r in plain] == \
        [r.assignment.tobytes() for r in traced]
    assert [r.description_length for r in plain] == \
        [r.description_length for r in traced]
    assert workloads.check_round(inputs, traced)[0] == []

    times = tracer.self_times()
    assert times["engine.mcmc_sweep"][1] > 0
    assert times["engine.golden_section_search"][1] >= 1
    covered = tracer.root_seconds() / sum(r.seconds for r in traced)
    assert 0.95 <= covered <= 1.0
    assert not hasattr(sb.engine.mcmc_sweep, "__wrapped__")


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
