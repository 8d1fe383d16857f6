"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/selftest.py

They check that tracing changes no output, that every wrapper is removed,
that a vanished layer is reported instead of crashing, that the golden
check has teeth, that every workload prints exactly the metrics that
BENCHMARK.json declares, and that the benchmark fails without the package source.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from sowa import config as sconfig  # noqa: E402
from sowa import model as smodel  # noqa: E402
from sowa import training  # noqa: E402
from tracer import LAYERS, REPORTED, Tracer  # noqa: E402
from workloads import GOLDEN_ATOL, config_64, corpus, golden_failures, golden_outputs  # noqa: E402

TINY = dict(
    backbone={"image_size": 32, "patch_size": 8, "channels": 32, "heads": 4},
    c_text=16, text_width=16, prompt_length=4, window=2,
)
WORKLOADS = ("infer-224", "train-64", "eval-64")


def _tiny_outputs():
    """A predict and one training step on a fresh tiny model."""
    model = smodel.build_model(sconfig.default_config(seed=3, **TINY))
    samples = corpus(5, 8, 32).samples
    pred = model.predict(samples[1].image)
    loss, terms, grads = training.batch_gradients(model, samples[:4], cache_keys=[0, 1, 2, 3])
    return pred, loss, terms, grads


def _sites():
    out = {}
    for sites in (s for _, s in LAYERS.values()):
        for module_name, path in sites:
            owner = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            out[(module_name, path)] = (owner, attr, getattr(owner, attr))
    return out


def test_traced_run_is_bit_identical():
    plain = _tiny_outputs()
    tracer = Tracer()
    with tracer:
        traced = _tiny_outputs()
    assert tracer.counts["model.predict"] == 1 and tracer.counts["autodiff.backward"] == 1
    a, b = plain[0], traced[0]
    assert np.array_equal(a.anomaly_map.scores, b.anomaly_map.scores)
    assert a.image_score == b.image_score
    assert all(np.array_equal(x, y) for x, y in zip(a.stage_features, b.stage_features))
    assert plain[1] == traced[1] and plain[2] == traced[2]
    assert all(np.array_equal(plain[3][k], traced[3][k]) for k in plain[3])


def test_wrappers_are_removed():
    before = _sites()
    tracer = Tracer().install()
    try:
        assert all(getattr(o, a) is not f for o, a, f in before.values())
        assert tracer.absent == []
    finally:
        tracer.remove()
    assert all(getattr(o, a) is f for o, a, f in before.values())
    assert tracer.leftover_wrappers() == []


def test_missing_layer_is_reported_absent():
    layers = {"model.gone": (None, [("sowa.model", "no_such_function")]),
              "fusion.fuse": LAYERS["fusion.fuse"]}
    tracer = Tracer(layers).install()
    tracer.remove()
    assert tracer.absent == ["model.gone"]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    own = tracer.self_seconds()
    assert own == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert tracer.top_level_seconds() == 10.0


def test_golden_check_rejects_a_change_beyond_tolerance():
    model = smodel.build_model(config_64())
    pinned = golden_outputs(model, "64")
    assert golden_failures(model, "64") == []
    nudged = {k: v + GOLDEN_ATOL / 10 for k, v in pinned.items()}
    assert golden_failures(model, "64", nudged) == []
    moved = dict(pinned, **{"64.1.map": pinned["64.1.map"] + GOLDEN_ATOL * 10})
    assert len(golden_failures(model, "64", moved)) == 1


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_emitted_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == REPORTED
    for workload in WORKLOADS:
        timed = _metrics(workload, "0")
        assert {k: v["unit"] for k, v in timed.items()} == declared
        assert all(v["value"] > 0 for v in timed.values())
        traced = _metrics(workload, "1")
        assert {k: v["unit"] for k, v in traced.items()} == layers
        # every shared layer is called: no self time is a filled-in 0
        assert all(v["value"] > 0 for k, v in traced.items() if k.endswith(".self_ms"))


def test_fails_without_package_source():
    bare = os.path.join(HERE, "results", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, "--workload", "eval-64", "--seconds", "1")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
