"""The anomaly map: inference runs the differentiable map formula on arrays."""

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import numerics
from sowa.errors import UsageError
from sowa.fusion import TAU, abnormal_probability_map, anomaly_map, fuse

GRID = (4, 3)
IMAGE = (16, 12)


def _logits(seed=0):
    return np.random.default_rng(seed).normal(size=(12, 2)).astype(np.float32)


def test_anomaly_map_equals_differentiable_map():
    logits = _logits()
    amap = anomaly_map(logits, GRID, IMAGE)
    graph = abnormal_probability_map(ag.Var(logits[None]), GRID, IMAGE)
    assert isinstance(amap.scores, np.ndarray) and amap.scores.shape == IMAGE
    np.testing.assert_array_equal(amap.scores, graph.data[0])
    from_var = anomaly_map(ag.Var(logits), GRID, IMAGE)
    np.testing.assert_array_equal(from_var.scores, amap.scores)


def test_a_float64_map_is_float64_at_any_default():
    logits = np.random.default_rng(3).normal(size=(256, 2))
    with numerics.precision("float64"):
        want = anomaly_map(logits, (16, 16), (224, 224)).scores
    np.testing.assert_array_equal(anomaly_map(logits, (16, 16), (224, 224)).scores, want)


def test_the_map_is_upsampled_abnormal_probability():
    logits = _logits(1).astype(np.float64)
    abnormal = 1.0 / (1.0 + np.exp(logits[:, 0] - logits[:, 1]))
    expected = numerics.bilinear_upsample(abnormal.reshape(GRID), *IMAGE)
    out = anomaly_map(logits, GRID, IMAGE).scores
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_fuse_sums_the_stage_logits():
    rng = np.random.default_rng(4)
    for dtype in (np.float32, np.float64):
        stages = rng.normal(size=(2, 4, 12, 5)).astype(dtype)
        text = rng.normal(size=(2, 5)).astype(dtype)
        # the four stage products added in stage order, bit for bit
        logits = stages[:, 0] @ text.T
        for stage in range(1, 4):
            logits = logits + stages[:, stage] @ text.T
        np.testing.assert_array_equal(fuse(stages, text), logits * (1.0 / TAU))
        graph = fuse(ag.Var(stages, requires_grad=True), text)
        np.testing.assert_array_equal(graph.data, logits * (1.0 / TAU))
    with pytest.raises(UsageError, match=r"\(B, 4, L, C\) stage features, got \(2, 3, 12, 5\)"):
        fuse(stages[:, :3], text)


def test_bad_input_rejected():
    with pytest.raises(UsageError, match=r"\(12, 2\) logits"):
        anomaly_map(np.zeros((12, 3), np.float32), GRID, IMAGE)
    with pytest.raises(UsageError):
        anomaly_map(np.zeros((16, 2), np.float32), GRID, IMAGE)
