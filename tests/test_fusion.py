"""The anomaly map: inference runs the differentiable map formula on arrays."""

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import numerics
from sowa.errors import ConfigError, UsageError
from sowa.fusion import FusionConfig, abnormal_probability_map, anomaly_map

GRID = (4, 3)
IMAGE = (16, 12)


def _logits(seed=0):
    return np.random.default_rng(seed).normal(size=(12, 2)).astype(np.float32)


@pytest.mark.parametrize("sigma", [0.0, 2.0])
def test_anomaly_map_equals_differentiable_map(sigma):
    cfg = FusionConfig(sigma=sigma)
    logits = _logits()
    amap = anomaly_map(logits, GRID, IMAGE, cfg)
    graph = abnormal_probability_map(ag.Var(logits[None]), GRID, IMAGE, cfg)
    assert isinstance(amap.scores, np.ndarray) and amap.scores.shape == IMAGE
    np.testing.assert_array_equal(amap.scores, graph.data[0])
    from_var = anomaly_map(ag.Var(logits), GRID, IMAGE, cfg)
    np.testing.assert_array_equal(from_var.scores, amap.scores)


@pytest.mark.parametrize("sigma", [0.0, 1.5])
def test_a_float64_map_is_float64_at_any_default(sigma):
    logits = np.random.default_rng(3).normal(size=(256, 2))
    cfg = FusionConfig(sigma=sigma)
    with numerics.precision("float64"):
        want = anomaly_map(logits, (16, 16), (224, 224), cfg).scores
    np.testing.assert_array_equal(anomaly_map(logits, (16, 16), (224, 224), cfg).scores, want)


def test_sigma_zero_is_upsampled_abnormal_probability():
    logits = _logits(1).astype(np.float64)
    abnormal = 1.0 / (1.0 + np.exp(logits[:, 0] - logits[:, 1]))
    expected = numerics.bilinear_upsample(abnormal.reshape(GRID), *IMAGE)
    out = anomaly_map(logits, GRID, IMAGE, FusionConfig(sigma=0.0)).scores
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_positive_sigma_blurs_the_unblurred_map():
    logits = _logits(2)
    plain = anomaly_map(logits, GRID, IMAGE, FusionConfig(sigma=0.0)).scores
    out = anomaly_map(logits, GRID, IMAGE, FusionConfig(sigma=1.5)).scores
    rows = numerics.gaussian_blur_matrix(IMAGE[0], 1.5)
    cols = numerics.gaussian_blur_matrix(IMAGE[1], 1.5)
    np.testing.assert_allclose(out, rows @ plain @ cols.T, atol=1e-6)
    assert not np.allclose(out, plain)
    assert abs(out.mean() - plain.mean()) < 1e-3


def test_bad_input_rejected():
    with pytest.raises(UsageError, match=r"\(12, 2\) logits"):
        anomaly_map(np.zeros((12, 3), np.float32), GRID, IMAGE, FusionConfig())
    with pytest.raises(UsageError):
        anomaly_map(np.zeros((16, 2), np.float32), GRID, IMAGE, FusionConfig())
    with pytest.raises(ConfigError):
        anomaly_map(_logits(), GRID, IMAGE, FusionConfig(sigma=-1.0))
