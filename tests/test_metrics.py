"""Metrics against scipy oracles, and ``evaluate_dataset`` against the
report rebuilt from ``predict``, the few-shot map and the blend."""

import numpy as np
import pytest
from scipy import ndimage, stats

from sowa import metrics
from sowa.errors import MetricUndefinedError, UsageError
from sowa.fewshot import combine_maps, few_shot_map
from sowa.model import build_model

from conftest import tiny_config


@pytest.fixture(scope="module")
def few_shot_setup(tiny_model, tiny_corpus):
    refs = tiny_corpus.split("train")
    bank = tiny_model.build_memory_bank([s.image for s in refs])
    return tiny_corpus.split("test"), bank


def _rebuilt_report(model, test, bank, beta, image_score_mode):
    maps, scores = [], []
    for sample in test:
        pred = model.predict(sample.image)
        fmap = few_shot_map(pred.stage_features, bank, pred.grid, pred.anomaly_map.scores.shape)
        amap = combine_maps(pred.anomaly_map, fmap, beta=beta)
        maps.append(amap.scores)
        scores.append(float(amap.scores.max()) if image_score_mode == "max_map" else pred.image_score)
    labels = [1 if s.label > 0 else 0 for s in test]
    masks = [(s.mask > 0).astype(np.int64) for s in test]
    return metrics.evaluate_scores(scores, labels, maps, masks)


@pytest.mark.parametrize("beta, image_score_mode", [(0.5, "max_map"), (0.2, "cls")])
def test_few_shot_evaluation_equals_rebuilt_maps(tiny_model, few_shot_setup, beta, image_score_mode):
    test, bank = few_shot_setup
    report = metrics.evaluate_dataset(
        tiny_model, test, mode="few_shot", bank=bank, beta=beta, image_score_mode=image_score_mode
    )
    rebuilt = _rebuilt_report(tiny_model, test, bank, beta, image_score_mode)
    assert report.metric_items() == rebuilt.metric_items()
    assert (report.image_count, report.positive_images) == (len(test), 8)


def test_defaults_come_from_the_run_config(few_shot_setup):
    test, bank = few_shot_setup
    for overrides in ({}, {"few_shot_beta": 0.2, "image_score_mode": "cls"}):
        model = build_model(tiny_config(**overrides))
        cfg = model.config
        implied = metrics.evaluate_dataset(model, test, mode="few_shot", bank=bank)
        explicit = metrics.evaluate_dataset(
            model, test, mode="few_shot", bank=bank,
            beta=cfg.few_shot_beta, image_score_mode=cfg.image_score_mode,
        )
        assert implied.metric_items() == explicit.metric_items()
    # the two configs do score differently, so the defaults are not ignored
    other = metrics.evaluate_dataset(model, test, mode="few_shot", bank=bank,
                                     beta=0.5, image_score_mode="max_map")
    assert other.metric_items() != implied.metric_items()


@pytest.mark.parametrize("levels", [None, 5])
def test_auroc_matches_mann_whitney(levels):
    rng = np.random.default_rng(0 if levels is None else levels)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        scores = rng.normal(size=n)
        if levels is not None:  # few distinct values: many ties
            scores = np.round(scores * levels) / levels
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        u = stats.mannwhitneyu(scores[labels == 1], scores[labels == 0]).statistic
        oracle = u / (np.sum(labels == 1) * np.sum(labels == 0))
        np.testing.assert_allclose(metrics.auroc(scores, labels), oracle, rtol=1e-9)


def test_label_regions_matches_scipy_eight_connected():
    rng = np.random.default_rng(1)
    eight = np.ones((3, 3), dtype=int)
    for _ in range(30):
        h, w = rng.integers(1, 24, size=2)
        mask = (rng.uniform(size=(h, w)) < rng.uniform(0.1, 0.7)).astype(np.int64)
        ours, count = metrics.label_regions(mask)
        theirs, expected = ndimage.label(mask, structure=eight)
        assert count == expected
        # the same partition, whatever the numbering
        pairs = set(zip(ours[mask == 1].tolist(), theirs[mask == 1].tolist()))
        assert len(pairs) == count
        np.testing.assert_array_equal(ours == 0, theirs == 0)


def test_bad_evaluation_input_rejected(tiny_model, few_shot_setup):
    test, bank = few_shot_setup
    with pytest.raises(UsageError, match="memory bank"):
        metrics.evaluate_dataset(tiny_model, test, mode="few_shot")
    with pytest.raises(UsageError, match="empty"):
        metrics.evaluate_dataset(tiny_model, [], mode="few_shot", bank=bank)
    with pytest.raises(UsageError, match="mode"):
        metrics.evaluate_dataset(tiny_model, test, mode="many_shot", bank=bank)
    with pytest.raises(UsageError, match="image_score_mode"):
        metrics.evaluate_dataset(tiny_model, test, image_score_mode="mean_map")
    normals = [s for s in test if s.label < 0]
    with pytest.raises(MetricUndefinedError):
        metrics.evaluate_dataset(tiny_model, normals, mode="few_shot", bank=bank)
