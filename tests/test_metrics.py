"""Metrics against scipy and brute-force oracles, their invariances as
``hypothesis`` properties, and ``evaluate_dataset`` against the report
rebuilt from ``predict``, the few-shot map and the blend, image by image,
whatever chunks it runs the images in."""

import itertools
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage, stats

from sowa import adapter, metrics, numerics
from sowa import model as smodel
from sowa.backbone import Backbone
from sowa.errors import MetricUndefinedError, UsageError
from sowa.fewshot import combine_maps, few_shot_map
from sowa.model import build_model

from conftest import batch_case, tiny_config


@pytest.fixture(scope="module")
def few_shot_setup(tiny_model, tiny_corpus):
    refs = tiny_corpus.split("train")
    bank = tiny_model.build_memory_bank([s.image for s in refs])
    return tiny_corpus.split("test"), bank


def _rebuilt_maps(preds, mode, bank, beta, image_score_mode):
    """Each image's map and image score from its own ``predict``, few-shot map and blend."""
    maps, scores = [], []
    for pred in preds:
        amap = pred.anomaly_map
        if mode == "few_shot":
            fmap = few_shot_map(pred.stage_features, bank, pred.grid, amap.scores.shape)
            amap = combine_maps(amap, fmap, beta=beta)
        maps.append(amap.scores)
        scores.append(float(amap.scores.max()) if image_score_mode == "max_map" else pred.image_score)
    return maps, scores


def _rebuilt_report(model, test, bank, beta, image_score_mode):
    preds = [model.predict(s.image) for s in test]
    maps, scores = _rebuilt_maps(preds, "few_shot", bank, beta, image_score_mode)
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


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("adapter_kind, attention_mode",
                         list(itertools.product(("fwa", "linear"), ("vv", "qkv"))))
def test_chunked_evaluation_equals_the_per_image_rebuild(dtype, adapter_kind, attention_mode,
                                                         monkeypatch):
    model, corpus, preds = batch_case(dtype, adapter_kind, attention_mode)
    bank = model.build_memory_bank([s.image for s in corpus.split("train")])
    samples = corpus.samples
    labels = [1 if s.label > 0 else 0 for s in samples]
    masks = [(s.mask > 0).astype(np.int64) for s in samples]
    cases = list(itertools.product(("zero_shot", "few_shot"), ("cls", "max_map")))
    expected = {}
    for mode, image_score_mode in cases:
        maps, scores = _rebuilt_maps(preds, mode, bank, 0.5, image_score_mode)
        report = metrics.evaluate_scores(scores, labels, maps, masks)
        expected[mode, image_score_mode] = maps, scores, report.metric_items()
    scored = []
    evaluate_scores = metrics.evaluate_scores

    def spy(scores, labels01, maps, masks01, **kwargs):
        scored.append((scores, maps))
        return evaluate_scores(scores, labels01, maps, masks01, **kwargs)

    monkeypatch.setattr(metrics, "evaluate_scores", spy)
    monkeypatch.setattr(numerics, "WORKERS", 2)
    # one serial chunk of all 16 images; then chunks of 6, the first two run
    # as two parts of 3 on two threads and the last (of 4) as one part
    for chunk_tokens in (numerics.CHUNK_TOKENS, 3 * model.backbone.config.tokens):
        monkeypatch.setattr(numerics, "CHUNK_TOKENS", chunk_tokens)
        for mode, image_score_mode in cases:
            report = metrics.evaluate_dataset(model, samples, mode=mode, bank=bank, beta=0.5,
                                              image_score_mode=image_score_mode)
            maps, scores, rebuilt = expected[mode, image_score_mode]
            assert report.metric_items() == rebuilt
            got_scores, got_maps = scored.pop()
            assert got_scores == scores
            for ours, theirs in zip(got_maps, maps, strict=True):
                assert ours.dtype == np.dtype(dtype)
                np.testing.assert_array_equal(ours, theirs)


def test_traced_steps_of_an_evaluation_run_on_the_calling_thread(tiny_model, few_shot_setup,
                                                                  monkeypatch):
    """The frozen pass runs parts of a chunk on a pool thread, but every
    callable a span tracer wraps runs on the caller's thread."""
    test, bank = few_shot_setup
    monkeypatch.setattr(numerics, "WORKERS", 2)
    monkeypatch.setattr(numerics, "CHUNK_TOKENS", 2 * tiny_model.backbone.config.tokens)
    threads = {}

    def recorded(name, fn):
        def spy(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return spy

    for owner, name in ((Backbone, "forward"), (smodel, "attended_features"),
                        (smodel, "project_tokens"), (metrics, "few_shot_map"),
                        (Backbone, "_blocks"), (adapter, "window_reverse")):
        monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
    metrics.evaluate_dataset(tiny_model, test, mode="few_shot", bank=bank)
    caller = {threading.get_ident()}
    for name in ("forward", "attended_features", "project_tokens", "few_shot_map"):
        assert threads[name] == caller, name
    # the parts inside the traced steps did run on two threads
    assert len(threads["_blocks"]) == len(threads["window_reverse"]) == 2


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


def _breadth_first_regions(mask):
    """Reference labelling: 8-connected BFS from each unlabeled pixel in raster order."""
    labels = np.zeros(mask.shape, dtype=np.int64)
    h, w = mask.shape
    current = 0
    for r in range(h):
        for c in range(w):
            if mask[r, c] != 1 or labels[r, c]:
                continue
            current += 1
            labels[r, c] = current
            queue = deque([(r, c)])
            while queue:
                rr, cc = queue.popleft()
                for nr in range(max(rr - 1, 0), min(rr + 2, h)):
                    for nc in range(max(cc - 1, 0), min(cc + 2, w)):
                        if mask[nr, nc] == 1 and not labels[nr, nc]:
                            labels[nr, nc] = current
                            queue.append((nr, nc))
    return labels, current


EDGE_MASKS = {
    "row": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]]),
    "column": np.array([[1], [0], [1], [1], [0], [1]]),
    "empty": np.zeros((5, 7), dtype=np.int64),
    "no pixels": np.zeros((0, 4), dtype=np.int64),
    "full": np.ones((6, 5), dtype=np.int64),
    "diagonal": np.eye(7, dtype=np.int64),
    "anti-diagonal": np.eye(7, dtype=np.int64)[::-1],
    "zigzag": np.array([[1, 0, 0, 0, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0]]),
    "nested rings": np.pad(np.pad(np.ones((1, 1)), 1), ((1, 1), (1, 1)), constant_values=1),
    "u-shape": np.array([[1, 0, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]]),
    "other values": np.array([[2, 1, 1], [0, 2, 1]]),
}


@pytest.mark.parametrize("name", EDGE_MASKS)
def test_label_regions_equal_the_breadth_first_labels_on_edge_shapes(name):
    mask = EDGE_MASKS[name]
    labels, count = metrics.label_regions(mask)
    expected, expected_count = _breadth_first_regions(mask)
    assert count == expected_count
    assert labels.dtype == expected.dtype
    np.testing.assert_array_equal(labels, expected)


def test_label_regions_equal_the_breadth_first_labels_on_random_masks():
    rng = np.random.default_rng(4)
    for _ in range(200):
        h, w = rng.integers(1, 20, size=2)
        mask = (rng.uniform(size=(h, w)) < rng.uniform(0.05, 0.9)).astype(np.int64)
        labels, count = metrics.label_regions(mask)
        expected, expected_count = _breadth_first_regions(mask)
        assert count == expected_count
        np.testing.assert_array_equal(labels, expected)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(  # tied levels, or any float32 value
            st.one_of(st.integers(0, 9).map(lambda k: k / 7.0),
                      st.floats(-1e6, 1e6, width=32)),
            st.integers(0, 1),
        ),
        min_size=2, max_size=400,
    ),
    st.sampled_from([np.float64, np.float32]),
)
def test_auroc_equals_the_scipy_rank_sum_bit_for_bit(items, dtype):
    """The sweep's trapezoid is the rank-sum statistic, rounded once."""
    scores = np.array([s for s, _ in items]).astype(dtype).astype(np.float64)  # float32 pooled
    labels = np.array([y for _, y in items])
    n_pos, n_neg = int(labels.sum()), int((labels == 0).sum())
    assume(n_pos and n_neg)
    u = stats.rankdata(scores)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    assert metrics.auroc(scores, labels) == float(u) / (n_pos * n_neg)


def test_shared_pixel_order_equals_separate_auroc_and_pro_on_ties():
    rng = np.random.default_rng(8)
    for levels in (2, 3, 5):
        maps = [rng.integers(0, levels, size=(12, 9)) / levels for _ in range(5)]
        maps[1][:] = 0.5  # a map that is one tie group
        maps.append(maps[0].astype(np.float32))  # float32 maps pool as float64
        masks = [(rng.uniform(size=(12, 9)) < 0.3).astype(np.int64) for _ in maps]
        image_scores = rng.integers(0, 2, size=len(maps)) / 2.0
        labels = np.arange(len(maps)) % 2
        report = metrics.evaluate_scores(image_scores, labels, maps, masks, fpr_limit=0.2)
        pixels = np.concatenate([m.ravel() for m in maps]).astype(np.float64)
        truth = np.concatenate([g.ravel() for g in masks])
        assert report.as_auroc == metrics.auroc(pixels, truth)
        assert report.as_pro == metrics.pro(maps, masks, fpr_limit=0.2)
        assert report.ac_auroc == metrics.auroc(image_scores, labels)
        # the ranks from the descending order are the ascending average ranks
        n_pos, n_neg = truth.sum(), (truth == 0).sum()
        u = stats.rankdata(pixels)[truth == 1].sum() - n_pos * (n_pos + 1) / 2.0
        assert report.as_auroc == float(u / (n_pos * n_neg))


def _brute_force_pro(maps, masks, fpr_limit):
    """Per-threshold PRO curve from its definition, trapezoid up to the limit."""
    regions = []
    for score_map, mask in zip(maps, masks):
        labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
        regions += [score_map[labels == i] for i in range(1, count + 1)]
    normal = np.concatenate([m[g == 0] for m, g in zip(maps, masks)])
    points = [(0.0, 0.0)]
    for t in np.unique(np.concatenate([m.ravel() for m in maps]))[::-1]:
        overlaps = [np.mean(r >= t) for r in regions]
        points.append((np.mean(normal >= t), np.mean(overlaps)))
    area = 0.0
    for (f0, p0), (f1, p1) in zip(points, points[1:]):
        if f0 >= fpr_limit:
            break
        if f1 > fpr_limit:
            p1 = p0 + (p1 - p0) * (fpr_limit - f0) / (f1 - f0)
            f1 = fpr_limit
        area += (f1 - f0) * (p0 + p1) / 2.0
    return area / fpr_limit


def test_pro_equals_brute_force_pro():
    rng = np.random.default_rng(6)
    for trial in range(20):
        shape = tuple(rng.integers(2, 9, size=2))
        maps = [rng.integers(0, 6 if trial % 2 else 100, size=shape) / 7.0 for _ in range(3)]
        masks = [(rng.uniform(size=shape) < 0.3).astype(np.int64) for _ in range(3)]
        masks[0][0, 0], masks[1][0, 0] = 1, 0  # at least one region and one normal pixel
        for fpr_limit in (0.05, 0.3, 1.0):
            np.testing.assert_allclose(
                metrics.pro(maps, masks, fpr_limit=fpr_limit),
                _brute_force_pro(maps, masks, fpr_limit),
                rtol=1e-12, atol=1e-12,
            )


def test_average_precision_does_not_depend_on_tie_order():
    for labels in ([1, 0, 0], [0, 1, 0]):
        assert metrics.average_precision([0.5, 0.5, 0.1], labels) == 0.5
    # one operating point per distinct score: (P=0, R=0), (P=1/3, R=1/2), (P=2/4, R=1)
    assert metrics.average_precision([3, 2, 2, 1], [0, 1, 0, 1]) == pytest.approx(5 / 12)


@pytest.mark.parametrize("metric", [metrics.auroc, metrics.average_precision])
@pytest.mark.parametrize("labels", [[2, 1, 0, 0], [1, -1, 0, 0], [1, 0.5, 0, 0], [1, np.nan, 0, 0]])
def test_a_label_outside_zero_and_one_is_a_usage_error(metric, labels):
    with pytest.raises(UsageError, match="labels must be 0 or 1"):
        metric([0.9, 0.8, 0.7, 0.1], labels)


@pytest.mark.parametrize("metric", [metrics.auroc, metrics.average_precision])
def test_no_scores_are_metric_undefined(metric):
    for empty in ([], np.zeros((0, 3))):
        with pytest.raises(MetricUndefinedError, match="without any scores"):
            metric(empty, empty)


def test_stacked_maps_and_masks_score_as_lists():
    rng = np.random.default_rng(9)
    maps = rng.integers(0, 5, size=(4, 6, 5)) / 5.0
    masks = (rng.uniform(size=(4, 6, 5)) < 0.3).astype(np.int64)
    masks[0, 0, 0], masks[1, 0, 0] = 1, 0
    scores, labels = [0.2, 0.9, 0.4, 0.7], [0, 1, 0, 1]
    assert metrics.pro(maps, masks) == metrics.pro(list(maps), list(masks))
    stacked = metrics.evaluate_scores(scores, labels, maps, masks)
    assert stacked == metrics.evaluate_scores(scores, labels, list(maps), list(masks))
    with pytest.raises(UsageError, match="non-empty"):
        metrics.pro(maps[:0], masks[:0])


@pytest.mark.parametrize("metric", [metrics.auroc, metrics.average_precision])
def test_bool_and_float_labels_equal_integer_labels(metric):
    scores = [0.9, 0.8, 0.7, 0.1]
    want = metric(scores, [1, 0, 1, 0])
    assert metric(scores, np.array([True, False, True, False])) == want
    assert metric(scores, [1.0, 0.0, 1.0, 0.0]) == want


_MASK = np.array([[1, 0], [0, 0]])
_MAP = np.array([[0.9, 0.3], [0.1, 0.2]])
_NAN_MAP = np.array([[0.9, np.nan], [0.1, 0.2]])


@pytest.mark.parametrize("call", [
    lambda: metrics.auroc([np.nan, 1, 0, 0.5], [1, 0, 1, 0]),
    lambda: metrics.average_precision([np.nan, 1, 0, 0.5], [1, 0, 1, 0]),
    lambda: metrics.pro([_NAN_MAP], [_MASK]),
    lambda: metrics.evaluate_scores([np.nan, 0.5], [1, 0], [_MAP, _MAP], [_MASK, _MASK]),
    lambda: metrics.evaluate_scores([0.9, 0.5], [1, 0], [_MAP, _NAN_MAP], [_MASK, _MASK]),
], ids=["auroc", "average_precision", "pro", "evaluate_scores-image", "evaluate_scores-pixel"])
def test_a_nan_score_is_a_usage_error(call):
    with pytest.raises(UsageError, match="NaN"):
        call()


def test_infinite_scores_rank_as_they_compare():
    labels = [1, 0, 1, 0]
    for metric in (metrics.auroc, metrics.average_precision):
        assert metric([np.inf, 1, 0, -np.inf], labels) == metric([9, 1, 0, -9], labels)
    infinite = np.array([[np.inf, 0.3], [-np.inf, 0.2]])
    assert metrics.pro([infinite], [_MASK]) == metrics.pro([np.nan_to_num(infinite)], [_MASK])


@pytest.mark.parametrize("call", [
    lambda: metrics.label_regions(np.ones((2, 3, 3))),
    lambda: metrics.pro([np.zeros((2, 3, 3))], [np.ones((2, 3, 3))]),
    lambda: metrics.evaluate_scores([0.9, 0.5], [1, 0], [np.zeros((2, 3, 3))] * 2,
                                    [np.ones((2, 3, 3))] * 2),
], ids=["label_regions", "pro", "evaluate_scores"])
def test_a_mask_that_is_not_two_dimensional_is_a_usage_error(call):
    with pytest.raises(UsageError, match="2-D"):
        call()


# integer score levels, so that ties are common and a lookup table of
# increasing values is an exact strictly increasing transform
LEVELS = 6
scored_labels = st.integers(2, 60).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, n, elements=st.integers(0, LEVELS - 1)),
        arrays(np.int64, n, elements=st.integers(0, 1)),
    )
)
increasing = arrays(
    np.float64, LEVELS, elements=st.floats(1e-3, 1e3), unique=True
).map(lambda steps: np.cumsum(np.sort(steps)) - 50.0)


@settings(max_examples=30, deadline=None)
@given(scored_labels, increasing)
def test_auroc_and_ap_invariant_under_increasing_transforms(data, table):
    levels, labels = data
    scores = levels / 7.0
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert metrics.auroc(table[levels], labels) == pytest.approx(
        metrics.auroc(scores, labels), rel=1e-12)
    assert metrics.average_precision(table[levels], labels) == pytest.approx(
        metrics.average_precision(scores, labels), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(scored_labels, st.randoms(use_true_random=False))
def test_ap_invariant_under_permutation_within_tie_groups(data, random):
    levels, labels = data
    labels = labels.copy()
    labels[0] = 1
    before = metrics.average_precision(levels, labels)
    for level in range(LEVELS):
        group = np.flatnonzero(levels == level).tolist()
        shuffled = group[:]
        random.shuffle(shuffled)
        labels[group] = labels[shuffled]
    assert metrics.average_precision(levels, labels) == before


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.int64, (2, 5, 6), elements=st.integers(0, LEVELS - 1)),
    arrays(np.int64, (2, 5, 6), elements=st.integers(0, 1)),
    increasing,
)
def test_pro_invariant_under_increasing_transforms(levels, masks, table):
    masks[0, 0, 0], masks[1, 0, 0] = 1, 0
    plain = metrics.pro(list(levels / 7.0), list(masks))
    assert metrics.pro(list(table[levels]), list(masks)) == pytest.approx(plain, rel=1e-12)


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
