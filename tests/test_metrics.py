"""Metrics against scipy and brute-force oracles, their invariances as
``hypothesis`` properties, and ``evaluate_dataset`` against the report
rebuilt from ``predict``, the few-shot map and the blend, image by image,
whatever chunks it runs the images in; a repeated evaluation reads the
feature cache by sample id and recomputes only an image that changed, a
loaded checkpoint keeps that cache, and after a frozen edit read by
``frozen_hash`` nothing computed before it is read."""

import itertools
import threading
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage, stats

from sowa import adapter, metrics, numerics, training
from sowa import model as smodel
from sowa.backbone import Backbone
from sowa.config import default_config
from sowa.errors import MetricUndefinedError, UsageError
from sowa.fewshot import combine_maps, few_shot_map
from sowa.model import build_model
from sowa.synth import PatternSpec, synth_generate

from conftest import batch_case, edit_frozen, tiny_config


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
    # one serial chunk of all 16 images; then near-equal chunks of at most 6
    # (6, 5, 5), each run as two parts (3 + 3, 3 + 2, 3 + 2) on two threads
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
    """The frozen pass and the few-shot scoring run parts of a chunk, and
    the pooled-pixel sort runs, on a pool thread, but every callable a span
    tracer wraps runs on the caller's thread."""
    test, bank = few_shot_setup
    monkeypatch.setattr(numerics, "WORKERS", 2)
    monkeypatch.setattr(numerics, "CHUNK_TOKENS", 2 * tiny_model.backbone.config.tokens)
    threads = {}

    def recorded(name, fn):
        def spy(*args, **kwargs):
            threads.setdefault(name, []).append((threading.get_ident(), np.size(args[-1])))
            return fn(*args, **kwargs)
        return spy

    for owner, name in ((Backbone, "forward"), (smodel, "attended_features"),
                        (smodel, "project_tokens"), (metrics, "few_shot_map"),
                        (metrics, "label_regions"), (metrics, "_descending"),
                        (Backbone, "_blocks"), (adapter, "window_reverse")):
        monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
    map_image_parts = numerics.map_image_parts
    monkeypatch.setattr(numerics, "map_image_parts", lambda fn, stack, tokens: map_image_parts(
        recorded(f"{fn.__module__} part", fn), stack, tokens))
    metrics.evaluate_dataset(tiny_model, test, mode="few_shot", bank=bank)
    caller = threading.get_ident()
    for name in ("forward", "attended_features", "project_tokens", "few_shot_map",
                 "label_regions"):
        assert {thread for thread, _ in threads[name]} == {caller}, name
    assert len(threads["label_regions"]) == 1  # every mask in one labelling
    # the parts inside the traced steps did run on two threads
    assert len({thread for thread, _ in threads["_blocks"]}) == 2
    assert len({thread for thread, _ in threads["window_reverse"]}) == 2
    assert len({thread for thread, _ in threads["sowa.fewshot part"]}) == 2
    # the image scores are sorted on the caller, the pooled pixels on the pool
    pixels = sum(np.size(s.mask) for s in test)
    assert {(thread == caller, size) for thread, size in threads["_descending"]} == {
        (True, len(test)), (False, pixels)}


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pooled_pixel_metrics_equal_auroc_and_pro_on_tie_heavy_maps(dtype):
    """Pooled in the maps' own dtype, the pixels form the tie groups of their
    float64 copies, and evaluate_scores equals auroc and pro bit for bit."""
    rng = np.random.default_rng(12)
    for levels in (2, 3, 7):
        maps = list((rng.integers(0, levels, size=(6, 11, 13)) / levels).astype(dtype))
        maps[2][:] = maps[2][0, 0]  # a map that is one tie group
        masks = list((rng.uniform(size=(6, 11, 13)) < 0.3).astype(np.int64))
        image_scores, labels = rng.integers(0, 3, size=6) / 3, np.arange(6) % 2
        report = metrics.evaluate_scores(image_scores, labels, maps, masks)
        pixels = np.concatenate([m.ravel() for m in maps])
        truth = np.concatenate([g.ravel() for g in masks])
        assert report.as_auroc == metrics.auroc(pixels, truth)
        assert report.as_pro == metrics.pro(maps, masks)
        wide = metrics.evaluate_scores(image_scores, labels, [m.astype(np.float64) for m in maps],
                                       masks)
        assert (wide.ac_auroc, wide.ac_ap, wide.as_auroc) == (
            report.ac_auroc, report.ac_ap, report.as_auroc)


def _offset_regions(masks):
    """Each mask's own ``label_regions``, offset by the regions of the masks
    before it: every pixel's region (-1 when normal), and the count."""
    regions, count = [], 0
    for mask in masks:
        labels, n = metrics.label_regions(mask)
        regions.append(np.where(labels > 0, labels - 1 + count, -1).ravel())
        count += n
    return np.concatenate(regions), count


mask_shapes = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 7)), min_size=1, max_size=5)
mask_lists = mask_shapes.flatmap(lambda shapes: st.tuples(
    *(arrays(np.int64, shape, elements=st.integers(0, 2)) for shape in shapes)))


@settings(max_examples=150, deadline=None)
@given(mask_lists)
@example((np.ones((2, 3), np.int64), np.ones((2, 3), np.int64)))  # rows that meet across masks
@example((np.eye(3, dtype=np.int64)[::-1], np.eye(3, dtype=np.int64)))  # a diagonal that does
@example((np.ones((3, 2), np.int64), np.zeros((0, 4), np.int64), np.ones((1, 5), np.int64)))
@example((np.zeros((4, 4), np.int64), np.zeros((2, 6), np.int64)))  # no region at all
def test_one_labelling_of_every_mask_equals_each_masks_own_with_offsets(masks):
    regions, count = metrics._pixel_regions(masks, masks)
    expected, expected_count = _offset_regions(masks)
    assert count == expected_count
    assert regions.dtype == expected.dtype
    np.testing.assert_array_equal(regions, expected)


def test_with_one_worker_the_pooled_sort_runs_inline_and_starts_no_thread(monkeypatch):
    rng = np.random.default_rng(13)
    maps = list(rng.integers(0, 4, size=(5, 9, 8)) / 4)
    masks = list((rng.uniform(size=(5, 9, 8)) < 0.3).astype(np.int64))
    args = (rng.uniform(size=5), np.arange(5) % 2, maps, masks)
    monkeypatch.setattr(numerics, "WORKERS", 1)
    monkeypatch.setattr(numerics, "_pool", None)
    sorted_on = []
    descending = metrics._descending
    monkeypatch.setattr(metrics, "_descending", lambda scores: (
        sorted_on.append(threading.get_ident()) or descending(scores)))
    before = threading.active_count()
    report = metrics.evaluate_scores(*args)
    assert numerics._pool is None and threading.active_count() == before
    assert set(sorted_on) == {threading.get_ident()} and len(sorted_on) == 3
    monkeypatch.undo()
    assert metrics.evaluate_scores(*args) == report


def test_many_images_run_as_near_equal_chunks_of_two_parts(monkeypatch):
    """72 images at 64 px run as 15/15/14/14/14, not four chunks of 16 and
    one of 8 on one thread; each chunk runs as two parts, 8 + 7 or 7 + 7."""
    model = build_model(default_config(seed=0))
    samples = synth_generate(PatternSpec(kind="mixed", seed=0), 72, image_size=64).samples
    monkeypatch.setattr(numerics, "WORKERS", 2)
    chunks, keys, parts = [], [], []
    predict_batch, blocks = model.predict_batch, Backbone._blocks

    def counting(images, cache_keys):
        chunks.append(len(images))
        keys.extend(cache_keys)
        return predict_batch(images, cache_keys)

    monkeypatch.setattr(model, "predict_batch", counting)
    monkeypatch.setattr(Backbone, "_blocks",
                        lambda self, images: parts.append(len(images)) or blocks(self, images))
    metrics.evaluate_dataset(model, samples)
    assert chunks == [15, 15, 14, 14, 14]
    assert keys == [s.sample_id for s in samples]
    assert sorted(parts) == sorted([8, 7, 8, 7] + [7] * 6)
    parts.clear()
    model.build_memory_bank([s.image for s in samples[:8]])
    assert parts == [8]  # 512 tokens: one part on the calling thread


@pytest.fixture()
def evaluations(monkeypatch):
    """One record per ``evaluate_dataset`` call: the (B, H, W) pixel maps it
    scored, and the images of each ``Backbone.forward`` pass it made."""
    calls = []
    evaluate_scores, forward = metrics.evaluate_scores, Backbone.forward

    def scoring(scores, labels, maps, masks, **kwargs):
        calls[-1]["maps"] = np.stack(maps)
        return evaluate_scores(scores, labels, maps, masks, **kwargs)

    def forwarding(backbone, images):
        if calls and "report" not in calls[-1]:  # inside an evaluation
            calls[-1]["passes"].append(np.array(images))
        return forward(backbone, images)

    def evaluate(model, samples, **kwargs):
        calls.append({"passes": []})
        calls[-1]["report"] = metrics.evaluate_dataset(model, samples, **kwargs)
        return calls[-1]

    monkeypatch.setattr(metrics, "evaluate_scores", scoring)
    monkeypatch.setattr(Backbone, "forward", forwarding)
    return evaluate


def _same(first, second):
    """The same report and the same pixel maps, bit for bit."""
    return (first["report"].metric_items() == second["report"].metric_items()
            and first["maps"].tobytes() == second["maps"].tobytes())


def _own_images(samples):
    return [replace(s, image=s.image.copy()) for s in samples]


@pytest.mark.parametrize("mode", ["zero_shot", "few_shot"])
def test_a_repeated_evaluation_runs_no_frozen_pass_and_reports_the_same(
        tiny_corpus, evaluations, monkeypatch, mode):
    monkeypatch.setattr(numerics, "CHUNK_TOKENS", 48)  # 16 test images in chunks of 6/5/5
    test = tiny_corpus.split("test")
    refs = [s.image for s in tiny_corpus.split("train")]
    bank = build_model(tiny_config()).build_memory_bank(refs)
    model = build_model(tiny_config())
    first = evaluations(model, test, mode=mode, bank=bank)
    assert sum(len(p) for p in first["passes"]) == len(test)
    second = evaluations(model, test, mode=mode, bank=bank)
    assert second["passes"] == []
    fresh = evaluations(build_model(tiny_config()), test, mode=mode, bank=bank)
    assert _same(second, first) and _same(second, fresh)


def test_an_image_edited_between_evaluations_is_the_only_one_recomputed(tiny_corpus, evaluations):
    test = _own_images(tiny_corpus.split("test"))
    model = build_model(tiny_config())
    evaluations(model, test)
    test[3].image[5, 6, 2] += 0.25
    again = evaluations(model, test)
    assert len(again["passes"]) == 1
    np.testing.assert_array_equal(again["passes"][0], test[3].image[None])
    assert _same(again, evaluations(build_model(tiny_config()), test))


def test_samples_that_share_an_id_in_one_chunk_each_get_their_own_features(
        tiny_corpus, evaluations):
    test = tiny_corpus.split("test")
    shared = [replace(s, sample_id="one id") for s in test]
    model = build_model(tiny_config())
    assert len(numerics.near_equal_chunks(shared, model.chunk_size)) == 1
    want = evaluations(build_model(tiny_config()), test)
    for _ in range(2):  # cold, then with the id's entry made from the last image
        assert _same(evaluations(model, shared), want)


def _predicted_bits(model, image):
    pred = model.predict(image)
    return (pred.anomaly_map.scores.tobytes(), pred.image_score,
            pred.stage_features.tobytes())


@pytest.mark.parametrize("part", ["backbone", "encoder"])
def test_after_a_frozen_edit_and_frozen_hash_nothing_computed_before_it_is_read(
        tiny_corpus, evaluations, part):
    test = tiny_corpus.split("test")
    model, edited = build_model(tiny_config()), build_model(tiny_config())
    model.frozen_hash()
    before = evaluations(model, test)
    predicted = _predicted_bits(model, test[0].image)
    for m in (model, edited):
        edit_frozen(getattr(m, part).weights)
    model.frozen_hash()
    after = evaluations(model, test)
    assert sum(len(p) for p in after["passes"]) == len(test)  # every image recomputed
    assert _same(after, evaluations(edited, test)) and not _same(after, before)
    assert _predicted_bits(model, test[0].image) == _predicted_bits(edited, test[0].image)
    assert _predicted_bits(model, test[0].image) != predicted


def test_a_loaded_checkpoint_keeps_the_feature_cache(tiny_corpus, evaluations, tmp_path):
    test = tiny_corpus.split("test")
    trained = build_model(tiny_config())
    training.train_epoch(trained, tiny_corpus.samples, trained.config.optim)
    path = tmp_path / "trained.npz"
    trained.save_checkpoint(path)
    model = build_model(tiny_config())
    first = evaluations(model, test)
    model.load_checkpoint(path)
    again = evaluations(model, test)
    assert again["passes"] == []  # frozen activations read no parameter
    fresh = build_model(tiny_config())
    fresh.load_checkpoint(path)
    assert _same(again, evaluations(fresh, test)) and not _same(again, first)


def test_a_cold_evaluation_hashes_nothing(tiny_corpus, monkeypatch):
    hashed, hashing = [], smodel.tensor_hash
    monkeypatch.setattr(smodel, "tensor_hash", lambda a: hashed.append(np.shape(a)) or hashing(a))
    test = tiny_corpus.split("test")
    model = build_model(tiny_config())
    bank = model.build_memory_bank([s.image for s in tiny_corpus.split("train")])
    metrics.evaluate_dataset(model, test, mode="few_shot", bank=bank)
    assert len(model._feature_cache) == len(test)
    assert hashed == []


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


@pytest.mark.parametrize("fpr_limit", [0.1, 0.25, 0.3, 0.35, 0.7, 1.0])
def test_pro_at_a_limit_on_or_between_tie_groups_equals_brute_force_pro(fpr_limit):
    # 20 normal pixels in tie groups of 2, so the limits 0.1, 0.3 and 0.7
    # are each the FPR at the end of a group, and 0.25 and 0.35 fall inside
    # one; the sweep is cut at the last pixel of the crossing's group
    normal = np.random.default_rng(8).permutation(np.repeat(np.arange(10) / 10.0, 2))
    maps = [np.concatenate([normal, [0.95, 0.3, 0.8, 0.05]]).reshape(4, 6)]
    masks = [np.zeros((4, 6), dtype=bool)]
    masks[0][3, 2:] = True  # one region, tied with normal pixels at 0.3 and 0.8
    np.testing.assert_allclose(metrics.pro(maps, masks, fpr_limit=fpr_limit),
                               _brute_force_pro(maps, masks, fpr_limit), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fpr_limit", ["0.3", None, True, 0.0, -0.1, 1.5, float("nan")])
def test_an_fpr_limit_that_is_not_a_number_in_zero_one_is_a_usage_error(fpr_limit, monkeypatch):
    maps = [np.array([[0.9, 0.1], [0.2, 0.3]])]
    masks = [np.array([[1, 0], [0, 0]])]
    labelled = []
    monkeypatch.setattr(metrics, "label_regions", lambda mask: labelled.append(mask))
    with pytest.raises(UsageError, match="fpr_limit"):
        metrics.pro(maps, masks, fpr_limit=fpr_limit)
    with pytest.raises(UsageError, match="fpr_limit"):
        metrics.evaluate_scores([0.2, 0.8], [0, 1], maps, masks, fpr_limit=fpr_limit)
    assert labelled == []  # refused before any mask is labelled
    monkeypatch.undo()
    assert metrics.pro(maps, masks, fpr_limit=np.float32(1)) == metrics.pro(maps, masks, 1.0)


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


def test_tied_infinite_scores_are_one_tie_group():
    """inf - inf is NaN, not 0: tied infinities still end no tie group."""
    for top in (np.inf, -np.inf):
        scores = [top, top, 0.5, 0.5] if top > 0 else [0.5, 0.5, top, top]
        for labels in ([1, 0, 1, 0], [0, 1, 0, 1]):
            assert metrics.auroc(scores, labels) == 0.5
            assert metrics.average_precision(scores, labels) == 0.5
    maps = [np.array([[np.inf, np.inf], [0.0, 0.0]])]
    assert metrics.pro(maps, [_MASK]) == metrics.pro([np.array([[9.0, 9.0], [0, 0]])], [_MASK])


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


@pytest.mark.parametrize("kind", ["none", "array"])
def test_a_few_shot_bank_that_is_not_a_memory_bank_is_a_usage_error(tiny_model, few_shot_setup,
                                                                      kind):
    test, bank = few_shot_setup
    bank = None if kind == "none" else bank.features.copy()
    with pytest.raises(UsageError, match="memory bank"):
        metrics.evaluate_dataset(tiny_model, test, mode="few_shot", bank=bank)


def test_image_scores_and_maps_of_differing_counts_are_a_usage_error():
    mask = np.zeros((4, 4), dtype=np.int64)
    mask[1, 2] = 1
    with pytest.raises(UsageError, match="3 image scores for 1 pixel maps"):
        metrics.evaluate_scores([0.1, 0.5, 0.9], [0, 1, 1], [np.arange(16.0).reshape(4, 4)], [mask])


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
