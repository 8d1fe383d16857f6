"""Few-shot scoring against oracles: a bank member scores exactly zero, the
map is the upsampled sum of brute-force minimum cosine distances, a query
of a stack gets its own map bit for bit and the stack is scored one query at
a time, ``combine_maps`` hits both ends of its ``beta`` blend, references
that do not form a bank, and a bank that is not a ``MemoryBank``, raise
``UsageError``, and the bank freezes a copy of its own."""

import tracemalloc

import numpy as np
import pytest

from sowa import numerics
from sowa.backbone import STAGES
from sowa.errors import UsageError
from sowa.fewshot import MemoryBank, build_memory_bank, combine_maps, few_shot_map
from sowa.fusion import AnomalyMap

GRID = (4, 4)
DIMS = (16, 16)


def _unit_rows(rng, *shape, c=6):
    rows = rng.normal(size=(*shape, c))
    return (rows / np.linalg.norm(rows, axis=-1, keepdims=True)).astype(np.float32)


def test_a_bank_member_scores_exactly_zero(tiny_model, tiny_corpus):
    images = [s.image for s in tiny_corpus.samples[:3]]
    bank = tiny_model.build_memory_bank(images)
    for image in images:
        pred = tiny_model.predict(image)
        fmap = few_shot_map(pred.stage_features, bank, pred.grid, pred.anomaly_map.scores.shape)
        assert np.all(fmap == 0.0)


def test_the_map_is_the_upsampled_sum_of_brute_force_min_cosine_distances(rng):
    tokens = GRID[0] * GRID[1]
    query = _unit_rows(rng, STAGES, tokens)
    refs = _unit_rows(rng, 3, STAGES, tokens)
    fmap = few_shot_map(query, build_memory_bank(refs), GRID, DIMS)

    expected = np.empty((4,) + GRID)
    for level in range(STAGES):
        bank_rows = [r for ref in refs for r in ref[level].astype(np.float64)]
        for t, q in enumerate(query[level].astype(np.float64)):
            cosines = [q @ r / (np.linalg.norm(q) * np.linalg.norm(r)) for r in bank_rows]
            expected[level].flat[t] = 1.0 - max(cosines)
    np.testing.assert_allclose(
        fmap, numerics.bilinear_upsample(expected.sum(axis=0), *DIMS), rtol=0, atol=4e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_query_of_a_stack_gets_its_own_map_bit_for_bit(rng, dtype):
    tokens = GRID[0] * GRID[1]
    bank = build_memory_bank(_unit_rows(rng, 5, STAGES, tokens).astype(dtype))
    queries = _unit_rows(rng, 7, STAGES, tokens).astype(dtype)
    stacked = few_shot_map(queries, bank, GRID, DIMS)
    assert stacked.shape == (7, *DIMS) and stacked.dtype == dtype
    for query, fmap in zip(queries, stacked, strict=True):
        np.testing.assert_array_equal(fmap, few_shot_map(query, bank, GRID, DIMS))


def test_a_stack_of_queries_is_scored_one_query_at_a_time(rng):
    """16 queries at 64 px against an 8-image bank: the whole stack's
    (16, STAGES, 64, 512) similarities would be 8 MB in float32, one
    query's are 0.5 MB."""
    tokens = 8 * 8
    bank = build_memory_bank(_unit_rows(rng, 8, STAGES, tokens, c=32))
    queries = _unit_rows(rng, 16, STAGES, tokens, c=32)
    tracemalloc.start()
    try:
        few_shot_map(queries, bank, (8, 8), (64, 64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("kind", ["none", "array"])
def test_a_bank_that_is_not_a_memory_bank_is_a_usage_error(rng, kind):
    refs = _unit_rows(rng, 2, STAGES, GRID[0] * GRID[1])
    bank = None if kind == "none" else build_memory_bank(refs).features.copy()
    with pytest.raises(UsageError, match="MemoryBank"):
        few_shot_map(refs[0], bank, GRID, DIMS)


def test_image_ids_name_each_reference_or_raise(rng):
    refs = _unit_rows(rng, 4, STAGES, 4)
    assert build_memory_bank(refs, image_ids="abcd").image_ids == list("abcd")
    for ids in (["only-one"], list("abcde")):
        with pytest.raises(UsageError, match="image ids"):
            build_memory_bank(refs, image_ids=ids)


@pytest.mark.parametrize("refs, match", [
    (np.ones((2, 3, 4, 6), np.float32), r"\(K, 4, L, C\) stack, got \(2, 3, 4, 6\)"),
    ([np.ones((4, 4, 6), np.float32), np.ones((5, 4, 6), np.float32)], "do not stack"),
    ([np.ones((4, 4, 6), np.float32), np.ones((4, 4, 5), np.float32)], "do not stack"),
    (np.ones((1, 4, 6), np.float32), r"got \(1, 4, 6\)"),
    ([], "at least one reference"),
], ids=["three-stages", "five-stages", "two-widths", "one-dimensional", "none"])
def test_references_that_do_not_form_a_bank_are_a_usage_error(refs, match):
    with pytest.raises(UsageError, match=match):
        build_memory_bank(refs)


def test_the_bank_freezes_its_own_copy_and_rejects_a_malformed_array(rng):
    features = _unit_rows(rng, STAGES, 8)
    bank = MemoryBank(features, ["a", "b"])
    assert features.flags.writeable  # the caller's array is left as it was
    assert not bank.features.flags.writeable and not np.shares_memory(bank.features, features)
    np.testing.assert_array_equal(bank.features, features)
    refs = _unit_rows(rng, 1, STAGES, 8)
    built = build_memory_bank(refs)  # one reference: the reshape alone would be a view
    assert refs.flags.writeable and not np.shares_memory(built.features, refs)
    for array, ids in [(features, ["a", "b", "c"]), (features[:3], ["a", "b"]),
                       (features[0], ["a"]), (features[:, :0], []), (features, [])]:
        with pytest.raises(UsageError, match="memory bank needs"):
            MemoryBank(array, ids)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_combine_maps_endpoints(rng, beta):
    tokens = GRID[0] * GRID[1]
    zero = AnomalyMap(scores=rng.uniform(size=DIMS).astype(np.float32))
    # one bank row per level; query tokens are it (distance 0) or its opposite (2)
    row = _unit_rows(rng, 1)
    signs = np.where(np.arange(tokens) % 3 == 0, -1.0, 1.0).astype(np.float32)[:, None]
    bank = build_memory_bank(np.stack([[row] * STAGES]))
    fmap = few_shot_map(np.stack([signs * row] * STAGES), bank, GRID, DIMS)
    assert fmap.min() < 4.0 < fmap.max()  # the normalised term clips in places
    combined = combine_maps(zero, fmap, beta=beta)
    expected = zero.scores if beta == 0.0 else np.clip(fmap / 4.0, 0.0, 1.0)
    np.testing.assert_array_equal(combined.scores, expected)


@pytest.mark.parametrize("beta", [True, None, "0.5", -0.1, 1.5, float("nan")])
def test_a_beta_that_is_not_a_number_in_zero_one_is_a_usage_error(beta):
    zero = AnomalyMap(scores=np.zeros(DIMS, np.float32))
    few = np.ones(DIMS, np.float32)
    with pytest.raises(UsageError, match="beta"):
        combine_maps(zero, few, beta=beta)
    assert combine_maps(zero, few, beta=np.float32(1)).scores.max() == 0.25  # STAGES = 4


def test_a_float64_model_scores_few_shot_in_float64_outside_its_precision(tiny_corpus):
    from sowa.model import build_model

    from conftest import tiny_config

    with numerics.precision("float64"):
        model = build_model(tiny_config())
        images = [s.image.astype(np.float64) for s in tiny_corpus.samples[:3]]
        bank = model.build_memory_bank(images[:2])
        pred = model.predict(images[2])
        inside = few_shot_map(pred.stage_features, bank, pred.grid, pred.anomaly_map.scores.shape)
    assert numerics.default_dtype() == np.float32
    outside = few_shot_map(pred.stage_features, bank, pred.grid, pred.anomaly_map.scores.shape)
    assert inside.dtype == outside.dtype == np.float64
    np.testing.assert_array_equal(outside, inside)
