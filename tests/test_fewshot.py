"""Few-shot scoring against oracles: a bank member scores exactly zero, the
level maps equal a brute-force minimum cosine distance, and ``combine_maps``
hits both ends of its ``beta`` blend."""

import numpy as np
import pytest

from sowa import numerics
from sowa.fewshot import build_memory_bank, combine_maps, few_shot_map
from sowa.fusion import AnomalyMap

GRID = (4, 4)
DIMS = (16, 16)


def _unit_rows(rng, n, c=6):
    rows = rng.normal(size=(n, c))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def test_a_bank_member_scores_exactly_zero(tiny_model, tiny_corpus):
    images = [s.image for s in tiny_corpus.samples[:3]]
    bank = tiny_model.build_memory_bank(images)
    for image in images:
        pred = tiny_model.predict(image)
        fmap = few_shot_map(pred.stage_features, bank, pred.grid, pred.anomaly_map.scores.shape)
        assert np.all(fmap.level_maps == 0.0)
        assert np.all(fmap.few == 0.0)


def test_level_maps_equal_brute_force_min_cosine_distance(rng):
    tokens = GRID[0] * GRID[1]
    query = [_unit_rows(rng, tokens) for _ in range(4)]
    refs = [[_unit_rows(rng, tokens) for _ in range(4)] for _ in range(3)]
    fmap = few_shot_map(query, build_memory_bank(refs), GRID, DIMS)

    expected = np.empty((4,) + GRID)
    for level in range(4):
        bank_rows = [r for ref in refs for r in ref[level].astype(np.float64)]
        for t, q in enumerate(query[level].astype(np.float64)):
            cosines = [q @ r / (np.linalg.norm(q) * np.linalg.norm(r)) for r in bank_rows]
            expected[level].flat[t] = 1.0 - max(cosines)
    np.testing.assert_allclose(fmap.level_maps, expected, rtol=0, atol=1e-5)
    np.testing.assert_allclose(
        fmap.few, numerics.bilinear_upsample(fmap.level_maps.sum(axis=0), *DIMS), rtol=0, atol=1e-6)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_combine_maps_endpoints(rng, beta):
    tokens = GRID[0] * GRID[1]
    zero = AnomalyMap(scores=rng.uniform(size=DIMS).astype(np.float32),
                      token_logits=rng.normal(size=(tokens, 2)).astype(np.float32))
    # one bank row per level; query tokens are it (distance 0) or its opposite (2)
    row = _unit_rows(rng, 1)
    signs = np.where(np.arange(tokens) % 3 == 0, -1.0, 1.0).astype(np.float32)[:, None]
    bank = build_memory_bank([[row] * 4])
    fmap = few_shot_map([signs * row] * 4, bank, GRID, DIMS)
    assert fmap.few.min() < 4.0 < fmap.few.max()  # the normalised term clips in places
    combined = combine_maps(zero, fmap, beta=beta)
    expected = zero.scores if beta == 0.0 else np.clip(fmap.few / 4.0, 0.0, 1.0)
    np.testing.assert_array_equal(combined.scores, expected)
    assert combined.token_logits is zero.token_logits
