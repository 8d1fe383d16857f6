"""Synthetic corpus contracts: every sample is a pure function of (spec,
index), labels agree with masks, the split rule holds, each defect family
stays inside its area bounds, pixels sit on the 8-bit grid, and a malformed
``Sample`` is rejected."""

import numpy as np
import pytest

from sowa.errors import DataError
from sowa.synth import AREA_BOUNDS, KINDS, PatternSpec, Sample, generate_sample, synth_generate

SIZES = (16, 32, 64)


@pytest.fixture(scope="module")
def corpora():
    """Every pattern family at three sizes, two seeds each."""
    return {
        (kind, size, seed): synth_generate(PatternSpec(kind=kind, seed=seed), 16, image_size=size)
        for kind in KINDS + ("mixed",)
        for size in SIZES
        for seed in (0, 1)
    }


def _all_samples(corpora):
    return [s for ds in corpora.values() for s in ds.samples]


def test_same_spec_and_index_give_bit_identical_samples():
    spec = PatternSpec(kind="mixed", seed=3)
    corpus = synth_generate(spec, 8, image_size=32)
    for index in (0, 1, 5):
        again = generate_sample(spec, index, 32, "synthetic_mixed")
        ours = corpus.samples[index]
        np.testing.assert_array_equal(again.image, ours.image)
        np.testing.assert_array_equal(again.mask, ours.mask)
        assert (again.label, again.split, again.defect, again.sample_id) == (
            ours.label, ours.split, ours.defect, ours.sample_id)
    other = generate_sample(PatternSpec(kind="mixed", seed=4), 1, 32, "synthetic_mixed")
    assert not np.array_equal(other.image, corpus.samples[1].image)


def test_label_is_positive_exactly_when_the_mask_has_an_anomalous_pixel(corpora):
    for sample in _all_samples(corpora):
        assert set(np.unique(sample.mask)) <= {-1, 1}, sample.sample_id
        assert (sample.label == 1) == bool(np.any(sample.mask == 1)), sample.sample_id


def test_even_indices_are_normal_and_defects_are_test_only(corpora):
    for ds in corpora.values():
        for index, sample in enumerate(ds.samples):
            if index % 2 == 0:
                assert (sample.label, sample.defect) == (-1, "good"), sample.sample_id
            else:
                assert sample.label == 1 and sample.split == "test", sample.sample_id
                assert sample.defect in KINDS


def test_each_kind_covers_a_fraction_within_its_area_bounds(corpora):
    seen = set()
    for (_, size, _), ds in corpora.items():
        for sample in ds.samples:
            if sample.label < 0 or (size < 32 and sample.defect == "point"):
                continue  # below 32 px one 5-pixel point disk exceeds 0.5%
            lo, hi = AREA_BOUNDS[sample.defect]
            assert lo <= np.mean(sample.mask == 1) <= hi, sample.sample_id
            seen.add(sample.defect)
    assert seen == set(KINDS)


def test_pixels_sit_on_the_8_bit_grid(corpora):
    for sample in _all_samples(corpora):
        levels = sample.image.astype(np.float64) * 255.0
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0
        np.testing.assert_allclose(levels, np.round(levels), rtol=0, atol=1e-4,
                                   err_msg=sample.sample_id)


def test_split_partitions_the_samples(corpora):
    ds = corpora[("mixed", 32, 0)]
    train, test = ds.split("train"), ds.split("test")
    assert train and test
    ids = [s.sample_id for s in train + test]
    assert sorted(ids) == sorted(s.sample_id for s in ds.split("all"))
    assert len(set(ids)) == len(ds.samples)
    assert all(s.label == -1 for s in train)


def _sample(**overrides):
    fields = dict(image=np.zeros((4, 4, 3), dtype=np.float32), label=-1,
                  mask=np.full((4, 4), -1, dtype=np.int8), category="c", split="test",
                  defect="good", sample_id="c/test/good/0")
    fields.update(overrides)
    return Sample(**fields)


def test_malformed_sample_raises_data_error():
    assert _sample().validate().label == -1
    with pytest.raises(DataError, match="does not match"):
        _sample(mask=np.full((4, 5), -1, dtype=np.int8)).validate()
    with pytest.raises(DataError, match="label"):
        _sample(label=0).validate()
