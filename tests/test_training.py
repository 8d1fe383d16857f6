"""Training contracts: the stacked batch loss and its exact gradients, one
prompt encoding per batch, a content-keyed feature cache, one epoch lowering
the loss without touching frozen tensors, and bit-identical resumption from
a checkpoint with its Adam state."""

import numpy as np
import pytest

from sowa import model as smodel
from sowa import numerics
from sowa import prompts, training
from sowa.config import default_config
from sowa.errors import UsageError
from sowa.model import build_model
from sowa.synth import PatternSpec, synth_generate

from conftest import tiny_config


@pytest.fixture(scope="module")
def model64():
    """The tiny model in float64, where rounding sits far below the tolerances."""
    with numerics.precision("float64"):
        return build_model(tiny_config())


def test_float64_gradient_check_through_the_batch(model64, tiny_corpus):
    with numerics.precision("float64"):
        errors = training.gradient_check(model64, tiny_corpus.samples[:3], coords_per_tensor=8)
    assert len(errors) == 10
    assert max(errors.values()) <= 1e-5, errors


def test_batch_equals_mean_of_single_sample_calls(model64, tiny_corpus):
    samples = tiny_corpus.samples[:4]
    assert {s.label for s in samples} == {-1, 1}
    with numerics.precision("float64"):
        loss, terms, grads = training.batch_gradients(model64, samples, cache_keys=range(4))
        singles = [training.batch_gradients(model64, [s], cache_keys=[0]) for s in samples]
    np.testing.assert_allclose(loss, np.mean([s[0] for s in singles]), rtol=1e-5)
    for term, value in terms.items():
        np.testing.assert_allclose(value, np.mean([s[1][term] for s in singles]), rtol=1e-5)
    for name, grad in grads.items():
        mean = np.mean([s[2][name] for s in singles], axis=0)
        np.testing.assert_allclose(grad, mean, rtol=1e-5, err_msg=name)


def test_prompts_encoded_once_per_batch_and_dataset_loss_builds_no_graph(
    tiny_model, tiny_corpus, monkeypatch, var_count
):
    calls = []
    encode = prompts.encode_prompts

    def counting(*args, **kwargs):
        calls.append(None)
        return encode(*args, **kwargs)

    # every lookup site: the training loss and encode_text call it through
    # ``sowa.prompts``, and ``sowa.model`` imports the name
    monkeypatch.setattr(prompts, "encode_prompts", counting)
    monkeypatch.setattr(smodel, "encode_prompts", counting)
    samples = tiny_corpus.samples[:8]
    training.batch_gradients(tiny_model, samples, cache_keys=range(8))
    assert len(calls) == 1
    del calls[:], var_count[:]
    training.mean_dataset_loss(tiny_model, tiny_corpus.samples)  # 16 samples, 2 chunks
    assert len(calls) <= 1
    assert var_count == []


def test_feature_cache_never_serves_another_image():
    model = build_model(default_config(seed=0))
    first, second = (
        synth_generate(PatternSpec(kind="mixed", seed=seed), 8, image_size=64).samples
        for seed in (0, 1)
    )
    training.mean_dataset_loss(model, first)  # caches under keys 0..7
    cached = training.mean_dataset_loss(model, second)  # the same keys, other images
    assert cached == training.mean_dataset_loss(model, second, cache=False)


def test_one_epoch_lowers_loss_and_keeps_frozen_tensors(tiny_corpus):
    model = build_model(tiny_config())
    frozen = model.frozen_hash()
    report, state = training.train_epoch(model, tiny_corpus.samples, model.config.optim)
    assert report.final_loss < report.initial_loss
    assert report.steps == state.step == 2
    assert report.frozen_hash_before == report.frozen_hash_after == model.frozen_hash() == frozen


def _step(model, state, batch):
    _, _, grads = training.batch_gradients(model, batch, cache_keys=range(len(batch)))
    training.adam_step(state, grads)


def test_checkpoint_with_adam_state_resumes_bit_identically(tiny_corpus, tmp_path):
    optim = tiny_config().optim
    batches = [tiny_corpus.samples[i : i + 4] for i in (0, 4, 8)]
    trained = build_model(tiny_config())
    state = training.new_train_state(trained, optim)
    for batch in batches[:2]:
        _step(trained, state, batch)
    path = tmp_path / "ckpt.sowa"
    trained.save_checkpoint(path, extra=training.optimizer_tensors(state))

    resumed = build_model(tiny_config())
    leftovers = resumed.load_checkpoint(path)
    resumed_state = training.restore_optimizer(training.new_train_state(resumed, optim), leftovers)
    assert resumed_state.step == 2
    restarted = build_model(tiny_config())
    restarted.load_checkpoint(path)
    restarted_state = training.new_train_state(restarted, optim)  # fresh moments

    for model, st in ((trained, state), (resumed, resumed_state), (restarted, restarted_state)):
        _step(model, st, batches[2])
    want = trained.state_tensors()
    got = resumed.state_tensors()
    for name, value in want.items():
        assert np.array_equal(got[name], value), name
    # the moments matter: without them the third step lands elsewhere
    other = restarted.state_tensors()
    assert not all(np.array_equal(other[n], v) for n, v in want.items())


def test_empty_batch_rejected(tiny_model):
    with pytest.raises(UsageError):
        training.sample_loss(tiny_model, [])
