"""Training contracts: the stacked batch loss and its exact gradients, a
loss graph in the model's dtype whose backward fills only trainable paths,
one prompt encoding per batch (none for frozen prompts), a content-keyed
feature cache, one epoch lowering the loss without touching frozen tensors,
a continued epoch stepping at the learning rate it is given, bit-identical
resumption from a checkpoint with its Adam state (and
``WeightsError`` for Adam state that does not fit), a non-finite image
rejected before it is cached, and a warm epoch that looks up each sample once
and reuses the last epoch's final loss only while nothing it read has
changed."""

from dataclasses import replace

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import model as smodel
from sowa import numerics
from sowa import prompts, training
from sowa.backbone import tensor_hash
from sowa.config import default_config
from sowa.errors import UsageError, WeightsError
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


def test_float32_gradients_match_the_float64_oracle(model64, tiny_corpus):
    samples = tiny_corpus.samples[:8]
    with numerics.precision("float64"):
        _, _, want = training.batch_gradients(model64, samples)
    _, _, got = training.batch_gradients(build_model(tiny_config()), samples)
    assert got.keys() == want.keys()
    for name, grad in got.items():
        assert grad.dtype == np.float32
        scale = np.abs(want[name]).max()
        assert np.abs(grad - want[name]).max() <= 1e-4 * scale, name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_loss_graph_runs_in_the_model_dtype(tiny_corpus, dtype):
    with numerics.precision(dtype):
        model = build_model(tiny_config())
        loss, _ = training.sample_loss(model, tiny_corpus.samples[:8])
    nodes = ag._toposort(loss)
    assert len(nodes) == 232
    assert [n for n in nodes if n.dtype != np.dtype(dtype)] == []


def test_backward_leaves_every_constant_without_grad(tiny_model, tiny_corpus, monkeypatch):
    losses = []
    sample_loss = training.sample_loss

    def keeping(*args, **kwargs):
        losses.append(sample_loss(*args, **kwargs)[0])
        return losses[-1], {}

    monkeypatch.setattr(training, "sample_loss", keeping)
    training.batch_gradients(tiny_model, tiny_corpus.samples[:4])
    nodes = ag._toposort(losses[0])
    assert all(n.grad is not None for n in nodes)  # the tape holds tracked nodes only
    # the constants are the operands its closures hold
    held = [c.cell_contents for n in nodes if n._backward for c in n._backward.__closure__]
    held += [v for parts in held if isinstance(parts, list) for v in parts]  # concat
    constants = [v for v in held if ag.is_var(v) and not v.requires_grad]
    assert len(constants) > 60  # 92 in this graph
    assert [v for v in constants if v.grad is not None] == []


@pytest.mark.parametrize("prompt_kind", ["template", "fixed_pair"])
def test_frozen_prompts_reuse_the_cached_text(tiny_corpus, monkeypatch, prompt_kind):
    model = build_model(tiny_config(prompt_kind=prompt_kind))
    samples = tiny_corpus.samples[:4]
    graph_text = prompts.encode_prompts(model.prompt_pair, model.encoder)
    projections = [(a.weight, a.bias) for a in model.adapters]
    acts = training._features(model, samples)
    want, _ = training._batch_loss(model, samples, acts, projections, graph_text)
    model.text_features()  # the one encoding of this parameter state

    def refuse(*args, **kwargs):
        raise AssertionError("frozen prompts re-encoded")

    monkeypatch.setattr(prompts, "encode_prompts", refuse)
    monkeypatch.setattr(smodel, "encode_prompts", refuse)
    loss, _ = training.sample_loss(model, samples)
    assert float(loss.data) == float(want.data)


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
    model.clear_cache()
    assert cached == training.mean_dataset_loss(model, second)


def test_one_epoch_lowers_loss_and_keeps_frozen_tensors(tiny_corpus):
    model = build_model(tiny_config())
    frozen = model.frozen_hash()
    report, state = training.train_epoch(model, tiny_corpus.samples, model.config.optim)
    assert report.final_loss < report.initial_loss
    assert report.steps == state.step == 2
    assert report.frozen_hash_before == report.frozen_hash_after == model.frozen_hash() == frozen


def _step(model, state, batch):
    _, _, grads = training.batch_gradients(model, batch, cache_keys=range(len(batch)))
    training.adam_step(state, grads, model.config.optim.lr)


def test_a_continued_epoch_steps_at_the_rate_it_is_given(tiny_corpus):
    samples = tiny_corpus.samples[:8]
    optim = tiny_config().optim
    hashes = []
    for lr in (optim.lr, 10 * optim.lr):
        model = build_model(tiny_config())
        _, state = training.train_epoch(model, samples, optim)
        report, _ = training.train_epoch(model, samples, replace(optim, lr=lr), seed=1, state=state)
        hashes.append(report.param_hashes)
    assert hashes[0] != hashes[1]


def test_checkpoint_with_adam_state_resumes_bit_identically(tiny_corpus, tmp_path):
    batches = [tiny_corpus.samples[i : i + 4] for i in (0, 4, 8)]
    trained = build_model(tiny_config())
    state = training.TrainState(trained.trainable())
    for batch in batches[:2]:
        _step(trained, state, batch)
    path = tmp_path / "ckpt.npz"
    trained.save_checkpoint(path, extra=training.optimizer_tensors(state))

    resumed = build_model(tiny_config())
    leftovers = resumed.load_checkpoint(path)
    resumed_state = training.restore_optimizer(training.TrainState(resumed.trainable()), leftovers)
    assert resumed_state.step == 2
    restarted = build_model(tiny_config())
    restarted.load_checkpoint(path)
    restarted_state = training.TrainState(restarted.trainable())  # fresh moments

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


def test_empty_dataset_loss_rejected(tiny_model):
    with pytest.raises(UsageError, match="empty"):
        training.mean_dataset_loss(tiny_model, [])


def test_train_state_of_another_model_rejected(tiny_corpus):
    trained, other = build_model(tiny_config()), build_model(tiny_config())
    _, state = training.train_epoch(trained, tiny_corpus.samples[:8], trained.config.optim)
    before = other.state_tensors()
    with pytest.raises(UsageError, match="another model"):
        training.train_epoch(other, tiny_corpus.samples[:8], other.config.optim, state=state)
    after = other.state_tensors()
    assert all(np.array_equal(after[n], v) for n, v in before.items())


def _own_copies(samples):
    return [replace(s, image=s.image.copy(), mask=s.mask.copy()) for s in samples]


@pytest.fixture()
def dataset_passes(monkeypatch):
    """Graph-free ``composite_loss`` calls, one per chunk of a dataset pass."""
    calls = []
    composite = training.composite_loss

    def counting(map_scores, *args, **kwargs):
        if not ag.is_var(map_scores):
            calls.append(None)
        return composite(map_scores, *args, **kwargs)

    monkeypatch.setattr(training, "composite_loss", counting)
    return calls


def test_continued_epoch_reuses_the_final_loss_without_a_second_pass(tiny_corpus, dataset_passes):
    model = build_model(tiny_config())
    samples = tiny_corpus.samples
    chunks = -(-len(samples) // model.config.optim.batch_size)
    first, state = training.train_epoch(model, samples, model.config.optim, seed=0)
    assert len(dataset_passes) == 2 * chunks
    fresh = training.mean_dataset_loss(model, samples)
    del dataset_passes[:]
    second, _ = training.train_epoch(model, samples, model.config.optim, seed=1, state=state)
    assert len(dataset_passes) == chunks  # the final pass only
    assert second.initial_loss == fresh == first.final_loss


def _edit_mask(model, samples, state):
    samples[3].mask[5, 7] *= -1
    return samples, state


def _edit_image(model, samples, state):
    samples[2].image[4, 4, 1] += 0.25
    return samples, state


def _edit_parameter(model, samples, state):
    var = model.trainable()["adapter.1.weight"]
    var.data[0, 0] += 1e-3  # in place, as gradient_check does
    return samples, state


def _flip_label(model, samples, state):
    samples[0] = replace(samples[0], label=-samples[0].label)
    return samples, state


def _other_samples(model, samples, state):
    return samples[:12], state


def _fresh_state(model, samples, state):
    return samples, training.TrainState(model.trainable())


@pytest.mark.parametrize(
    "change",
    [_edit_mask, _edit_image, _edit_parameter, _flip_label, _other_samples, _fresh_state],
)
def test_any_change_since_the_last_epoch_recomputes_the_initial_loss(
    tiny_corpus, dataset_passes, change
):
    model = build_model(tiny_config())
    samples = _own_copies(tiny_corpus.samples)
    first, state = training.train_epoch(model, samples, model.config.optim, seed=0)
    samples, state = change(model, samples, state)
    fresh = training.mean_dataset_loss(model, samples)
    if change is not _fresh_state:
        assert fresh != first.final_loss  # the change moves the loss
    del dataset_passes[:]
    second, _ = training.train_epoch(model, samples, model.config.optim, seed=1, state=state)
    chunks = -(-len(samples) // model.config.optim.batch_size)
    assert len(dataset_passes) == 2 * chunks
    assert second.initial_loss == fresh


def test_frozen_prompt_contexts_are_part_of_the_loss_key(tiny_corpus):
    model = build_model(tiny_config(prompt_kind="template"))
    samples = tiny_corpus.samples
    first, state = training.train_epoch(model, samples, model.config.optim)
    context = model.prompt_pair.normal_context  # a parameter, not in the train state
    context.data = context.data * np.linspace(0.5, 1.5, context.shape[-1], dtype=context.dtype)
    fresh = training.mean_dataset_loss(model, samples)
    assert fresh != first.final_loss
    second, _ = training.train_epoch(model, samples, model.config.optim, seed=1, state=state)
    assert second.initial_loss == fresh


def test_warm_epoch_looks_up_each_sample_once(tiny_corpus, monkeypatch):
    model = build_model(tiny_config())
    samples = tiny_corpus.samples
    _, state = training.train_epoch(model, samples, model.config.optim)
    looked_up = []
    frozen_forward = smodel.SowaModel.frozen_forward

    def counting(self, image, cache_key=None):
        looked_up.append(id(image))
        return frozen_forward(self, image, cache_key=cache_key)

    monkeypatch.setattr(smodel.SowaModel, "frozen_forward", counting)
    training.train_epoch(model, samples, model.config.optim, seed=1, state=state)
    assert sorted(looked_up) == sorted(id(s.image) for s in samples)


def _bad_step(tensors):
    tensors["adam.step"] = np.asarray([-3.5])


def _nan_step(tensors):
    tensors["adam.step"] = np.asarray([np.nan])


def _two_steps(tensors):
    tensors["adam.step"] = np.asarray([2.0, 3.0])


def _short_first_moment(tensors):
    tensors["adam.m.adapter.0.weight"] = np.zeros(1, dtype=np.float32)


def _broadcast_second_moment(tensors):
    tensors["adam.v.adapter.0.weight"] = np.zeros(tensors["adam.v.adapter.0.weight"].shape[1:],
                                                  dtype=np.float32)


def _infinite_moment(tensors):
    tensors["adam.m.adapter.1.bias"] = np.full_like(tensors["adam.m.adapter.1.bias"], np.inf)


def _negative_second_moment(tensors):
    tensors["adam.v.adapter.2.bias"] = np.full_like(tensors["adam.v.adapter.2.bias"], -1.0)


def _integer_moment(tensors):
    tensors["adam.m.adapter.3.bias"] = tensors["adam.m.adapter.3.bias"].astype(np.int32)


@pytest.mark.parametrize("corrupt", [
    _bad_step, _nan_step, _two_steps, _short_first_moment, _broadcast_second_moment,
    _infinite_moment, _negative_second_moment, _integer_moment,
])
def test_optimizer_state_that_does_not_fit_raises_and_binds_nothing(tiny_corpus, corrupt):
    model = build_model(tiny_config())
    state = training.TrainState(model.trainable())
    _step(model, state, tiny_corpus.samples[:4])
    tensors = training.optimizer_tensors(state)
    fresh = training.TrainState(model.trainable())
    training.restore_optimizer(fresh, dict(tensors))  # the saved state fits
    assert fresh.step == 1
    corrupt(tensors)
    target = training.TrainState(model.trainable())
    with pytest.raises(WeightsError):
        training.restore_optimizer(target, tensors)
    assert target.step == 0
    assert all(not m.any() for m in target.m.values())
    assert all(not v.any() for v in target.v.values())


def test_a_non_finite_image_is_rejected_before_anything_is_cached(tiny_corpus):
    model = build_model(tiny_config())
    samples = tiny_corpus.samples[:4]
    bad = replace(samples[1], image=samples[1].image.copy())
    bad.image[3, 5, 1] = np.nan
    with pytest.raises(UsageError, match="non-finite"):
        model.frozen_forward(bad.image, cache_key=0)
    with pytest.raises(UsageError, match="non-finite"):
        training.train_epoch(model, [samples[0], bad, *samples[2:]], tiny_config().optim)
    assert tensor_hash(bad.image) not in model._feature_cache
