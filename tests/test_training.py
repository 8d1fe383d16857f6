"""Training contracts: the stacked batch loss and its exact gradients, a
loss graph in the model's dtype whose backward fills only trainable paths,
one prompt encoding per batch (none for frozen prompts), a feature cache
that never serves another image, dataset passes in the chunks inference
runs, one epoch lowering the loss without touching frozen tensors, a
continued epoch stepping at the learning rate it is given, bit-identical
resumption from a checkpoint with its Adam state (and ``WeightsError`` for
Adam state that does not fit), a non-finite image
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
from sowa.backbone import STAGES, tensor_hash
from sowa.config import default_config
from sowa.errors import TrainingError, UsageError, WeightsError
from sowa.model import build_model
from sowa.synth import PatternSpec, synth_generate

from conftest import fresh_frozen_digest, tiny_config


@pytest.fixture(scope="module")
def model64():
    """The tiny model in float64, where rounding sits far below the tolerances."""
    with numerics.precision("float64"):
        return build_model(tiny_config())


def test_float64_gradient_check_through_the_batch(model64, tiny_corpus):
    coords = 32  # per tensor: 64 adapter coordinates in all
    # the coordinates gradient_check draws hit every stage's slice of both
    # adapter tensors, and both branches' rows of the prompt contexts
    rng = np.random.default_rng(0)
    for name, var in model64.trainable().items():
        picked = rng.choice(var.data.size, size=min(coords, var.data.size), replace=False)
        rows = STAGES if name.startswith("adapter.") else 2
        assert set(np.unravel_index(picked, var.shape)[0]) == set(range(rows)), name
    with numerics.precision("float64"):
        errors = training.gradient_check(model64, tiny_corpus.samples[:3], coords_per_tensor=coords)
    assert len(errors) == 3
    assert max(errors.values()) <= 1e-5, errors


@pytest.mark.parametrize("kwargs", [
    {"coords_per_tensor": 0}, {"coords_per_tensor": 1.5}, {"coords_per_tensor": True},
    {"step": 0.0}, {"step": -1e-5}, {"step": float("nan")}, {"step": float("inf")}, {"step": None},
])
def test_a_gradient_check_that_could_not_check_is_a_usage_error(tiny_model, tiny_corpus, kwargs):
    with pytest.raises(UsageError, match=next(iter(kwargs))):
        training.gradient_check(tiny_model, tiny_corpus.samples[:2], **kwargs)


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
        samples = tiny_corpus.samples[:8]
        loss, _ = training.sample_loss(model, samples, training._features(model, samples))
    nodes = ag._toposort(loss)
    assert len(nodes) == 47
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
    assert len(constants) > 10  # 13 in this graph
    assert [v for v in constants if v.grad is not None] == []


def test_frozen_prompts_reuse_the_cached_text(tiny_corpus, monkeypatch):
    model = build_model(tiny_config(prompt_kind="template"))
    samples = tiny_corpus.samples[:4]
    assert not model.prompt_contexts.requires_grad
    graph_text = prompts.encode_prompts(model.prompt_contexts, model.encoder)
    projection = (model.adapter.weight, model.adapter.bias)
    acts = training._features(model, samples)
    want, _ = training._batch_loss(model, samples, acts, projection, graph_text)
    model.text_features()  # the one encoding of this parameter state

    def refuse(*args, **kwargs):
        raise AssertionError("frozen prompts re-encoded")

    monkeypatch.setattr(prompts, "encode_prompts", refuse)
    monkeypatch.setattr(smodel, "encode_prompts", refuse)
    loss, _ = training.sample_loss(model, samples, acts)
    assert float(loss.data) == float(want.data)


def test_prompts_encoded_once_per_batch_and_dataset_loss_builds_no_graph(
    tiny_model, tiny_corpus, monkeypatch, var_count
):
    calls = []
    encode = prompts.encode_prompts

    def counting(*args, **kwargs):
        calls.append(None)
        return encode(*args, **kwargs)

    # every lookup site: the training loss calls it through ``sowa.prompts``,
    # and ``text_features`` through the name ``sowa.model`` imports
    monkeypatch.setattr(prompts, "encode_prompts", counting)
    monkeypatch.setattr(smodel, "encode_prompts", counting)
    samples = tiny_corpus.samples[:8]
    training.batch_gradients(tiny_model, samples, cache_keys=range(8))
    assert len(calls) == 1
    acts = training._features(tiny_model, tiny_corpus.samples)
    del calls[:], var_count[:]
    training.mean_dataset_loss(tiny_model, tiny_corpus.samples, acts)  # 16 samples, one chunk
    assert len(calls) <= 1
    assert var_count == []


def test_feature_cache_never_serves_another_image():
    model = build_model(default_config(seed=0))
    first, second = (
        synth_generate(PatternSpec(kind="mixed", seed=seed), 8, image_size=64).samples
        for seed in (0, 1)
    )

    def loss(samples):  # looked up under keys 0..7 whatever the images
        return training.mean_dataset_loss(model, samples, training._features(model, samples, range(8)))

    loss(first)
    cached = loss(second)  # the same keys, other images
    model.clear_cache()
    assert cached == loss(second)


def test_train_epoch_runs_the_public_loss_functions(tiny_corpus, monkeypatch):
    """One ``sample_loss`` per step and one ``mean_dataset_loss`` per dataset
    pass, each looked up on the module, where a tracer or a test patches it."""
    calls = []
    for name in ("sample_loss", "mean_dataset_loss"):
        def counting(*args, _name=name, _function=getattr(training, name)):
            calls.append(_name)
            return _function(*args)

        monkeypatch.setattr(training, name, counting)
    model = build_model(tiny_config())
    _, state = training.train_epoch(model, tiny_corpus.samples, model.config.optim)  # 2 steps
    assert calls == ["mean_dataset_loss", "sample_loss", "sample_loss", "mean_dataset_loss"]
    del calls[:]
    training.train_epoch(model, tiny_corpus.samples, model.config.optim, seed=1, state=state)
    assert calls == ["sample_loss", "sample_loss", "mean_dataset_loss"]


def test_log_fn_gets_one_record_per_step_of_chained_epochs(tiny_corpus):
    """A record is the state's step count, which runs on across epochs, the
    step's loss and its terms: the report's ``batch_losses`` and ``batch_terms``."""
    model = build_model(tiny_config())
    samples = tiny_corpus.samples[:12]  # two steps an epoch, the second of 4 samples
    records = []
    first, state = training.train_epoch(model, samples, model.config.optim, log_fn=records.append)
    second, _ = training.train_epoch(model, samples, model.config.optim, seed=1, state=state,
                                     log_fn=records.append)
    losses = first.batch_losses + second.batch_losses
    terms = first.batch_terms + second.batch_terms
    assert [r["step"] for r in records] == [1, 2, 3, 4]
    assert (first.steps, second.steps) == (2, 4)
    for step, record in enumerate(records, start=1):
        assert list(record) == ["step", "loss", "dice", "focal", "bce"]
        assert record == {"step": step, "loss": losses[step - 1], **terms[step - 1]}


@pytest.mark.parametrize("seed", [-3, 1.5, True, "0", None])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_usage_error(tiny_corpus, seed):
    model = build_model(tiny_config())
    before = model.state_tensors()
    with pytest.raises(UsageError, match="seed"):
        training.train_epoch(model, tiny_corpus.samples[:4], model.config.optim, seed=seed)
    with pytest.raises(UsageError, match="seed"):
        training.gradient_check(model, tiny_corpus.samples[:2], seed=seed)
    after = model.state_tensors()
    assert all(np.array_equal(after[n], v) for n, v in before.items())
    training.train_epoch(model, tiny_corpus.samples[:4], model.config.optim, seed=np.int64(3))


def test_one_epoch_lowers_loss_and_keeps_frozen_tensors(tiny_corpus):
    model = build_model(tiny_config())
    frozen = model.frozen_hash()
    report, state = training.train_epoch(model, tiny_corpus.samples, model.config.optim)
    assert report.final_loss < report.initial_loss
    assert report.steps == state.step == 2
    assert report.frozen_hash_before == report.frozen_hash_after == model.frozen_hash() == frozen


def test_an_epochs_frozen_hashes_are_fresh_digests_of_the_frozen_tensors(tiny_corpus):
    model = build_model(tiny_config())
    samples = tiny_corpus.samples[:4]
    first, state = training.train_epoch(model, samples, model.config.optim)
    assert first.frozen_hash_before == first.frozen_hash_after == fresh_frozen_digest(model)
    # an edit between epochs shows in the next epoch's first hash
    w = model.encoder.weights["pos_embed"]
    w.setflags(write=True)
    w[0, 0] += 1.0
    second, _ = training.train_epoch(model, samples, model.config.optim, seed=1, state=state)
    assert second.frozen_hash_before != first.frozen_hash_after
    assert second.frozen_hash_before == second.frozen_hash_after == fresh_frozen_digest(model)


def _step(model, state, batch):
    _, _, grads = training.batch_gradients(model, batch, cache_keys=range(len(batch)))
    training.adam_step(state, grads, model.config.optim.lr)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3, "0.1", None, True])
def test_a_rate_that_is_not_a_positive_number_is_refused_before_any_change(tiny_corpus, lr):
    model = build_model(tiny_config())
    state = training.TrainState(model.trainable())
    grads = training.batch_gradients(model, tiny_corpus.samples[:2])[2]
    before = model.state_tensors()
    with pytest.raises(UsageError, match="lr"):
        training.adam_step(state, grads, lr)
    assert state.step == 0
    assert all(not m.any() for m in state.m.values())
    for name, value in model.state_tensors().items():
        np.testing.assert_array_equal(value, before[name])


def test_a_gradient_of_the_wrong_shape_is_refused_before_any_change(tiny_corpus):
    # a (4, 2, 3) gradient broadcasts against a (2, 3) parameter: Adam would
    # reshape the parameter to (4, 2, 3) and step, were the shape not checked
    model = build_model(tiny_config())
    state = training.TrainState(model.trainable())
    grads = training.batch_gradients(model, tiny_corpus.samples[:2])[2]
    grads["adapter.bias"] = np.broadcast_to(grads["adapter.bias"], (4, *grads["adapter.bias"].shape))
    before = model.state_tensors()
    with pytest.raises(TrainingError, match="'adapter.bias'"):
        training.adam_step(state, grads, model.config.optim.lr)
    assert state.step == 0
    assert all(not m.any() for m in state.m.values())
    for name, value in model.state_tensors().items():
        assert value.shape == before[name].shape
        np.testing.assert_array_equal(value, before[name])


def test_adam_moments_round_trip_under_the_parameter_names(tiny_corpus):
    model = build_model(tiny_config())
    state = training.TrainState(model.trainable())
    _step(model, state, tiny_corpus.samples[:4])
    tensors = training.optimizer_tensors(state)
    names = ("adapter.weight", "adapter.bias", "prompt.contexts")
    assert sorted(tensors) == sorted(["adam.step", *(f"adam.{k}.{n}" for k in "mv" for n in names)])
    assert tensors["adam.m.prompt.contexts"].shape == model.prompt_contexts.shape
    restored = training.restore_optimizer(training.TrainState(model.trainable()), tensors)
    assert restored.step == state.step == 1
    for kind in ("m", "v"):
        for name in names:
            saved = getattr(state, kind)[name]
            assert saved.any(), (kind, name)
            np.testing.assert_array_equal(getattr(restored, kind)[name], saved)


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
        training.sample_loss(tiny_model, [], [])


def test_empty_dataset_loss_rejected(tiny_model):
    with pytest.raises(UsageError, match="empty"):
        training.mean_dataset_loss(tiny_model, [], [])


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
    """The image count of each graph-free ``composite_loss`` call, one per
    chunk of a dataset pass, with ``numerics.CHUNK_TOKENS`` cut to 48 so
    that the tiny model's ``chunk_size`` (16 tokens an image) is 6 on two
    workers: 16 samples then run as three chunks, 6/5/5."""
    monkeypatch.setattr(numerics, "CHUNK_TOKENS", 48)
    calls = []
    composite = training.composite_loss

    def counting(map_scores, *args, **kwargs):
        if not ag.is_var(map_scores):
            calls.append(len(map_scores))
        return composite(map_scores, *args, **kwargs)

    monkeypatch.setattr(training, "composite_loss", counting)
    return calls


def _chunks(model, samples) -> list:
    """The image counts of a dataset pass's chunks: ``near_equal_chunks`` of ``chunk_size``."""
    return [len(c) for c in numerics.near_equal_chunks(samples, model.chunk_size)]


def test_a_dataset_pass_runs_the_chunks_inference_runs(model64, tiny_corpus, dataset_passes):
    samples = tiny_corpus.samples
    with numerics.precision("float64"):
        acts = training._features(model64, samples)
        loss = training.mean_dataset_loss(model64, samples, acts)
        singles = [training.mean_dataset_loss(model64, [s], [a]) for s, a in zip(samples, acts)]
    want = [6, 5, 5] if numerics.WORKERS == 2 else _chunks(model64, samples)
    assert dataset_passes[:-len(samples)] == want == _chunks(model64, samples)
    np.testing.assert_allclose(loss, np.mean(singles), rtol=1e-12)


def test_continued_epoch_reuses_the_final_loss_without_a_second_pass(tiny_corpus, dataset_passes):
    model = build_model(tiny_config())
    samples = tiny_corpus.samples
    chunks = len(_chunks(model, samples))
    assert chunks > 1
    first, state = training.train_epoch(model, samples, model.config.optim, seed=0)
    assert len(dataset_passes) == 2 * chunks
    fresh = training.mean_dataset_loss(model, samples, training._features(model, samples))
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
    var = model.trainable()["adapter.weight"]
    var.data[1, 0, 0] += 1e-3  # in place, as gradient_check does
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
    fresh = training.mean_dataset_loss(model, samples, training._features(model, samples))
    if change is not _fresh_state:
        assert fresh != first.final_loss  # the change moves the loss
    del dataset_passes[:]
    second, _ = training.train_epoch(model, samples, model.config.optim, seed=1, state=state)
    assert dataset_passes == 2 * _chunks(model, samples)
    assert second.initial_loss == fresh


def test_frozen_prompt_contexts_are_part_of_the_loss_key(tiny_corpus):
    model = build_model(tiny_config(prompt_kind="template"))
    samples = tiny_corpus.samples
    first, state = training.train_epoch(model, samples, model.config.optim)
    context = model.prompt_contexts  # a parameter, not in the train state
    context.data = context.data * np.linspace(0.5, 1.5, context.shape[-1], dtype=context.dtype)
    fresh = training.mean_dataset_loss(model, samples, training._features(model, samples))
    assert fresh != first.final_loss
    second, _ = training.train_epoch(model, samples, model.config.optim, seed=1, state=state)
    assert second.initial_loss == fresh


def test_warm_epoch_looks_up_each_sample_once(tiny_corpus, monkeypatch):
    model = build_model(tiny_config())
    samples = tiny_corpus.samples
    _, state = training.train_epoch(model, samples, model.config.optim)
    looked_up = []
    frozen_forward = smodel.SowaModel.frozen_forward

    def counting(self, images, cache_key=None):
        looked_up.append(tensor_hash(images))
        return frozen_forward(self, images, cache_key=cache_key)

    monkeypatch.setattr(smodel.SowaModel, "frozen_forward", counting)
    training.train_epoch(model, samples, model.config.optim, seed=1, state=state)
    assert sorted(looked_up) == sorted(tensor_hash(s.image[None]) for s in samples)


def _bad_step(tensors):
    tensors["adam.step"] = np.asarray([-3.5])


def _nan_step(tensors):
    tensors["adam.step"] = np.asarray([np.nan])


def _two_steps(tensors):
    tensors["adam.step"] = np.asarray([2.0, 3.0])


def _short_first_moment(tensors):
    tensors["adam.m.adapter.weight"] = np.zeros(1, dtype=np.float32)


def _broadcast_second_moment(tensors):
    # one stage's slice, which broadcasts against the whole (STAGES, C_vis, C_text)
    tensors["adam.v.adapter.weight"] = np.zeros(tensors["adam.v.adapter.weight"].shape[1:],
                                                dtype=np.float32)


def _infinite_moment(tensors):
    tensors["adam.m.adapter.bias"] = tensors["adam.m.adapter.bias"].copy()
    tensors["adam.m.adapter.bias"][1] = np.inf


def _negative_second_moment(tensors):
    tensors["adam.v.adapter.bias"] = tensors["adam.v.adapter.bias"].copy()
    tensors["adam.v.adapter.bias"][2] = -1.0


def _integer_moment(tensors):
    tensors["adam.m.adapter.bias"] = tensors["adam.m.adapter.bias"].astype(np.int32)


def _pre_rename_moment(tensors):  # the prompt contexts' name before they were one tensor
    tensors["adam.m.prompt.normal_context"] = tensors.pop("adam.m.prompt.contexts")[0]


def _unknown_adam_name(tensors):
    tensors["adam.beta1"] = np.asarray([0.9])


@pytest.mark.parametrize("corrupt", [
    _bad_step, _nan_step, _two_steps, _short_first_moment, _broadcast_second_moment,
    _infinite_moment, _negative_second_moment, _integer_moment, _pre_rename_moment,
    _unknown_adam_name,
])
def test_optimizer_state_that_does_not_fit_raises_and_binds_nothing(tiny_corpus, corrupt):
    model = build_model(tiny_config())
    state = training.TrainState(model.trainable())
    _step(model, state, tiny_corpus.samples[:4])
    tensors = training.optimizer_tensors(state)
    fresh = training.TrainState(model.trainable())
    training.restore_optimizer(fresh, dict(tensors))  # the saved state fits
    assert fresh.step == 1
    for kind in ("m", "v"):  # one moment per stacked tensor, every stage's slice set
        for name in ("adapter.weight", "adapter.bias"):
            moment = getattr(fresh, kind)[name]
            assert moment.shape[0] == STAGES and all(s.any() for s in moment), (kind, name)
            np.testing.assert_array_equal(moment, tensors[f"adam.{kind}.{name}"])
    corrupt(tensors)
    target = training.TrainState(model.trainable())
    with pytest.raises(WeightsError):
        training.restore_optimizer(target, tensors)
    assert target.step == 0
    assert all(not m.any() for m in target.m.values())
    assert all(not v.any() for v in target.v.values())


def test_a_pre_rename_adam_moment_is_refused_with_its_name_and_binds_no_step():
    state = training.TrainState(build_model(tiny_config()).trainable())
    width = state.params["prompt.contexts"].shape[1:]
    tensors = {"adam.step": np.asarray([3.0]), "adam.m.prompt.normal_context": np.ones(width)}
    with pytest.raises(WeightsError, match="'adam.m.prompt.normal_context'"):
        training.restore_optimizer(state, tensors)
    assert state.step == 0
    assert all(not m.any() for m in state.m.values())


def test_a_non_finite_image_is_rejected_before_anything_is_cached(tiny_corpus):
    model = build_model(tiny_config())
    samples = tiny_corpus.samples[:4]
    bad = replace(samples[1], image=samples[1].image.copy())
    bad.image[3, 5, 1] = np.nan
    with pytest.raises(UsageError, match="non-finite"):
        model.frozen_forward(bad.image[None], cache_key=0)
    assert model._feature_cache == {}
    with pytest.raises(UsageError, match="non-finite"):
        training.train_epoch(model, [samples[0], bad, *samples[2:]], tiny_config().optim)
    # sample 0 was looked up under key 0; the bad image under key 1 left no entry
    assert list(model._feature_cache) == [0]
    assert model._feature_cache[0][1].image_hash == tensor_hash(samples[0].image[None])
