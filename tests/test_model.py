"""Model-level contracts: inference builds no autodiff graph, training
gradients reach every trainable tensor, every adapter, attention and prompt
kind predicts and trains, ``predict`` reproduces the outputs
pinned in ``perfbench/golden.npz``, warm ``predict`` calls reuse their
heap pages, the text features are encoded once per parameter state and are
read-only for every prompt kind, a model computes in the dtype it was built
in (float32 or float64) whatever the default at call time, and a checkpoint is
an ``.npz`` file that round-trips bit-exactly and fails on any corruption with
``ArchiveError`` or ``WeightsError``. Every frozen and trainable tensor of
five reference builds is bit-identical to a pinned digest."""

import hashlib
import io
import itertools
import os
import platform
import struct
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import fusion, numerics, prompts, training
from sowa.adapter import project_tokens
from sowa.config import PROMPT_KINDS, default_config
from sowa.errors import ArchiveError, UsageError, WeightsError
from sowa.model import build_model
from sowa.synth import PatternSpec, synth_generate
from sowa.training import batch_gradients, sample_loss

from conftest import tiny_config

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.npz"
GOLDEN_ATOL = 1e-5


def test_predict_creates_no_var(tiny_model, tiny_corpus, var_count):
    pred = tiny_model.predict(tiny_corpus.samples[0].image)
    assert var_count == []
    assert all(isinstance(f, np.ndarray) for f in pred.stage_features)
    assert isinstance(pred.anomaly_map.scores, np.ndarray)
    sample_loss(tiny_model, tiny_corpus.samples[:1])  # the count does see a graph
    assert var_count


def test_sample_loss_reaches_every_trainable(tiny_model, tiny_corpus):
    params = tiny_model.trainable()
    assert len(params) == 10  # 4 adapters x (weight, bias) + 2 prompt contexts
    for var in params.values():
        var.zero_grad()
    sample = next(s for s in tiny_corpus.samples if s.label > 0)
    loss, _ = sample_loss(tiny_model, [sample])
    loss.backward()
    try:
        for name, var in params.items():
            assert var.grad is not None and np.any(var.grad != 0), name
    finally:
        for var in params.values():
            var.zero_grad()


@pytest.mark.parametrize(
    "adapter_kind, attention_mode, prompt_kind",
    list(itertools.product(("fwa", "linear"), ("vv", "qkv"), ("coop", "template", "fixed_pair"))),
)
def test_every_kind_predicts_and_trains(tiny_corpus, adapter_kind, attention_mode, prompt_kind):
    model = build_model(tiny_config(
        adapter_kind=adapter_kind, attention_mode=attention_mode, prompt_kind=prompt_kind
    ))
    pred = model.predict(tiny_corpus.samples[1].image)
    assert np.isfinite(pred.image_score) and np.all(np.isfinite(pred.anomaly_map.scores))
    loss, _, grads = batch_gradients(model, tiny_corpus.samples[:2])
    assert np.isfinite(loss)
    assert grads.keys() == model.trainable().keys()
    assert len(grads) == (10 if prompt_kind == "coop" else 8)


@pytest.mark.parametrize(
    "key, overrides",
    [("64", {}), ("224", {"backbone": {"image_size": 224, "patch_size": 14}})],
)
def test_predict_matches_pinned_golden(key, overrides):
    config = default_config(seed=0, **overrides)
    model = build_model(config)
    size = config.backbone.image_size
    samples = synth_generate(PatternSpec(kind="mixed", seed=0), 2, image_size=size).samples
    with np.load(GOLDEN) as pinned:
        for i, sample in enumerate(samples):
            pred = model.predict(sample.image)
            outputs = {
                "map": pred.anomaly_map.scores,
                "score": np.asarray(pred.image_score),
                "features": np.stack(pred.stage_features),
            }
            for name, actual in outputs.items():
                np.testing.assert_allclose(
                    actual, pinned[f"{key}.{i}.{name}"], rtol=0, atol=GOLDEN_ATOL,
                    err_msg=f"{key}.{i}.{name}",
                )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are set through glibc")
def test_warm_predict_reuses_heap_pages():
    # A fresh interpreter, so that no earlier test has moved glibc's own
    # thresholds. Under the defaults every 64 px predict faulted about 1,500
    # pages back in: the temporaries the previous call had freed.
    code = (
        "import resource\n"
        "from sowa.config import default_config\n"
        "from sowa.model import build_model\n"
        "from sowa.synth import PatternSpec, synth_generate\n"
        "model = build_model(default_config(seed=0))\n"
        "image = synth_generate(PatternSpec(kind='mixed', seed=0), 1, image_size=64).samples[0].image\n"
        "model.predict(image)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(10):\n"
        "    model.predict(image)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ag.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                         capture_output=True, text=True).stdout
    assert int(out) < 10 * 100


@pytest.fixture()
def encode_calls(monkeypatch):
    """A list that grows by one for every ``encode_prompts`` call."""
    calls = []
    encode = prompts.encode_prompts

    def counting(*args, **kwargs):
        calls.append(None)
        return encode(*args, **kwargs)

    monkeypatch.setattr(prompts, "encode_prompts", counting)
    return calls


def test_text_encoded_once_per_parameter_state(tiny_corpus, encode_calls, tmp_path):
    model = build_model(tiny_config())
    images = [s.image for s in tiny_corpus.samples[:3]]
    bank = model.build_memory_bank(images)  # stage features need no text
    assert encode_calls == []
    for i, image in enumerate(images):
        features = model.predict(image).stage_features
        for stage, rows in enumerate(features):
            np.testing.assert_array_equal(bank.stages[stage][i * len(rows):(i + 1) * len(rows)], rows)
    training.mean_dataset_loss(model, tiny_corpus.samples[:4])
    assert len(encode_calls) == 1

    # Adam rebinds the context arrays
    state = training.TrainState(model.trainable())
    grads = batch_gradients(model, tiny_corpus.samples[:2])[2]
    training.adam_step(state, grads, model.config.optim.lr)
    del encode_calls[:]  # batch_gradients encodes its own graph
    model.predict(images[0])
    model.predict(images[1])
    assert len(encode_calls) == 1

    # an in-place edit of one element, as gradient_check makes
    model.prompt_pair.abnormal_context.data[0, 0] += 1e-3
    model.predict(images[0])
    assert len(encode_calls) == 2

    # a checkpoint rebinds them too
    other = build_model(tiny_config(seed=8))
    other.save_checkpoint(tmp_path / "other.npz")
    model.load_checkpoint(tmp_path / "other.npz")
    model.predict(images[0])
    assert len(encode_calls) == 3
    np.testing.assert_array_equal(
        model.text_features(), prompts.encode_text(model.prompt_pair, model.encoder))


def test_cached_text_is_read_only_and_changes_no_output(tiny_corpus):
    model = build_model(tiny_config())
    text = model.text_features()
    assert not text.flags.writeable
    with pytest.raises(ValueError):
        text[0, 0] = 0.0
    np.testing.assert_array_equal(text, prompts.encode_text(model.prompt_pair, model.encoder))
    warm = [model.predict(s.image) for s in tiny_corpus.samples[:3]]
    for sample, pred in zip(tiny_corpus.samples[:3], warm):
        cold = build_model(tiny_config()).predict(sample.image)  # encodes anew
        np.testing.assert_array_equal(pred.anomaly_map.scores, cold.anomaly_map.scores)
        assert pred.image_score == cold.image_score
        for ours, theirs in zip(pred.stage_features, cold.stage_features):
            np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("prompt_kind", PROMPT_KINDS)
def test_text_features_are_read_only_for_every_prompt_kind(prompt_kind, tmp_path):
    model = build_model(tiny_config(prompt_kind=prompt_kind))
    assert not model.text_features().flags.writeable
    saved = build_model(tiny_config(seed=8, prompt_kind=prompt_kind))
    saved.save_checkpoint(tmp_path / "c.npz")
    model.load_checkpoint(tmp_path / "c.npz")
    text = model.text_features()
    assert not text.flags.writeable
    for branch in ("normal_context", "abnormal_context"):  # the loaded contexts are encoded
        np.testing.assert_array_equal(getattr(model.prompt_pair, branch).data,
                                      getattr(saved.prompt_pair, branch).data)
    np.testing.assert_array_equal(text, prompts.encode_text(model.prompt_pair, model.encoder))
    with pytest.raises(ValueError):
        text[0, 0] = 0.0


def _pipeline_dtypes(model, sample):
    """Dtypes of the inference outputs and of the training graph's stages."""
    pred = model.predict(sample.image)
    acts = model.frozen_forward(sample.image)
    cfg = model.config.fusion
    text = prompts.encode_prompts(model.prompt_pair, model.encoder)
    stars = [project_tokens(a.weight, a.bias, x[None])
             for a, x in zip(model.adapters, acts.adapter_inputs)]
    logits = fusion.fuse(stars, text, cfg)
    size = model.backbone.config.image_size
    pmap = fusion.abnormal_probability_map(logits, model.grid, (size, size), cfg)
    score = fusion.image_score(acts.class_token[None], model.cls_proj, text)
    grads = batch_gradients(model, [sample])[2]
    dtypes = {
        "map": pred.anomaly_map.scores.dtype,
        "score": fusion.image_score(acts.class_token, model.cls_proj, model.text_features()).dtype,
        "text": model.text_features().dtype,
        "graph text": text.dtype,
        "graph logits": logits.dtype,
        "graph map": pmap.dtype,
        "graph score": score.dtype,
    }
    dtypes.update({f"stage {i}": f.dtype for i, f in enumerate(pred.stage_features)})
    dtypes.update({f"grad {n}": g.dtype for n, g in grads.items()})
    return dtypes


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_the_model_computes_in_its_default_dtype(tiny_corpus, dtype):
    with numerics.precision(dtype):
        model = build_model(tiny_config())
        dtypes = _pipeline_dtypes(model, tiny_corpus.samples[1])
    assert len(dtypes) == 7 + 4 + 10
    assert {name: d for name, d in dtypes.items() if d != np.dtype(dtype)} == {}


def test_a_float64_model_ignores_the_default_dtype_at_call_time():
    with numerics.precision("float64"):
        model = build_model(tiny_config())
        image = synth_generate(PatternSpec(kind="mixed", seed=5), 2, image_size=32).samples[1].image
        inside = model.predict(image)
    assert image.dtype == np.float64
    outside = model.predict(image)
    np.testing.assert_array_equal(outside.anomaly_map.scores, inside.anomaly_map.scores)
    assert outside.image_score == inside.image_score
    for ours, theirs in zip(outside.stage_features, inside.stage_features):
        assert ours.dtype == np.float64
        np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_round_trip_is_bit_exact_in_the_model_dtype(dtype, tmp_path):
    with numerics.precision(dtype):
        saved = build_model(tiny_config(seed=8))
        model = build_model(tiny_config())
    extra = {"adam.step": np.asarray([3.0]), "note": np.arange(4, dtype=np.int32)}
    saved.save_checkpoint(tmp_path / "c.npz", extra=extra)
    leftovers = model.load_checkpoint(tmp_path / "c.npz")  # outside the precision context
    for name, value in saved.state_tensors().items():
        loaded = model.parameters()[name].data
        assert loaded.dtype == np.dtype(dtype), name
        np.testing.assert_array_equal(loaded, value, err_msg=name)
    assert leftovers.keys() == extra.keys()
    for name, value in extra.items():
        assert leftovers[name].dtype == value.dtype
        np.testing.assert_array_equal(leftovers[name], value)


def test_two_saves_of_a_model_are_byte_identical(tmp_path, monkeypatch):
    model = build_model(tiny_config())
    model.save_checkpoint(tmp_path / "a.npz")
    # a day later, as far as a zip entry's timestamp could tell
    now, local = time.time, time.localtime
    monkeypatch.setattr(time, "time", lambda: now() + 86400)
    monkeypatch.setattr(time, "localtime", lambda secs=None: local(time.time() if secs is None else secs))
    model.save_checkpoint(tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_save_rejects_a_non_finite_tensor_and_an_extra_named_like_a_parameter(tmp_path):
    model = build_model(tiny_config())
    weight = model.parameters()["adapter.0.weight"].data.copy()
    with pytest.raises(UsageError, match="adapter.0.weight"):
        model.save_checkpoint(tmp_path / "c.npz", extra={"adapter.0.weight": weight + 1})
    with pytest.raises(UsageError, match="non-finite"):
        model.save_checkpoint(tmp_path / "c.npz", extra={"adam.step": np.asarray([np.nan])})
    model.parameters()["adapter.1.bias"].data[0] = np.inf
    with pytest.raises(UsageError, match="adapter.1.bias"):
        model.save_checkpoint(tmp_path / "c.npz")


def _write_truncated(path, tensors):
    np.savez(path, **tensors)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _write_bare_npy(path, tensors):
    with open(path, "wb") as fh:
        np.save(fh, tensors["adapter.0.weight"])


def _write_object_member(path, tensors):
    with open(path, "wb") as fh:
        np.savez(fh, **tensors, extra=np.array([{"a": 1}], dtype=object))


def _write_text_member(path, tensors):
    np.savez(path, **tensors)
    with zipfile.ZipFile(path, "a") as archive:
        archive.writestr("notes.txt", "not an array")


@pytest.mark.parametrize("write", [
    lambda path, tensors: None,  # no file at all
    _write_truncated, _write_bare_npy, _write_object_member, _write_text_member,
])
def test_an_unreadable_checkpoint_raises_archive_error_and_binds_nothing(write, tmp_path):
    model = build_model(tiny_config())
    before = model.state_tensors()
    path = tmp_path / "c.npz"
    write(path, build_model(tiny_config(seed=8)).state_tensors())
    with pytest.raises(ArchiveError):
        model.load_checkpoint(path)
    for name, value in model.state_tensors().items():
        np.testing.assert_array_equal(value, before[name])


@pytest.mark.parametrize("change", [
    lambda value: None,  # missing
    lambda value: value[:-1],
    lambda value: (value * 100).astype(np.int32),
    lambda value: np.full_like(value, np.nan),
], ids=["missing", "shape", "dtype", "non_finite"])
def test_a_checkpoint_that_does_not_fit_binds_nothing(change, tmp_path):
    model = build_model(tiny_config())
    before = model.state_tensors()
    tensors = build_model(tiny_config(seed=8)).state_tensors()
    changed = change(tensors.pop("prompt.abnormal_context"))  # the last one bound
    if changed is not None:
        tensors["prompt.abnormal_context"] = changed
    np.savez(tmp_path / "c.npz", **tensors)
    with pytest.raises(WeightsError, match="prompt.abnormal_context"):
        model.load_checkpoint(tmp_path / "c.npz")
    for name, value in model.state_tensors().items():
        np.testing.assert_array_equal(value, before[name])


def test_a_damaged_directory_cannot_hide_members(tmp_path):
    path = tmp_path / "c.npz"
    build_model(tiny_config()).save_checkpoint(path, extra={"adam.step": np.asarray([3.0])})
    blob = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:  # find the last parameter's directory entry
        entry = archive.start_dir
        for member in archive.infolist()[:-2]:
            entry += 46 + len(member.filename.encode()) + len(member.extra) + len(member.comment)
    blob[entry + 33] ^= 0x08  # its comment now runs over the "adam.step" entry after it
    path.write_bytes(bytes(blob))
    with pytest.raises(ArchiveError):
        build_model(tiny_config()).load_checkpoint(path)


def _member_spans(blob):
    """(structure positions, one position inside each member's array data)."""
    spans = []
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        for info in archive.infolist():
            name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
            start = info.header_offset + 30 + name_len + extra_len  # the member's .npy file
            npy_header_end = blob.index(b"\n", start) + 1
            spans.append((npy_header_end, start + info.file_size))
    in_data = np.zeros(len(blob), dtype=bool)
    for lo, hi in spans:
        in_data[lo:hi] = True
    return np.flatnonzero(~in_data), [(lo + hi) // 2 for lo, hi in spans]


def test_no_flipped_bit_loads_changed_tensors(tmp_path):
    saved = build_model(tiny_config(seed=8))
    extra = {"adam.step": np.asarray([3.0])}
    path = tmp_path / "c.npz"
    saved.save_checkpoint(path, extra=extra)
    blob = path.read_bytes()
    want = saved.state_tensors()
    structure, data = _member_spans(blob)
    rng = np.random.default_rng(0)
    positions = np.concatenate([rng.choice(structure, size=300, replace=False), data])
    model = build_model(tiny_config())
    failed = 0
    for pos, bit in zip(positions, rng.integers(0, 8, size=len(positions))):
        flipped = bytearray(blob)
        flipped[pos] ^= 1 << bit
        path.write_bytes(bytes(flipped))
        try:
            leftovers = model.load_checkpoint(path)
        except (ArchiveError, WeightsError):
            failed += 1
            continue
        for name, value in model.state_tensors().items():
            np.testing.assert_array_equal(value, want[name], err_msg=f"byte {pos} bit {bit}")
        assert leftovers.keys() == extra.keys(), f"byte {pos} bit {bit}"
        np.testing.assert_array_equal(leftovers["adam.step"], extra["adam.step"])
    assert failed >= len(data)  # at least every member's data flip was caught


# SHA-256 over every frozen and trainable tensor's name, dtype, shape and
# bytes, pinned from the weights as first built; any change to an init rule,
# a draw order or a seed offset changes it
WEIGHT_DIGESTS = {
    "default-64": (
        dict(), "float32",
        "76abfcd2237948c9ef3f470612a4ed42336619265262ecd3c24b18cd56467f2d",
    ),
    "paper-224": (
        dict(backbone={"image_size": 224, "patch_size": 14}), "float32",
        "7033afb28a66d69b01e09a4dc865641ce5fe21d9c49b0c7eab2681f9fa946729",
    ),
    "template": (
        dict(prompt_kind="template"), "float32",
        "cd9604e20d2c975967073a915bacb13725b0eb5f6c263b1d8809e4b4d6d5caef",
    ),
    "fixed_pair-seed3": (
        dict(seed=3, prompt_kind="fixed_pair"), "float32",
        "f4f40f08f7c147a1cf2245de17203589adfb7c6fd6f82dddf0175d418ba397d3",
    ),
    "float64-seed5": (
        dict(seed=5), "float64",
        "c12c63a0104049da8b497bdd2d2e6e2814016c32e4818a246239cf60ac4764f8",
    ),
}


def _weight_digest(model) -> str:
    tensors = {f"backbone.{n}": a for n, a in model.backbone.weights.items()}
    tensors.update({f"text_encoder.{n}": a for n, a in model.encoder.weights.items()})
    tensors["cls_proj"] = model.cls_proj
    tensors.update({n: v.data for n, v in model.parameters().items()})
    digest = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        digest.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("build", sorted(WEIGHT_DIGESTS))
def test_every_model_tensor_is_bit_identical_to_the_pinned_build(build):
    overrides, dtype, expected = WEIGHT_DIGESTS[build]
    with numerics.precision(dtype):
        model = build_model(default_config(**overrides))
    assert _weight_digest(model) == expected
