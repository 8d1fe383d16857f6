"""Composite segmentation/classification loss, exact gradients, and the
Adam training loop.

The loss is the unweighted sum of dice and focal terms on the per-pixel
abnormal probabilities against the mask, plus binary cross-entropy on the
image-level score against the label, masks and labels remapped from
{-1, +1} to {0, 1}. Its fixed settings are ``DICE_EPS``, ``FOCAL_GAMMA``,
``FOCAL_ALPHA`` and Adam's ``BETA1``, ``BETA2`` and ``EPS``; the learning
rate and batch size are the run's ``OptimSection``.

Both loss functions take the samples' frozen activations, which their caller
fetches once; ``train_epoch`` reads them from the model's feature cache
under each sample's ``sample_id``, the key ``evaluate_dataset`` uses too, so
a warm epoch runs no frozen pass. ``sample_loss`` builds one graph per batch
on the trainable Vars, and ``mean_dataset_loss`` runs the same formula on
the parameter arrays with no graph. That formula is the model's
``score_batch``, which inference runs too, over (B, STAGES, L, C)
activations joined along the image axis, and every term is a batch mean. The
graph's gradients reach exactly the trainable set (the adapter's stacked
weight and bias and, in coop mode, the (2, l, width) prompt contexts);
frozen contexts are not encoded in it, the cached text features stand in.
The dice, focal and image-level cross-entropy terms are one graph node each,
with an analytic gradient for the map or the scores. Targets take the
prediction's dtype, so a float32 model's graph is float32 end to end. A
dataset pass runs its samples in the near-equal chunks of at most
``chunk_size`` images that inference uses (``numerics.near_equal_chunks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ag
from . import prompts as prompts_mod
from .backbone import tensor_bytes, tensor_hash
from .config import OptimSection
from .errors import TrainingError, UsageError, WeightsError
from .numerics import check_float, check_integer, near_equal_chunks

PRED_CLAMP = 1e-7
DICE_EPS = 1.0
FOCAL_GAMMA = 2.0
FOCAL_ALPHA = 0.5
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _target(pred, target) -> np.ndarray:
    """``target`` as an array of the prediction's shape in its float dtype
    (float64 for integer predictions), so the loss adds no wider node."""
    pred = pred.data if ag.is_var(pred) else np.asarray(pred)
    target = np.asarray(target, dtype=np.result_type(pred.dtype, np.float32))
    if pred.shape != target.shape:
        raise UsageError(f"loss shapes differ: pred {pred.shape} vs target {target.shape}")
    return target


def _dice(pred, target):
    axes = tuple(range(1, pred.ndim))
    overlap = np.sum(np.multiply(pred, target), axis=axes)
    total = np.add(np.sum(pred, axis=axes), np.sum(target, axis=axes))
    ratio = np.divide(np.add(np.multiply(overlap, 2.0), DICE_EPS), np.add(total, DICE_EPS))
    return np.add(1.0, np.multiply(ag.mean(ratio), -1.0))


def _grad_dice(g, pred, out, target):
    axes = tuple(range(1, pred.ndim))
    total = np.sum(pred + target, axis=axes, keepdims=True) + DICE_EPS
    d = target * (2.0 * total) - (2.0 * np.sum(pred * target, axis=axes, keepdims=True) + DICE_EPS)
    d *= -g / (len(pred) * total * total)
    return d


def dice_loss(pred, target01):
    """Batch mean of 1 - (2 sum(p g) + DICE_EPS) / (sum(p) + sum(g) + DICE_EPS).

    Axis 0 indexes the samples: each sample's sums run over all its other
    axes, so one sample's dice lives in [0, 1) whatever the batch holds. One
    node, of gradient -(2 g S - (2 O + DICE_EPS)) / (B S^2), S the denominator.
    """
    pred = pred if ag.is_var(pred) else np.asarray(pred)
    return ag._unary(_dice, _grad_dice, pred, _target(pred, target01))


def _focal(pred, g):
    # in place on three buffers of its own; each step rounds as its
    # out-of-place form did (IEEE sums and products commute)
    p_t = np.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP).astype(g.dtype, copy=False)
    t = np.multiply(g, 2.0)
    t -= 1.0
    p_t *= t
    np.subtract(1.0, g, out=t)
    p_t += t  # p where g = 1, else 1 - p
    t *= 1.0 - FOCAL_ALPHA
    alpha_t = np.multiply(g, FOCAL_ALPHA)
    alpha_t += t  # FOCAL_ALPHA g + (1 - FOCAL_ALPHA)(1 - g)
    np.multiply(p_t, -1.0, out=t)
    t += 1.0
    t **= FOCAL_GAMMA
    t *= alpha_t
    t *= np.log(p_t, out=p_t)
    t *= -1.0
    return ag.mean(t)


def _grad_focal(g, pred, out, target):
    sign = 2.0 * target - 1.0  # d p_t / d p
    p_t = np.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP)
    p_t *= sign
    p_t += 1.0 - target
    q = 1.0 - p_t
    d = np.log(p_t)
    d *= -FOCAL_GAMMA
    d += np.divide(q, p_t, out=p_t)
    d *= q ** (FOCAL_GAMMA - 1.0)
    sign *= (2.0 * FOCAL_ALPHA - 1.0) * target + (1.0 - FOCAL_ALPHA)  # times alpha_t
    d *= sign
    d *= (pred >= PRED_CLAMP) & (pred <= 1.0 - PRED_CLAMP)  # zero where the clamp holds
    d *= -g / pred.size
    return d


def focal_loss(pred, target01):
    """Mean of -alpha_t (1 - p_t)^FOCAL_GAMMA log(p_t) over every pixel of the
    batch, alpha_t = FOCAL_ALPHA on abnormal pixels and 1 - FOCAL_ALPHA on
    normal ones, predictions clamped away from {0, 1}. One node, whose
    gradient is zero where the clamp holds a prediction."""
    pred = pred if ag.is_var(pred) else np.asarray(pred)
    return ag._unary(_focal, _grad_focal, pred, _target(pred, target01))


def _bce(score, y):
    s = np.clip(score, PRED_CLAMP, 1.0 - PRED_CLAMP)
    pos = np.multiply(np.log(s), -y)
    neg = np.multiply(np.log(np.add(1.0, np.multiply(s, -1.0))), -(1.0 - y))
    return ag.mean(np.add(pos, neg))


def _grad_bce(g, score, out, y):
    s = np.clip(score, PRED_CLAMP, 1.0 - PRED_CLAMP)
    d = (s - y) / (s * (1.0 - s))
    d *= (score >= PRED_CLAMP) & (score <= 1.0 - PRED_CLAMP)  # zero where the clamp holds
    d *= g / score.size
    return d


def bce_loss(score, label01):
    """Batch mean of -y log(s) - (1 - y) log(1 - s), the binary cross-entropy
    of scores against {0, 1} labels, scores clamped away from {0, 1}. One
    node, of gradient (s - y) / (s (1 - s) B), zero where the clamp holds a
    score."""
    score = score if ag.is_var(score) else np.asarray(score)
    return ag._unary(_bce, _grad_bce, score, _target(score, label01))


def composite_loss(map_scores, mask_pm1, score, label_pm1):
    """dice + focal + bce on {-1,+1} annotations.

    Maps and masks are (B, H, W), scores and labels (B,): dice is taken per
    sample, and every term is its batch mean. Returns (total, per-term float
    dict); differentiable when the map and score are graph nodes.
    """
    mask01 = (_target(map_scores, mask_pm1) + 1.0) / 2.0
    label01 = (_target(score, label_pm1) + 1.0) / 2.0
    d = dice_loss(map_scores, mask01)
    f = focal_loss(map_scores, mask01)
    b = bce_loss(score, label01)
    total = ag.add(ag.add(d, f), b)
    terms = {
        "dice": float(d.data if ag.is_var(d) else d),
        "focal": float(f.data if ag.is_var(f) else f),
        "bce": float(b.data if ag.is_var(b) else b),
    }
    return total, terms


def _features(model, samples: Sequence, cache_keys=None) -> list:
    """Each sample's frozen activations, one stack-of-one ``frozen_forward`` call apiece.

    One image per pass, not ``chunk_size`` stacks: a stacked pass holds a
    whole chunk's temporaries at once, which raised the peak RSS of 64 px
    training on 32 samples from 52.0 to 56.5 MB (2-core host), to speed up
    only a run's first, cold epoch; warm epochs read the feature cache.
    """
    keys = [None] * len(samples) if cache_keys is None else cache_keys
    return [model.frozen_forward(s.image[None], None if k is None else [k])
            for s, k in zip(samples, keys)]


def _batch_loss(model, samples: Sequence, acts: Sequence, projection, text):
    """The loss of ``model.score_batch`` over a batch of samples, their frozen
    activations ``acts`` joined into one stack along the image axis, on the
    adapter's ``projection`` (weight, bias) and ``text`` rows given as Vars
    or arrays."""
    if not samples:
        raise UsageError("cannot score an empty batch")
    inputs = np.concatenate([a.adapter_inputs for a in acts])
    classes = np.concatenate([a.class_token for a in acts])
    _, pmap, score = model.score_batch(inputs, classes, projection, text)
    masks = np.stack([s.mask for s in samples])
    labels = [s.label for s in samples]
    return composite_loss(pmap, masks, score, labels)


def sample_loss(model, samples: Sequence, acts: Sequence):
    """The loss graph of a batch of samples, given their frozen activations
    ``acts``: one stacked graph whose loss is the batch mean; returns (loss
    Var, per-term floats)."""
    if model.prompt_contexts.requires_grad:
        text = prompts_mod.encode_prompts(model.prompt_contexts, model.encoder)
    else:
        text = model.text_features()  # frozen contexts: the cached constant
    projection = (model.adapter.weight, model.adapter.bias)
    return _batch_loss(model, samples, acts, projection, text)


def mean_dataset_loss(model, samples: Sequence, acts: Sequence) -> float:
    """Mean per-sample loss of a dataset, given each sample's frozen
    activations ``acts``; builds no graph.

    The batch formula runs on the parameter arrays and the inference text
    features (encoded once per parameter state), in the near-equal chunks of
    at most ``model.chunk_size`` samples that inference runs
    (``numerics.near_equal_chunks``), so that memory does not grow with the
    dataset. An empty dataset raises ``UsageError``.
    """
    if len(samples) == 0:
        raise UsageError("cannot score an empty dataset")
    text = model.text_features()
    projection = (model.adapter.weight.data, model.adapter.bias.data)
    total = 0.0
    for chunk, chunk_acts in zip(near_equal_chunks(samples, model.chunk_size),
                                 near_equal_chunks(acts, model.chunk_size)):
        loss, _ = _batch_loss(model, chunk, chunk_acts, projection, text)
        total += float(loss) * len(chunk)
    return total / len(samples)


def _gradients(params: Dict[str, ag.Var], loss) -> Dict[str, np.ndarray]:
    """Backward from a fresh loss graph; the gradient of each of ``params``."""
    for var in params.values():
        var.zero_grad()
    loss.backward()
    # a leaf owns its grad array (autodiff copies a leaf's first gradient)
    return {
        name: var.grad if var.grad is not None else np.zeros_like(var.data)
        for name, var in params.items()
    }


def batch_gradients(model, samples: Sequence, cache_keys: Optional[Sequence] = None):
    """Mean loss over a batch plus its gradients for every trainable tensor."""
    loss, terms = sample_loss(model, samples, _features(model, samples, cache_keys))
    return float(loss.data), terms, _gradients(model.trainable(), loss)


@dataclass
class TrainState:
    """Trainable parameters plus Adam moments and step counter; the learning
    rate is the ``OptimSection`` each epoch is given.

    ``train_epoch`` also keeps the epoch's final dataset loss here, under a
    content key of everything that loss read (``final_loss_key``). The next
    epoch on this state reuses it as its ``initial_loss`` only when that key
    still matches exactly.
    """

    params: Dict[str, ag.Var]
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    final_loss: Optional[float] = None
    final_loss_key: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        for name, var in self.params.items():
            self.m.setdefault(name, np.zeros_like(var.data))
            self.v.setdefault(name, np.zeros_like(var.data))


def adam_step(state: TrainState, grads: Dict[str, np.ndarray], lr: float) -> TrainState:
    """Standard bias-corrected Adam at rate ``lr``; mutates parameters in place.

    A missing or non-finite gradient, or one not of its parameter's shape,
    raises ``TrainingError``, and an ``lr`` that is not a finite float above
    zero ``UsageError``, before any state changes.
    """
    check_float(lr, "lr", 0.0, low_open=True)
    for name, var in state.params.items():
        if name not in grads:
            raise TrainingError(f"missing gradient for {name!r}")
        if np.shape(grads[name]) != var.data.shape:
            raise TrainingError(f"gradient for {name!r} is {np.shape(grads[name])}, "
                                f"expected {var.data.shape}; step aborted")
        if not np.all(np.isfinite(grads[name])):
            raise TrainingError(f"non-finite gradient for {name!r}; step aborted")
    state.step += 1
    t = state.step
    for name, var in state.params.items():
        g = grads[name].astype(var.data.dtype)
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * (g * g)
        m_hat = state.m[name] / (1.0 - BETA1**t)
        v_hat = state.v[name] / (1.0 - BETA2**t)
        var.data = var.data - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return state


@dataclass
class EpochReport:
    """What one epoch did.

    ``initial_loss`` and ``final_loss`` are the dataset mean loss before and
    after the epoch's steps. A continued epoch's ``initial_loss`` is the
    previous epoch's stored ``final_loss`` when nothing that loss read has
    changed since, and is computed afresh otherwise; either way it is
    bit-identical to ``mean_dataset_loss`` at the epoch's start.
    """

    initial_loss: float
    final_loss: float
    batch_losses: List[float]
    batch_terms: List[Dict[str, float]]
    steps: int
    frozen_hash_before: str
    frozen_hash_after: str
    param_hashes: Dict[str, str]


def _loss_key(model, frozen_hash: str, samples_key: tuple):
    """Everything the dataset loss reads: the frozen tensors' digest, every
    parameter's ``tensor_bytes`` (frozen contexts too), samples and config."""
    params = {name: tensor_bytes(var.data) for name, var in model.parameters().items()}
    return frozen_hash, params, samples_key, model.config


def _samples_key(samples: Sequence, acts: Sequence) -> tuple:
    """Each sample's entry ``snapshot`` (the same bytes object while the entry
    lives: an unchanged image compares by identity), mask and label."""
    return tuple((act.snapshot, tensor_bytes(s.mask), repr(s.label))
                 for s, act in zip(samples, acts))


def train_epoch(
    model,
    samples: Sequence,
    optim: OptimSection,
    seed: int = 0,
    state: Optional[TrainState] = None,
    log_fn: Optional[Callable[[Dict], None]] = None,
) -> Tuple[EpochReport, TrainState]:
    """One seeded-shuffle epoch of mean-gradient Adam steps, ``optim.batch_size``
    samples a step at rate ``optim.lr``.

    The report carries the dataset mean loss before and after the epoch and
    the frozen-tensor hash on both sides of training. Each sample's frozen
    activations are looked up once, and serve every batch and both loss
    passes. The final loss is kept in ``state``; a continued epoch reuses it
    as its ``initial_loss`` when the frozen hash, every parameter, every
    sample's image, mask and label, and the run config are what they were
    when it was computed, and computes the loss afresh otherwise. A
    ``state`` whose parameters are not this model's raises ``UsageError``.
    """
    samples = list(samples)
    if not samples:
        raise UsageError("cannot train on an empty dataset")
    check_integer(seed, "seed")
    trainable = model.trainable()
    if state is None:
        state = TrainState(trainable)
    elif state.params.keys() != trainable.keys() or any(
        state.params[name] is not var for name, var in trainable.items()
    ):
        raise UsageError("the train state holds parameters of another model")
    # every frozen byte is read on both sides of every epoch, where a
    # read-only flag can be switched off again: a change since the last
    # hash is hashed afresh and empties the model's caches
    frozen_before = model.frozen_hash()
    acts = _features(model, samples, [s.sample_id for s in samples])
    samples_key = _samples_key(samples, acts)
    key = _loss_key(model, frozen_before, samples_key)
    if state.final_loss is not None and state.final_loss_key == key:
        initial = state.final_loss
    else:
        initial = mean_dataset_loss(model, samples, acts)
    order = np.random.default_rng(seed).permutation(len(samples))
    batch_losses: List[float] = []
    batch_terms: List[Dict[str, float]] = []
    bs = optim.batch_size
    for start in range(0, len(samples), bs):
        batch = order[start : start + bs]
        loss, terms = sample_loss(model, [samples[i] for i in batch], [acts[i] for i in batch])
        grads = _gradients(state.params, loss)
        loss = float(loss.data)  # frees the graph before the next one is built
        adam_step(state, grads, optim.lr)
        batch_losses.append(loss)
        batch_terms.append(terms)
        if log_fn is not None:
            log_fn({"step": state.step, "loss": loss, **terms})
    final = mean_dataset_loss(model, samples, acts)
    frozen_after = model.frozen_hash()
    state.final_loss = final
    # a frozen tensor changed during the epoch: the final loss read both states
    state.final_loss_key = (_loss_key(model, frozen_after, samples_key)
                            if frozen_after == frozen_before else None)
    report = EpochReport(
        initial_loss=initial,
        final_loss=final,
        batch_losses=batch_losses,
        batch_terms=batch_terms,
        steps=state.step,
        frozen_hash_before=frozen_before,
        frozen_hash_after=frozen_after,
        param_hashes={name: tensor_hash(var.data) for name, var in state.params.items()},
    )
    return report, state


def optimizer_tensors(state: TrainState) -> Dict[str, np.ndarray]:
    """Moments and step counter as named arrays, the ``extra`` of a checkpoint."""
    out: Dict[str, np.ndarray] = {"adam.step": np.asarray([float(state.step)])}
    for name in state.params:
        out[f"adam.m.{name}"] = state.m[name].copy()
        out[f"adam.v.{name}"] = state.v[name].copy()
    return out


def restore_optimizer(state: TrainState, tensors: Dict[str, np.ndarray]) -> TrainState:
    """Bind the step counter and moments that ``optimizer_tensors`` saved.

    ``adam.step`` must be one finite, non-negative integer, and each
    ``adam.m.*`` and ``adam.v.*`` tensor finite floats of its parameter's
    shape, the second moments non-negative. Anything else, and any other
    ``adam.*`` name, raises ``WeightsError`` and binds nothing. An absent
    tensor leaves its value.
    """
    known = {"adam.step", *(f"adam.{kind}.{name}" for kind in "mv" for name in state.params)}
    unknown = sorted(n for n in tensors if n.startswith("adam.") and n not in known)
    if unknown:
        raise WeightsError(f"{unknown[0]!r} is no Adam tensor of this model's parameters")
    step = tensors.get("adam.step")
    if step is not None:
        value = float(step.reshape(-1)[0]) if step.size == 1 and step.dtype.kind in "fiu" else -1.0
        if not (np.isfinite(value) and value >= 0 and value.is_integer()):
            raise WeightsError(f"adam.step must be one finite, non-negative integer, got {step!r}")
    moments = {}
    for kind in ("m", "v"):
        for name, var in state.params.items():
            arr = tensors.get(f"adam.{kind}.{name}")
            if arr is None:
                continue
            if (arr.shape != var.data.shape or arr.dtype.kind != "f"
                    or not np.isfinite(arr).all() or (kind == "v" and (arr < 0).any())):
                raise WeightsError(f"adam.{kind}.{name} is {arr.dtype} {arr.shape}, expected "
                                   f"finite floats of shape {var.data.shape} (v >= 0)")
            moments[kind, name] = arr.astype(var.data.dtype)
    if step is not None:
        state.step = int(value)
    for (kind, name), arr in moments.items():
        getattr(state, kind)[name] = arr
    return state

