"""Composite segmentation/classification loss, exact gradients, and the
Adam training loop.

The loss is a weighted sum of dice and focal terms on the per-pixel abnormal
probabilities against the mask, plus binary cross-entropy on the image-level
score against the label. Masks and labels arrive in {-1, +1} and are remapped
to {0, 1}. One formula scores a whole batch: the samples' cached frozen
activations are stacked along a leading batch axis, the prompts are encoded
once, and every term is a mean over the batch. Run on the trainable Vars it
builds one graph per batch, whose gradients reach exactly the trainable set
(four adapter projections and, in coop mode, the two prompt contexts); the
backbone, the injected attention weights, the text encoder, and the class
projection are constants of the graph. Run on the parameter arrays, as the
dataset loss does, it builds no graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import adapter as adapter_mod
from . import autodiff as ag
from . import fusion as fusion_mod
from . import prompts as prompts_mod
from .backbone import tensor_hash
from .config import LossSection, OptimSection
from .errors import TrainingError, UsageError

PRED_CLAMP = 1e-7


def dice_loss(pred, target01, eps: float = 1.0):
    """Batch mean of 1 - (2 sum(p g) + eps) / (sum(p) + sum(g) + eps).

    Axis 0 indexes the samples: each sample's sums run over all its other
    axes, so one sample's dice lives in [0, 1) whatever the batch holds.
    """
    shape_p = pred.shape if ag.is_var(pred) else np.asarray(pred).shape
    shape_g = np.asarray(target01).shape
    if tuple(shape_p) != tuple(shape_g):
        raise UsageError(f"dice shapes differ: pred {shape_p} vs target {shape_g}")
    if eps <= 0:
        raise UsageError("dice eps must be > 0")
    target = np.asarray(target01, dtype=np.float64 if not ag.is_var(pred) else None)
    axes = tuple(range(1, len(shape_p)))
    overlap = ag.sum_(ag.mul(pred, target), axis=axes)
    total = ag.add(ag.sum_(pred, axis=axes), np.sum(target, axis=axes))
    ratio = ag.div(ag.add(ag.mul(overlap, 2.0), eps), ag.add(total, eps))
    return ag.add(1.0, ag.mul(ag.mean(ratio), -1.0))


def focal_loss(pred, target01, gamma: float = 2.0, alpha: float = 0.5):
    """Mean of -alpha_t (1 - p_t)^gamma log(p_t) over every pixel of the
    batch, predictions clamped away from {0, 1}."""
    shape_p = pred.shape if ag.is_var(pred) else np.asarray(pred).shape
    target = np.asarray(target01)
    if tuple(shape_p) != tuple(target.shape):
        raise UsageError(f"focal shapes differ: pred {shape_p} vs target {target.shape}")
    p = ag.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP)
    g = target.astype(np.float64)
    # p_t = p when g = 1, else 1 - p
    p_t = ag.add(ag.mul(p, 2.0 * g - 1.0), 1.0 - g)
    alpha_t = alpha * g + (1.0 - alpha) * (1.0 - g)
    weight = ag.mul(ag.power(ag.add(1.0, ag.mul(p_t, -1.0)), gamma), alpha_t)
    return ag.mean(ag.mul(ag.mul(weight, ag.log(p_t)), -1.0))


def bce_loss(score, label01):
    """Batch mean of the binary cross-entropy of scores against {0, 1} labels."""
    s = ag.clip(score, PRED_CLAMP, 1.0 - PRED_CLAMP)
    y = np.asarray(label01, dtype=np.float64)
    pos = ag.mul(ag.log(s), -y)
    neg = ag.mul(ag.log(ag.add(1.0, ag.mul(s, -1.0))), -(1.0 - y))
    return ag.mean(ag.add(pos, neg))


def composite_loss(map_scores, mask_pm1, score, label_pm1, weights: LossSection):
    """lambda_1 dice + lambda_2 focal + lambda_3 bce on {-1,+1} annotations.

    Maps and masks are (B, H, W), scores and labels (B,): dice is taken per
    sample, and every term is its batch mean. Returns (total, per-term float
    dict); differentiable when the map and score are graph nodes.
    """
    weights = weights.validate()
    mask01 = (np.asarray(mask_pm1) + 1.0) / 2.0
    label01 = (np.asarray(label_pm1, dtype=np.float64) + 1.0) / 2.0
    d = dice_loss(map_scores, mask01, eps=weights.dice_eps)
    f = focal_loss(map_scores, mask01, gamma=weights.focal_gamma, alpha=weights.focal_alpha)
    b = bce_loss(score, label01)
    total = ag.add(
        ag.add(ag.mul(d, weights.dice), ag.mul(f, weights.focal)),
        ag.mul(b, weights.bce),
    )
    terms = {
        "dice": float(d.data if ag.is_var(d) else d),
        "focal": float(f.data if ag.is_var(f) else f),
        "bce": float(b.data if ag.is_var(b) else b),
    }
    return total, terms


def _batch_loss(model, samples: Sequence, cache_keys, projections, text):
    """The loss formula over a stacked batch, on ``projections`` (one
    (weight, bias) per stage) and ``text`` rows given as Vars or arrays."""
    if not samples:
        raise UsageError("cannot score an empty batch")
    if cache_keys is None:
        cache_keys = [None] * len(samples)
    acts = [model.frozen_forward(s.image, cache_key=k) for s, k in zip(samples, cache_keys)]
    stars = [
        adapter_mod.project_tokens(weight, bias, np.stack([a.adapter_inputs[i] for a in acts]))
        for i, (weight, bias) in enumerate(projections)
    ]
    cfg = model.config.fusion
    logits = fusion_mod.fuse(stars, text, cfg)
    size = model.backbone.config.image_size
    pmap = fusion_mod.abnormal_probability_map(logits, model.grid, (size, size), cfg)
    classes = np.stack([a.class_token for a in acts])
    score = fusion_mod.image_score(classes, model.cls_proj, text, cfg)
    masks = np.stack([s.mask for s in samples])
    labels = [s.label for s in samples]
    return composite_loss(pmap, masks, score, labels, model.config.loss)


def sample_loss(model, samples: Sequence, cache_keys: Optional[Sequence[int]] = None):
    """The loss graph of a batch of samples: one stacked graph whose loss
    is the batch mean; returns (loss Var, per-term floats)."""
    if model.config.prompt_kind == "coop":
        text = prompts_mod.encode_prompts(model.prompt_pair, model.encoder)
    else:
        text = model.text_features().features
    projections = [(a.weight, a.bias) for a in model.adapters]
    return _batch_loss(model, samples, cache_keys, projections, text)


def batch_gradients(model, samples: Sequence, cache_keys: Optional[Sequence[int]] = None):
    """Mean loss over a batch plus its gradients for every trainable tensor."""
    params = model.trainable()
    for var in params.values():
        var.zero_grad()
    loss, terms = sample_loss(model, samples, cache_keys)
    loss.backward()
    grads = {
        name: (var.grad if var.grad is not None else np.zeros_like(var.data)).copy()
        for name, var in params.items()
    }
    return float(loss.data), terms, grads


@dataclass
class TrainState:
    """Trainable parameters plus Adam moments and step counter."""

    params: Dict[str, ag.Var]
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name, var in self.params.items():
            self.m.setdefault(name, np.zeros_like(var.data))
            self.v.setdefault(name, np.zeros_like(var.data))


def new_train_state(model, optim: OptimSection) -> TrainState:
    optim = optim.validate()
    return TrainState(
        params=model.trainable(),
        lr=optim.lr,
        beta1=optim.beta1,
        beta2=optim.beta2,
        eps=optim.eps,
    )


def adam_step(state: TrainState, grads: Dict[str, np.ndarray]) -> TrainState:
    """Standard bias-corrected Adam; mutates parameters in place."""
    for name in state.params:
        if name not in grads:
            raise TrainingError(f"missing gradient for {name!r}")
        if not np.all(np.isfinite(grads[name])):
            raise TrainingError(f"non-finite gradient for {name!r}; step aborted")
    state.step += 1
    t = state.step
    for name, var in state.params.items():
        g = grads[name].astype(var.data.dtype)
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[name] / (1.0 - state.beta1**t)
        v_hat = state.v[name] / (1.0 - state.beta2**t)
        var.data = var.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


@dataclass
class EpochReport:
    initial_loss: float
    final_loss: float
    batch_losses: List[float]
    batch_terms: List[Dict[str, float]]
    steps: int
    frozen_hash_before: str
    frozen_hash_after: str
    param_hashes: Dict[str, str]


def mean_dataset_loss(model, samples: Sequence, cache: bool = True) -> float:
    """Mean per-sample loss of a dataset, builds no graph.

    The batch formula runs on the parameter arrays and the inference text
    features (encoded once per call), in chunks of the optimizer batch size
    so that memory does not grow with the dataset.
    """
    text = model.text_features().features
    projections = [(a.weight.data, a.bias.data) for a in model.adapters]
    bs = model.config.optim.batch_size
    total = 0.0
    for start in range(0, len(samples), bs):
        chunk = samples[start : start + bs]
        keys = range(start, start + len(chunk)) if cache else None
        loss, _ = _batch_loss(model, chunk, keys, projections, text)
        total += float(loss) * len(chunk)
    return total / len(samples)


def train_epoch(
    model,
    samples: Sequence,
    optim: OptimSection,
    seed: int = 0,
    state: Optional[TrainState] = None,
    log_fn: Optional[Callable[[Dict], None]] = None,
) -> Tuple[EpochReport, TrainState]:
    """One seeded-shuffle epoch of mean-gradient Adam steps.

    The report carries the dataset mean loss before and after the epoch and
    the frozen-tensor hash on both sides of training.
    """
    samples = list(samples)
    if not samples:
        raise UsageError("cannot train on an empty dataset")
    if state is None:
        state = new_train_state(model, optim)
    frozen_before = model.frozen_hash()
    initial = mean_dataset_loss(model, samples)
    order = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).permutation(
        len(samples)
    )
    batch_losses: List[float] = []
    batch_terms: List[Dict[str, float]] = []
    bs = optim.batch_size
    for start in range(0, len(samples), bs):
        batch_idx = [int(i) for i in order[start : start + bs]]
        batch = [samples[i] for i in batch_idx]
        loss, terms, grads = batch_gradients(model, batch, cache_keys=batch_idx)
        adam_step(state, grads)
        batch_losses.append(loss)
        batch_terms.append(terms)
        if log_fn is not None:
            log_fn({"step": state.step, "loss": loss, **terms})
    final = mean_dataset_loss(model, samples)
    report = EpochReport(
        initial_loss=initial,
        final_loss=final,
        batch_losses=batch_losses,
        batch_terms=batch_terms,
        steps=state.step,
        frozen_hash_before=frozen_before,
        frozen_hash_after=model.frozen_hash(),
        param_hashes={n: tensor_hash(v.data) for n, v in state.params.items()},
    )
    return report, state


def optimizer_tensors(state: TrainState) -> Dict[str, np.ndarray]:
    """Moments and step counter in archive form, for checkpointing."""
    out: Dict[str, np.ndarray] = {"adam.step": np.asarray([float(state.step)])}
    for name in state.params:
        out[f"adam.m.{name}"] = state.m[name].copy()
        out[f"adam.v.{name}"] = state.v[name].copy()
    return out


def restore_optimizer(state: TrainState, tensors: Dict[str, np.ndarray]) -> TrainState:
    if "adam.step" in tensors:
        state.step = int(tensors["adam.step"][0])
    for name in state.params:
        if f"adam.m.{name}" in tensors:
            state.m[name] = tensors[f"adam.m.{name}"].astype(state.params[name].data.dtype)
        if f"adam.v.{name}" in tensors:
            state.v[name] = tensors[f"adam.v.{name}"].astype(state.params[name].data.dtype)
    return state


def gradient_check(
    model,
    samples: Sequence,
    coords_per_tensor: int = 20,
    step: float = 1e-5,
    seed: int = 0,
) -> Dict[str, float]:
    """Max relative error of a batch's analytic vs central-difference gradients.

    The analytic side is ``batch_gradients``; the differences come from
    ``mean_dataset_loss``, the same formula run without a graph. Meant to run
    on a model built in float64 mode; float32 rounding is far above useful
    finite-difference resolution.
    """
    params = model.trainable()
    _, _, analytic = batch_gradients(model, samples, cache_keys=range(len(samples)))

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    errors: Dict[str, float] = {}
    for name, var in params.items():
        count = min(coords_per_tensor, var.data.size)
        coords = rng.choice(var.data.size, size=count, replace=False)
        worst = 0.0
        for idx in coords:
            where = np.unravel_index(idx, var.data.shape)
            original = var.data[where]
            var.data[where] = original + step
            hi = mean_dataset_loss(model, samples)
            var.data[where] = original - step
            lo = mean_dataset_loss(model, samples)
            var.data[where] = original
            fd = (hi - lo) / (2.0 * step)
            an = float(analytic[name].reshape(-1)[idx])
            rel = abs(an - fd) / max(1e-8, abs(fd))
            worst = max(worst, rel)
        errors[name] = worst
    return errors
