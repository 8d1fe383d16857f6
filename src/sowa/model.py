"""Full model assembly: frozen backbone, the window-attention adapter with
injected frozen weights, the dual-prompt text path, and fusion into maps and
scores.

The four stages are one array axis next to the image axis, from the frozen
pass down to the memory bank: (B, STAGES, L, C) activations and features,
one (STAGES, C_vis, C_text) adapter weight and one (STAGES, C_text) bias.

The parameters are the adapter projection and the one (2, l, width) tensor
of prompt contexts, which trains for ``coop`` and is frozen for
``template``; every other tensor is created once, marked read-only, and
covered by ``frozen_hash``, which training reads on both sides of every
epoch. Its first call keeps a copy of the frozen bytes (about 1.7 MB at 64
px) that later calls compare against, so a model that only predicts carries
none. The feature cache works the same way, one entry per image: an entry is
found by the caller's key for that image and served only when the image's
bytes equal the copy of its own image that the entry keeps. Training keys
each sample by its ``sample_id``, and so does ``evaluate_dataset``, through
``predict_batch``; ``predict`` and ``build_memory_bank`` pass no key and
bypass the cache. An image's SHA-256 is taken from the entry's copy when
training first reads it. A checkpoint is a numpy ``.npz`` file of the
parameters (``adapter.weight``, ``adapter.bias`` and ``prompt.contexts``),
plus any extra tensors such as the optimizer's moments.

Images run in stacks only. One frozen pass, ``frozen_forward`` (backbone,
then the windowed attention), takes a (B, S, S, 3) stack, and one scoring
formula, ``score_batch``, turns its activations into stage features, maps
and scores: training runs it on the parameter Vars, ``predict_batch`` on
their arrays. Only ``predict`` and its ``Prediction`` take and give a single
image, as a stack of one. ``evaluate_dataset`` and ``build_memory_bank``
run n images as ceil(n / ``chunk_size``) chunks of near-equal size
(``numerics.near_equal_chunks``), where ``chunk_size`` is
``numerics.CHUNK_TOKENS`` patch tokens for each of the ``numerics.WORKERS``
threads: 16 images at 64 px and 4 at 224 px on two, so 72 images at 64 px
run as 15/15/14/14/14. The frozen pass splits a chunk of more than
``numerics.CHUNK_TOKENS`` tokens into one part per thread (backbone and
windowed attention, ``numerics.map_image_parts``); the calling thread runs
the first part and every other step of the model.
Every per-image product of a stack, and every stage's slice of one, is the
BLAS call that image's stage makes alone; a one-row product (the class
token's) is kept one row per image, because BLAS rounds it differently from
a row of a larger product. So a prediction is the same bit for bit in any
stack, in any order, on any thread.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ag
from . import fusion as fusion_mod
from . import numerics
from .adapter import (
    AdapterParams,
    attended_features,
    new_adapter_params,
    project_tokens,
)
from .backbone import Backbone, init_synthetic, seeded_weights, tensor_hash
from .config import RunConfig
from .errors import ArchiveError, UsageError, WeightsError
from .fewshot import MemoryBank, build_memory_bank
from .fusion import AnomalyMap
from .prompts import FrozenTextEncoder, build_prompt_contexts, build_text_encoder, encode_prompts

# Most entries the feature cache keeps (LRU by key), one per image. An entry
# holds an image's frozen activations and a copy of its bytes, which a hit is
# checked against: about 112 KB at 64 px (64 KB of activations) and 845 KB
# at 224 px (256 KB of them). Evaluation reads the cache by sample id, so a
# 72-image 224 px evaluation keeps about 61 MB until its entries are evicted
# or ``clear_cache`` runs.
FEATURE_CACHE_LIMIT = 256
_SEED_OFFSETS = {"encoder": 1000003, "prompts": 2000003, "adapters": 3000003, "cls": 4000003}


@dataclass
class FrozenActivations:
    """Constants of the frozen pass over a stack of B images: adapter inputs
    + class tokens. A feature-cache entry is a stack of one that also keeps
    the (dtype, shape, C-order bytes) ``snapshot`` of its image's stack of one."""

    adapter_inputs: np.ndarray  # (B, STAGES, L, C_vis), post-attention for fwa
    class_token: np.ndarray  # (B, C_vis)
    snapshot: Optional[tuple] = field(default=None, repr=False)
    _image_hash: Optional[str] = field(default=None, repr=False)

    @property
    def image_hash(self) -> Optional[str]:
        """A cache entry's ``tensor_hash`` of its image's stack of one, taken
        from the snapshot when first read and kept; None for no entry."""
        if self._image_hash is None and self.snapshot is not None:
            dtype, shape, data = self.snapshot
            self._image_hash = tensor_hash(np.frombuffer(data, dtype).reshape(shape))
        return self._image_hash


@dataclass
class Prediction:
    """One image's map, its stage features as one (STAGES, L, C_text) array,
    and ``image_score``, the class-token score, which ``evaluate_dataset``'s
    default ``max_map`` does not read."""

    anomaly_map: AnomalyMap
    image_score: float
    stage_features: np.ndarray  # (STAGES, L, C_text), unit-norm rows
    grid: Tuple[int, int]


@dataclass
class SowaModel:
    config: RunConfig
    backbone: Backbone
    encoder: FrozenTextEncoder
    adapter: AdapterParams
    prompt_contexts: ag.Var  # (2, l, width): row 0 normal, row 1 abnormal
    cls_proj: np.ndarray
    # cache key -> one image's activations, with the snapshot of its bytes
    _feature_cache: Dict[object, FrozenActivations] = field(default_factory=dict, repr=False)
    _text_cache: Optional[Tuple[tuple, np.ndarray]] = field(default=None, repr=False)
    # (digest, {name: (dtype, shape, C-order bytes)}) of the last frozen_hash
    _frozen_snapshot: Optional[Tuple[str, Dict[str, tuple]]] = field(default=None, repr=False)

    # ---------------------------------------------------------------- frozen
    @property
    def grid(self) -> Tuple[int, int]:
        g = self.backbone.config.grid
        return (g, g)

    def _frozen_tensors(self) -> Dict[str, np.ndarray]:
        """Every frozen tensor by name: ``backbone.*``, ``text_encoder.*`` and ``cls_proj``."""
        tensors = {f"backbone.{n}": a for n, a in self.backbone.weights.items()}
        tensors.update({f"text_encoder.{n}": a for n, a in self.encoder.weights.items()})
        tensors["cls_proj"] = self.cls_proj
        return {name: np.asarray(arr) for name, arr in tensors.items()}

    def frozen_hash(self) -> str:
        """SHA-256 over every frozen tensor's name and ``tensor_hash``.

        The first call keeps a snapshot: the digest, and each tensor's dtype,
        shape and C-order bytes, which are what it hashes. A later call reads
        every frozen byte again and compares it, as bytes, with the snapshot
        (so -0.0 differs from 0.0 and a NaN equals its own bytes), along with
        the names, dtypes and shapes; when all match it returns the kept
        digest, and otherwise hashes afresh and keeps a new snapshot. Either
        way the result is the digest of the tensors as they are now.
        """
        tensors = self._frozen_tensors()
        if self._frozen_snapshot is not None:
            digest, kept = self._frozen_snapshot
            if kept.keys() == tensors.keys() and all(
                    (arr.dtype, arr.shape, arr.tobytes()) == kept[name]
                    for name, arr in tensors.items()):
                return digest
        kept = {name: (arr.dtype, arr.shape, arr.tobytes()) for name, arr in tensors.items()}
        joined = "\n".join(
            f"{name}:{tensor_hash(np.frombuffer(data, dtype).reshape(shape))}"
            for name, (dtype, shape, data) in sorted(kept.items()))
        digest = hashlib.sha256(joined.encode()).hexdigest()
        self._frozen_snapshot = (digest, kept)
        return digest

    @property
    def chunk_size(self) -> int:
        """Most images per ``predict_batch`` call where many are run: as
        many as ``numerics.CHUNK_TOKENS`` patch tokens hold per thread, on
        ``numerics.WORKERS`` threads; at least one. Many images run as
        ceil(n / ``chunk_size``) near-equal chunks
        (``numerics.near_equal_chunks``), not as full chunks and a remnant."""
        return max(1, numerics.WORKERS * numerics.CHUNK_TOKENS // self.backbone.config.tokens)

    def frozen_forward(self, images, cache_keys: Optional[Sequence] = None) -> FrozenActivations:
        """Backbone + (for fwa) frozen windowed attention, on a (B, S, S, 3)
        stack of images (see ``Backbone.forward``); cacheable per image.

        ``cache_keys``, one key per image, opts in to the cache; a count that
        is not the image count raises ``UsageError`` before the cache is
        touched. An image's entry is found by its key and served only when
        the dtype, shape and C-order bytes of the image's stack of one equal
        the snapshot the entry keeps. So a key reused for other bytes, or for
        an image edited in place, recomputes and replaces its entry, and can
        never return another image's features. The images that miss run as
        one stacked pass, and each becomes its own entry; the result joins
        every image's rows, which are the same bits in any stack. A stack of
        one returns its entry itself. The cache keeps the
        ``FEATURE_CACHE_LIMIT`` most recently used entries.
        """
        if cache_keys is None:
            return self._frozen_pass(images)
        keys = list(cache_keys)
        try:
            images = np.asarray(images)
        except ValueError as exc:  # a sequence of images of differing shapes
            raise UsageError(f"images do not stack into one array: {exc}") from exc
        if images.shape[:1] != (len(keys),):
            raise UsageError(f"{len(keys)} cache keys for a stack of shape {images.shape}")
        snapshots = [(images.dtype, image.shape, image.tobytes()) for image in images[:, None]]
        rows: List[Optional[FrozenActivations]] = [None] * len(keys)
        for i, (key, snapshot) in enumerate(zip(keys, snapshots)):
            entry = self._feature_cache.pop(key, None)
            if entry is not None and entry.snapshot == snapshot:
                self._feature_cache[key] = rows[i] = entry  # now the most recently used
        missed = [i for i, row in enumerate(rows) if row is None]
        if missed:
            acts = self._frozen_pass(images if len(missed) == len(keys) else images[missed])
            for at, i in enumerate(missed):  # copies: an entry pins no other image's rows
                rows[i] = FrozenActivations(acts.adapter_inputs[at:at + 1].copy(),
                                            acts.class_token[at:at + 1].copy(), snapshots[i])
                self._feature_cache[keys[i]] = rows[i]
            while len(self._feature_cache) > FEATURE_CACHE_LIMIT:
                del self._feature_cache[next(iter(self._feature_cache))]
        if len(rows) == 1:
            return rows[0]
        return FrozenActivations(np.concatenate([r.adapter_inputs for r in rows]),
                                 np.concatenate([r.class_token for r in rows]))

    def _frozen_pass(self, images) -> FrozenActivations:
        """The uncached frozen pass of a stack: ``Backbone.forward``, then
        (for fwa) ``attended_features``."""
        inputs, class_tokens = self.backbone.forward(images)
        if self.config.adapter_kind == "fwa":
            window = (self.config.window, self.config.window)
            inputs = attended_features(inputs, self.backbone.stage_attention_weights(), self.grid,
                                       window, mode=self.config.attention_mode)
        return FrozenActivations(inputs, class_tokens)

    def clear_cache(self) -> None:
        self._feature_cache.clear()

    # ------------------------------------------------------------- trainable
    def parameters(self) -> Dict[str, ag.Var]:
        """Adapter projection and the prompt contexts: what a checkpoint holds."""
        return {
            "adapter.weight": self.adapter.weight,
            "adapter.bias": self.adapter.bias,
            "prompt.contexts": self.prompt_contexts,
        }

    def trainable(self) -> Dict[str, ag.Var]:
        """The parameters that require gradients."""
        return {name: var for name, var in self.parameters().items() if var.requires_grad}

    def text_features(self) -> np.ndarray:
        """The (2, C_text) text features; row 0 normal, row 1 abnormal.

        ``encode_prompts`` on the contexts' array, so no graph is built. The
        encoding is kept, read-only, keyed on the contexts' dtype, shape and
        C-order bytes: in-place edits and rebinding both re-encode.
        """
        data = self.prompt_contexts.data
        key = (data.dtype, data.shape, data.tobytes())
        if self._text_cache is None or self._text_cache[0] != key:
            text = encode_prompts(self.prompt_contexts.data, self.encoder)
            text.setflags(write=False)
            self._text_cache = (key, text)
        return self._text_cache[1]

    # ------------------------------------------------------------ scoring
    def score_batch(self, inputs: np.ndarray, class_tokens: np.ndarray, projection, text):
        """The one scoring formula, over a stacked batch: adapted stage
        features, abnormal probability map and image score.

        ``inputs`` are the (B, STAGES, L, C_vis) adapter inputs and
        ``class_tokens`` the (B, C_vis) class tokens of a frozen pass.
        ``projection``, the adapter's (weight, bias), and the (2, C_text)
        ``text`` rows are Vars, which build a graph (training), or arrays,
        which do not (inference). Returns the (B, STAGES, L, C_text)
        unit-norm stage features, the (B, H, W) map and the (B,) scores.
        """
        stars = project_tokens(*projection, inputs)
        logits = fusion_mod.fuse(stars, text)
        size = self.backbone.config.image_size
        pmap = fusion_mod.abnormal_probability_map(logits, self.grid, (size, size))
        score = fusion_mod.image_score(class_tokens, self.cls_proj, text)
        return stars, pmap, score

    # -------------------------------------------------------------- inference
    def predict_batch(self, images: Sequence[np.ndarray],
                      cache_keys: Optional[Sequence] = None) -> List[Prediction]:
        """``predict`` for every image of a stack, in one stacked pass.

        ``images`` is a sequence of (S, S, 3) images or one (B, S, S, 3)
        array; ``cache_keys``, one per image, go to ``frozen_forward``. Each
        prediction equals ``predict`` on its image alone, bit for bit. Builds
        no autodiff graph; an empty stack, or one image passed as a bare
        (S, S, 3) array, raises ``UsageError``.
        """
        acts = self.frozen_forward(images, cache_keys)
        projection = (self.adapter.weight.data, self.adapter.bias.data)
        stars, pmap, scores = self.score_batch(
            acts.adapter_inputs, acts.class_token, projection, self.text_features()
        )
        return [
            Prediction(AnomalyMap(pmap[i]), float(scores[i]), stars[i], self.grid)
            for i in range(len(pmap))
        ]

    def predict(self, image: np.ndarray) -> Prediction:
        """Map, class-token score (unread by ``evaluate_dataset``'s default
        ``max_map``) and stage features of one image: a stack of one."""
        return self.predict_batch([image])[0]

    def build_memory_bank(self, images: Sequence[np.ndarray], ids=None) -> MemoryBank:
        """A bank of the images' stage features, which need no text features:
        a frozen pass per near-equal chunk of at most ``chunk_size`` images,
        then the adapter projection."""
        weight, bias = self.adapter.weight.data, self.adapter.bias.data
        stars = [project_tokens(weight, bias, self.frozen_forward(chunk).adapter_inputs)
                 for chunk in numerics.near_equal_chunks(list(images), self.chunk_size)]
        return build_memory_bank(np.concatenate(stars) if stars else [], image_ids=ids)

    # ------------------------------------------------------------ checkpoints
    def state_tensors(self) -> Dict[str, np.ndarray]:
        return {name: var.data.copy() for name, var in self.parameters().items()}

    def save_checkpoint(self, path, extra: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Write the parameters and ``extra`` to ``path`` as an ``.npz`` file.

        Each tensor keeps its dtype, and the same tensors give the same bytes.
        A non-finite tensor, or an ``extra`` name that is a parameter's,
        raises ``UsageError``.
        """
        tensors = self.state_tensors()
        extra = extra or {}
        clash = sorted(tensors.keys() & extra.keys())
        if clash:
            raise UsageError(f"extra tensors {clash} would overwrite parameters")
        tensors.update(extra)
        for name, arr in tensors.items():
            if not np.all(np.isfinite(arr)):
                raise UsageError(f"tensor {name!r} contains non-finite values")
        with open(path, "wb") as fh:  # np.savez appends ".npz" to a bare path
            np.savez(fh, allow_pickle=False, **tensors)

    def load_checkpoint(self, path) -> Dict[str, np.ndarray]:
        """Bind the parameters from an ``.npz`` checkpoint; returns the other tensors.

        Each parameter keeps its own dtype. A file that cannot be read raises
        ``ArchiveError``; a missing parameter, or one of the wrong shape, not
        floating point or not finite, raises ``WeightsError``. Either way
        nothing is bound.
        """
        tensors = _read_npz(path)
        params = self.parameters()
        for name, var in params.items():
            arr = tensors.get(name)
            if arr is None:
                raise WeightsError(f"checkpoint missing tensor {name!r}")
            if arr.shape != var.data.shape or arr.dtype.kind != "f" or not np.isfinite(arr).all():
                raise WeightsError(
                    f"checkpoint tensor {name!r} is {arr.dtype} {arr.shape}, "
                    f"expected finite floats of shape {var.data.shape}"
                )
        for name, var in params.items():
            var.data = tensors.pop(name).astype(var.data.dtype)
        self.clear_cache()
        return tensors


def _read_npz(path) -> Dict[str, np.ndarray]:
    """Every tensor of the ``.npz`` file at ``path``; any failure is an ``ArchiveError``.

    Every member's CRC-32 is checked before anything is read: ``np.load``
    checks a member's only when it reads the member to its end.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
            corrupt = archive.testzip()
        if corrupt is not None:
            raise ArchiveError(f"checkpoint member {corrupt!r} fails its checksum in {path}")
        names = [m.filename for m in members]
        # np.savez writes no comments: a comment length flipped in the central
        # directory would read the entries after it as that comment
        if (len(set(names)) != len(names) or any(m.comment for m in members)
                or not all(n.endswith(".npy") for n in names)):
            raise ArchiveError(f"{path} is not an np.savez file of uniquely named .npy members")
        with np.load(path, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    # what zipfile and np.load raise on a file that is missing, not a zip of
    # .npy members, or corrupted (a damaged central directory raises the last three)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, RuntimeError,
            NotImplementedError) as exc:
        raise ArchiveError(f"cannot read checkpoint {path}: {exc}") from exc


def build_model(config: RunConfig) -> SowaModel:
    """Construct the full model from a run configuration."""
    seed = config.seed
    backbone = init_synthetic(config.backbone, seed)
    encoder = build_text_encoder(config.text_width, config.c_text, seed + _SEED_OFFSETS["encoder"])
    contexts = build_prompt_contexts(
        config.prompt_kind, config.prompt_length, seed + _SEED_OFFSETS["prompts"], encoder
    )
    c_vis = config.backbone.channels
    adapter = new_adapter_params(c_vis, config.c_text, seed=seed + _SEED_OFFSETS["adapters"])
    cls_init = seeded_weights({"cls_proj": (c_vis, config.c_text)}, seed + _SEED_OFFSETS["cls"])
    cls_proj = cls_init["cls_proj"]
    cls_proj.setflags(write=False)
    return SowaModel(
        config=config,
        backbone=backbone,
        encoder=encoder,
        adapter=adapter,
        prompt_contexts=contexts,
        cls_proj=cls_proj,
    )
