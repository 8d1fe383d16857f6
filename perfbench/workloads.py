"""The three benchmark workloads and the checks on their outputs.

Every workload drives the public ``sowa`` API from one process as a closed
loop: one client, each call made after the previous one returned. Models are
always built from the benchmark seed ``MODEL_SEED``; the run's ``--seed``
only generates the images, masks and labels the model is given. Why each
workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from sowa import config as sconfig
from sowa import errors, fewshot, metrics, synth, training
from sowa import model as smodel

MODEL_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.npz")
# Largest float32-vs-float64 gap of any predict output at either config is
# about 2e-7, so 1e-5 admits any float32 reordering and little else.
GOLDEN_ATOL = 1e-5
# AUROC against the Mann-Whitney oracle: same exact statistic, summed in
# another order.
ORACLE_RTOL = 1e-9

Metrics = Dict[str, Tuple[float, str]]


def config_64() -> sconfig.RunConfig:
    """Default config: 64 px, 8x8 token grid, window 4."""
    return sconfig.default_config(seed=MODEL_SEED)


def config_224() -> sconfig.RunConfig:
    """Paper-like config: 224 px, patch 14, 16x16 token grid, window 4."""
    return sconfig.default_config(
        seed=MODEL_SEED, backbone={"image_size": 224, "patch_size": 14}, window=4
    )


CONFIGS = {"64": config_64, "224": config_224}


def corpus(seed: int, n: int, size: int):
    return synth.synth_generate(synth.PatternSpec(kind="mixed", seed=seed), n, image_size=size)


@dataclass
class Phase:
    """What one stretch of timed operations did."""

    unit_seconds: List[float] = field(default_factory=list)  # one per timing unit
    unit_kinds: List[str] = field(default_factory=list)
    ops: int = 0  # predicts, optimizer steps or evaluate_dataset calls
    failed: int = 0
    outputs: list = field(default_factory=list)  # exact values, one per unit

    @property
    def units(self) -> int:
        return len(self.unit_seconds)

    def busy_seconds(self) -> float:
        return sum(self.unit_seconds)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode() + str(arr.shape).encode() + arr.tobytes())
    return h.hexdigest()


def _finite_prediction(pred) -> bool:
    return bool(
        np.isfinite(pred.image_score)
        and np.all(np.isfinite(pred.anomaly_map.scores))
        and all(np.all(np.isfinite(f)) for f in pred.stage_features)
    )


def golden_inputs(key: str):
    """One normal and one defective image at the benchmark seed."""
    size = CONFIGS[key]().backbone.image_size
    return [s.image for s in corpus(MODEL_SEED, 2, size).samples]


def golden_outputs(model, key: str) -> Dict[str, np.ndarray]:
    out = {}
    for i, image in enumerate(golden_inputs(key)):
        pred = model.predict(image)
        out[f"{key}.{i}.map"] = pred.anomaly_map.scores
        out[f"{key}.{i}.score"] = np.asarray(pred.image_score)
        out[f"{key}.{i}.features"] = np.stack(pred.stage_features)
    return out


def write_golden() -> None:
    """Pin today's predict outputs for both configs (run on purpose only)."""
    pinned = {}
    for key, make in CONFIGS.items():
        pinned.update(golden_outputs(smodel.build_model(make()), key))
    # float32 storage moves values by < 1e-8, far inside GOLDEN_ATOL
    np.savez_compressed(GOLDEN_PATH, **{k: v.astype(np.float32) for k, v in pinned.items()})


def golden_failures(model, key: str, pinned=None) -> List[str]:
    if pinned is None:
        with np.load(GOLDEN_PATH) as data:
            pinned = {name: data[name] for name in data.files}
    failures = []
    for name, actual in golden_outputs(model, key).items():
        expected = pinned.get(name)
        if expected is None or expected.shape != actual.shape:
            failures.append(f"golden {name}: shape {actual.shape} vs pinned "
                            f"{None if expected is None else expected.shape}")
            continue
        gap = float(np.max(np.abs(actual.astype(np.float64) - expected)))
        if not gap <= GOLDEN_ATOL:
            failures.append(f"golden {name}: max abs difference {gap:.3g} > {GOLDEN_ATOL}")
    return failures


class Workload:
    name = ""
    min_units = 1

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def steps(self, state: dict, seed: int, phase: Phase) -> Iterator[None]:
        """Endless generator: each ``next()`` runs one timing unit into ``phase``."""
        raise NotImplementedError

    def more(self, phase: Phase, deadline: float) -> bool:
        return phase.units < self.min_units or time.perf_counter() < deadline

    def end_to_end(self, state: dict, phase: Phase) -> Metrics:
        """``images_per_s`` and ``op_p50_ms`` of the timed operations."""
        raise NotImplementedError

    def check(self, state: dict, phase: Phase) -> List[str]:
        """Output checks; returns failure messages."""
        raise NotImplementedError

    def report(self, phase: Phase) -> Dict[str, float]:
        """Result values printed for reading, not as metrics."""
        return {}


def _timing(images: float, seconds: List[float], ops_per_unit: int) -> Metrics:
    """Images over total time, and the median time of one operation."""
    return {
        "images_per_s": (images / sum(seconds), "1/s"),
        "op_p50_ms": (statistics.median(seconds) / ops_per_unit * 1e3, "ms"),
    }


class Infer(Workload):
    """``SowaModel.predict`` once per image at 224 px, no cache key."""

    name = "infer-224"
    stream = 8  # mixed-pattern images, cycled

    def setup(self, seed):
        model = smodel.build_model(config_224())
        return {"model": model, "images": [s.image for s in corpus(seed, self.stream, 224).samples]}

    def steps(self, state, seed, phase):
        model, images = state["model"], state["images"]
        while True:
            image = images[phase.units % len(images)]
            start = time.perf_counter()
            try:
                pred = model.predict(image)
            except errors.SowaError:
                pred = None
            phase.unit_seconds.append(time.perf_counter() - start)
            phase.unit_kinds.append("predict")
            phase.ops += 1
            if pred is None or not _finite_prediction(pred):
                phase.failed += 1
                phase.outputs.append(None)
            else:
                phase.outputs.append(_digest(pred.anomaly_map.scores, np.asarray(pred.image_score),
                                             *pred.stage_features))
            yield

    def end_to_end(self, state, phase):
        return _timing(phase.units, phase.unit_seconds, 1)

    def check(self, state, phase):
        return golden_failures(state["model"], "224")


class Train(Workload):
    """``training.train_epoch`` in rounds of ``epochs`` on a 32-sample corpus.

    Each round restores the initial parameters and clears the feature cache,
    so its first epoch is cold and the rest are warm; every round repeats
    the same shuffle seeds and must reach the same loss.
    """

    name = "train-64"
    samples = 32
    # A cold epoch takes about 2.5 warm ones; 12-epoch rounds leave most of
    # the run to the warm epochs that the end-to-end metrics time.
    epochs = 12
    min_units = epochs

    def setup(self, seed):
        model = smodel.build_model(config_64())
        return {
            "model": model,
            "samples": corpus(seed, self.samples, 64).samples,
            "initial": model.state_tensors(),
        }

    @staticmethod
    def _reset(state):
        for name, var in state["model"].trainable().items():
            var.data = state["initial"][name].copy()
        state["model"].clear_cache()

    def steps(self, state, seed, phase):
        model, samples = state["model"], state["samples"]
        optim = model.config.optim
        steps = -(-len(samples) // optim.batch_size)
        train_state = None
        while True:
            epoch = phase.units % self.epochs
            if epoch == 0:
                self._reset(state)
                train_state = None
            start = time.perf_counter()
            try:
                report, train_state = training.train_epoch(
                    model, samples, optim, seed=seed * 1000 + epoch, state=train_state
                )
            except errors.SowaError:
                report, train_state = None, None
            phase.unit_seconds.append(time.perf_counter() - start)
            phase.unit_kinds.append("cold" if epoch == 0 else "warm")
            phase.ops += steps
            if report is None:
                phase.failed += steps
                phase.outputs.append(None)
            else:
                phase.failed += sum(1 for loss in report.batch_losses if not np.isfinite(loss))
                phase.outputs.append((
                    epoch,
                    report.initial_loss,
                    report.final_loss,
                    tuple(report.batch_losses),
                    tuple(sorted(report.param_hashes.items())),
                    report.frozen_hash_before,
                    report.frozen_hash_after,
                ))
            yield

    def end_to_end(self, state, phase):
        # warm epochs only: a cold epoch's backbone passes are not training work
        warm = [s for s, k in zip(phase.unit_seconds, phase.unit_kinds) if k == "warm"]
        steps = -(-self.samples // state["model"].config.optim.batch_size)
        return _timing(self.samples * len(warm), warm, steps)

    def check(self, state, phase):
        failures = []
        done = [o for o in phase.outputs if o is not None]
        if len(done) != len(phase.outputs):
            failures.append(f"{len(phase.outputs) - len(done)} epochs raised")
        first = phase.outputs[0]
        last = phase.outputs[self.epochs - 1]
        if first is not None and not first[2] < first[1]:
            failures.append(f"epoch 1 did not lower the loss: {first[1]} -> {first[2]}")
        if first is not None and last is not None and not last[2] < first[2]:
            failures.append(f"loss after epoch {self.epochs} ({last[2]}) not below epoch 1 ({first[2]})")
        if any(o[5] != o[6] for o in done):
            failures.append("frozen_hash() changed during an epoch")
        ends = {o[2] for o in done if o[0] == self.epochs - 1}
        if len(ends) > 1:
            failures.append(f"rounds from the same start reached different losses: {sorted(ends)}")
        for name, var in state["model"].trainable().items():
            if not np.all(np.isfinite(var.data)):
                failures.append(f"parameter {name} is not finite")
        self._reset(state)
        failures += golden_failures(state["model"], "64")
        return failures


class Eval(Workload):
    """``metrics.evaluate_dataset`` in few-shot mode on a corpus's test split."""

    name = "eval-64"
    samples = 96  # 72 test images
    references = 8  # train-split normals in the memory bank

    def _dataset(self, model, seed):
        data = corpus(seed, self.samples, 64)
        refs = data.split("train")[: self.references]
        bank = model.build_memory_bank([s.image for s in refs], ids=[s.sample_id for s in refs])
        return data.split("test"), bank

    def setup(self, seed):
        model = smodel.build_model(config_64())
        test, bank = self._dataset(model, seed)
        return {"model": model, "test": test, "bank": bank}

    @staticmethod
    def _evaluate(model, test, bank):
        cfg = model.config
        return metrics.evaluate_dataset(
            model, test, mode="few_shot", bank=bank, beta=cfg.few_shot_beta,
            image_score_mode=cfg.image_score_mode,
        )

    def steps(self, state, seed, phase):
        while True:
            start = time.perf_counter()
            try:
                report = self._evaluate(state["model"], state["test"], state["bank"])
            except errors.SowaError:
                report = None
            phase.unit_seconds.append(time.perf_counter() - start)
            phase.unit_kinds.append("evaluate")
            phase.ops += 1
            values = None if report is None else tuple(report.metric_items())
            if values is None or not all(np.isfinite(v) for _, v in values):
                phase.failed += 1
            phase.outputs.append(values)
            yield

    def end_to_end(self, state, phase):
        return _timing(len(state["test"]) * phase.units, phase.unit_seconds, 1)

    def report(self, phase):
        # AUROC, AP (tie order as computed today) and PRO of the timed corpus
        return dict(phase.outputs[0] or ()) if phase.outputs else {}

    def _maps(self, state):
        """Pixel maps and image scores rebuilt from predict and the few-shot map."""
        model, bank = state["model"], state["bank"]
        cfg = model.config
        maps, scores = [], []
        for sample in state["test"]:
            pred = model.predict(sample.image)
            fmap = fewshot.few_shot_map(pred.stage_features, bank, pred.grid,
                                        pred.anomaly_map.scores.shape)
            amap = fewshot.combine_maps(pred.anomaly_map, fmap, beta=cfg.few_shot_beta)
            maps.append(amap.scores)
            scores.append(float(amap.scores.max()) if cfg.image_score_mode == "max_map"
                          else pred.image_score)
        return maps, scores

    def check(self, state, phase):
        # imported here so that scipy is not part of the measured peak RSS
        from scipy import ndimage, stats

        failures = []
        if len(set(phase.outputs)) != 1 or None in phase.outputs:
            failures.append(f"evaluate_dataset gave differing or failed reports: {set(phase.outputs)}")
        failures += golden_failures(state["model"], "64")

        # Oracles on the timed corpus.
        test = state["test"]
        labels = np.array([1 if s.label > 0 else 0 for s in test])
        masks = [(np.asarray(s.mask) > 0).astype(np.int64) for s in test]
        maps, scores = self._maps(state)
        rebuilt = tuple(metrics.evaluate_scores(scores, labels, maps, masks).metric_items())
        if phase.outputs and rebuilt != phase.outputs[0]:
            failures.append(f"rebuilt maps give {rebuilt}, evaluate_dataset gave {phase.outputs[0]}")
        # float64 so that scipy ranks in float64 too
        pixels = np.concatenate([m.ravel() for m in maps]).astype(np.float64)
        truth = np.concatenate([m.ravel() for m in masks])
        for what, s, y in (("pixel", pixels, truth), ("image", np.asarray(scores), labels)):
            ours = metrics.auroc(s, y)
            u = stats.mannwhitneyu(s[y == 1], s[y == 0], method="asymptotic").statistic
            oracle = u / (np.sum(y == 1) * np.sum(y == 0))
            if not abs(ours - oracle) <= ORACLE_RTOL * oracle:
                failures.append(f"{what} auroc {ours!r} vs Mann-Whitney {oracle!r}")
        eight = np.ones((3, 3), dtype=int)
        for sample, mask in zip(test, masks):
            ours = metrics.label_regions(mask)[1]
            oracle = ndimage.label(mask, structure=eight)[1]
            if ours != oracle:
                failures.append(f"{sample.sample_id}: {ours} regions, scipy finds {oracle}")
        return failures


WORKLOADS = {w.name: w for w in (Infer, Train, Eval)}
