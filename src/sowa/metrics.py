"""Ranking metrics for anomaly detection: AUROC, average precision, and
per-region overlap (PRO), plus the dataset-level evaluation driver.

All three metrics are computed exactly from the data's own score values (no
binning), in float64. Tied scores are one operating point: AUROC counts a
tied positive-negative pair as 1/2 (Mann-Whitney), AP and PRO step over
distinct score values. So no metric depends on the index order of tied
items, and any strictly increasing transform of the scores leaves all three
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .config import IMAGE_SCORE_MODES
from .errors import MetricUndefinedError, UsageError
from .fewshot import MemoryBank, combine_maps, few_shot_map


def auroc(scores, labels01) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels01).ravel()
    if scores.shape != labels.shape:
        raise UsageError(f"scores {scores.shape} and labels {labels.shape} differ")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            f"AUROC undefined with {n_pos} positives and {n_neg} negatives"
        )
    ranks = _average_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _group_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Index of the last element of each run of equal values in sorted scores."""
    return np.flatnonzero(np.append(np.diff(sorted_scores) != 0.0, True))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(scores, kind="mergesort")
    ends = _group_ends(scores[order])
    starts = np.append(0, ends[:-1] + 1)
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def average_precision(scores, labels01) -> float:
    """Step-interpolated AP with one operating point per distinct score.

    AP = sum over thresholds t of precision(t) * (recall(t) - recall(t_prev)),
    the thresholds being the distinct score values in descending order. Tied
    items enter together, so the value does not depend on their index order
    and is invariant under strictly increasing transforms of the scores.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels01).ravel()
    if scores.shape != labels.shape:
        raise UsageError(f"scores {scores.shape} and labels {labels.shape} differ")
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise MetricUndefinedError("average precision undefined without positives")
    order = np.argsort(-scores, kind="stable")
    ends = _group_ends(scores[order])
    true_pos = np.cumsum(labels[order] == 1)[ends]
    precision = true_pos / (ends + 1.0)
    gained = np.diff(true_pos, prepend=0)
    return float(np.sum(precision * gained) / n_pos)


def label_regions(mask01: np.ndarray) -> Tuple[np.ndarray, int]:
    """8-connected component labels (0 = background), numbered 1.. in raster
    order of each region's first pixel.

    Union-find over the row runs of the mask: a run joins every run on the
    row above whose column span touches its own, diagonals included. The
    Python loop visits runs and their contacts, never single pixels.
    """
    mask = np.asarray(mask01) == 1
    h, w = mask.shape
    steps = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, starts = np.nonzero(steps == 1)
    ends = np.nonzero(steps == -1)[1]  # exclusive; runs come in raster order
    # [s, e) on row r touches [s', e') on row r - 1 when s <= e' and s' <= e; keys
    # row * (w + 2) + column sort all runs, so searchsorted finds that range of runs.
    span = w + 2
    start_keys, end_keys = rows * span + starts, rows * span + ends
    first = np.searchsorted(end_keys, start_keys - span, side="left").tolist()
    stop = np.searchsorted(start_keys, end_keys - span, side="right").tolist()
    parent = list(range(len(starts)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(parent)):
        for j in range(first[i], stop[i]):
            a, b = root(i), root(j)
            parent[max(a, b)] = min(a, b)  # the earlier run stays the root
    roots = np.array([root(i) for i in range(len(parent))], dtype=np.int64)
    is_first = roots == np.arange(len(parent))
    run_labels = np.cumsum(is_first)[roots]
    # paint each run: +label at its start, -label at its end, summed along rows
    marks = np.zeros((h, w + 1), dtype=np.int64)
    marks[rows, starts] = run_labels
    marks[rows, ends] = -run_labels
    return np.cumsum(marks, axis=1)[:, :w], int(is_first.sum())


def pro(maps: Sequence[np.ndarray], masks01: Sequence[np.ndarray], fpr_limit: float = 0.3) -> float:
    """Area under mean per-region overlap vs pooled FPR, for FPR <= fpr_limit.

    Regions are 8-connected components of each mask. The curve is sampled at
    every unique score value (descending), integrated by trapezoid with
    linear interpolation at the FPR limit, and normalized by the limit.
    """
    if not 0.0 < fpr_limit <= 1.0:
        raise UsageError(f"fpr_limit must be in (0, 1], got {fpr_limit}")
    if len(maps) != len(masks01) or not maps:
        raise UsageError("maps and masks must be non-empty and aligned")

    region_of_pixel: List[np.ndarray] = []
    next_region = 0
    for m, g in zip(maps, masks01):
        m, g = np.asarray(m), np.asarray(g)
        if m.shape != g.shape:
            raise UsageError(f"map {m.shape} and mask {g.shape} differ")
        labels, count = label_regions(g)
        remap = np.where(labels > 0, labels - 1 + next_region, -1)
        region_of_pixel.append(remap.ravel())
        next_region += count
    if next_region == 0:
        raise MetricUndefinedError("PRO undefined without any anomalous region")

    scores = np.concatenate([np.asarray(m, dtype=np.float64).ravel() for m in maps])
    regions = np.concatenate(region_of_pixel)
    n_neg = int(np.sum(regions < 0))
    if n_neg == 0:
        raise MetricUndefinedError("PRO undefined without any normal pixel")
    sizes = np.bincount(regions[regions >= 0], minlength=next_region)

    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_regions = regions[order]

    # one curve point per unique score value: pooled FPR and mean region TPR;
    # a normal pixel (region -1) picks the appended zero
    step_tpr = np.append(1.0 / sizes, 0.0)[sorted_regions]
    ends = _group_ends(sorted_scores)
    fprs = np.concatenate([[0.0], np.cumsum(sorted_regions < 0)[ends] / n_neg])
    pros = np.concatenate([[0.0], np.cumsum(step_tpr)[ends] / next_region])

    crossing = int(np.searchsorted(fprs, fpr_limit, side="left"))
    # fprs ends at 1.0 >= fpr_limit, so a crossing always exists
    widths = np.diff(fprs[: crossing + 1])
    mids = (pros[:crossing] + pros[1 : crossing + 1]) / 2.0
    area = float(np.sum(widths * mids))
    if fprs[crossing] > fpr_limit:
        lo_f, hi_f = fprs[crossing - 1], fprs[crossing]
        lo_p, hi_p = pros[crossing - 1], pros[crossing]
        pro_at_limit = lo_p + (hi_p - lo_p) * (fpr_limit - lo_f) / (hi_f - lo_f)
        area -= (hi_f - fpr_limit) * (pro_at_limit + hi_p) / 2.0
    return float(area / fpr_limit)


@dataclass
class MetricsReport:
    """Image-level (ac_*) and pixel-level (as_*) metrics, all in [0, 1]."""

    ac_auroc: float
    ac_ap: float
    as_auroc: float
    as_pro: float
    image_count: int
    positive_images: int

    def metric_items(self) -> List[Tuple[str, float]]:
        return [
            ("ac_auroc", self.ac_auroc),
            ("ac_ap", self.ac_ap),
            ("as_auroc", self.as_auroc),
            ("as_pro", self.as_pro),
        ]


def evaluate_scores(
    image_scores,
    image_labels01,
    pixel_maps: Sequence[np.ndarray],
    pixel_masks01: Sequence[np.ndarray],
    fpr_limit: float = 0.3,
) -> MetricsReport:
    """Assemble the four-metric report from already-computed scores."""
    labels = np.asarray(image_labels01)
    pooled_scores = np.concatenate([np.asarray(m, dtype=np.float64).ravel() for m in pixel_maps])
    pooled_masks = np.concatenate([np.asarray(g).ravel() for g in pixel_masks01])
    return MetricsReport(
        ac_auroc=auroc(image_scores, labels),
        ac_ap=average_precision(image_scores, labels),
        as_auroc=auroc(pooled_scores, pooled_masks),
        as_pro=pro(pixel_maps, pixel_masks01, fpr_limit=fpr_limit),
        image_count=len(labels),
        positive_images=int(np.sum(labels == 1)),
    )


def evaluate_dataset(
    model,
    samples: Sequence,
    mode: str = "zero_shot",
    bank: MemoryBank | None = None,
    beta: float | None = None,
    image_score_mode: str | None = None,
    fpr_limit: float = 0.3,
) -> MetricsReport:
    """Run a model over labeled samples and compute the four-metric report.

    ``model`` must expose ``predict(image)`` returning an object with
    ``anomaly_map``, ``image_score``, ``stage_features``, and ``grid``, and a
    run ``config``. In few-shot mode each map is blended with the
    memory-bank distance map with weight ``beta``; the image score then
    comes from the class-token path (``cls``) or the map maximum
    (``max_map``). ``beta`` and ``image_score_mode`` default to the run
    config's ``few_shot_beta`` and ``image_score_mode``.
    """
    if beta is None:
        beta = model.config.few_shot_beta
    if image_score_mode is None:
        image_score_mode = model.config.image_score_mode
    if mode not in ("zero_shot", "few_shot"):
        raise UsageError(f"mode must be zero_shot or few_shot, got {mode!r}")
    if mode == "few_shot" and bank is None:
        raise UsageError("few_shot evaluation requires a memory bank")
    if image_score_mode not in IMAGE_SCORE_MODES:
        raise UsageError(f"unknown image_score_mode {image_score_mode!r}")
    samples = list(samples)
    if not samples:
        raise UsageError("cannot evaluate an empty dataset")

    maps, scores = [], []
    for sample in samples:
        pred = model.predict(sample.image)
        amap = pred.anomaly_map
        if mode == "few_shot":
            fmap = few_shot_map(pred.stage_features, bank, pred.grid, amap.scores.shape)
            amap = combine_maps(amap, fmap, beta=beta)
        maps.append(amap.scores)
        if image_score_mode == "max_map":
            scores.append(float(amap.scores.max()))
        else:
            scores.append(float(pred.image_score))
    labels = [(1 if s.label > 0 else 0) for s in samples]
    masks = [(np.asarray(s.mask) > 0).astype(np.int64) for s in samples]
    try:
        return evaluate_scores(scores, labels, maps, masks, fpr_limit=fpr_limit)
    except MetricUndefinedError as exc:
        raise MetricUndefinedError(
            f"{exc} (dataset of {len(samples)} samples, {sum(labels)} positive)"
        ) from exc
