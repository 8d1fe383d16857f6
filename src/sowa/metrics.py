"""Ranking metrics for anomaly detection: AUROC, average precision, and
per-region overlap (PRO), plus the dataset-level evaluation driver.

Every metric reads one threshold sweep over the data's own score values (no
binning): running sums down the descending score order, taken at the end of
each tie group, exact in int64 for counts and float64 for region coverage.
So a tie group is one operating point (AUROC counts a tied positive-negative
pair as 1/2, as Mann-Whitney does), and any strictly increasing transform of
the scores leaves all three unchanged. The sort is numpy's default, not a
stable one, so tied items come in an order of its choosing. AUROC and AP
read only exact counts and do not depend on that order; PRO's coverage sums
do in their last bits, since float64 addition rounds by the order of the
items added. ``auroc`` and ``average_precision`` take labels 0 or 1 (bools
too); any other label is a ``UsageError``, as is a NaN score, which has no
rank (±inf ranks as it compares). No scores at all is a
``MetricUndefinedError``. Maps and masks come as lists of (H, W) arrays or
as two (B, H, W) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import numerics
from .config import IMAGE_SCORE_MODES
from .errors import MetricUndefinedError, UsageError
from .fewshot import MemoryBank, combine_maps, few_shot_map
from .fusion import AnomalyMap
from .numerics import check_float


def auroc(scores, labels01) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2."""
    scores, labels = _scores_and_labels(scores, labels01)
    order, ends = _descending(scores)
    return _auroc(labels[order] == 1, ends)


def _scores_and_labels(scores, labels01) -> Tuple[np.ndarray, np.ndarray]:
    """Flat float64 scores and their labels, each label 0 or 1 (bools too).
    No scores at all is a ``MetricUndefinedError``."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels01).ravel()
    if scores.shape != labels.shape:
        raise UsageError(f"scores {scores.shape} and labels {labels.shape} differ")
    if scores.size == 0:
        raise MetricUndefinedError("metric undefined without any scores")
    if labels.dtype != bool and not np.all((labels == 0) | (labels == 1)):
        raise UsageError(f"labels must be 0 or 1, got {np.unique(labels)}")
    return scores, labels


def _auroc(ranked_positive: np.ndarray, ends: np.ndarray) -> float:
    """``auroc`` of labels (True for a positive) in ``_descending`` order,
    whose tie groups end at ``ends``. Twice the trapezoid under the (fp, tp)
    sweep is 2U (U of Mann-Whitney), an exact int64 sum, so the one division
    by 2 P N rounds U / (P N) once."""
    tp, fp = _counts(ranked_positive, ends)
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(f"AUROC undefined with {n_pos} positives and {n_neg} negatives")
    twice_u = int(np.sum(np.diff(fp) * (tp[1:] + tp[:-1])))
    return twice_u / (2 * n_pos * n_neg)


def _descending(scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """An order of ``scores`` from highest to lowest, tied items in no set
    order, and the position in that order of the last item of each tie group."""
    if np.isnan(scores).any():
        raise UsageError(f"{int(np.isnan(scores).sum())} of {scores.size} scores are NaN")
    order = np.argsort(-scores)
    ranked = scores[order]
    return order, np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))


def _sweep(ranked_values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Running sums of values in ``_descending`` order: 0, then the sum at
    the end of each tie group, one per threshold."""
    return np.append(0, np.cumsum(ranked_values)[ends])


def _counts(ranked_positive: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """True and false positives at each threshold of ``_sweep``; the false
    ones are the rank plus one less the true ones."""
    tp = _sweep(ranked_positive, ends)
    return tp, np.append(0, ends + 1) - tp


def average_precision(scores, labels01) -> float:
    """Step-interpolated AP with one operating point per distinct score.

    AP = sum over thresholds t of precision(t) * (recall(t) - recall(t_prev)),
    the thresholds being the distinct score values in descending order. Tied
    items enter together, so the value does not depend on their index order
    and is invariant under strictly increasing transforms of the scores.
    """
    scores, labels = _scores_and_labels(scores, labels01)
    order, ends = _descending(scores)
    true_pos = _sweep(labels[order] == 1, ends)
    if true_pos[-1] == 0:
        raise MetricUndefinedError("average precision undefined without positives")
    precision = true_pos[1:] / (ends + 1.0)
    return float(np.sum(precision * np.diff(true_pos)) / true_pos[-1])


def label_regions(mask01: np.ndarray) -> Tuple[np.ndarray, int]:
    """8-connected component labels (0 = background), numbered 1.. in raster
    order of each region's first pixel.

    Union-find over the row runs of the mask: a run joins every run on the
    row above whose column span touches its own, diagonals included. The
    Python loop visits runs and their contacts, never single pixels. A mask
    that is not 2-D raises ``UsageError``.
    """
    mask = np.asarray(mask01) == 1
    if mask.ndim != 2:
        raise UsageError(f"a mask must be 2-D, got shape {mask.shape}")
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
    return np.cumsum(marks, axis=1, out=marks)[:, :w], int(is_first.sum())


def pro(maps: Sequence[np.ndarray], masks01: Sequence[np.ndarray], fpr_limit: float = 0.3) -> float:
    """Area under mean per-region overlap vs pooled FPR, for FPR <= fpr_limit.

    Regions are 8-connected components of each mask. The curve is sampled at
    every unique score value (descending), integrated by trapezoid with
    linear interpolation at the FPR limit, and normalized by the limit. An
    ``fpr_limit`` that is not a finite number in (0, 1] raises ``UsageError``
    before any mask is labelled.
    """
    check_float(fpr_limit, "fpr_limit", 0, 1, low_open=True)
    return _pro(*_ranked_regions(maps, masks01), fpr_limit)


def _ranked_regions(maps, masks01) -> Tuple[np.ndarray, np.ndarray, int]:
    """Each pooled pixel's region (-1 when normal) in ``_descending`` score
    order, the ends of its tie groups, and the region count.

    The pixels are pooled in the maps' own float dtype (float64 for maps of
    any other kind), and sorted on the pool's thread while the calling
    thread labels the masks (``numerics.run_together``). The regions are
    then gathered into rank order once, for every sweep.
    """
    if len(maps) != len(masks01) or len(maps) == 0:
        raise UsageError("maps and masks must be non-empty and aligned")
    pooled = np.concatenate([np.ravel(m) for m in maps])
    if pooled.dtype.kind != "f":
        pooled = pooled.astype(np.float64)
    (regions, count), (order, ends) = numerics.run_together(
        [lambda: _pixel_regions(maps, masks01), lambda: _descending(pooled)])
    return regions[order], ends, count


def _pixel_regions(maps, masks01) -> Tuple[np.ndarray, int]:
    """Each pooled pixel's region (-1 when normal) and the region count.

    One ``label_regions`` call labels every mask: the masks are stacked
    with a blank row between them and padded with blank columns to the
    widest. Regions are numbered in raster order, so each mask's regions
    are its own labels offset by the regions of the masks before it.
    """
    masks = [np.asarray(g) == 1 for g in masks01]
    for m, g in zip(maps, masks):
        if np.shape(m) != g.shape:
            raise UsageError(f"map {np.shape(m)} and mask {g.shape} differ")
        if g.ndim != 2:
            raise UsageError(f"a mask must be 2-D, got shape {g.shape}")
    tops = np.cumsum([0] + [len(g) + 1 for g in masks]).tolist()
    canvas = np.zeros((tops[-1], max(g.shape[1] for g in masks)), dtype=bool)
    for g, top in zip(masks, tops):
        canvas[top : top + len(g), : g.shape[1]] = g
    labels, count = label_regions(canvas)
    regions = np.empty(sum(g.size for g in masks), dtype=labels.dtype)
    starts = np.cumsum([0] + [g.size for g in masks]).tolist()
    for g, top, start in zip(masks, tops, starts):  # labels less one: -1 when normal
        np.subtract(labels[top : top + len(g), : g.shape[1]], 1,
                    out=regions[start : start + g.size].reshape(g.shape))
    return regions, count


def _pro(ranked: np.ndarray, ends: np.ndarray, count: int, fpr_limit: float) -> float:
    """``pro`` of the pooled pixels' regions (-1 when normal) in
    ``_descending`` score order, whose tie groups end at ``ends``."""
    if count == 0:
        raise MetricUndefinedError("PRO undefined without any anomalous region")
    anomalous = ranked >= 0
    _, false_pos = _counts(anomalous, ends)
    n_neg = int(false_pos[-1])
    if n_neg == 0:
        raise MetricUndefinedError("PRO undefined without any normal pixel")
    sizes = np.bincount(ranked[anomalous], minlength=count)

    # one curve point per unique score value: pooled FPR and mean region TPR
    fprs = false_pos / n_neg
    # fprs starts at 0 < fpr_limit and ends at 1.0 >= fpr_limit, so a
    # crossing always exists and is at least 1
    crossing = int(np.searchsorted(fprs, fpr_limit, side="left"))
    # the sweep reads the coverage only up to the last pixel of the
    # crossing's tie group, whose prefix sums are those of the whole sweep;
    # a normal pixel (region -1) picks the appended zero
    last = ends[crossing - 1] + 1
    pros = _sweep(np.append(1.0 / sizes, 0.0)[ranked[:last]], ends[:crossing]) / count
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
    """Assemble the four-metric report from already-computed scores.

    The pooled pixels, in the maps' own float dtype, are sorted once on the
    pool's thread while the calling thread labels every mask in one
    ``label_regions`` call; their regions are gathered into rank order
    once. Pixel AUROC and PRO share that order and equal ``auroc`` and
    ``pro`` bit for bit. Image scores and pixel maps of differing counts
    raise ``UsageError``.
    """
    check_float(fpr_limit, "fpr_limit", 0, 1, low_open=True)
    labels = np.asarray(image_labels01)
    if np.size(image_scores) != len(pixel_maps):
        raise UsageError(f"{np.size(image_scores)} image scores for {len(pixel_maps)} pixel maps")
    ranked, ends, count = _ranked_regions(pixel_maps, pixel_masks01)
    return MetricsReport(
        ac_auroc=auroc(image_scores, labels),
        ac_ap=average_precision(image_scores, labels),
        as_auroc=_auroc(ranked >= 0, ends),  # anomalous: mask value 1, as for PRO
        as_pro=_pro(ranked, ends, count, fpr_limit),
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

    ``model`` must expose ``predict_batch(images, cache_keys)``, returning
    for each image an object with ``anomaly_map``, ``image_score``,
    ``stage_features`` and ``grid``; ``chunk_size``, the number of images
    per ``predict_batch`` call; and a run ``config``. The samples go through
    ``predict_batch`` in ceil(n / ``chunk_size``) chunks of near-equal size
    (``numerics.near_equal_chunks``), each image keyed by its sample's
    ``sample_id``, so a repeated evaluation of unchanged images reads the
    model's feature cache; its entries and the text features hold for the
    frozen tensors as ``frozen_hash`` last read them. In few-shot mode each
    chunk's (STAGES, L, C) stage features are stacked into one query, and its
    maps are blended with the memory-bank distance maps with weight ``beta``;
    the image score then comes from the class-token path (``cls``) or the map
    maximum (``max_map``). ``beta`` and ``image_score_mode`` default to the run
    config's ``few_shot_beta`` and ``image_score_mode``.
    """
    if beta is None:
        beta = model.config.few_shot_beta
    if image_score_mode is None:
        image_score_mode = model.config.image_score_mode
    if mode not in ("zero_shot", "few_shot"):
        raise UsageError(f"mode must be zero_shot or few_shot, got {mode!r}")
    if mode == "few_shot" and not isinstance(bank, MemoryBank):
        raise UsageError(f"few_shot evaluation requires a memory bank, got {type(bank).__name__}")
    if image_score_mode not in IMAGE_SCORE_MODES:
        raise UsageError(f"unknown image_score_mode {image_score_mode!r}")
    samples = list(samples)
    if not samples:
        raise UsageError("cannot evaluate an empty dataset")

    maps, scores = [], []
    for chunk_samples in numerics.near_equal_chunks(samples, model.chunk_size):
        preds = model.predict_batch([s.image for s in chunk_samples],
                                    [s.sample_id for s in chunk_samples])
        chunk = np.stack([p.anomaly_map.scores for p in preds])
        if mode == "few_shot":
            features = np.stack([p.stage_features for p in preds])
            fmap = few_shot_map(features, bank, preds[0].grid, chunk.shape[1:])
            chunk = combine_maps(AnomalyMap(chunk), fmap, beta=beta).scores
        maps.extend(chunk)
        if image_score_mode == "max_map":
            scores.extend(float(m.max()) for m in chunk)
        else:
            scores.extend(float(p.image_score) for p in preds)
    labels = [(1 if s.label > 0 else 0) for s in samples]
    masks = [np.asarray(s.mask) > 0 for s in samples]
    try:
        return evaluate_scores(scores, labels, maps, masks, fpr_limit=fpr_limit)
    except MetricUndefinedError as exc:
        raise MetricUndefinedError(
            f"{exc} (dataset of {len(samples)} samples, {sum(labels)} positive)"
        ) from exc
