"""Span tracer that wraps ``sowa`` callables from outside the package.

Each layer is patched at every name its callers look it up by (``model.py``
imports ``attended_features`` by name, so the wrapper goes on
``sowa.model.attended_features`` as well as on the defining module). Spans
(name, start, end, parent) and counters are kept in memory; ``remove()``
puts every original callable back. A target that no longer exists after a
refactor is recorded as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# Count hooks get the wrapped call's arguments and return counter increments.
CountHook = Callable[[tuple, dict], Dict[str, int]]


def _graph_nodes(args, kwargs) -> Dict[str, int]:
    """Nodes reachable from the root ``Var`` that ``backward`` starts from."""
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return {"autodiff.backward.nodes": len(seen)}


def _pixels_scored(args, kwargs) -> Dict[str, int]:
    maps = args[0] if args else kwargs["maps"]
    return {"metrics.pixels_scored": sum(int(m.size) for m in maps)}


# layer name -> (hook, [(module, attribute path), ...]); every lookup site.
LAYERS: Dict[str, Tuple[Optional[CountHook], List[Tuple[str, str]]]] = {
    "backbone.forward": (None, [("sowa.backbone", "Backbone.forward")]),
    "adapter.attended_features": (
        None, [("sowa.adapter", "attended_features"), ("sowa.model", "attended_features")]),
    "adapter.project_tokens": (
        None, [("sowa.adapter", "project_tokens"), ("sowa.model", "project_tokens")]),
    "prompts.encode_prompts": (
        None, [("sowa.prompts", "encode_prompts"), ("sowa.model", "encode_prompts")]),
    "fusion.fuse": (None, [("sowa.fusion", "fuse")]),
    "fusion.anomaly_map": (None, [("sowa.fusion", "anomaly_map")]),
    "fusion.image_score": (None, [("sowa.fusion", "image_score")]),
    "fusion.abnormal_probability_map": (None, [("sowa.fusion", "abnormal_probability_map")]),
    "fewshot.few_shot_map": (
        None, [("sowa.fewshot", "few_shot_map"), ("sowa.metrics", "few_shot_map")]),
    "fewshot.combine_maps": (
        None, [("sowa.fewshot", "combine_maps"), ("sowa.metrics", "combine_maps")]),
    "metrics.auroc": (None, [("sowa.metrics", "auroc")]),
    "metrics.average_precision": (None, [("sowa.metrics", "average_precision")]),
    "metrics.pro": (_pixels_scored, [("sowa.metrics", "pro")]),
    "metrics.label_regions": (None, [("sowa.metrics", "label_regions")]),
    "model.predict": (None, [("sowa.model", "SowaModel.predict")]),
    "model.frozen_forward": (None, [("sowa.model", "SowaModel.frozen_forward")]),
    "training.sample_loss": (None, [("sowa.training", "sample_loss")]),
    "training.composite_loss": (None, [("sowa.training", "composite_loss")]),
    "training.batch_gradients": (None, [("sowa.training", "batch_gradients")]),
    "training.mean_dataset_loss": (None, [("sowa.training", "mean_dataset_loss")]),
    "training.adam_step": (None, [("sowa.training", "adam_step")]),
    "autodiff.backward": (_graph_nodes, [("sowa.autodiff", "Var.backward")]),
    "synth.synth_generate": (None, [("sowa.synth", "synth_generate")]),
    "model.build_model": (None, [("sowa.model", "build_model")]),
}

# Layers that every workload calls. Their metrics are the per-layer metrics
# of BENCHMARK.json, on the result line of every traced run; the metrics of
# the other layers go to the run's record and its "layers" line.
SHARED_LAYERS = (
    "backbone.forward",
    "adapter.attended_features",
    "adapter.project_tokens",
    "prompts.encode_prompts",
    "fusion.fuse",
    "fusion.image_score",
    "model.frozen_forward",
    "synth.synth_generate",
    "model.build_model",
)
REPORTED: Dict[str, str] = {
    **{f"{name}.{kind}": unit for name in SHARED_LAYERS
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    "model.feature_cache_hit_ratio": "ratio",
    "trace.absent_layers": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}

# Time spent in count hooks is recorded under this name so that it is
# subtracted from the caller's self time and reported nowhere.
HOOK_SPAN = "trace.hook"


class Tracer:
    """In-memory span recorder; ``install()`` patches, ``remove()`` restores."""

    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object, object]] = []
        self._removed: List[Tuple[object, str, object, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, hook: Optional[CountHook]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                index = tracer._open(HOOK_SPAN)
                tracer.counts.update(hook(args, kwargs))
                tracer._close(index)
            tracer.counts[name] += 1
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for name, (hook, sites) in self.layers.items():
            found = False
            for module_name, path in sites:
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                wrapper = self._wrap(name, original, hook)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original, wrapper))
                found = True
            if not found:
                self.absent.append(name)
        return self

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)
        self._removed, self._patched = self._patched, []

    def leftover_wrappers(self) -> List[str]:
        """Sites patched by the last ``install`` that do not hold the original."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original, _ in self._removed + self._patched
                if getattr(owner, attr) is not original]

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------- analysis
    def self_seconds(self) -> Dict[str, float]:
        """Per-layer span time minus the time covered by its child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Dict[str, float] = Counter()
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return totals

    def top_level_seconds(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans
                   if parent < 0 and name != HOOK_SPAN)

    def cache_hit_ratio(self) -> float:
        """Share of ``frozen_forward`` calls that made no backbone call."""
        calls = [i for i, span in enumerate(self.spans) if span[0] == "model.frozen_forward"]
        missed = {p for name, _, _, p in self.spans if name == "backbone.forward"}
        return sum(1 for i in calls if i not in missed) / len(calls)

    def dump(self, origin: float) -> dict:
        return {
            "spans": [[n, round(s - origin, 7), round(e - origin, 7), p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }


def layer_metrics(tracer: Tracer, ops: int, setup_tracer: Tracer, setups: int) -> Dict[str, tuple]:
    """Per-operation calls and self time of each layer, plus trace counters.

    Set-up layers (corpus generation, model building) are reported per
    set-up from ``setup_tracer``; every other layer per workload operation.
    A layer that was not called, and a counter of a layer that was not
    called, is left out rather than reported as 0.
    """
    out: Dict[str, tuple] = {}
    op_self = tracer.self_seconds()
    setup_self = setup_tracer.self_seconds()
    for name in tracer.layers:
        if name in ("synth.synth_generate", "model.build_model"):
            src, counts, per = setup_self, setup_tracer.counts, setups
        else:
            src, counts, per = op_self, tracer.counts, ops
        if counts.get(name, 0):
            out[f"{name}.calls"] = (counts[name] / per, "count")
            out[f"{name}.self_ms"] = (src[name] * 1e3 / per, "ms")
    counts = tracer.counts
    if counts.get("autodiff.backward", 0):
        out["autodiff.backward.nodes"] = (
            counts["autodiff.backward.nodes"] / counts["autodiff.backward"], "count")
    if counts.get("metrics.pro", 0):
        out["metrics.pixels_scored"] = (counts["metrics.pixels_scored"] / ops, "count")
    if counts.get("model.frozen_forward", 0):
        out["model.feature_cache_hit_ratio"] = (tracer.cache_hit_ratio(), "ratio")
    out["trace.absent_layers"] = (len(set(tracer.absent) | set(setup_tracer.absent)), "count")
    return out
