"""Per-layer attribution from outside the program.

The traced run installs wrappers, from this file, around the public
functions of each layer.  A wrapper records one span (name, start, end,
parent, tick id) in memory and, where the call carries a count, adds it
to the tick's counters.  Nothing is installed in untraced runs; a
traced run installs the wrappers for every other tick only (and for
the recovery cycles), so traced and untraced ticks interleave and the
tracing overhead is read under the same host conditions.

Self time of a span is its duration minus the time its direct child
spans cover.  Every span inside a tick maps to exactly one layer
metric, so per tick the layer self times sum to the root ``tick`` span
(``check_sums`` verifies this).  Under the process topology the shard
children's calls are invisible here: ``sharded.child_wait_ms`` (the
self time of ``ShardedService.end_tick``) carries that share.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: (module, class or None, function, span name, count(args, result) or None)
_SERVICE = ("repro.online.service", "OnlineCharacterizationService")
TARGETS = (
    (*_SERVICE, "ingest_many", "service.ingest", None),
    (*_SERVICE, "end_tick", "service.end_tick", None),
    (*_SERVICE, "feed_measurements", "service.feed", None),
    ("repro.online.sharded", "ShardedService", "ingest_many", "service.ingest", None),
    ("repro.online.sharded", "ShardedService", "end_tick", "sharded.end_tick", None),
    ("repro.detection.banks", "DetectorBank", "observe_batch", "detection.observe",
     lambda args, result: len(args[1])),
    ("repro.online.store", "DeviceStateStore", "apply_rows", "store.apply_rows",
     lambda args, result: len(args[1])),
    ("repro.online.replay", None, "diff_rows", "store.diff", None),
    ("repro.online.grid", "MutableGridIndex", "devices_near_cells", "grid.near_cells",
     lambda args, result: len(result)),
    ("repro.online.grid", "MutableGridIndex", "move_rows", "grid.move_rows", None),
    ("repro.online.dirty", "DirtyRegionTracker", "mark_batch", "dirty.mark", None),
    ("repro.online.dirty", "DirtyRegionTracker", "finish_tick", "dirty.finish", None),
    ("repro.core.transition", "Transition", "from_views", "transition.build", None),
    ("repro.engine.core", "CharacterizationEngine", "characterize_run", "engine.characterize",
     None),
    ("repro.online.recovery", None, "save_checkpoint", "recovery.save", None),
    ("repro.online.recovery", None, "save_sharded_checkpoint", "recovery.save", None),
    ("repro.online.recovery", None, "load_checkpoint", "recovery.load", None),
    ("repro.online.recovery", None, "load_sharded_checkpoint", "recovery.load", None),
    ("repro.online.recovery", None, "restore_service", "recovery.restore", None),
    ("repro.online.recovery", None, "restore_sharded_service", "recovery.restore", None),
)

#: Span name -> the per-tick time metric its self time feeds.  The root
#: ``tick`` span and the single service's own front-door spans make up
#: ``service.tick_self_ms``: tick time no deeper layer accounts for.
TIME_METRIC = {
    "tick": "service.tick_self_ms",
    "service.end_tick": "service.tick_self_ms",
    "service.feed": "service.tick_self_ms",
    "service.ingest": "service.ingest_ms",
    "sharded.end_tick": "sharded.child_wait_ms",
    "detection.observe": "detection.observe_ms",
    "store.apply_rows": "store.apply_rows_ms",
    "store.diff": "store.diff_ms",
    "grid.near_cells": "grid.near_cells_ms",
    "grid.move_rows": "grid.move_rows_ms",
    "dirty.mark": "dirty.mark_ms",
    "dirty.finish": "dirty.finish_ms",
    "transition.build": "transition.build_ms",
    "engine.characterize": "engine.characterize_ms",
}

#: Every per-layer metric the benchmark reports, with its unit.
PER_LAYER = {
    "service.ingest_ms": "ms",
    "service.tick_self_ms": "ms",
    "detection.observe_ms": "ms",
    "detection.rows": "count",
    "store.apply_rows_ms": "ms",
    "store.rows_applied": "count",
    "store.diff_ms": "ms",
    "store.build_s": "s",
    "store.bytes_per_device": "B/device",
    "grid.near_cells_ms": "ms",
    "grid.near_cells_calls": "count",
    "grid.near_cells_devices": "count",
    "grid.move_rows_ms": "ms",
    "dirty.mark_ms": "ms",
    "dirty.finish_ms": "ms",
    "dirty.cells": "count",
    "dirty.recompute_per_flagged": "ratio",
    "transition.build_ms": "ms",
    "engine.characterize_ms": "ms",
    "engine.recomputed": "count",
    "engine.reused": "count",
    "engine.changed_ratio": "ratio",
    "engine.family_reuse_ratio": "ratio",
    "engine.unresolved_share": "ratio",
    "sharded.child_wait_ms": "ms",
    "sharded.halo_bytes": "B",
    "sharded.migrations": "count",
    "sharded.flagged_skew": "ratio",
    "sharded.respawns": "count",
    "ipc.shm_leaked": "count",
    "recovery.save_ms": "ms",
    "recovery.bytes": "B",
    "recovery.load_ms": "ms",
    "recovery.rebuild_ms": "ms",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead_frac": "ratio",
}


class Recorder:
    """In-memory span and counter store of one traced run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, tick id or None]
        self.spans: List[list] = []
        self.counts: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[int] = []
        self.tick: Optional[int] = None
        self._patches = self._prepare()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.tick])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: int) -> None:
        if self.tick is not None:
            self.counts[self.tick][key] += value

    def _wrap(self, fn: Callable, name: str, counter) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if counter is not None:
                recorder.count(name + ".calls", 1)
                recorder.count(name + ".n", counter(args, result))
            return result

        return wrapper

    def _prepare(self) -> List[tuple]:
        """(owner, attribute, original, wrapper) for every target; module
        functions are replaced wherever a loaded ``repro`` module holds
        them by name."""
        patches = []
        for module_name, class_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attr)
                wrapped = self._wrap(original, name, counter)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "") or "").startswith("repro") and (
                        getattr(mod, attr, None) is original
                    ):
                        patches.append((mod, attr, original, wrapped))
                continue
            owner = getattr(module, class_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                wrapped = self._wrap(raw, name, counter)
            patches.append((owner, attr, raw, wrapped))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def self_times(self) -> List[float]:
        """Self seconds of every span, index-aligned with ``spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, tick in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def tick_times(self, ticks) -> Dict[int, Dict[str, float]]:
        """Per tick: layer time metrics in ms, plus ``root_ms``."""
        wanted = set(ticks)
        out: Dict[int, Dict[str, float]] = {t: defaultdict(float) for t in wanted}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, parent, tick = span
            if tick not in wanted:
                continue
            out[tick][TIME_METRIC[name]] += own * 1e3
            if name == "tick":
                out[tick]["root_ms"] += (end - start) * 1e3
        return out


def check_sums(times: Dict[int, Dict[str, float]]) -> float:
    """Largest |sum of layer self times - root span| over ticks, in ms."""
    worst = 0.0
    for values in times.values():
        layers = sum(v for k, v in values.items() if k != "root_ms")
        worst = max(worst, abs(layers - values["root_ms"]))
    return worst


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def derive(
    recorder: Recorder, observations: List[dict], extra: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics: per-tick medians over the traced ticks.

    ``observations`` holds the ``Driver``'s per-tick facts read from each
    ``OnlineTick`` (and the sharded front door); ``extra`` carries the
    metrics measured outside the tick loop (set-up, store build,
    recovery, leaks, overhead).
    """
    ticks = [obs["tick"] for obs in observations]
    times = recorder.tick_times(ticks)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in set(TIME_METRIC.values()):
        metrics[name] = median(times[t].get(name, 0.0) for t in ticks)
    counts = recorder.counts

    def per_tick(key):
        return median(counts[t].get(key, 0) for t in ticks)

    metrics["detection.rows"] = per_tick("detection.observe.n")
    metrics["store.rows_applied"] = per_tick("store.apply_rows.n")
    metrics["grid.near_cells_calls"] = per_tick("grid.near_cells.calls")
    metrics["grid.near_cells_devices"] = per_tick("grid.near_cells.n")

    def obs_median(fn):
        values = [fn(obs) for obs in observations]
        return median(v for v in values if v is not None)

    def ratio(num, den):
        return lambda obs: obs[num] / obs[den] if obs[den] else None

    metrics["dirty.cells"] = obs_median(lambda o: o["dirty_cells"])
    metrics["dirty.recompute_per_flagged"] = obs_median(ratio("recomputed", "flagged"))
    metrics["engine.recomputed"] = obs_median(lambda o: o["recomputed"])
    metrics["engine.reused"] = obs_median(lambda o: o["reused"])
    metrics["engine.changed_ratio"] = obs_median(ratio("changed", "recomputed"))
    metrics["engine.family_reuse_ratio"] = obs_median(
        lambda o: o["families_reused"] / (o["families_reused"] + o["families_recomputed"])
        if o["families_reused"] + o["families_recomputed"]
        else None
    )
    metrics["engine.unresolved_share"] = obs_median(ratio("unresolved", "flagged"))
    if "skew" in observations[0]:
        metrics["sharded.halo_bytes"] = obs_median(lambda o: o["halo_bytes"])
        metrics["sharded.migrations"] = obs_median(lambda o: o["migrations"])
        metrics["sharded.flagged_skew"] = obs_median(lambda o: o["skew"])

    spans = defaultdict(list)
    for name, start, end, parent, tick in recorder.spans:
        spans[name].append(end - start)
    metrics["recovery.save_ms"] = median(spans["recovery.save"]) * 1e3
    metrics["recovery.load_ms"] = median(spans["recovery.load"]) * 1e3
    # Each restore minus its own file read and parse.
    metrics["recovery.rebuild_ms"] = median(
        r - l for r, l in zip(spans["recovery.restore"], spans["recovery.load"])
    ) * 1e3
    metrics.update(extra)
    return metrics
