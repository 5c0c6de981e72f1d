"""Closed-loop driver: one caller, next tick only after the last returns.

Every tick's input is generated untimed; the timed region starts where
input delivery starts (building the ``QosUpdate`` objects counts) and
ends when the ``OnlineTick`` is returned.  Checks run untimed:

* every tick: applied count and flagged set against the stream's
  mirror, and no rejected input;
* sampled ticks: every verdict's type, rule and witness against
  ``Characterizer(Transition(Snapshot(prev), Snapshot(cur), flagged,
  r, tau)).characterize_all()`` on the full population;
* every restore: the restored service's next tick equals the live one.

A tick that raises (``SearchBudgetExceeded`` included) is counted as
failed, its traceback goes to stderr, and the run stops: the service's
state is unknown after it.
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from workloads import TAU, Workload, build_service, make_stream

#: Ticks run before measuring: the flagged population is stationary
#: from tick 2, and the first ticks warm the caches.
WARMUP_TICKS = 3
#: A measured tick is checked against the batch oracle every this many.
ORACLE_EVERY = 10


class TickFailed(Exception):
    """A tick raised; the run cannot continue."""


def _verdict_key(verdict):
    return (verdict.anomaly_type, verdict.rule, verdict.witness)


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


class Driver:
    """Drives one workload's service through one run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.stream = make_stream(workload, seed)
        self.workdir = workdir
        positions = self.stream.positions.copy()
        start = time.perf_counter()
        self.service = build_service(workload, positions)
        self.build_s = time.perf_counter() - start
        self.sharded = workload.sharded
        self.recorder = None
        self.attempted = 0
        self.failed = 0
        self.oracle_ticks = 0
        self.latencies: List[float] = []
        self.applied = 0
        self.observations: List[dict] = []
        self.checkpoint_s: List[float] = []
        self.restore_s: List[float] = []
        self.checkpoint_bytes: List[int] = []
        self._kinds: Dict[int, tuple] = {}
        self._measured = 0

    # ------------------------------------------------------------------
    def _deliver(self, service, inputs, tick_id: Optional[int]):
        """Hand one tick's input to ``service``; return (tick, seconds)."""
        from repro.online import QosUpdate

        rec = self.recorder
        root = None
        if rec is not None:
            rec.tick = tick_id
            root = rec.open("tick")
        start = time.perf_counter()
        if self.sharded:
            ids, pos, flags = inputs
            service.ingest_many(
                [
                    QosUpdate(d, p, f)
                    for d, p, f in zip(ids.tolist(), pos.tolist(), flags.tolist())
                ]
            )
            tick = service.end_tick()
        else:
            tick = service.feed_measurements(inputs)
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.close(root)
            rec.tick = None
        return tick, elapsed

    def _check(self, tick, oracle: bool) -> List[str]:
        stream = self.stream
        problems = []
        if tick.applied != stream.expected_applied:
            problems.append(f"applied {tick.applied} != {stream.expected_applied}")
        if self.service.rejected:
            problems.append(f"rejected inputs {self.service.rejected}")
        expected_flagged = tuple(int(j) for j in np.flatnonzero(stream.flags))
        if tuple(tick.flagged) != expected_flagged:
            problems.append(
                f"flagged set differs ({len(tick.flagged)} vs {len(expected_flagged)})"
            )
        if oracle:
            from repro.core.characterize import Characterizer
            from repro.core.transition import Snapshot, Transition

            self.oracle_ticks += 1
            expected = Characterizer(
                Transition(
                    Snapshot(stream.prev),
                    Snapshot(stream.positions),
                    expected_flagged,
                    self.workload.r,
                    TAU,
                )
            ).characterize_all()
            if set(expected) != set(tick.verdicts):
                problems.append("verdict keys differ from the oracle")
            else:
                bad = [
                    j
                    for j, verdict in expected.items()
                    if _verdict_key(verdict) != _verdict_key(tick.verdicts[j])
                ]
                if bad:
                    problems.append(f"{len(bad)} verdicts differ from the oracle, e.g. {bad[:3]}")
        return problems

    def _observe(self, tick, owners_before) -> dict:
        from repro.core.types import AnomalyType

        kinds = {j: (v.anomaly_type, v.rule) for j, v in tick.verdicts.items()}
        obs = {
            "tick": tick.tick,
            "traced": self.recorder is not None,
            "flagged": len(tick.flagged),
            "recomputed": len(tick.recomputed),
            "reused": len(tick.reused),
            "dirty_cells": tick.dirty_cells,
            "families_recomputed": tick.families_recomputed,
            "families_reused": tick.families_reused,
            "changed": sum(1 for j in tick.recomputed if self._kinds.get(j) != kinds.get(j)),
            "unresolved": sum(
                1 for kind, _ in kinds.values() if kind is AnomalyType.UNRESOLVED
            ),
        }
        self._kinds = kinds
        if self.sharded:
            counts = self.service.shard_flagged_counts()
            mean = sum(counts) / len(counts)
            ids, owners = owners_before
            obs["halo_bytes"] = tick.halo_bytes
            obs["skew"] = max(counts) / mean if mean else 1.0
            obs["migrations"] = sum(
                1 for d, s in zip(ids, owners) if self.service.shard_of(d) != s
            )
        return obs

    def step(self, *, measure: bool, oracle: bool, restored=None) -> None:
        """Run one live tick (and, for a restore check, the restored one)."""
        inputs = self.stream.next_inputs()
        owners = None
        if self.sharded and measure:
            ids = inputs[0].tolist()
            owners = (ids, [self.service.shard_of(d) for d in ids])
        self.attempted += 1
        try:
            tick, elapsed = self._deliver(
                self.service, inputs, self.service.current_tick + 1
            )
        except Exception as exc:
            self.failed += 1
            traceback.print_exc()
            raise TickFailed(str(exc)) from exc
        problems = self._check(tick, oracle)
        if restored is not None:
            try:
                again, _ = self._deliver(restored, inputs, None)
            except Exception:
                traceback.print_exc()
                problems.append("restored service's next tick raised")
            else:
                same = (
                    again.applied == tick.applied
                    and again.flagged == tick.flagged
                    and {j: _verdict_key(v) for j, v in again.verdicts.items()}
                    == {j: _verdict_key(v) for j, v in tick.verdicts.items()}
                )
                if not same:
                    problems.append("restored service's next tick differs from the live one")
        if problems:
            self.failed += 1
            _log(f"tick {tick.tick}: " + "; ".join(problems))
        if measure:
            self._measured += 1
            self.latencies.append(elapsed)
            self.applied += tick.applied
            self.observations.append(self._observe(tick, owners))
        else:
            self._kinds = {j: (v.anomaly_type, v.rule) for j, v in tick.verdicts.items()}

    def recovery_cycle(self) -> None:
        """Checkpoint, restore, then check the restored service's next tick."""
        service = self.service
        target = self.workdir / f"ck-{service.current_tick:06d}"
        if not self.sharded:
            target = target.with_suffix(".npz")
        start = time.perf_counter()
        written = service.checkpoint(target)
        self.checkpoint_s.append(time.perf_counter() - start)
        files = [target] if target.is_file() else [f for f in target.rglob("*") if f.is_file()]
        self.checkpoint_bytes.append(sum(f.stat().st_size for f in files))
        kwargs = {"topology_workers": "process"} if self.sharded else {}
        start = time.perf_counter()
        restored = type(service).restore(written, **kwargs)
        self.restore_s.append(time.perf_counter() - start)
        try:
            self.step(measure=True, oracle=False, restored=restored)
        finally:
            restored.close()
            if target.is_dir():
                shutil.rmtree(target)
            else:
                target.unlink()

    # ------------------------------------------------------------------
    def warmup(self) -> None:
        for i in range(WARMUP_TICKS):
            # The first stationary tick is always checked, so every run
            # verifies at least one tick against the oracle.
            self.step(measure=False, oracle=i == 1)

    def _traced(self, recorder, action, **kwargs) -> None:
        """Run ``action`` with the layer wrappers installed."""
        recorder.install()
        self.recorder = recorder
        try:
            action(**kwargs)
        finally:
            self.recorder = None
            recorder.uninstall()

    def run(self, seconds: float, recorder=None) -> None:
        """Measured ticks for ``seconds`` of tick wall time.

        The workload's recovery cycles are evenly spaced over the time.
        With a ``recorder``, every other tick and every recovery cycle
        runs traced.
        """
        cycles = self.workload.recovery_cycles
        marks = [seconds * k / (cycles + 1) for k in range(1, cycles + 1)]
        spent = 0.0
        while spent < seconds:
            if marks and spent >= marks[0]:
                marks.pop(0)
                action, kwargs = self.recovery_cycle, {}
                traced = recorder is not None
            else:
                action = self.step
                kwargs = {"measure": True, "oracle": self._measured % ORACLE_EVERY == 0}
                traced = recorder is not None and self._measured % 2 == 1
            if traced:
                self._traced(recorder, action, **kwargs)
            else:
                action(**kwargs)
            spent += self.latencies[-1]

    def close(self) -> None:
        self.service.close()
