"""Online characterization service: events in, fresh verdicts out.

The batch drivers (:mod:`repro.simulation`, :mod:`repro.experiments`)
rebuild every spatial index and recompute every verdict each interval.
This package keeps a live population warm instead:

* :class:`~repro.online.grid.MutableGridIndex` — the incremental twin of
  :class:`~repro.core.geometry.GridIndex`: insert / remove / move in
  O(1), query-identical by contract;
* :class:`~repro.online.store.DeviceStateStore` — last two QoS snapshots
  and flag state per device, sharded by grid cell;
* :class:`~repro.online.dirty.DirtyRegionTracker` — maps a tick's
  updated cells to the flagged devices whose ``4r`` neighbourhoods could
  have changed (the paper's locality result read as an invalidation
  rule);
* :class:`~repro.online.service.OnlineCharacterizationService` — bounded
  ingest queue, batching and backpressure knobs
  (:class:`~repro.online.service.ServiceConfig`), pluggable sinks, and a
  per-tick verdict map equal to full batch recharacterization;
* :mod:`repro.online.replay` — drivers feeding recorded traces or
  synthetic load through the service;
* :mod:`repro.online.stages` — the tick pipeline decomposed into
  composable stage objects over a shared :class:`TickContext`;
* :mod:`repro.online.sharded` — spatial shards with per-tick halo
  exchange: N shard workers behind one
  :class:`~repro.online.sharded.ShardedService` front door, verdicts
  identical to one big service.

The tick pipeline is instrumented end to end through :mod:`repro.obs`:
every service owns a stage-span tracer (``service.tracer``), each
:class:`~repro.online.service.OnlineTick` carries a ``stage_seconds``
breakdown, and the registry accumulates per-stage latency histograms.

See DESIGN.md, sections "Online subsystem" and "Observability".
"""

from repro.online.dirty import DirtyRegionTracker
from repro.online.grid import MutableGridIndex
from repro.online.recovery import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointWriter,
    checkpoint_path,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    restore_service,
    save_checkpoint,
)
from repro.online.replay import (
    LoadGenerator,
    LoadProfile,
    OnlineReplayResult,
    diff_updates,
    drive_load,
    drive_load_measurements,
    replay_trace_online,
)
from repro.online.service import (
    BACKPRESSURE_POLICIES,
    VALIDATION_MODES,
    MetricsSink,
    OnlineCharacterizationService,
    OnlineTick,
    QosUpdate,
    ReportSink,
    ServiceConfig,
    ServiceStats,
)
from repro.online.sharded import (
    HaloTransitionBuildStage,
    ShardMap,
    ShardedService,
)
from repro.online.stages import (
    DetectStage,
    DirtyRegionStage,
    IndexUpdateStage,
    IngestDrainStage,
    SinkStage,
    TickContext,
    TickPipeline,
    TransitionBuildStage,
    VerdictStage,
)
from repro.online.store import AppliedUpdate, DeviceStateStore

__all__ = [
    "AppliedUpdate",
    "BACKPRESSURE_POLICIES",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointWriter",
    "DetectStage",
    "DeviceStateStore",
    "DirtyRegionStage",
    "DirtyRegionTracker",
    "HaloTransitionBuildStage",
    "IndexUpdateStage",
    "IngestDrainStage",
    "LoadGenerator",
    "LoadProfile",
    "MetricsSink",
    "MutableGridIndex",
    "OnlineCharacterizationService",
    "OnlineReplayResult",
    "OnlineTick",
    "QosUpdate",
    "ReportSink",
    "ServiceConfig",
    "ServiceStats",
    "ShardMap",
    "ShardedService",
    "SinkStage",
    "TickContext",
    "TickPipeline",
    "TransitionBuildStage",
    "VALIDATION_MODES",
    "VerdictStage",
    "checkpoint_path",
    "diff_updates",
    "drive_load",
    "drive_load_measurements",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "replay_trace_online",
    "restore_service",
    "save_checkpoint",
]
