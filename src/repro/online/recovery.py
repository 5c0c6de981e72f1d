"""Checkpoint–restore for both service topologies: one format, one file.

A checkpoint is one ``.npz`` file holding everything a fresh process
needs to resume a killed service *verdict-identically* mid-stream: the
front-door state plus one *part* per spatial shard.  The single
:class:`~repro.online.service.OnlineCharacterizationService` writes one
part and records ``topology_shards=0`` (as the CLI flag does); a
:class:`~repro.online.sharded.ShardedService` writes one part per shard.

* ``meta_json`` — format version, tick, recorded topology, the
  applied-since-tick count, service stats, the rejected-input tally and
  the :class:`~repro.online.service.ServiceConfig`;
* ``queue_blob`` / ``aux_blob`` — the pending ingest queue, the detector
  bank (its window state decides every future flag), the last detection
  and the caller's ``extra``, pickled into ``uint8`` arrays;
* per part ``i``, members prefixed ``part{i}_``: the columnar
  :class:`~repro.online.store.DeviceStateStore` planes (``store_*``,
  trimmed to used rows), the
  :class:`~repro.online.dirty.DirtyRegionTracker` cell sets
  (``tracker_*`` — without them the first post-restore tick would miss
  the one-tick move carry) and the verdict cache (``verdicts_blob``).

**Commit rule.**  The archive is written to a ``.tmp`` sibling, fsynced,
then published with one atomic ``os.replace``: a reader sees either the
whole new checkpoint or the previous one, and a writer killed mid-write
leaves the previous checkpoint intact.  Because every shard's part
travels in that one file, written between two tick boundaries, a
sharded checkpoint is a consistent cut by construction — no manifest
and no per-part tick cross-check are needed.

**Recorded topology wins.**  :func:`restore_service` rebuilds the
topology the file records, whatever class or CLI flag asks for it;
``topology_workers`` only picks where restored shards run.

Loading is strict: a foreign format version, a store placed by a foreign
cell hash, or a missing metadata field or member raises
:class:`~repro.core.errors.CheckpointError` naming what is wrong.

What deliberately does *not* travel: the cross-tick perf caches (the
previous transition, the motion-cache carry, the chained ``cur`` copy).
They only accelerate the next tick, so the first post-restore tick pays
one fresh index build and family recompute — verdicts are unaffected,
which is exactly the contract ``tests/online/test_recovery.py`` pins.
"""

from __future__ import annotations

import json
import os
import pickle
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.errors import CheckpointError, ConfigurationError
from repro.online.service import (
    OnlineCharacterizationService,
    OnlineTick,
    QosUpdate,
    ServiceConfig,
)
from repro.online.store import SHARD_HASH

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointWriter",
    "checkpoint_path",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "restore_service",
    "save_checkpoint",
]

#: Format version written into (and required from) every checkpoint.
#: Version 2 is the one-file format for both topologies.
CHECKPOINT_VERSION = 2

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.npz$")

#: Metadata fields every checkpoint must carry.
_META_FIELDS = (
    "tick",
    "topology_shards",
    "applied_since_tick",
    "stats",
    "rejected",
    "config",
)
#: Members of every part, after its ``part{i}_`` prefix.  The store's
#: ``shard_hash`` marker is checked on its own (see _check_placement).
_PART_MEMBERS = (
    "verdicts_blob",
    *(
        f"store_{key}"
        for key in (
            "prev", "cur", "flags", "alive", "verdict", "id_of", "free",
            "cell", "n_shards", "tick_serial",
        )
    ),
    *(f"tracker_{key}" for key in ("pending", "carry", "carry_next")),
)

_PathLike = Union[str, os.PathLike]

#: One shard's slice: ``(store_state, tracker_state, verdict_cache)``.
_Part = Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], Dict[int, object]]


def _pack(obj: object) -> np.ndarray:
    """Pickle ``obj`` into a uint8 array storable inside an npz."""
    return np.frombuffer(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )


def _unpack(path: Path, name: str, arr: np.ndarray, kind: type):
    try:
        obj = pickle.loads(np.asarray(arr, dtype=np.uint8).tobytes())
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} has a corrupt {name}: {exc}"
        ) from exc
    if not isinstance(obj, kind):
        raise CheckpointError(
            f"checkpoint {path} has a corrupt {name}: expected "
            f"{kind.__name__}, got {type(obj).__name__}"
        )
    return obj


def _check_placement(path: Path, store_state: Dict[str, np.ndarray]) -> None:
    """Refuse store state placed under any cell→shard hash but ours.

    Checkpoints written before the stable hash carry no marker, and the
    retired ``"legacy"`` tuple hash placed devices differently; restoring
    either would silently move devices between store shards.
    """
    marker = store_state.get("shard_hash")
    found = "none" if marker is None else str(marker)
    if found != SHARD_HASH:
        raise CheckpointError(
            f"checkpoint {path} places store shards with the {found!r} "
            f"cell hash; this build reads only {SHARD_HASH!r}"
        )


@dataclass
class Checkpoint:
    """One loaded checkpoint, ready for :func:`restore_service`.

    ``parts`` holds one ``(store_state, tracker_state, verdicts)`` per
    shard, in shard order; a single-service checkpoint
    (``topology_shards == 0``) has exactly one.
    """

    version: int
    tick: int
    topology_shards: int
    applied_since_tick: int
    stats: Dict[str, int]
    rejected: Dict[str, int]
    config: ServiceConfig
    queue: List[QosUpdate]
    bank: object
    last_detection: object
    extra: Dict[str, object]
    parts: List[_Part]


def save_checkpoint(service, path: _PathLike, *, extra=None) -> Path:
    """Write one atomic checkpoint of ``service`` (either topology) to
    ``path`` — always exactly one file — and return the published path.

    ``extra`` is an arbitrary (picklable) dict carried alongside the
    service state — e.g. the CLI replay driver stores its external
    detector bank there.  Call between ticks (e.g. from a sink).
    """
    path = Path(path)
    topology, parts = service._checkpoint_parts()
    front = service._front_state()
    queue = front.pop("queue")
    aux = {key: front.pop(key) for key in ("bank", "last_detection")}
    aux["extra"] = dict(extra or {})
    meta = {
        "version": CHECKPOINT_VERSION,
        "topology_shards": topology,
        "config": asdict(service.config),
        **front,
    }
    arrays: Dict[str, np.ndarray] = {
        "meta_json": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
        "queue_blob": _pack(queue),
        "aux_blob": _pack(aux),
    }
    for i, (store_state, tracker_state, verdicts) in enumerate(parts):
        arrays[f"part{i}_verdicts_blob"] = _pack(verdicts)
        for key, value in store_state.items():
            arrays[f"part{i}_store_{key}"] = value
        for key, value in tracker_state.items():
            arrays[f"part{i}_tracker_{key}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def _require(path: Path, what: str, present, wanted) -> None:
    missing = [name for name in wanted if name not in present]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} is missing {what}: {', '.join(missing)}"
        )


def load_checkpoint(path: _PathLike) -> Checkpoint:
    """Read and validate one checkpoint; raises only :class:`CheckpointError`."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable: {exc}"
        ) from exc
    _require(path, "members", arrays, ("meta_json", "queue_blob", "aux_blob"))
    try:
        meta = json.loads(arrays["meta_json"].tobytes().decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} has corrupt metadata: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint {path} has corrupt metadata")
    version = meta.get("version", -1)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} is format version {version}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    _require(path, "metadata fields", meta, _META_FIELDS)
    try:
        topology = int(meta["topology_shards"])
        tick = int(meta["tick"])
        applied = int(meta["applied_since_tick"])
        stats = {k: int(v) for k, v in meta["stats"].items()}
        rejected = {k: int(v) for k, v in meta["rejected"].items()}
        config = ServiceConfig(**meta["config"])
    except (AttributeError, TypeError, ValueError, ConfigurationError) as exc:
        raise CheckpointError(
            f"checkpoint {path} has corrupt metadata: {exc}"
        ) from exc
    if topology < 0:
        raise CheckpointError(
            f"checkpoint {path} records topology_shards={topology}"
        )
    parts: List[_Part] = []
    for i in range(max(1, topology)):
        prefix = f"part{i}_"
        _require(
            path, f"part {i} members", arrays,
            [prefix + name for name in _PART_MEMBERS],
        )
        store_state, tracker_state = {}, {}
        for key, value in arrays.items():
            if key.startswith(prefix + "store_"):
                store_state[key[len(prefix + "store_"):]] = value
            elif key.startswith(prefix + "tracker_"):
                tracker_state[key[len(prefix + "tracker_"):]] = value
        _check_placement(path, store_state)
        verdicts = _unpack(
            path, f"part {i} verdict map", arrays[prefix + "verdicts_blob"], dict
        )
        parts.append((store_state, tracker_state, verdicts))
    aux = _unpack(path, "aux blob", arrays["aux_blob"], dict)
    _require(path, "aux entries", aux, ("bank", "last_detection", "extra"))
    return Checkpoint(
        version=version,
        tick=tick,
        topology_shards=topology,
        applied_since_tick=applied,
        stats=stats,
        rejected=rejected,
        config=config,
        queue=_unpack(path, "ingest queue", arrays["queue_blob"], list),
        bank=aux["bank"],
        last_detection=aux["last_detection"],
        extra=dict(aux["extra"]),
        parts=parts,
    )


def restore_service(
    source: Union[Checkpoint, _PathLike],
    *,
    config: Optional[ServiceConfig] = None,
    engine=None,
    sinks: Iterable[Callable[[OnlineTick], None]] = (),
    tracer=None,
    topology_workers: str = "thread",
):
    """Rebuild the recorded topology from a checkpoint, verdict-identically.

    A ``topology_shards=0`` checkpoint becomes an
    :class:`~repro.online.service.OnlineCharacterizationService` (``engine``
    optionally shares an engine with it); any other becomes a
    :class:`~repro.online.sharded.ShardedService` with that many shards,
    run under ``topology_workers`` — a cut taken under either worker mode
    restores under either.  ``config`` overrides the checkpointed
    :class:`ServiceConfig` (e.g. to resume on a different backend —
    verdicts are backend-invariant).  Stores, trackers, verdict caches,
    queue and bank state are all reinstated; only the cross-tick perf
    caches start cold, so the first resumed tick trades some reuse for
    correctness.
    """
    ckpt = (
        source
        if isinstance(source, Checkpoint)
        else load_checkpoint(source)
    )
    cfg = config or ckpt.config
    if ckpt.topology_shards:
        from repro.online.sharded import ShardedService

        if engine is not None:
            raise ConfigurationError(
                f"engine= applies to single-service checkpoints; this one "
                f"records {ckpt.topology_shards} shards"
            )
        service = ShardedService._from_parts(
            ckpt.parts, cfg, sinks=sinks, tracer=tracer,
            topology_workers=topology_workers,
        )
    else:
        service = OnlineCharacterizationService._from_parts(
            ckpt.parts, cfg, engine=engine, sinks=sinks, tracer=tracer
        )
    service._load_front_state(ckpt)
    return service


# The only reason these exist: perfbench/layers.py resolves them by name.
save_sharded_checkpoint = save_checkpoint
load_sharded_checkpoint = load_checkpoint
restore_sharded_service = restore_service


def checkpoint_path(directory: _PathLike, tick: int) -> Path:
    """The canonical checkpoint filename for ``tick``."""
    return Path(directory) / f"checkpoint-{tick:08d}.npz"


def list_checkpoints(directory: _PathLike) -> List[Path]:
    """Canonical-named checkpoints in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: List[tuple] = []
    for entry in directory.iterdir():
        match = _CHECKPOINT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def latest_checkpoint(directory: _PathLike) -> Optional[Path]:
    """The newest canonical checkpoint in ``directory``, if any."""
    found = list_checkpoints(directory)
    return found[-1] if found else None


def prune_checkpoints(directory: _PathLike, keep: int) -> int:
    """Delete all but the newest ``keep`` checkpoints; returns removals."""
    if keep < 1:
        raise ConfigurationError(f"keep must be >= 1, got {keep!r}")
    stale = list_checkpoints(directory)[:-keep]
    for path in stale:
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent prune
            pass
    return len(stale)


class CheckpointWriter:
    """Service sink: checkpoint every ``every`` ticks, keep the last few.

    Works for either topology.  Attach with
    ``service.add_sink(CheckpointWriter(service, dir))`` or pass it via
    the service's ``sinks``.  Each write is atomic (see
    :func:`save_checkpoint`) and followed by retention pruning, so the
    directory always holds the ``keep`` newest complete checkpoints.
    """

    def __init__(
        self,
        service,
        directory: _PathLike,
        *,
        every: int = 1,
        keep: int = 3,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every!r}")
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep!r}")
        self._service = service
        self._directory = Path(directory)
        self._every = int(every)
        self._keep = int(keep)
        self._extra = extra
        self.written: List[Path] = []

    def __call__(self, tick: OnlineTick) -> None:
        if tick.tick % self._every:
            return
        path = checkpoint_path(self._directory, tick.tick)
        save_checkpoint(self._service, path, extra=self._extra)
        self.written.append(path)
        prune_checkpoints(self._directory, self._keep)
