"""Checkpoint–restore: verdict-identical resume, format safety, retention.

The acceptance bar: checkpoint a service mid-stream, kill it, restore
into a *fresh process*, and the resumed verdict / flag / stats streams
are identical to the uninterrupted run — on the serial and the pooled
backend alike.  Plus the format contract (versioned, atomic, one file,
loud on corruption) and the :class:`CheckpointWriter` cadence/retention
sink.  Every class runs twice: as written against the single service
(``topology_shards=0``) and, through its ``*Sharded`` subclass, against
a 2-shard :class:`ShardedService` — both write the same one-file format.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import CheckpointError, ConfigurationError
from repro.detection.banks import DetectorSpec
from repro.engine import CharacterizationEngine, EngineConfig
from repro.online import (
    CheckpointWriter,
    LoadGenerator,
    LoadProfile,
    OnlineCharacterizationService,
    ServiceConfig,
    ShardedService,
    checkpoint_path,
    drive_load,
    drive_load_measurements,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    restore_service,
    save_checkpoint,
)

PROFILE = LoadProfile(devices=80, services=2, churn=0.1, flag_rate=0.3, seed=5)

#: Every sharded test must release the segments its services create.
pytestmark = pytest.mark.usefixtures("shm_leak_guard")


def _verdict_stream(ticks):
    """The identity-relevant projection of a tick stream."""
    return [
        {
            "tick": t.tick,
            "flagged": sorted(t.flagged),
            "verdicts": {
                str(j): [
                    v.anomaly_type.name,
                    v.rule.name,
                    sorted(v.witness) if v.witness is not None else None,
                ]
                for j, v in sorted(t.verdicts.items())
            },
        }
        for t in ticks
    ]


def _build(topology, positions, config=None, **kwargs):
    """A single service (``topology=0``) or a ``topology``-shard one."""
    config = config or ServiceConfig(r=0.05, tau=2)
    if topology:
        return ShardedService(
            positions, config, topology_shards=topology, **kwargs
        )
    return OnlineCharacterizationService(positions, config, **kwargs)


class _Topology:
    """Mixin: the topology a test class checkpoints (0 = single)."""

    topology = 0

    def _fresh_service(self, config=None, **kwargs):
        generator = LoadGenerator(PROFILE)
        service = _build(
            self.topology, generator.initial_positions(), config, **kwargs
        )
        return service, generator

    def _assert_topology(self, service):
        assert isinstance(
            service,
            ShardedService if self.topology else OnlineCharacterizationService,
        )
        if self.topology:
            assert service.n_shards == self.topology


class TestRoundtrip(_Topology):
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_kill_and_restore_is_verdict_identical(self, tmp_path, backend):
        config = ServiceConfig(
            r=0.05,
            tau=2,
            backend=backend,
            workers=2,
            dispatch_deadline=5.0 if backend == "process" else None,
        )
        # Uninterrupted reference: 9 ticks straight through.
        service, generator = self._fresh_service(config)
        with service:
            full = _verdict_stream(drive_load(service, generator, 9).ticks)
            full_stats = service.stats.as_dict()
        # Interrupted run: 4 ticks, checkpoint, drop the service on the
        # floor (simulating a kill), restore and run the remaining 5.
        service, generator = self._fresh_service(config)
        with service:
            head = _verdict_stream(drive_load(service, generator, 4).ticks)
            path = save_checkpoint(service, tmp_path / "ck.npz")
        restored = restore_service(path)
        with restored:
            self._assert_topology(restored)
            assert restored.current_tick == 4
            generator2 = LoadGenerator(PROFILE)
            generator2.fast_forward(4)
            tail = _verdict_stream(drive_load(restored, generator2, 5).ticks)
            resumed_stats = restored.stats.as_dict()
        assert head + tail == full
        # Aggregate event/verdict counts match; the reuse/recompute
        # split may differ on the first resumed tick (cold perf caches),
        # so compare the verdict-bearing counters only.
        for key in ("ticks", "updates_applied", "updates_dropped"):
            assert resumed_stats[key] == full_stats[key]

    def test_restore_into_fresh_process(self, tmp_path):
        # The real kill -9 scenario: the resuming interpreter shares no
        # state with the dead one.
        service, generator = self._fresh_service()
        with service:
            head = _verdict_stream(drive_load(service, generator, 3).ticks)
            path = save_checkpoint(service, tmp_path / "ck.npz")
        service2, generator2 = self._fresh_service()
        with service2:
            full = _verdict_stream(drive_load(service2, generator2, 6).ticks)
        script = r"""
import json, sys
from repro.online import LoadGenerator, LoadProfile, drive_load, restore_service

path, out = sys.argv[1], sys.argv[2]
profile = LoadProfile(devices=80, services=2, churn=0.1, flag_rate=0.3, seed=5)
service = restore_service(path)
generator = LoadGenerator(profile)
generator.fast_forward(service.current_tick)
with service:
    ticks = drive_load(service, generator, 3).ticks
    stream = [
        {
            "tick": t.tick,
            "flagged": sorted(t.flagged),
            "verdicts": {
                str(j): [
                    v.anomaly_type.name,
                    v.rule.name,
                    sorted(v.witness) if v.witness is not None else None,
                ]
                for j, v in sorted(t.verdicts.items())
            },
        }
        for t in ticks
    ]
with open(out, "w") as fh:
    json.dump(stream, fh)
"""
        out = tmp_path / "tail.json"
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        subprocess.run(
            [sys.executable, "-c", script, str(path), str(out)],
            check=True,
            cwd=str(repo_root),
            env=env,
        )
        tail = json.loads(out.read_text())
        assert head + tail == full

    def test_pending_queue_travels(self, tmp_path):
        # Updates ingested but not yet drained must survive the restore
        # and drain into the same tick they would have.
        service, generator = self._fresh_service()
        with service:
            drive_load(service, generator, 2)
            pending = generator.tick_updates()
            service.ingest_many(pending)
            path = save_checkpoint(service, tmp_path / "ck.npz")
            reference = _verdict_stream([service.end_tick()])
        restored = restore_service(path)
        with restored:
            assert len(restored._queue) == len(pending)
            assert _verdict_stream([restored.end_tick()]) == reference

    def test_raw_measurement_stream_resumes_with_bank(self, tmp_path):
        # The in-service detector bank's window state travels, so the
        # resumed run flags exactly what the uninterrupted one would.
        def build():
            return self._fresh_service(
                detector=DetectorSpec("ewma", {}), detection="bank"
            )

        service, generator = build()
        with service:
            full = _verdict_stream(
                drive_load_measurements(service, generator, 8).ticks
            )
        service, generator = build()
        with service:
            head = _verdict_stream(
                drive_load_measurements(service, generator, 4).ticks
            )
            path = save_checkpoint(service, tmp_path / "ck.npz")
        restored = restore_service(path)
        with restored:
            assert restored.bank is not None
            generator2 = LoadGenerator(PROFILE)
            generator2.fast_forward(4)
            tail = _verdict_stream(
                drive_load_measurements(restored, generator2, 4).ticks
            )
        assert head + tail == full

    def test_restore_with_config_override_changes_backend(self, tmp_path):
        # Verdicts are backend-invariant, so a checkpoint written by a
        # serial service may resume on the pool (and vice versa).
        service, generator = self._fresh_service()
        with service:
            drive_load(service, generator, 3)
            path = save_checkpoint(service, tmp_path / "ck.npz")
            service2, generator2 = self._fresh_service()
            with service2:
                full = _verdict_stream(
                    drive_load(service2, generator2, 6).ticks
                )
        pool_config = ServiceConfig(
            r=0.05, tau=2, backend="process", workers=2, dispatch_deadline=5.0
        )
        restored = restore_service(path, config=pool_config)
        with restored:
            generator3 = LoadGenerator(PROFILE)
            generator3.fast_forward(3)
            tail = _verdict_stream(drive_load(restored, generator3, 3).ticks)
        assert tail == full[3:]

    def test_shared_engine_restores_only_a_single_service(self, tmp_path):
        service, _ = self._fresh_service()
        with service:
            path = save_checkpoint(service, tmp_path / "ck.npz")
        with CharacterizationEngine(EngineConfig()) as engine:
            if self.topology:
                with pytest.raises(ConfigurationError, match="engine="):
                    restore_service(path, engine=engine)
            else:
                with restore_service(path, engine=engine) as restored:
                    assert restored.engine is engine

    def test_rejected_tally_travels(self, tmp_path):
        service, _ = self._fresh_service()
        with service:
            service._reject("nan", 3)
            path = save_checkpoint(service, tmp_path / "ck.npz")
        restored = restore_service(path)
        with restored:
            assert restored.rejected == {"nan": 3}


def _members(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _rewrite(path, arrays):
    np.savez_compressed(path, **arrays)


def _rewrite_meta(path, edit):
    arrays = _members(path)
    meta = json.loads(arrays["meta_json"].tobytes().decode())
    edit(meta)
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    _rewrite(path, arrays)


#: Members every part carries, after its ``part{i}_`` prefix.
PART_MEMBERS = (
    "verdicts_blob",
    "store_prev",
    "store_cur",
    "store_flags",
    "store_alive",
    "store_verdict",
    "store_id_of",
    "store_free",
    "store_cell",
    "store_n_shards",
    "store_tick_serial",
    "tracker_pending",
    "tracker_carry",
    "tracker_carry_next",
)


class TestFormat(_Topology):
    def _small_checkpoint(self, tmp_path, devices=40, ticks=2):
        generator = LoadGenerator(
            LoadProfile(
                devices=devices, services=2, churn=0.1, flag_rate=0.3, seed=3
            )
        )
        service = _build(self.topology, generator.initial_positions())
        with service:
            drive_load(service, generator, ticks)
            return save_checkpoint(service, tmp_path / "ck.npz")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_version_mismatch_raises(self, tmp_path):
        service, _ = self._fresh_service()
        with service:
            path = save_checkpoint(service, tmp_path / "ck.npz")
        _rewrite_meta(path, lambda meta: meta.update(version=999))
        with pytest.raises(CheckpointError, match="format version 999"):
            load_checkpoint(path)

    def test_previous_format_version_raises(self, tmp_path):
        """Version-1 files (one npz per single service, a manifest plus
        part files per sharded cut) are refused, not half-read."""
        path = self._small_checkpoint(tmp_path)
        _rewrite_meta(path, lambda meta: meta.update(version=1))
        with pytest.raises(CheckpointError, match="format version 1;"):
            restore_service(path)

    @pytest.mark.parametrize("marker", [None, "legacy"])
    def test_foreign_shard_placement_raises(self, tmp_path, marker):
        """Store state without the stable-hash marker (pre-marker
        checkpoints) or placed by the retired tuple hash is refused."""
        service, _ = self._fresh_service()
        with service:
            path = save_checkpoint(service, tmp_path / "ck.npz")
        arrays = _members(path)
        key = f"part{max(1, self.topology) - 1}_store_shard_hash"
        assert str(arrays[key]) == "splitmix64"
        if marker is None:
            del arrays[key]
        else:
            arrays[key] = np.str_(marker)
        _rewrite(path, arrays)
        with pytest.raises(CheckpointError, match="cell hash"):
            load_checkpoint(path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        service, _ = self._fresh_service()
        with service:
            save_checkpoint(service, tmp_path / "ck.npz")
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["ck.npz"]

    def test_checkpoint_method_writes_one_file(self, tmp_path):
        # Whatever the path looks like, both topologies publish exactly
        # one regular file there.
        service, _ = self._fresh_service()
        with service:
            written = service.checkpoint(tmp_path / "ck-000001")
        assert written == tmp_path / "ck-000001"
        assert [p.name for p in tmp_path.iterdir()] == ["ck-000001"]
        assert written.is_file()
        restored = type(service).restore(written)
        with restored:
            self._assert_topology(restored)

    @pytest.mark.parametrize(
        "member",
        ["meta_json", "queue_blob", "aux_blob"]
        + [f"part0_{name}" for name in PART_MEMBERS],
    )
    def test_missing_member_raises(self, tmp_path, member):
        path = self._small_checkpoint(tmp_path)
        arrays = _members(path)
        del arrays[member]
        _rewrite(path, arrays)
        with pytest.raises(CheckpointError, match=member):
            restore_service(path)

    @pytest.mark.parametrize(
        "field",
        ["tick", "topology_shards", "applied_since_tick", "stats",
         "rejected", "config"],
    )
    def test_missing_meta_field_raises(self, tmp_path, field):
        path = self._small_checkpoint(tmp_path)
        _rewrite_meta(path, lambda meta: meta.pop(field))
        with pytest.raises(CheckpointError, match=field):
            restore_service(path)

    def test_fuzzed_bytes_raise_or_load_identically(self, tmp_path):
        """Seeded single-byte flips and truncations of one small file:
        each either raises CheckpointError or loads a checkpoint equal
        to the original — never a different one, never another error."""
        path = self._small_checkpoint(tmp_path)
        blob = path.read_bytes()
        want = load_checkpoint(path)
        rng = np.random.default_rng(2024 + self.topology)
        flips = rng.choice(len(blob), size=min(len(blob), 240), replace=False)
        cuts = rng.choice(len(blob), size=40, replace=False)
        cases = [
            blob[:i] + bytes([blob[i] ^ int(rng.integers(1, 256))]) + blob[i + 1 :]
            for i in flips
        ] + [blob[:i] for i in cuts]
        fuzzed = tmp_path / "fuzzed.npz"
        loaded = 0
        for case in cases:
            fuzzed.write_bytes(case)
            try:
                got = load_checkpoint(fuzzed)
            except CheckpointError:
                continue
            loaded += 1
            assert got.tick == want.tick
            assert got.topology_shards == want.topology_shards
            assert got.config == want.config
            assert len(got.parts) == len(want.parts)
            for (gs, gt, gv), (ws, wt, wv) in zip(got.parts, want.parts):
                assert gs.keys() == ws.keys() and gt.keys() == wt.keys()
                for key in ws:
                    assert np.array_equal(gs[key], ws[key]), key
                for key in wt:
                    assert np.array_equal(gt[key], wt[key]), key
                assert set(gv) == set(wv)
        # Some flips land in bytes no reader checks (zip timestamps and
        # the like); the test must have exercised both outcomes.
        assert 0 < loaded < len(cases)


class TestWriterAndRetention(_Topology):
    def test_writer_cadence_and_pruning(self, tmp_path):
        service, generator = self._fresh_service()
        with service:
            writer = CheckpointWriter(
                service, tmp_path, every=2, keep=2
            )
            service.add_sink(writer)
            drive_load(service, generator, 9)
        # Ticks 2,4,6,8 were written; retention kept the newest 2.
        assert len(writer.written) == 4
        kept = [p.name for p in list_checkpoints(tmp_path)]
        assert kept == ["checkpoint-00000006.npz", "checkpoint-00000008.npz"]
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 8)
        # One file per checkpoint, nothing else left in the directory.
        assert sorted(p.name for p in tmp_path.iterdir()) == kept

    def test_writer_validates_knobs(self, tmp_path):
        service, _ = self._fresh_service()
        with service:
            with pytest.raises(ConfigurationError):
                CheckpointWriter(service, tmp_path, every=0)
            with pytest.raises(ConfigurationError):
                CheckpointWriter(service, tmp_path, keep=0)
        with pytest.raises(ConfigurationError):
            prune_checkpoints(tmp_path, keep=0)

    def test_latest_checkpoint_on_missing_dir(self, tmp_path):
        assert latest_checkpoint(tmp_path / "never-made") is None
        assert list_checkpoints(tmp_path / "never-made") == []


class TestRoundtripSharded(TestRoundtrip):
    topology = 2


class TestFormatSharded(TestFormat):
    topology = 2


class TestWriterAndRetentionSharded(TestWriterAndRetention):
    topology = 2
