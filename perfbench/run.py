"""End-to-end tick benchmark of the online characterization service.

Run from the repository root:

    python3 perfbench/run.py --workload massive-frames-20k --seed 1 --seconds 36 --trace 0

One caller drives the service's public front door in a closed loop and
checks its outputs (see ``driver.py``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` installs the layer wrappers
(``layers.py``) for every other tick and prints the per-layer metrics.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table and the run's provenance.  Workloads, metric definitions and known limits are in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
#: Cold-start probes per run; setup_s is their median.
SETUP_PROBES = 5
#: Store builds timed per traced run; store.build_s is their median.
STORE_BUILDS = 3

END_TO_END_UNITS = {
    "tick_p50_ms": "ms",
    "tick_p90_ms": "ms",
    "updates_per_s": "1/s",
    "setup_s": "s",
    "checkpoint_s": "s",
    "restore_s": "s",
    "mem_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def store_build_s(workload, positions) -> float:
    from repro.online import ServiceConfig
    from repro.online.store import DeviceStateStore

    config = ServiceConfig(r=workload.r)
    times = []
    for _ in range(STORE_BUILDS):
        start = time.perf_counter()
        DeviceStateStore(positions, cell=config.cell, shards=config.shards)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # This interpreter is fresh too: its own import and service build are
    # one of the set-up samples, next to SETUP_PROBES - 1 probe processes.
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - start

    import host
    import layers
    from driver import Driver, TickFailed
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    shm_before = host.shm_segments()
    workdir = OUT_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    driver = Driver(workload, args.seed, workdir)
    probes = [{"import_s": import_s, "build_s": driver.build_s}]
    probes += [host.run_probe(ROOT, workload.name, args.seed) for _ in range(SETUP_PROBES - 1)]
    recorder = None
    extra = {}
    crashed = False
    try:
        driver.warmup()
        if args.trace:
            recorder = layers.Recorder()
        driver.run(args.seconds, recorder)
        service = driver.service
        mem_mb = host.pss_mb([os.getpid()] + host.shard_pids(service))
        extra["store.bytes_per_device"] = float(
            service.bytes_per_device if driver.sharded else service.store.bytes_per_device
        )
        extra["sharded.respawns"] = float(
            sum(getattr(h, "respawns", 0) for h in getattr(service, "handles", ()))
        )
    except TickFailed:
        crashed = True
    finally:
        driver.close()
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = sorted(host.shm_segments() - shm_before)
    if leaked:
        print(f"perfbench: {len(leaked)} shared-memory segments left: {leaked[:5]}",
              file=sys.stderr)

    info = host.provenance(ROOT)
    info.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        ticks_measured=len(driver.latencies),
        ticks_attempted=driver.attempted,
        oracle_ticks=driver.oracle_ticks,
        checkpoints=len(driver.checkpoint_s),
        spans=len(recorder.spans) if recorder else 0,
        failed_frac=driver.failed / max(1, driver.attempted),
    )
    if crashed:
        print(json.dumps({"provenance": info}))
        print(json.dumps({"correct": False, "attempted": driver.attempted,
                          "failed": driver.failed, "metrics": {}}))
        return 1

    latencies = driver.latencies
    if args.trace:
        traced = [o["traced"] for o in driver.observations]
        traced_obs = [o for o, t in zip(driver.observations, traced) if t]
        extra["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        extra["setup.build_s"] = statistics.median(p["build_s"] for p in probes)
        extra["store.build_s"] = store_build_s(workload, driver.stream.positions)
        extra["ipc.shm_leaked"] = float(len(leaked))
        extra["recovery.bytes"] = float(statistics.median(driver.checkpoint_bytes))
        extra["trace.overhead_frac"] = (
            statistics.median(x for x, t in zip(latencies, traced) if t)
            / statistics.median(x for x, t in zip(latencies, traced) if not t)
            - 1.0
        )
        metrics = layers.derive(recorder, traced_obs, extra)
        units = layers.PER_LAYER
        times = recorder.tick_times(o["tick"] for o in traced_obs)
        info["layer_sum_residual_ms"] = layers.check_sums(times)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-{args.seed}.json"
        spans_path.write_text(json.dumps({"provenance": info, "spans": recorder.spans}))
    else:
        metrics = {
            "tick_p50_ms": statistics.median(latencies) * 1e3,
            "tick_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "updates_per_s": driver.applied / sum(latencies),
            "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
            "checkpoint_s": statistics.median(driver.checkpoint_s),
            "restore_s": statistics.median(driver.restore_s),
            "mem_mb": mem_mb,
        }
        units = END_TO_END_UNITS

    for name, value in metrics.items():
        print(f"{workload.name:<20} {name:<28} {value:>14.6g} {units[name]}")
    print(f"{workload.name:<20} {'failed_frac':<28} {info['failed_frac']:>14.6g} ratio")
    print(json.dumps({"provenance": info}))
    correct = driver.failed == 0 and driver.oracle_ticks > 0
    print(json.dumps({
        "correct": correct,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
