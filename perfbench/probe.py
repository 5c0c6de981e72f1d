"""Cold-start probe: time ``import repro.cli`` plus service construction.

Run in a fresh interpreter by ``run.py`` (never imported by it):

    PYTHONPATH=src python3 perfbench/probe.py WORKLOAD SEED

Prints one JSON object ``{"import_s": ..., "build_s": ...}``.  The
import is timed first, from a cold interpreter; the workload's initial
positions are then generated untimed, and ``build_s`` covers the
construction (store, index, bank warm-up, shard children) up to a
service that is ready for its first tick.
"""

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the console entry point's import cost)

    imported = time.perf_counter()
    from workloads import WORKLOADS, build_service, make_stream

    workload = WORKLOADS[sys.argv[1]]
    positions = make_stream(workload, int(sys.argv[2])).positions.copy()
    begin = time.perf_counter()
    service = build_service(workload, positions)
    built = time.perf_counter()
    service.close()
    print(json.dumps({"import_s": imported - start, "build_s": built - begin}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
