"""Host-side measurements: memory, shared-memory segments, provenance,
and the cold-start probes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

SHM_DIR = Path("/dev/shm")
PROBE_TIMEOUT_S = 150


def pss_mb(pids: Iterable[int]) -> float:
    """Proportional set size summed over ``pids``, in MB.

    PSS charges each shared page to its sharers in proportion, so the
    shm partitions that the parent and the shard children both map
    count once in the sum.
    """
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def shard_pids(service) -> List[int]:
    """Process ids of a sharded service's live shard children."""
    pids = []
    for handle in getattr(service, "handles", ()):
        worker = getattr(handle, "worker", None)
        if worker is not None and worker.process.is_alive():
            pids.append(worker.process.pid)
    return pids


def shm_segments() -> Set[str]:
    """Names currently present under ``/dev/shm``."""
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision(root: Path) -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(root: Path) -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
    }


def run_probe(root: Path, workload: str, seed: int) -> Dict[str, float]:
    """One cold-start probe in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])
