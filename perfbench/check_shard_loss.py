"""Shows that a shard lost before timing fails the benchmark's own checks.

Usage (from the root of a checkout)::

    python3 perfbench/check_shard_loss.py

Stands up the ``http_stepwise`` server twice and SIGKILLs one shard
process after set-up, before any traffic:

* ``gate``: the kill is followed by a pause longer than the edge's
  telemetry cache, so the health gate's ``/status`` pull finds the dead
  shard and the run is refused;
* ``traffic``: no pause, so the gate still sees cached telemetry and
  passes; the sessions are then born degraded, which the oracle checks
  count as failures.

Exits 0 when both runs are reported as failed, 1 otherwise.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, Oracle, ensure_repro_importable  # noqa: E402


def kill_shard(pause: float):
    def before_timing(client, server) -> None:
        pid = client.status()["shards"]["1"]["pid"]
        os.kill(pid, signal.SIGKILL)
        while os.path.exists(f"/proc/{pid}") and _state(pid) not in ("Z", "X"):
            time.sleep(0.01)
        time.sleep(pause)

    return before_timing


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "X"


def main() -> int:
    ensure_repro_importable()
    from http_workloads import RECORDS, SHAPE, serve_and_measure
    from repro.data.synthetic import uniform_dataset

    seed = 1
    oracle = Oracle(uniform_dataset(SHAPE, RECORDS, seed=seed).records, SHAPE)
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=base) as run_dir:
        for index, (name, pause) in enumerate((("gate", 1.2), ("traffic", 0.0))):
            out = serve_and_measure(
                "http_stepwise", seed, oracle, Path(run_dir), index,
                seconds=1.0, before_timing=kill_shard(pause),
            )
            driver = out["driver"]
            flagged = driver.failed > 0
            ok = ok and flagged
            print(f"{name}: attempted={driver.attempted} failed={driver.failed} "
                  f"refused={out['refused']!r} exit={out['exit_code']}")
            for why in driver.failures[:3]:
                print(f"  {why}")
    print("shard loss reported as failure" if ok else "shard loss NOT detected")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
