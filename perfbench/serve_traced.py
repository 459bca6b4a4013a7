"""``repro serve`` with the benchmark's layer timers installed.

Usage: ``python perfbench/serve_traced.py serve <repro serve args>``.

The router process wraps the router-side layer functions; shard workers
are spawned, and a spawned child re-runs this file as ``__mp_main__``
before it starts serving, so the same file wraps the worker-side layer
functions there.  Each process publishes its totals as ``perfbench_*``
gauges in its own metric registry right before the registry is
snapshotted, so they reach ``/metrics.json`` through the cluster's
telemetry federation (worker series carry a ``shard`` label).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Tracer, ensure_repro_importable  # noqa: E402
from layers import PlanSizes, install  # noqa: E402

ensure_repro_importable()

from repro.obs import REGISTRY  # noqa: E402

TRACER = Tracer()
PLANS = PlanSizes()


def publish() -> None:
    """Copy the tracer totals into this process's metric registry."""
    snap = TRACER.snapshot()
    self_s = REGISTRY.gauge("perfbench_self_seconds", "Layer self time", ("layer",))
    calls = REGISTRY.gauge("perfbench_calls", "Layer spans", ("layer",))
    incl = REGISTRY.gauge("perfbench_inclusive_seconds", "Function time", ("fn",))
    for layer, value in snap["self_s"].items():
        self_s.set(value, layer=layer)
    for layer, value in snap["calls"].items():
        calls.set(value, layer=layer)
    for fn, value in snap["inclusive_s"].items():
        incl.set(value, fn=fn)
    REGISTRY.gauge("perfbench_root_seconds", "Root span time").set(snap["root_s"])
    plan = REGISTRY.gauge("perfbench_plan", "Plan sizes", ("part",))
    plan.set(PLANS.queries, part="queries")
    plan.set(PLANS.master_keys, part="master_keys")
    plan.set(PLANS.unshared, part="unshared")


def _publishing(owner, attr: str) -> None:
    inner = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        publish()
        return inner(*args, **kwargs)

    setattr(owner, attr, wrapper)


if __name__ == "__mp_main__":
    from repro.cluster.worker import ShardWorker

    install(TRACER, "worker")
    _publishing(ShardWorker, "telemetry")

if __name__ == "__main__":
    from repro.cli import main
    from repro.cluster.router import ClusterRouter

    install(TRACER, "router", PLANS)
    _publishing(ClusterRouter, "federated_metrics_json")
    sys.exit(main(sys.argv[1:]))
