"""End-to-end benchmark of the progressive query stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk_paged --seed 1 --seconds 40 --trace 0

Stands the stack up the way a user does, drives seeded closed-loop
traffic through it for ``--seconds`` (at least one whole episode), checks
every answer against an oracle built from the generated relation, and
prints one JSON object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures
for half of ``--seconds``, reruns the same episodes with the layer
functions wrapped and reports per-layer metrics.  The line before it is a JSON detail record: seed, machine and
versions, sample counts and tail percentiles, failures, and each
workload's predictions.  The exit status is 0 only for a correct run.
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

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT, HostSpeed, diff_snapshots, environment, ensure_repro_importable,
    oracle_seconds, summarize,
)

#: Why each workload exists, and what the per-layer metrics should do on
#: it when one layer gets faster.
WORKLOADS = {
    "bulk_paged": {
        "stack": "ProgressiveQueryService over storage.paged(...), 64-page pool, in-process",
        "input": "temperature relation 16x32x8x16x16 (2**20 coefficients, 200k records); "
                 "4 overlapping partition-SUM batches of 4x4x2x2 cells per episode, k=64",
        "why": "rewrite, plan, scheduler gather/apply and paged fetch do nearly all the work; "
               "the working set is larger than the buffer pool; no cluster or HTTP",
        "moves": ["wavelets.rewrite_s", "wavelets.nnz_per_query", "core.plan_s",
                  "core.apply_s", "service.schedule_self_s", "storage.fetch_s",
                  "storage.page_hit_ratio", "storage.page_misses", "core.oracle_s",
                  "service.overhead_x"],
        "still": ["router.*", "worker.*", "edge.*", "client.wire_s", "pipe.transport_s"],
    },
    "http_stepwise": {
        "stack": "repro serve --shards 2 (process shards, hash partitioner), one ClusterClient",
        "input": "uniform 256x256 relation, 200k records; 4 sessions of 8x8 COUNT "
                 "partitions per episode, round-robin with k=16 and a snapshot every round",
        "why": "per-request cost in edge, codec, router and pipe RPCs dominates; the engine "
               "does little per request; the domain fits each shard's buffer pool",
        "moves": ["edge.self_s", "edge.request_s.advance", "edge.bytes_per_response",
                  "client.wire_s", "router.advance_s", "router.self_s",
                  "router.pipe_wait_s", "router.rpcs_per_key", "pipe.transport_s",
                  "core.apply_s", "worker.busy_s.0", "worker.busy_s.1"],
        "still": ["storage.page_misses", "wavelets.nnz_per_query", "core.sharing_ratio"],
    },
    "http_cursor": {
        "stack": "repro serve --shards 2 (process shards, range partitioner), one ClusterClient",
        "input": "4 overlapping 4x4 COUNT drill-downs nested in one 128x128 region per "
                 "episode, k=64, cursored_sse cursor moved every 3 rounds, then a late "
                 "session on the same region served from the coefficient cache",
        "why": "same router and scheduler used differently: shard heaps re-ranked next to "
               "reads, plus cache delivery; few HTTP requests per key",
        "moves": ["router.reprioritize_s", "service.stale_pops", "service.cache_deliveries",
                  "service.schedule_self_s", "router.pipe_wait_s", "router.rpcs_per_key",
                  "worker.busy_s.0", "worker.busy_s.1"],
        "still": ["edge.self_s (small share)", "storage.page_misses"],
    },
}

#: Exclusive self-time metrics: with ``unattributed_s`` they sum to the
#: traced wall (``trace.wall_s``).
SELF_METRICS = (
    "client.wire_s", "edge.self_s", "router.self_s", "pipe.transport_s",
    "worker.self_s", "service.facade_s", "service.schedule_self_s",
    "core.session_s", "core.plan_s", "core.apply_s", "wavelets.rewrite_s",
    "storage.fetch_s", "bench.check_s",
)

#: Tracer layer name -> self-time metric, for layers timed in-process.
_LAYER_METRIC = {
    "service.facade": "service.facade_s",
    "service.schedule": "service.schedule_self_s",
    "core.session": "core.session_s",
    "core.plan": "core.plan_s",
    "core.apply": "core.apply_s",
    "wavelets.rewrite": "wavelets.rewrite_s",
    "storage.fetch": "storage.fetch_s",
    "bench.check": "bench.check_s",
    "router": "router.self_s",
    "worker": "worker.self_s",
}


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------


def end_to_end(driver, setups, retrievals, peak_rss) -> tuple[dict, dict]:
    """The user-facing metrics of one measured phase, plus their detail.

    Times are reported at the host's uncontended speed: each submit,
    round and session interval is divided by the host slowdown measured
    around it (:class:`HostSpeed`), and ``keys_per_s`` is multiplied by
    the phase's overall slowdown.  The unscaled readings stay in the
    detail record.
    """
    host = HostSpeed(driver.probe_at, driver.probe_s)
    sessions = driver.sessions
    first = [(s.submit_t, s.first_answer_s) for s in sessions
             if s.first_answer_s is not None]
    to_target = [(s.submit_t, s.to_target_s) for s in sessions
                 if s.to_target_s is not None]
    samples = {
        "submit_ms": (driver.submit_at, driver.submit_s),
        "first_answer_ms": tuple(zip(*first)) or ((), ()),
        "advance_ms": (driver.round_at, driver.round_s),
        "to_1pct_ms": tuple(zip(*to_target)) or ((), ()),
    }
    scaled = {name: [x * 1e3 for x in host.scale(*pair)]
              for name, pair in samples.items()}
    unscaled = {name: summarize([x * 1e3 for x in pair[1]])
                for name, pair in samples.items()}
    summary = {name: summarize(values) for name, values in scaled.items()}
    keys = [s.keys_to_target for s in sessions if s.keys_to_target is not None]
    rate = retrievals / driver.wall_s if driver.wall_s else 0.0

    def p50(name):
        return summary[name].get("p50", 0.0)

    values = {
        "setup_s": (statistics.median(setups), "s"),
        "keys_per_s": (rate * host.overall, "1/s"),
        "submit_ms.p50": (p50("submit_ms"), "ms"),
        "first_answer_ms.p50": (p50("first_answer_ms"), "ms"),
        "advance_ms.p50": (p50("advance_ms"), "ms"),
        "advance_ms.p99": (
            float(np.percentile(scaled["advance_ms"], 99))
            if scaled["advance_ms"] else 0.0,
            "ms",
        ),
        "to_1pct_ms.p50": (p50("to_1pct_ms"), "ms"),
        "keys_to_1pct": (float(np.median(keys)) if keys else 0.0, "count"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    detail = {
        "setup_s": setups,
        **summary,
        "keys_to_1pct": {"n": len(keys), "values": keys},
        "sessions": len(sessions),
        "episodes": driver.episodes,
        "phase_wall_s": driver.wall_s,
        "retrievals": retrievals,
        "host": {
            "slowdown": host.overall,
            "probes": len(driver.probe_s),
            "fastest_probe_us": host.fastest * 1e6,
        },
        "unscaled": {"keys_per_s": rate, **unscaled},
    }
    return values, detail


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _zero_layers() -> dict:
    names = list(SELF_METRICS) + [
        "unattributed_s", "trace.wall_s", "wavelets.nnz_per_query",
        "core.sharing_ratio", "core.oracle_s", "service.overhead_x",
        "storage.fetch_calls", "storage.keys_per_fetch", "storage.page_hit_ratio",
        "storage.page_misses", "service.stale_pops", "service.shared_deliveries",
        "service.cache_deliveries", "router.advance_s", "router.reprioritize_s",
        "router.pipe_wait_s", "router.rpcs_per_key", "worker.busy_s.0",
        "worker.busy_s.1", "worker.balance", "edge.request_s.submit",
        "edge.request_s.advance", "edge.request_s.penalty", "edge.request_s.cancel",
        "edge.bytes_per_response", "obs.convergence_records", "obs.tracing_overhead_x",
    ]
    return dict.fromkeys(names, 0.0)


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_x"):
        return "x"
    if name in ("storage.page_hit_ratio", "worker.balance", "core.sharing_ratio"):
        return "ratio"
    if name == "edge.bytes_per_response":
        return "bytes"
    return "count"


def _selfs_from(snapshot: dict, out: dict) -> None:
    for layer, value in snapshot["self_s"].items():
        metric = _LAYER_METRIC.get(layer)
        if metric is not None:
            out[metric] += value


def _common_layers(out, wall, plain_wall, retrievals, fetch_calls, counters,
                   plans, oracle_s, convergence_records) -> None:
    out["trace.wall_s"] = wall
    out["unattributed_s"] = wall - sum(out[m] for m in SELF_METRICS)
    out["wavelets.nnz_per_query"] = plans["unshared"] / max(1, plans["queries"])
    out["core.sharing_ratio"] = plans["unshared"] / max(1, plans["master_keys"])
    out["core.oracle_s"] = oracle_s
    out["service.overhead_x"] = plain_wall / oracle_s if oracle_s else 0.0
    out["storage.fetch_calls"] = fetch_calls
    out["storage.keys_per_fetch"] = retrievals / fetch_calls if fetch_calls else 0.0
    requests = counters["page_hits"] + counters["page_misses"]
    out["storage.page_hit_ratio"] = counters["page_hits"] / requests if requests else 0.0
    out["storage.page_misses"] = counters["page_misses"]
    out["service.stale_pops"] = counters["stale_pops"]
    out["service.shared_deliveries"] = counters["deliveries"] - retrievals
    out["service.cache_deliveries"] = counters["cache_deliveries"]
    out["obs.convergence_records"] = convergence_records
    out["obs.tracing_overhead_x"] = wall / plain_wall if plain_wall else 0.0


def bulk_layers(result: dict) -> dict:
    out = _zero_layers()
    traced = result["traced"]
    snap = traced["spans"]
    _selfs_from(snap, out)
    plans = result["plans"]
    counters = traced["counters"]
    _common_layers(
        out, traced["driver"].wall_s, result["phase"]["driver"].wall_s,
        counters["retrievals"], snap["calls"].get("storage.fetch", 0), counters,
        {"queries": plans.queries, "master_keys": plans.master_keys,
         "unshared": plans.unshared},
        result["oracle_s"], traced["driver"].final_steps,
    )
    return out


def http_layers(plain: dict, traced: dict, oracle_s: float) -> dict:
    from http_workloads import SESSION_ROUTES, family_sum, tracer_totals

    out = _zero_layers()
    before, after = traced["before"], traced["after"]
    driver = traced["driver"]

    def delta(name, field="value", shard=None, **labels):
        return (family_sum(after, name, field, shard, **labels)
                - family_sum(before, name, field, shard, **labels))

    router = diff_snapshots(tracer_totals(after, None), tracer_totals(before, None))
    shards = {
        index: diff_snapshots(tracer_totals(after, index), tracer_totals(before, index))
        for index in ("0", "1")
    }
    client = driver.bench_tracer.snapshot()
    edge_total = 0.0
    for short, route in SESSION_ROUTES.items():
        seconds = delta("repro_edge_request_seconds", "sum", False, route=route)
        out[f"edge.request_s.{short}"] = seconds
        edge_total += seconds
    for snap in (router, *shards.values()):
        _selfs_from(snap, out)
    out["bench.check_s"] = client["self_s"].get("bench.check", 0.0)
    client_calls = client["root_s"] - out["bench.check_s"]
    out["client.wire_s"] = client_calls - edge_total
    out["edge.self_s"] = edge_total - router["root_s"]
    worker_total = sum(s["root_s"] for s in shards.values())
    out["pipe.transport_s"] = router["self_s"].get("router.pipe", 0.0) - worker_total
    out["router.advance_s"] = router["inclusive_s"].get("ClusterRouter.advance", 0.0)
    out["router.reprioritize_s"] = router["inclusive_s"].get(
        "ClusterRouter.set_penalty", 0.0
    )
    out["router.pipe_wait_s"] = delta("repro_cluster_pipe_roundtrip_seconds", "sum")
    per_shard = {
        index: delta("repro_scheduler_retrievals_total", shard=index)
        for index in shards
    }
    retrievals = sum(per_shard.values())
    pipe_calls = delta("repro_cluster_pipe_roundtrip_seconds", "count")
    out["router.rpcs_per_key"] = pipe_calls / retrievals if retrievals else 0.0
    for index, snap in shards.items():
        out[f"worker.busy_s.{index}"] = snap["root_s"]
    mean = retrievals / len(per_shard)
    out["worker.balance"] = max(per_shard.values()) / mean if mean else 0.0
    sent = sum(delta("repro_edge_response_bytes", "sum", False, route=r)
               for r in SESSION_ROUTES.values())
    responses = sum(delta("repro_edge_response_bytes", "count", False, route=r)
                    for r in SESSION_ROUTES.values())
    out["edge.bytes_per_response"] = sent / responses if responses else 0.0
    counters = {
        "page_hits": delta("repro_paged_page_hits_total", shard=True),
        "page_misses": delta("repro_paged_page_misses_total", shard=True),
        "stale_pops": delta("repro_scheduler_stale_pops_total", shard=True),
        "deliveries": delta("repro_scheduler_deliveries_total", shard=True),
        "cache_deliveries": delta("repro_scheduler_cache_deliveries_total", shard=True),
    }
    plans = {part: delta("perfbench_plan", shard=False, part=part)
             for part in ("queries", "master_keys", "unshared")}
    fetch_calls = sum(s["calls"].get("storage.fetch", 0) for s in shards.values())
    _common_layers(
        out, driver.wall_s, plain["driver"].wall_s, retrievals, fetch_calls,
        counters, plans, oracle_s, driver.final_steps,
    )
    return out


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------


def run_bulk(seed, seconds, trace, run_dir) -> dict:
    import bulk_paged

    result = bulk_paged.run(seed, seconds, trace, run_dir)
    driver = result["phase"]["driver"]
    drivers = [driver]
    metrics, detail = end_to_end(
        driver, result["setups_s"], result["phase"]["counters"]["retrievals"],
        result["peak_rss_mb"],
    )
    detail["counters"] = result["phase"]["counters"]
    layers = None
    if trace:
        drivers.append(result["traced"]["driver"])
        layers = bulk_layers(result)
    return {"drivers": drivers, "metrics": metrics, "layers": layers,
            "detail": detail}


def run_http(workload, seed, seconds, trace, run_dir) -> dict:
    from driver import Driver
    from http_workloads import (
        BATCH_SEED, RECORDS, SHAPE, family_sum, serve_and_measure,
    )

    from common import Oracle
    from repro.data.synthetic import uniform_dataset

    relation = uniform_dataset(SHAPE, RECORDS, seed=seed)
    oracle = Oracle(relation.records, SHAPE)
    setup_driver = Driver(BATCH_SEED)
    setups = []
    if not trace:
        for index in range(2):
            sample = serve_and_measure(workload, seed, oracle, run_dir, index,
                                       driver=setup_driver)
            setups.append(sample["setup_s"])
    plain = serve_and_measure(workload, seed, oracle, run_dir, 2, seconds=seconds)
    driver = plain["driver"]
    setups.append(plain["setup_s"])
    drivers = [setup_driver, driver]
    retrievals = 0.0
    if "after" in plain:
        retrievals = (family_sum(plain["after"], "repro_scheduler_retrievals_total",
                                 shard=True)
                      - family_sum(plain["before"], "repro_scheduler_retrievals_total",
                                   shard=True))
    metrics, detail = end_to_end(driver, setups, retrievals,
                                 plain.get("peak_rss_mb", 0.0))
    detail["refused"] = plain["refused"]
    detail["exit_codes"] = [plain.get("exit_code")]
    if "costs" in plain:
        detail["costs_json_sessions"] = len(plain["costs"])
    layers = None
    if trace and plain["refused"] is None:
        traced = serve_and_measure(workload, seed, oracle, run_dir, 3,
                                   episodes=driver.episodes, traced=True)
        drivers.append(traced["driver"])
        detail["exit_codes"].append(traced.get("exit_code"))
        if traced["refused"] is None:
            from repro.storage.wavelet_store import WaveletStorage

            storage = WaveletStorage.build(
                relation.frequency_distribution(), wavelet="db2"
            )
            oracle_s = oracle_seconds(storage, traced["driver"].batches)
            layers = http_layers(plain, traced, oracle_s)
    return {"drivers": drivers, "metrics": metrics, "layers": layers,
            "detail": detail}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ensure_repro_importable()

    run_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    # A traced run repeats its untraced phase with the layers wrapped (and
    # slower); halving the phase keeps both within the run's time limit.
    seconds = args.seconds / 2 if args.trace else args.seconds
    if args.workload == "bulk_paged":
        result = run_bulk(args.seed, seconds, bool(args.trace), run_dir)
    else:
        result = run_http(args.workload, args.seed, seconds, bool(args.trace),
                          run_dir)
    attempted = sum(d.attempted for d in result["drivers"])
    failed = sum(d.failed for d in result["drivers"])
    failures = [f for d in result["drivers"] for f in d.failures]
    failed_frac = failed / max(1, attempted)
    # Peak memory is the last metric; keep the table's order.
    rss = result["metrics"].pop("peak_rss_mb")
    result["metrics"]["ok_frac"] = (1.0 - failed_frac, "ratio")
    result["metrics"]["peak_rss_mb"] = rss
    result["detail"]["failed_frac"] = failed_frac
    traced_ok = not args.trace or result["layers"] is not None
    correct = failed == 0 and attempted > 0 and traced_ok
    if args.trace:
        chosen = result["layers"] or _zero_layers()
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in chosen.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    detail = {
        "workload": args.workload,
        **WORKLOADS[args.workload],
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "run_s": time.perf_counter() - started,
        "end_to_end": result["detail"],
        "failures": failures[:20],
    }
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
