"""The ``bulk_paged`` workload: the library service over a paged store.

Four overlapping partition-SUM batches in the paper's section-5 shape go
to one :class:`ProgressiveQueryService` over ``storage.paged(...)`` with
the default 64-page buffer pool, and are advanced round-robin to exact.
The working set is larger than the buffer pool.

The seed generates the relation; the partitions come from a fixed stream
(:data:`BATCH_SEED`).  Partition geometry alone moves the keys a batch
needs to reach 1% error by +-36% (16 seeded batches, coefficient of
variation), which no regression bound could absorb, while with fixed
partitions the retrieval schedule is the same for every seed (the
importance order does not depend on the data) and only the values, and
so the error trajectory, change with it.
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path

import numpy as np

from common import Oracle, Tracer, diff_snapshots, oracle_seconds
from driver import Driver, LibraryClient, partition_episode

SHAPE = (16, 32, 8, 16, 16)  # lat, lon, alt, time, temperature: 2**20 cells
RECORDS = 200_000
CELLS = (4, 4, 2, 2)
MEASURE = 4  # SUM(temperature)
SESSIONS = 4
#: Keys per round: small enough for >= 1000 rounds per episode, so the
#: p99 round latency has ten samples beyond it.
K = 64
BATCH_SEED = 2002
PAGE_SIZE = 1024
BUFFER_PAGES = 64
SETUPS = 3


class Host:
    """One set-up library host: in-memory storage, paged clone, service."""

    def __init__(self, relation, path: Path) -> None:
        from repro.service.server import ProgressiveQueryService
        from repro.storage.wavelet_store import WaveletStorage

        t0 = time.perf_counter()
        self.storage = WaveletStorage.build(
            relation.frequency_distribution(), wavelet="db2"
        )
        self.paged = self.storage.paged(
            path, page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES
        )
        self.service = ProgressiveQueryService(self.paged)
        self.setup_s = time.perf_counter() - t0

    def fresh_service(self):
        """A new service over a cold buffer pool and cold rewrite memos."""
        from repro.service.server import ProgressiveQueryService
        from repro.wavelets.query_transform import clear_cache

        clear_cache()
        self.paged.store.clear_buffer()
        self.service = ProgressiveQueryService(self.paged)
        return self.service

    def close(self) -> None:
        self.paged.store.close()


def episode_for(oracle: Oracle):
    from repro.queries.workload import partition_sum_batch

    def batches(rng):
        return [partition_sum_batch(SHAPE, CELLS, MEASURE, rng=rng)
                for _ in range(SESSIONS)]

    def exact_of(batch):
        return np.array([oracle.sum(q.rect.bounds, MEASURE) for q in batch])

    return partition_episode(batches, exact_of, K)


def _counters(service) -> dict:
    m = service.metrics()
    return {
        "retrievals": m.retrievals,
        "deliveries": m.deliveries,
        "cache_deliveries": m.cache_deliveries,
        "stale_pops": service.scheduler.metrics.stale_pops,
        "page_hits": m.page_cache["hits"],
        "page_misses": m.page_cache["misses"],
    }


def measure_phase(host, oracle, seed, seconds, episodes, tracer=None,
                  plans=None) -> dict:
    """Warm up, then run the measured phase on a fresh service."""
    from repro.queries.workload import partition_sum_batch

    service = host.fresh_service()
    client = LibraryClient(service)
    warm = service.submit(partition_sum_batch(
        SHAPE, (2, 2, 1, 1), MEASURE, rng=np.random.default_rng([seed, 2**32 - 1])
    ))
    service.advance(warm, K)
    service.cancel(warm)
    driver = Driver(BATCH_SEED)
    driver.bench_tracer = tracer
    before = _counters(service)
    spans = tracer.snapshot() if tracer is not None else None
    if plans is not None:
        plans.reset()
    opened = driver.run_phase(client, episode_for(oracle), seconds, episodes)
    after = _counters(service)
    if tracer is not None:
        spans = diff_snapshots(tracer.snapshot(), spans)
    driver.cancel_all(client, opened)
    return {
        "driver": driver,
        "counters": {k: after[k] - before[k] for k in after},
        "spans": spans,
    }


def run(seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """One benchmark run; returns the facts ``run.py`` turns into metrics."""
    from repro.data.synthetic import temperature_dataset

    relation = temperature_dataset(SHAPE, RECORDS, seed=seed)
    oracle = Oracle(relation.records, SHAPE)
    setups = []
    host = None
    for i in range(1 if trace else SETUPS):
        if host is not None:
            host.close()
        host = Host(relation, run_dir / f"coefficients-{i}.pages")
        setups.append(host.setup_s)
    try:
        plain = measure_phase(host, oracle, seed, seconds, None)
        out = {
            "setup_s": statistics.median(setups),
            "setups_s": setups,
            "phase": plain,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if not trace:
            return out
        from layers import PlanSizes, install

        tracer, plans = Tracer(), PlanSizes()
        install(tracer, "library", plans)
        try:
            traced = measure_phase(
                host, oracle, seed, None, plain["driver"].episodes, tracer, plans
            )
        finally:
            tracer.close()
        out["traced"] = traced
        out["plans"] = plans
        out["oracle_s"] = oracle_seconds(host.storage, traced["driver"].batches)
        return out
    finally:
        host.close()
