"""The two HTTP workloads: ``repro serve --shards 2`` driven by one client.

Each run launches the server the way an operator does (``python -m repro
serve``), refuses to time it unless ``/healthz`` is healthy and both shard
processes answer, drives closed-loop traffic from one
:class:`ClusterClient` connection, reads ``/metrics.json`` and
``/costs.json`` just before shutdown, and stops the server with SIGTERM
(graceful drain), recording its exit status.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import ROOT, SRC, Oracle, Tracer, descendants, peak_rss_mb
from driver import Driver, partition_episode

SHAPE = (256, 256)
RECORDS = 200_000
SHARDS = 2
#: Seeds every episode's batches; the run's seed generates the relation.
BATCH_SEED = 2002
#: ``http_stepwise``: sessions per episode, cells per batch, keys per round.
STEP_SESSIONS = 4
STEP_CELLS = (8, 8)
STEP_K = 16
#: ``http_cursor``: drill-down region side, cells, keys per round, and
#: the cursor: window width, weight, and rounds between moves.
CURSOR_REGION = 128
CURSOR_CELLS = (4, 4)
CURSOR_SESSIONS = 4
CURSOR_K = 64
CURSOR_WINDOW = 4
CURSOR_HIGH_WEIGHT = 10.0
CURSOR_EVERY = 3

#: Edge route templates of the session API, by short name.
SESSION_ROUTES = {
    "submit": "POST /sessions",
    "advance": "POST /sessions/{id}/advance",
    "penalty": "POST /sessions/{id}/penalty",
    "cancel": "DELETE /sessions/{id}",
}

_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


class ServerError(RuntimeError):
    pass


class Server:
    """One ``repro serve`` process and the log files it writes."""

    def __init__(self, seed: int, run_dir: Path, index: int, traced: bool,
                 partitioner: str = "hash") -> None:
        self.seed = seed
        self.partitioner = partitioner
        self.run_dir = run_dir
        self.index = index
        self.traced = traced
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, timeout: float = 120.0) -> None:
        entry = (
            [str(ROOT / "perfbench" / "serve_traced.py")]
            if self.traced
            else ["-m", "repro"]
        )
        args = [
            sys.executable, *entry, "serve",
            "--dataset", "uniform",
            "--shape", ",".join(map(str, SHAPE)),
            "--records", str(RECORDS),
            "--seed", str(self.seed),
            "--shards", str(SHARDS),
            "--partitioner", self.partitioner,
            # No background federation pulls: every pipe round-trip in
            # the measured phase then belongs to a request the client made.
            "--telemetry-interval", "0",
            "--paged-file", str(self.run_dir / f"coefficients-{self.index}.pages"),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        env["TMPDIR"] = str(self.run_dir)
        out_path = self.run_dir / f"serve-{self.index}.out"
        err_path = self.run_dir / f"serve-{self.index}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            self.proc = subprocess.Popen(
                args, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                cwd=ROOT, env=env,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(out_path.read_text())
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode} before binding: "
                    + err_path.read_text()[-2000:]
                )
            time.sleep(0.005)
        raise ServerError("server did not bind in time")

    def pids(self) -> list[int]:
        return [self.proc.pid, *descendants(self.proc.pid)]

    def stop(self, timeout: float = 60.0) -> int | None:
        """SIGTERM (graceful drain), then wait; returns the exit status."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        return self.proc.returncode


def health_gate(client) -> str | None:
    """Why the cluster must not be timed, or None when it is healthy.

    ``/status`` pulls telemetry from every shard, so a shard that died or
    never came up is shed right there and ``/healthz`` turns unhealthy.
    """
    status = client.status()
    health = client.healthz()
    shards = health.get("shards", [])
    if len(shards) != SHARDS:
        return f"{len(shards)} shards, expected {SHARDS}"
    if not health.get("ok"):
        return f"/healthz not ok: {health}"
    answering = [s for s in status.get("shards", {}).values() if s.get("pid")]
    if len(answering) != SHARDS:
        return f"{len(answering)} of {SHARDS} shards answered /status"
    return None


def warm_up(client, seed: int) -> None:
    """One throwaway session, so first-contact costs land before timing."""
    from repro.queries.workload import partition_count_batch

    rng = np.random.default_rng([seed, 2**32 - 1])
    session_id = client.submit(partition_count_batch(SHAPE, (2, 2), rng=rng))
    client.advance(session_id, 4)
    client.cancel(session_id)


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------


def _count_exact(oracle: Oracle):
    return lambda batch: np.array([oracle.count(q.rect.bounds) for q in batch])


def stepwise_episode(oracle: Oracle):
    """Four 8x8 COUNT partitions of the whole domain, small ``k``."""
    from repro.queries.workload import partition_count_batch

    def batches(rng):
        return [partition_count_batch(SHAPE, STEP_CELLS, rng=rng)
                for _ in range(STEP_SESSIONS)]

    return partition_episode(batches, _count_exact(oracle), STEP_K)


def cursor_episode(oracle: Oracle):
    """Drill-downs nested in one region, moving cursors, a late session."""
    from repro.queries.range import HyperRect
    from repro.queries.workload import drill_down_batch

    cells = int(np.prod(CURSOR_CELLS))
    exact_of = _count_exact(oracle)

    def penalty_at(cursor: int):
        window = [(cursor + i) % cells for i in range(CURSOR_WINDOW)]
        weights = np.ones(cells)
        weights[window] = CURSOR_HIGH_WEIGHT
        spec = {"kind": "cursored_sse", "high_priority": window,
                "high_weight": CURSOR_HIGH_WEIGHT}
        return spec, weights

    def episode(driver: Driver, client, rng) -> list[str]:
        lo = [int(rng.integers(0, side - CURSOR_REGION + 1)) for side in SHAPE]
        region = HyperRect(tuple((x, x + CURSOR_REGION - 1) for x in lo))
        cursors: dict[str, int] = {}

        def move_cursor(session_id, scorer, rounds) -> bool:
            if rounds % CURSOR_EVERY:
                return True
            cursors[session_id] = (cursors[session_id] + CURSOR_WINDOW) % cells
            spec, weights = penalty_at(cursors[session_id])
            return driver.set_penalty(client, session_id, scorer, spec, weights)

        opened, live = [], {}
        for _ in range(CURSOR_SESSIONS):
            batch = drill_down_batch(region, CURSOR_CELLS, rng=rng)
            spec, weights = penalty_at(0)
            session_id, scorer, going = driver.open_and_answer(
                client, batch, exact_of(batch), CURSOR_K, spec, weights
            )
            if session_id is None:
                continue
            opened.append(session_id)
            cursors[session_id] = 0
            if going:
                live[session_id] = scorer
        driver.round_robin(client, live, CURSOR_K, move_cursor)
        # The late session: same region, arriving while the finished
        # sessions still hold their coefficients in the shared cache.
        batch = drill_down_batch(region, CURSOR_CELLS, rng=rng)
        session_id, scorer, going = driver.open_and_answer(
            client, batch, exact_of(batch), CURSOR_K
        )
        if session_id is not None:
            opened.append(session_id)
            if going:
                driver.round_robin(client, {session_id: scorer}, CURSOR_K)
        return opened

    return episode


EPISODES = {"http_stepwise": stepwise_episode, "http_cursor": cursor_episode}
#: ``http_cursor`` uses the range partitioner: under hash placement a
#: large-k round is ~80% pipe round trips of ~2 keys each, and its latency
#: swung by +-40% with the host's CPU steal from run to run; range
#: placement serves ~13 keys per round trip.
PARTITIONER = {"http_stepwise": "hash", "http_cursor": "range"}


# ----------------------------------------------------------------------
# One server's life
# ----------------------------------------------------------------------


def serve_and_measure(workload, seed, oracle, run_dir, index, seconds=None,
                      episodes=None, traced=False, before_timing=None,
                      driver=None) -> dict:
    """Launch, gate, warm up, measure, scrape and drain one server.

    With neither ``seconds`` nor ``episodes`` the server is only set up,
    gated and stopped (a set-up sample).  Returns ``setup_s``,
    ``exit_code``, ``refused`` and, after a measured phase, the metric
    snapshots around it (``before``/``after``), ``costs`` and
    ``peak_rss_mb``.  Operations and failures go to ``driver``.
    """
    from repro.cluster.client import ClusterClient

    driver = driver or Driver(BATCH_SEED)
    server = Server(seed, run_dir, index, traced, PARTITIONER[workload])
    out = {"refused": None, "driver": driver}
    client = None
    try:
        t0 = time.perf_counter()
        driver.attempted += 1
        try:
            server.start()
            client = ClusterClient("127.0.0.1", server.port, timeout=60.0)
            if before_timing is not None:
                before_timing(client, server)
            refused = health_gate(client)
        except (ServerError, OSError, RuntimeError) as exc:
            refused = repr(exc)
        out["setup_s"] = time.perf_counter() - t0
        if refused is not None:
            driver.fail(f"refused to time: {refused}")
            out["refused"] = refused
            return out
        if seconds is None and episodes is None:
            return out
        gated_at = time.monotonic()
        warm_up(client, seed)
        # Scrapes reuse shard telemetry younger than a second; wait so the
        # "before" snapshot is fresh rather than the health gate's pull.
        time.sleep(max(0.0, 1.1 - (time.monotonic() - gated_at)))
        out["before"] = client.metrics()
        if traced:
            from layers import install

            driver.bench_tracer = Tracer()
            install(driver.bench_tracer, "client")
        try:
            opened = driver.run_phase(
                client, EPISODES[workload](oracle), seconds, episodes
            )
        finally:
            if driver.bench_tracer is not None:
                driver.bench_tracer.close()
        # As before the phase: the last episode's shard counters must not
        # come from a cached pull.
        time.sleep(1.1)
        out["after"] = client.metrics()
        out["costs"] = client.costs()
        out["peak_rss_mb"] = peak_rss_mb(server.pids())
        driver.cancel_all(client, opened)
        for session_id, report in out["costs"].items():
            skipped = report.get("counters", {}).get("skipped_keys", 0)
            if skipped:
                driver.fail(f"/costs.json: {session_id} skipped {skipped} keys")
        return out
    finally:
        if client is not None:
            client.close()
        driver.attempted += 1
        code = server.stop()
        out["exit_code"] = code
        if code != 0:
            driver.fail(f"server exit status {code} after SIGTERM")


# ----------------------------------------------------------------------
# Reading the federated registry
# ----------------------------------------------------------------------


def family_sum(snapshot: dict, name: str, field: str = "value", shard=None,
               **labels) -> float:
    """Sum a family's samples.

    ``shard``: None takes every sample, ``True`` only shard-tagged ones,
    ``False`` only the router's own, a string only that shard's.
    """
    family = snapshot.get(name)
    if not family:
        return 0.0
    total = 0.0
    for sample in family["samples"]:
        lab = sample["labels"]
        if shard is True and "shard" not in lab:
            continue
        if shard is False and "shard" in lab:
            continue
        if isinstance(shard, str) and lab.get("shard") != shard:
            continue
        if any(lab.get(k) != v for k, v in labels.items()):
            continue
        total += float(sample[field])
    return total


def tracer_totals(snapshot: dict, shard: str | None) -> dict:
    """The ``perfbench_*`` gauges one server process published."""
    out = {"self_s": {}, "calls": {}, "inclusive_s": {}, "root_s": 0.0}
    for name, field, label in (
        ("perfbench_self_seconds", "self_s", "layer"),
        ("perfbench_calls", "calls", "layer"),
        ("perfbench_inclusive_seconds", "inclusive_s", "fn"),
    ):
        for sample in snapshot.get(name, {}).get("samples", []):
            if sample["labels"].get("shard") == shard:
                out[field][sample["labels"][label]] = float(sample["value"])
    for sample in snapshot.get("perfbench_root_seconds", {}).get("samples", []):
        if sample["labels"].get("shard") == shard:
            out["root_s"] = float(sample["value"])
    return out
