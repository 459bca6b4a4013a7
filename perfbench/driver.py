"""Closed-loop traffic from one client, scored against the oracle.

The same driver runs every workload: over HTTP it talks to a
:class:`ClusterClient`; in-process it talks to :class:`LibraryClient`, a
thin adapter giving :class:`ProgressiveQueryService` the client's
request/reply shape (one round is ``advance`` plus ``poll``).
"""

from __future__ import annotations

import time

import numpy as np

from common import Scorer, Tracer, host_probe

#: Rounds a measured phase runs at least, so the p99 round latency has
#: ten samples beyond it.
MIN_ROUNDS = 1000
#: A phase never runs past this, whatever the round count (run limit).
MAX_PHASE_S = 100.0

#: Host probes run right after each submit.  Submits are few and long
#: (0.5 s in-process), so each takes its own sample of the host's speed.
SUBMIT_PROBES = 16

#: Errors a client operation can raise that count as a failed operation.
OP_ERRORS = (RuntimeError, ValueError, KeyError, OSError)


class LibraryClient:
    """:class:`ProgressiveQueryService` behind the client's call shapes."""

    def __init__(self, service) -> None:
        self.service = service

    def submit(self, batch, penalty=None):
        return self.service.submit(batch, penalty=penalty)

    def advance(self, session_id, k):
        gained = self.service.advance(session_id, k)
        return {"gained": gained, "snapshot": self.poll(session_id)}

    def poll(self, session_id):
        snap = self.service.poll(session_id)
        return {
            "estimates": snap.estimates,
            "steps_taken": snap.steps_taken,
            "worst_case_bound": snap.worst_case_bound,
            "is_exact": snap.is_exact,
            "degraded": snap.degraded,
            "skipped_count": snap.skipped_count,
        }

    def cancel(self, session_id):
        self.service.cancel(session_id)


class Driver:
    """Counts, times and checks every operation of one measured phase."""

    def __init__(self, batch_seed: int) -> None:
        #: Seeds the batches of every episode.
        self.batch_seed = batch_seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.submit_s: list[float] = []
        self.round_s: list[float] = []
        self.sessions: list[Scorer] = []
        #: Every batch submitted, in order (the oracle timing replays them).
        self.batches: list = []
        self.episodes = 0
        self.wall_s = 0.0
        #: Keys held by sessions when they turned exact (one convergence
        #: record per applied coefficient).
        self.final_steps = 0
        #: Set in the traced run: times the benchmark's own checking.
        self.bench_tracer: Tracer | None = None
        #: Start times (driver clock) of the submits and rounds above.
        self.submit_at: list[float] = []
        self.round_at: list[float] = []
        #: :func:`host_probe` readings and when each started; the driver's
        #: clock (:meth:`now`) leaves the probes' time out.
        self.probe_at: list[float] = []
        self.probe_s: list[float] = []
        self._probe_total = 0.0

    # -- bookkeeping -----------------------------------------------------

    def now(self) -> float:
        """``time.perf_counter()`` minus the time spent in host probes."""
        return time.perf_counter() - self._probe_total

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            self.probe_at.append(self.now())
            elapsed = host_probe()
            self.probe_s.append(elapsed)
            self._probe_total += elapsed

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def op(self, fn, *args):
        """One client operation; a raised error counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except OP_ERRORS as exc:
            self.fail(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def check(self, scorer: Scorer, t: float, snapshot: dict) -> list[str]:
        """Score one polled snapshot; returns why it failed (empty: fine)."""
        tracer = self.bench_tracer
        if tracer is None:
            return self._score(scorer, t, snapshot)
        with tracer.span("bench.check"):
            return self._score(scorer, t, snapshot)

    @staticmethod
    def _score(scorer: Scorer, t: float, snapshot: dict) -> list[str]:
        before = len(scorer.failures)
        scorer.score(
            t, snapshot["estimates"], snapshot["steps_taken"],
            snapshot["worst_case_bound"], snapshot["is_exact"],
            snapshot["degraded"], snapshot["skipped_count"],
        )
        return scorer.failures[before:]

    # -- operations --------------------------------------------------------

    def submit(self, client, batch, exact, penalty=None, weights=None):
        """Open a session; returns ``(session_id, scorer)`` or Nones."""
        t0 = self.now()
        session_id = self.op(client.submit, batch, penalty)
        if session_id is None:
            return None, None
        self.submit_s.append(self.now() - t0)
        self.submit_at.append(t0)
        self.probe(SUBMIT_PROBES)
        self.batches.append(batch)
        scorer = Scorer(exact, t0)
        if weights is not None:
            scorer.weights = weights
        self.sessions.append(scorer)
        return session_id, scorer

    def advance(self, client, session_id, scorer, k) -> bool:
        """One closed-loop round; False once the session is finished."""
        t0 = self.now()
        reply = self.op(client.advance, session_id, k)
        t1 = self.now()
        if reply is None:
            return False
        self.round_s.append(t1 - t0)
        self.round_at.append(t0)
        self.probe()
        snapshot = reply["snapshot"]
        reasons = self.check(scorer, t1, snapshot)
        if not scorer.done and reply["gained"] == 0:
            reasons.append(f"stalled at {snapshot['steps_taken']} keys")
        if reasons:
            self.fail(f"advance {session_id}: " + "; ".join(reasons))
            return False
        if scorer.done:
            self.final_steps += int(snapshot["steps_taken"])
            return False
        return True

    def set_penalty(self, client, session_id, scorer, penalty, weights) -> bool:
        reply = self.op(client.set_penalty, session_id, penalty)
        if reply is None:
            return False
        scorer.weights = weights
        reasons = self.check(scorer, self.now(), reply)
        if reasons:
            self.fail(f"penalty {session_id}: " + "; ".join(reasons))
            return False
        return True

    def open_and_answer(self, client, batch, exact, k, penalty=None, weights=None):
        """Submit, then the first round: the session's first answer."""
        session_id, scorer = self.submit(client, batch, exact, penalty, weights)
        if session_id is None:
            return None, None, False
        return session_id, scorer, self.advance(client, session_id, scorer, k)

    def round_robin(self, client, live: dict, k: int, on_round=None) -> None:
        """Advance every live session in turn until each is finished."""
        rounds = dict.fromkeys(live, 0)
        while live:
            for session_id, scorer in list(live.items()):
                if not self.advance(client, session_id, scorer, k):
                    del live[session_id]
                    continue
                rounds[session_id] += 1
                if on_round is not None and not on_round(
                    session_id, scorer, rounds[session_id]
                ):
                    del live[session_id]

    def cancel_all(self, client, session_ids) -> None:
        for session_id in session_ids:
            self.op(client.cancel, session_id)

    # -- the measured phase --------------------------------------------------

    def run_phase(self, client, episode, seconds: float, episodes: int | None):
        """Run ``episode(driver, client, rng)`` until ``seconds`` pass.

        Whole episodes only, and at least :data:`MIN_ROUNDS` rounds.
        With ``episodes`` given, runs exactly that many instead (the
        traced run repeats the untraced run's work).  Every episode but
        the last is cancelled as the next one starts; the last one's
        session ids are returned still open, so ``/costs.json`` lists
        them when it is read, and the caller cancels them.
        """
        t0 = self.now()
        opened: list[str] = []
        while True:
            self.cancel_all(client, opened)
            rng = np.random.default_rng([self.batch_seed, self.episodes])
            rounds, failed = len(self.round_s), self.failed
            opened = episode(self, client, rng)
            self.episodes += 1
            elapsed = self.now() - t0
            if episodes is not None:
                if self.episodes >= episodes:
                    break
            elif elapsed >= seconds and len(self.round_s) >= MIN_ROUNDS:
                break
            if self.failed > failed:
                break  # a failing run is reported as such; no need to go on
            if len(self.round_s) == rounds or elapsed >= MAX_PHASE_S:
                self.fail(f"phase stopped after {self.episodes} episodes, "
                          f"{len(self.round_s)} rounds, {elapsed:.1f} s")
                break
        self.wall_s = self.now() - t0
        return opened


def partition_episode(batches, exact_of, k):
    """Episode factory: submit ``batches(rng)`` together, round-robin to exact."""

    def episode(driver: Driver, client, rng) -> list[str]:
        opened, live = [], {}
        for batch in batches(rng):
            session_id, scorer, going = driver.open_and_answer(
                client, batch, exact_of(batch), k
            )
            if session_id is None:
                continue
            opened.append(session_id)
            if going:
                live[session_id] = scorer
        driver.round_robin(client, live, k)
        return opened

    return episode
