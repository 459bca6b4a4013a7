"""Shared pieces of the end-to-end benchmark: tracer, oracle, statistics.

Nothing here imports ``repro`` at module level, so the serve shim and the
entry point can set ``sys.path`` first.
"""

from __future__ import annotations

import functools
import os
import platform
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Relative L2 error a progressive estimate must reach for ``to_1pct``.
TARGET_REL_ERR = 0.01


def ensure_repro_importable() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {SRC}; run from a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Tracing: exclusive self time per layer from wrapped public functions
# ----------------------------------------------------------------------


class _ThreadState:
    """One thread's span stack and totals (no lock on the hot path)."""

    __slots__ = ("stack", "self_s", "calls", "inclusive_s", "root_s")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0

    def close(self, layer: str, name: str, frame: list, duration: float) -> None:
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1][0] += duration
        else:
            self.root_s += duration
        self.self_s[layer] += duration - frame[0]
        self.calls[layer] += 1
        self.inclusive_s[name] += duration


class Tracer:
    """Times calls into wrapped functions and splits them into self time.

    Every wrapped call is a span on a per-thread stack.  A span's self
    time is its duration minus the time covered by its child spans, so
    the self times of one thread's spans sum to the time its root spans
    cover.  Only *entry* functions may open a root span; a non-entry
    function called with an empty stack (a background telemetry pull,
    say) is not recorded, which keeps the totals inside the requests the
    benchmark drives.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def span(self, layer: str):
        """Context manager form, for the benchmark's own code blocks."""
        return _Span(self._state(), layer)

    def wrap(self, owner, attr: str, layer: str, entry: bool = False, observe=None):
        """Replace ``owner.attr`` by a timing wrapper (undone by :meth:`close`).

        ``observe`` is called with each recorded call's return value —
        used to read sizes off plans without touching the program.
        """
        raw = owner.__dict__[attr]
        kind = None
        if isinstance(raw, (classmethod, staticmethod)):
            kind, fn = type(raw), raw.__func__
        else:
            fn = raw
        name = f"{owner.__name__}.{attr}"
        state_of = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            if not state.stack and not entry:
                return fn(*args, **kwargs)
            frame = [0.0]
            state.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                state.close(layer, name, frame, clock() - t0)
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._undo.append((owner, attr, raw))

    def close(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Totals summed over every thread that recorded a span."""
        with self._lock:
            states = list(self._states)
        return merge_snapshots(
            {"self_s": st.self_s, "calls": st.calls,
             "inclusive_s": st.inclusive_s, "root_s": st.root_s}
            for st in states
        )


class _Span:
    __slots__ = ("state", "layer", "frame", "t0")

    def __init__(self, state: _ThreadState, layer: str) -> None:
        self.state, self.layer = state, layer

    def __enter__(self):
        self.frame = [0.0]
        self.state.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self.t0
        self.state.close(self.layer, self.layer, self.frame, duration)


def merge_snapshots(snapshots) -> dict:
    """Sum several span-total dicts (one per thread, or per process)."""
    out = {"self_s": defaultdict(float), "calls": defaultdict(int),
           "inclusive_s": defaultdict(float), "root_s": 0.0}
    for snap in snapshots:
        for field in ("self_s", "calls", "inclusive_s"):
            for key, value in snap[field].items():
                out[field][key] += value
        out["root_s"] += snap["root_s"]
    return {k: (dict(v) if isinstance(v, defaultdict) else v) for k, v in out.items()}


def diff_snapshots(after: dict, before: dict) -> dict:
    """``after - before`` field by field."""
    out = {}
    for field in ("self_s", "calls", "inclusive_s"):
        out[field] = {
            key: value - before[field].get(key, 0)
            for key, value in after[field].items()
        }
    out["root_s"] = after["root_s"] - before["root_s"]
    return out


# ----------------------------------------------------------------------
# Oracle: exact answers straight from the generated relation
# ----------------------------------------------------------------------


class Oracle:
    """Dense rectangle sums over the relation's frequency distribution.

    Built from the raw records with ``numpy.bincount`` — no wavelets, no
    plans — so it checks the program rather than repeating it.
    """

    def __init__(self, records: np.ndarray, shape) -> None:
        shape = tuple(int(s) for s in shape)
        flat = np.ravel_multi_index(tuple(np.asarray(records).T), shape)
        self.shape = shape
        self.freq = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)

    def count(self, bounds) -> float:
        return float(self.freq[self._slices(bounds)].sum())

    def sum(self, bounds, attribute: int) -> float:
        block = self.freq[self._slices(bounds)]
        lo, hi = bounds[attribute]
        coords = np.arange(lo, hi + 1, dtype=np.float64)
        axes = [d for d in range(len(self.shape)) if d != attribute]
        return float(block.sum(axis=tuple(axes)) @ coords)

    @staticmethod
    def _slices(bounds):
        return tuple(slice(int(lo), int(hi) + 1) for lo, hi in bounds)


class Scorer:
    """Scores every polled estimate of one session against the oracle.

    Counts a failure for an SSE (weighted by the session's current
    penalty weights) above the reported Theorem-1 bound, for a degraded
    or skipped session, and for an exact answer that differs from the
    oracle.  Records when the estimate first got within
    :data:`TARGET_REL_ERR`.
    """

    def __init__(self, exact: np.ndarray, submit_t: float) -> None:
        self.exact = np.asarray(exact, dtype=np.float64)
        self.norm = float(np.linalg.norm(self.exact))
        self.submit_t = submit_t
        self.weights = np.ones_like(self.exact)
        self.first_answer_s: float | None = None
        self.to_target_s: float | None = None
        self.keys_to_target: int | None = None
        self.done = False
        self.failures: list[str] = []

    def score(self, t: float, estimates, steps: int, bound: float,
              is_exact: bool, degraded: bool, skipped: int) -> None:
        est = np.asarray(estimates, dtype=np.float64)
        err = est - self.exact
        if degraded or skipped:
            self.failures.append(f"degraded session ({skipped} skipped keys)")
        penalty = float(np.sum(self.weights * err * err))
        slack = 1e-9 * (1.0 + self.norm**2 * float(self.weights.max()))
        if penalty > bound * (1 + 1e-9) + slack:
            self.failures.append(
                f"SSE {penalty:.6g} above Theorem-1 bound {bound:.6g}"
            )
        if steps >= 1 and self.first_answer_s is None:
            self.first_answer_s = t - self.submit_t
        if self.to_target_s is None and steps >= 1:
            rel = float(np.linalg.norm(err)) / self.norm if self.norm else 0.0
            if rel <= TARGET_REL_ERR:
                self.to_target_s = t - self.submit_t
                self.keys_to_target = int(steps)
        if is_exact:
            if not np.allclose(est, self.exact, rtol=1e-7, atol=1e-6):
                worst = float(np.max(np.abs(err)))
                self.failures.append(f"exact answer off the oracle by {worst:.6g}")
            self.done = True


def oracle_seconds(storage, batches) -> float:
    """``BatchBiggestB`` plan + run over ``batches``: the reference floor.

    Rewrite memos are warm by the time this runs (the phases came first).
    """
    from repro.core.batch import BatchBiggestB

    t0 = time.perf_counter()
    for batch in batches:
        BatchBiggestB(storage, batch).run()
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


def host_probe() -> float:
    """Seconds one fixed pure-Python loop takes right now (~0.1 ms).

    On a shared host the same code runs up to ~1.5x slower while other
    tenants load the machine, in stretches of seconds to minutes, so the
    wall times of identical runs differ by 40% and more.  The driver runs
    this loop after every round and after every submit; :class:`HostSpeed`
    turns the readings into how much slower than its own uncontended
    speed the host ran around each timed operation.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(2000):
        x += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Host slowdown over a phase, from timestamped :func:`host_probe` runs.

    A slowdown is the mean probe time in some span over the fastest probe
    of the whole phase (the uncontended speed): 1.0 when the host never
    slowed down.
    """

    #: Probes this far (seconds) before and after an operation count
    #: towards its slowdown.
    WINDOW_S = 0.5

    def __init__(self, times, readings) -> None:
        order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
        self.times = np.asarray(times, dtype=np.float64)[order]
        readings = np.asarray(readings, dtype=np.float64)[order]
        self.cumsum = np.concatenate(([0.0], np.cumsum(readings)))
        self.fastest = float(readings.min()) if readings.size else 0.0
        self.overall = (
            float(readings.mean()) / self.fastest if readings.size else 1.0
        )

    def around(self, start: float, end: float) -> float:
        """Slowdown over ``[start - WINDOW_S, end + WINDOW_S]``.

        The phase's overall slowdown when no probe falls in that span.
        """
        lo = np.searchsorted(self.times, start - self.WINDOW_S, side="left")
        hi = np.searchsorted(self.times, end + self.WINDOW_S, side="right")
        if hi <= lo:
            return self.overall
        return float(self.cumsum[hi] - self.cumsum[lo]) / (hi - lo) / self.fastest

    def scale(self, starts, durations) -> list[float]:
        """Each duration divided by the slowdown around it."""
        return [d / self.around(t, t + d) for t, d in zip(starts, durations)]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def summarize(values) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    arr = np.asarray(values, dtype=np.float64)
    out = {"n": int(arr.size)}
    if not arr.size:
        return out
    out["p50"] = float(np.percentile(arr, 50))
    for q in (99.9, 99.0, 90.0, 75.0):
        if arr.size * (1 - q / 100.0) >= 10:
            out["tail_q"] = q
            out["tail"] = float(np.percentile(arr, q))
            break
    return out


# ----------------------------------------------------------------------
# Process facts
# ----------------------------------------------------------------------


def peak_rss_mb(pids) -> float:
    """Sum of peak resident set sizes (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (scans ``/proc``)."""
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children[ppid].append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def environment(seed: int) -> dict:
    """What a result needs to be reproduced: seed, machine, versions."""
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "machine": platform.machine(),
    }
