"""Which public functions belong to which layer of the stack.

The traced run wraps these functions with :class:`common.Tracer`; the
program itself carries no benchmark instrumentation.  Layer names are the
repository's modules: ``wavelets`` (query rewrite), ``core`` (plan,
session, apply), ``storage`` (paged store), ``service`` (shared
scheduler and its facade), ``router`` and ``worker`` (``repro.cluster``),
``client``.  ``edge`` time is read from the edge's own request histogram,
so nothing in ``repro.cluster.http`` is wrapped.
"""

from __future__ import annotations


class PlanSizes:
    """Sizes read off every plan the traced process builds."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.queries = 0
        self.master_keys = 0
        self.unshared = 0

    def __call__(self, plan) -> None:
        self.queries += int(plan.batch_size)
        self.master_keys += int(plan.num_keys)
        self.unshared += int(plan.total_query_coefficients)


def install(tracer, role: str, plans: PlanSizes | None = None) -> None:
    """Wrap the layer functions that run in a process playing ``role``.

    ``library`` is a process hosting :class:`ProgressiveQueryService`;
    ``router`` the ``repro serve`` process; ``worker`` a shard process;
    ``client`` a process driving :class:`ClusterClient`.
    """
    if role == "client":
        from repro.cluster.client import ClusterClient

        for name in ("submit", "advance", "poll", "set_penalty", "cancel"):
            tracer.wrap(ClusterClient, name, "client", entry=True)
        return

    from repro.core.plan import QueryPlan
    from repro.core.session import ProgressiveSession
    from repro.service.scheduler import SharedRetrievalScheduler
    from repro.storage.base import LinearStorage
    from repro.storage.paged import PagedCoefficientStore

    for name in ("register", "deregister", "reprioritize", "advance_session",
                 "serve_chunk"):
        tracer.wrap(SharedRetrievalScheduler, name, "service.schedule")
    tracer.wrap(PagedCoefficientStore, "fetch", "storage.fetch")

    if role == "worker":
        from repro.cluster.worker import ShardSessionStub, ShardWorker

        for name in ("register", "reprioritize", "unskip", "deregister",
                     "peek", "step", "step_chunk"):
            tracer.wrap(ShardWorker, name, "worker", entry=True)
        for name in ("deliver", "deliver_many"):
            tracer.wrap(ShardSessionStub, name, "worker")
        return

    tracer.wrap(LinearStorage, "rewrite_batch", "wavelets.rewrite")
    tracer.wrap(QueryPlan, "from_rewrites", "core.plan", observe=plans)
    tracer.wrap(ProgressiveSession, "__init__", "core.session")
    for name in ("worst_case_bound", "exact_answers", "set_penalty"):
        tracer.wrap(ProgressiveSession, name, "core.session")
    for name in ("deliver", "deliver_many"):
        tracer.wrap(ProgressiveSession, name, "core.apply")

    if role == "library":
        from repro.service.server import ProgressiveQueryService

        for name in ("submit", "advance", "poll", "set_penalty", "cancel"):
            tracer.wrap(ProgressiveQueryService, name, "service.facade", entry=True)
        return

    if role == "router":
        from repro.cluster.router import ClusterRouter
        from repro.cluster.worker import ProcessShard

        for name in ("submit", "advance", "poll", "set_penalty", "cancel"):
            tracer.wrap(ClusterRouter, name, "router", entry=True)
        tracer.wrap(ProcessShard, "call", "router.pipe")
        return

    raise ValueError(f"unknown role {role!r}")
