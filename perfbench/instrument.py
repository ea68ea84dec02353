"""Timing wrappers the traced run installs around each layer's public calls.

Nothing under ``src/`` knows about these.  The traced run wraps:

* the cost layer — :class:`TimedCostModel`, a ``CostModel`` proxy around
  ``EvalContext`` that times ``implement`` and turns every
  ``record_search`` (one ``fusion[i][j]`` branch-and-bound search) into
  a span carrying its node counts;
* the persistent store — ``CostStore.get`` / ``CostStore.put_many``;
* the partitioner, the chain optimizer used inside graph compiles (its
  constructor builds the per-layer menus), and the traffic generators;
* the sweep's per-point worker entry, so spans recorded inside forked
  sweep workers ride back to the parent inside each point's record.

:func:`instrument` installs all of them for the duration of a ``with``
block and restores the originals afterwards, so the untraced run
executes the program exactly as shipped.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import List

from measure import Tracer, median

#: Key under which a sweep worker ships its spans back in a point record.
#: ``repro.dse.sweep.records_digest`` ignores unknown record keys.
SHIPPED_KEY = "perfbench_trace"

#: Per-group branch-and-bound node budget of the default compile path
#: (``GroupSearch``'s default); a search that visits more was truncated.
NODE_BUDGET = 250_000


class TimedCostModel:
    """``CostModel`` proxy: times ``implement``, records each B&B search.

    Every other attribute (``stats``, ``flush_store``, ``store``, ...)
    forwards to the wrapped context, so optimizers and sweeps use it as
    they would the ``EvalContext`` itself.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def implement(self, *args, **kwargs):
        before = self._inner.stats.evaluations
        start = time.perf_counter()
        try:
            return self._inner.implement(*args, **kwargs)
        finally:
            tracer = self._tracer
            tracer.count("perf.implement_s", time.perf_counter() - start)
            tracer.count("perf.implement_calls")
            tracer.count(
                "perf.evaluations", self._inner.stats.evaluations - before
            )

    def record_search(self, network_name, device_name, start, stop, seconds,
                      nodes_visited, nodes_pruned):
        end = time.perf_counter()
        self._tracer.add(
            "optimizer.bnb_group", end - seconds, end,
            network=network_name, device=device_name, start=start,
            stop=stop, nodes=nodes_visited, pruned=nodes_pruned,
        )
        self._inner.record_search(
            network_name, device_name, start, stop, seconds,
            nodes_visited, nodes_pruned,
        )


def _timed_counter(tracer: Tracer, name: str, func):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            tracer.count(name, time.perf_counter() - start)

    return wrapper


def _timed_span(tracer: Tracer, name: str, func):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Install every timing wrapper; restore the originals on exit."""
    import repro.dse.sweep as sweep
    import repro.optimizer.graph_dp as graph_dp
    import repro.partition.cut as cut
    import repro.perf.cost as cost
    import repro.serve.scheduler as scheduler
    import repro.traffic.trace as traffic_trace
    from repro.dse.store import CostStore

    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    eval_context = cost.EvalContext
    patch(cost, "EvalContext",
          lambda *a, **k: TimedCostModel(eval_context(*a, **k), tracer))

    chain_optimizer = graph_dp.FrontierOptimizer

    class MenuTimedOptimizer(chain_optimizer):
        def __init__(self, *args, **kwargs):
            with tracer.span("optimizer.menus"):
                super().__init__(*args, **kwargs)

    patch(graph_dp, "FrontierOptimizer", MenuTimedOptimizer)
    patch(CostStore, "get", _timed_counter(tracer, "dse.store_get_s", CostStore.get))
    patch(CostStore, "put_many",
          _timed_counter(tracer, "dse.store_flush_s", CostStore.put_many))
    patch(cut, "partition_network",
          _timed_span(tracer, "partition", cut.partition_network))
    patch(scheduler, "synthetic_arrivals",
          _timed_span(tracer, "traffic.gen", scheduler.synthetic_arrivals))
    patch(traffic_trace, "generate_arrivals",
          _timed_span(tracer, "traffic.gen", traffic_trace.generate_arrivals))

    run_point_job = sweep.run_point_job

    def shipping_point_job(job):
        mark = tracer.mark()
        record = run_point_job(job)
        record[SHIPPED_KEY] = dict(tracer.since(mark), pid=os.getpid())
        return record

    patch(sweep, "run_point_job", shipping_point_job)
    try:
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def search_metrics(traced: List[Tracer]) -> dict:
    """``perf.*`` and ``optimizer.bnb_*`` metrics of traced passes.

    Counts come from the last pass (they repeat exactly); times are
    medians over the passes.
    """
    def med(func):
        return median(func(t) for t in traced)

    def groups(t):
        return t.named("optimizer.bnb_group")

    def seconds(t):
        return [g["end"] - g["start"] for g in groups(t)]

    def nodes(t):
        return sum(g["args"]["nodes"] for g in groups(t))

    last = traced[-1]
    calls = last.counters.get("perf.implement_calls", 0)
    evaluations = last.counters.get("perf.evaluations", 0)
    return {
        "perf.implement_calls": calls,
        "perf.evaluations": evaluations,
        "perf.hit_ratio": 1 - evaluations / calls if calls else 0.0,
        "perf.implement_s": med(
            lambda t: t.counters.get("perf.implement_s", 0.0)
        ),
        "optimizer.bnb_s": med(lambda t: sum(seconds(t))),
        "optimizer.bnb_nodes": nodes(last),
        "optimizer.bnb_pruned": sum(g["args"]["pruned"] for g in groups(last)),
        "optimizer.bnb_groups": len(groups(last)),
        "optimizer.bnb_us_per_node": med(
            lambda t: sum(seconds(t)) / nodes(t) * 1e6 if nodes(t) else 0.0
        ),
        "optimizer.bnb_slowest_group_s": med(
            lambda t: max(seconds(t), default=0.0)
        ),
        "optimizer.bnb_truncated_groups": sum(
            1 for g in groups(last) if g["args"]["nodes"] > NODE_BUDGET
        ),
    }


def collect_shipped(tracer: Tracer, records) -> None:
    """Merge spans that sweep workers shipped back inside their records.

    Records produced in this process (an inline sweep) were traced in
    place already and are skipped.
    """
    for record in records:
        shipped = record.pop(SHIPPED_KEY, None)
        if shipped is not None and shipped["pid"] != os.getpid():
            tracer.merge(shipped)
