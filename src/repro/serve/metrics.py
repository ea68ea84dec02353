"""Serving metrics: per-request records and fleet-level aggregates.

Every served request leaves one :class:`RequestRecord` on the virtual
clock; :class:`ServingMetrics` folds the records plus the replicas'
counters into the numbers an operator watches — queue wait, service
time, p50/p95/p99 latency, throughput, and achieved GOPS against the
optimizer's analytic prediction for the same strategy.

Under fault injection (:mod:`repro.faults`) not every request
completes: the aggregates additionally carry failed/shed/retry
counters, goodput (completed requests per second), and SLO attainment.
A run with zero completed requests is a *reportable outcome* of a chaos
experiment, not an error — percentiles degrade to NaN and
:meth:`ServingMetrics.summary` says "no completed requests" instead of
raising.

Percentiles use the nearest-rank definition (the smallest value with at
least ``q`` percent of samples at or below it), so small hand-computed
traces in tests have exact expected values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isnan
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.serve.batcher import ServingError
from repro.serve.runtime import ReplicaStats


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]).

    An empty sample yields NaN — "no data", not an error — so metric
    aggregation over a run where every request failed still produces a
    summary instead of crashing.
    """
    if not 0 <= q <= 100:
        raise ServingError(f"percentile q must be in [0, 100], got {q}")
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of an already sorted sample."""
    if not ordered:
        return float("nan")
    rank = max(1, ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


class RequestRecord(NamedTuple):
    """Lifecycle of one request, all times in virtual cycles.

    For retried requests ``arrival_cycle`` is the *original* arrival —
    latency always measures the user-visible wait, backoffs included.
    ``outcome`` is ``completed`` for served requests; failure records
    (kept separately in ``ServingResult.failures``) carry ``failed``
    (retries/deadline exhausted, or no replica left) or ``shed``
    (rejected by admission control), with ``completion_cycle`` the
    instant the request was abandoned.  An immutable named tuple, like
    :class:`~repro.serve.batcher.InferenceRequest`: one is built per
    request, so it must be cheap.
    """

    request_id: int
    arrival_cycle: float
    dispatch_cycle: float  # batch handed to (and started on) a replica
    completion_cycle: float
    replica_id: int  # -1 when the request never reached a replica
    batch_size: int
    attempts: int = 1
    outcome: str = "completed"

    @property
    def queue_cycles(self) -> float:
        """Time spent waiting in the batcher and for a replica."""
        return self.dispatch_cycle - self.arrival_cycle

    @property
    def service_cycles(self) -> float:
        """Time the batch occupied the replica."""
        return self.completion_cycle - self.dispatch_cycle

    @property
    def latency_cycles(self) -> float:
        """End-to-end: arrival to completion."""
        return self.completion_cycle - self.arrival_cycle


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregated outcome of one serving run."""

    requests: int  # completed requests
    makespan_cycles: float  # first arrival -> last completion/abandonment
    mean_queue_cycles: float
    max_queue_cycles: float
    mean_service_cycles: float
    mean_batch_size: float
    p50_latency_cycles: float
    p95_latency_cycles: float
    p99_latency_cycles: float
    replica_stats: Tuple[ReplicaStats, ...]
    frequency_hz: float
    ops_per_request: float
    single_image_cycles: float
    reference_gops: float  # the optimizer's analytic effective GOPS
    failed: int = 0  # dropped after retries/deadline (or dead fleet)
    shed: int = 0  # rejected by admission control
    retries: int = 0  # re-dispatch attempts beyond each first try
    slo_cycles: Optional[float] = None  # latency SLO this run was judged by
    slo_attainment: Optional[float] = None  # completed fraction within SLO
    #: Self-describing load model: the arrival process name, its
    #: parameters and the RNG seed that generated the trace — so a
    #: metrics payload alone is enough to replay the run bit-identically
    #: (None for hand-built traces with no recorded provenance).
    arrival: Optional[dict] = None
    #: Control-plane outcome (:mod:`repro.resilience`): the recovery
    #: event log, ladder depth, MTTR and goodput retention.  None when
    #: no control plane ran *or* it ran and never acted — which keeps a
    #: zero-fault run's metrics bit-identical either way.
    recovery: Optional[dict] = None

    @property
    def offered(self) -> int:
        """Every request that entered the system."""
        return self.requests + self.failed + self.shed

    @property
    def completion_rate(self) -> float:
        """Completed fraction of offered load (1.0 for a healthy fleet)."""
        return self.requests / self.offered if self.offered else float("nan")

    @property
    def throughput_per_mcycle(self) -> float:
        """Completed requests per million cycles of makespan."""
        if self.makespan_cycles <= 0:
            return 0.0
        return self.requests / self.makespan_cycles * 1e6

    @property
    def requests_per_second(self) -> float:
        """Throughput at the device clock."""
        if self.makespan_cycles <= 0:
            return 0.0
        return self.requests / (self.makespan_cycles / self.frequency_hz)

    @property
    def goodput_per_second(self) -> float:
        """Completed requests per second — what degrades under faults.

        Identical to :attr:`requests_per_second` (only completions are
        counted as requests); named separately because under faults the
        *offered* rate and the goodput diverge.
        """
        return self.requests_per_second

    @property
    def achieved_gops(self) -> float:
        """Arithmetic throughput actually sustained by the fleet."""
        if self.makespan_cycles <= 0:
            return 0.0
        seconds = self.makespan_cycles / self.frequency_hz
        return self.ops_per_request * self.requests / seconds / 1e9

    def to_dict(self) -> dict:
        """JSON-serializable metrics (CLI ``--json``)."""
        payload = {
            "requests": self.requests,
            "failed": self.failed,
            "shed": self.shed,
            "retries": self.retries,
            "offered": self.offered,
            "makespan_cycles": self.makespan_cycles,
            "requests_per_second": self.requests_per_second,
            "goodput_per_second": self.goodput_per_second,
            "throughput_per_mcycle": self.throughput_per_mcycle,
            "mean_queue_cycles": self.mean_queue_cycles,
            "max_queue_cycles": self.max_queue_cycles,
            "mean_service_cycles": self.mean_service_cycles,
            "mean_batch_size": self.mean_batch_size,
            "p50_latency_cycles": self.p50_latency_cycles,
            "p95_latency_cycles": self.p95_latency_cycles,
            "p99_latency_cycles": self.p99_latency_cycles,
            "achieved_gops": self.achieved_gops,
            "reference_gops": self.reference_gops,
            "slo_cycles": self.slo_cycles,
            "slo_attainment": self.slo_attainment,
            "arrival": self.arrival,
            "recovery": self.recovery,
            "replicas": [
                {
                    "replica_id": s.replica_id,
                    "batches": s.batches,
                    "requests": s.requests,
                    "busy_cycles": s.busy_cycles,
                    "failed_batches": s.failed_batches,
                    "wasted_cycles": s.wasted_cycles,
                }
                for s in self.replica_stats
            ],
        }
        # NaN is not valid JSON; degrade to None.
        return {
            key: (None if isinstance(value, float) and isnan(value) else value)
            for key, value in payload.items()
        }

    def _recovery_line(self) -> str:
        """One line summarizing the control plane's run."""
        rec = self.recovery or {}
        parts = [
            f"recovery: {len(rec.get('events', []))} events, "
            f"{rec.get('ladder_steps', 0)} ladder steps, "
            f"{rec.get('rebuilds', 0)} rebuilds"
        ]
        mttr_ms = rec.get("mttr_ms")
        if mttr_ms is not None:
            parts.append(f"MTTR {mttr_ms:.2f} ms")
        retention = rec.get("goodput_retention")
        if retention is not None:
            parts.append(f"goodput retention {retention * 100:.1f}%")
        return " — ".join(parts)

    def summary(self) -> str:
        """Human-readable metrics block (what ``repro serve-sim`` prints)."""
        replicas = len(self.replica_stats)
        if self.requests == 0:
            lines = [
                f"no completed requests on {replicas} replica(s): "
                f"{self.failed} failed, {self.shed} shed, "
                f"{self.retries} retries "
                f"(makespan {self.makespan_cycles:,.0f} cycles)"
            ]
            if self.slo_cycles is not None:
                lines.append(
                    f"SLO attainment: 0.0% within "
                    f"{self.slo_cycles:,.0f} cycles"
                )
            if self.recovery is not None:
                lines.append(self._recovery_line())
            return "\n".join(lines)
        lines = [
            f"served {self.requests} requests on {replicas} replica(s) "
            f"in {self.makespan_cycles:,.0f} cycles "
            f"({self.makespan_cycles / self.frequency_hz * 1e3:.2f} ms "
            f"at {self.frequency_hz / 1e6:.0f} MHz)",
            f"throughput: {self.requests_per_second:,.1f} req/s "
            f"({self.throughput_per_mcycle:.3f} req/Mcycle), "
            f"mean batch {self.mean_batch_size:.2f}",
            f"latency cycles: p50 {self.p50_latency_cycles:,.0f}  "
            f"p95 {self.p95_latency_cycles:,.0f}  "
            f"p99 {self.p99_latency_cycles:,.0f}  "
            f"(single-image floor {self.single_image_cycles:,.0f})",
            f"queue wait cycles: mean {self.mean_queue_cycles:,.0f}  "
            f"max {self.max_queue_cycles:,.0f}; "
            f"mean service {self.mean_service_cycles:,.0f}",
            f"achieved {self.achieved_gops:.1f} GOPS vs analytic "
            f"{self.reference_gops:.1f} GOPS per replica",
        ]
        if self.failed or self.shed or self.retries:
            lines.append(
                f"faults: {self.failed} failed, {self.shed} shed, "
                f"{self.retries} retries — goodput "
                f"{self.goodput_per_second:,.1f} req/s, "
                f"completion {self.completion_rate * 100:.1f}% "
                f"of {self.offered} offered"
            )
        if self.slo_cycles is not None and self.slo_attainment is not None:
            lines.append(
                f"SLO attainment: {self.slo_attainment * 100:.1f}% within "
                f"{self.slo_cycles:,.0f} cycles"
            )
        if self.recovery is not None:
            lines.append(self._recovery_line())
        for stats in self.replica_stats:
            line = (
                f"  replica {stats.replica_id}: {stats.requests} requests in "
                f"{stats.batches} batches, busy {stats.busy_cycles:,.0f} cycles "
                f"({stats.utilization(self.makespan_cycles) * 100:.1f}%)"
            )
            if stats.failed_batches:
                line += (
                    f", {stats.failed_batches} failed batches "
                    f"({stats.wasted_cycles:,.0f} wasted cycles)"
                )
            lines.append(line)
        return "\n".join(lines)


def aggregate_metrics(
    records: Sequence[RequestRecord],
    replica_stats: Sequence[ReplicaStats],
    frequency_hz: float,
    ops_per_request: float,
    single_image_cycles: float,
    reference_gops: float,
    failures: Sequence[RequestRecord] = (),
    retries: int = 0,
    slo_cycles: Optional[float] = None,
    arrival: Optional[dict] = None,
    recovery: Optional[dict] = None,
) -> ServingMetrics:
    """Fold request records + replica counters into a ServingMetrics.

    ``records`` holds completed requests only; ``failures`` holds
    failed/shed records (``RequestRecord.outcome``).  Latency
    percentiles and means are computed over completions; the makespan
    spans every arrival and every completion *or abandonment*, so
    goodput is measured over the full disturbed window.  Zero completed
    requests yields a NaN-safe metrics object, not an error.
    """
    if not records and not failures:
        raise ServingError("cannot aggregate metrics over zero requests")
    latencies = sorted(r.latency_cycles for r in records)
    queues = [r.queue_cycles for r in records]
    services = [r.service_cycles for r in records]
    everything = list(records) + list(failures)
    first_arrival = min(r.arrival_cycle for r in everything)
    last_event = max(r.completion_cycle for r in everything)
    failed = sum(1 for r in failures if r.outcome == "failed")
    shed = sum(1 for r in failures if r.outcome == "shed")
    slo_attainment = None
    if slo_cycles is not None:
        slo_attainment = (
            sum(1 for lat in latencies if lat <= slo_cycles) / len(latencies)
            if latencies
            else 0.0
        )
    return ServingMetrics(
        requests=len(records),
        makespan_cycles=last_event - first_arrival,
        mean_queue_cycles=_mean(queues),
        max_queue_cycles=max(queues) if queues else float("nan"),
        mean_service_cycles=_mean(services),
        mean_batch_size=_mean([r.batch_size for r in records]),
        p50_latency_cycles=_nearest_rank(latencies, 50),
        p95_latency_cycles=_nearest_rank(latencies, 95),
        p99_latency_cycles=_nearest_rank(latencies, 99),
        replica_stats=tuple(replica_stats),
        frequency_hz=frequency_hz,
        ops_per_request=ops_per_request,
        single_image_cycles=single_image_cycles,
        reference_gops=reference_gops,
        failed=failed,
        shed=shed,
        retries=retries,
        slo_cycles=slo_cycles,
        slo_attainment=slo_attainment,
        arrival=arrival,
        recovery=recovery,
    )
