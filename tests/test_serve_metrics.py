"""Metrics correctness against hand-computed request traces."""

import math

import pytest

from repro.serve.batcher import ServingError
from repro.serve.metrics import (
    RequestRecord,
    aggregate_metrics,
    percentile,
)
from repro.serve.runtime import BatchAttempt, ReplicaStats


class TestPercentile:
    def test_nearest_rank_small_sample(self):
        values = [10, 20, 30]
        assert percentile(values, 50) == 20  # rank ceil(1.5) = 2
        assert percentile(values, 95) == 30  # rank ceil(2.85) = 3
        assert percentile(values, 0) == 10  # clamps to rank 1

    def test_hundred_samples(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_unsorted_input(self):
        assert percentile([5, 1, 3], 100) == 5

    def test_empty_is_nan_not_error(self):
        # "No data" is a reportable chaos outcome, not a crash: a run
        # where every request failed still aggregates to a summary.
        assert math.isnan(percentile([], 50))

    def test_out_of_range_raises(self):
        with pytest.raises(ServingError):
            percentile([1], 101)


def record(rid, arrival, dispatch, completion, replica=0, batch=1):
    return RequestRecord(
        request_id=rid,
        arrival_cycle=float(arrival),
        dispatch_cycle=float(dispatch),
        completion_cycle=float(completion),
        replica_id=replica,
        batch_size=batch,
    )


class TestRequestRecord:
    def test_derived_times(self):
        r = record(0, arrival=10, dispatch=25, completion=125)
        assert r.queue_cycles == 15
        assert r.service_cycles == 100
        assert r.latency_cycles == 115

    def test_fields_cannot_be_set(self):
        r = record(0, arrival=10, dispatch=25, completion=125)
        with pytest.raises(AttributeError):
            r.outcome = "failed"
        with pytest.raises(AttributeError):
            r.note = "late"

    def test_equal_values_hash_and_compare_equal(self):
        a = record(4, arrival=10, dispatch=25, completion=125, batch=2)
        b = record(4, arrival=10, dispatch=25, completion=125, batch=2)
        assert a == b and hash(a) == hash(b)
        assert a != record(4, arrival=10, dispatch=25, completion=126, batch=2)
        assert a == (4, 10.0, 25.0, 125.0, 0, 2, 1, "completed")

    def test_repr(self):
        # The serving goldens hash this text: it must not drift.
        assert repr(record(4, 10, 25, 125, replica=1, batch=2)) == (
            "RequestRecord(request_id=4, arrival_cycle=10.0, "
            "dispatch_cycle=25.0, completion_cycle=125.0, replica_id=1, "
            "batch_size=2, attempts=1, outcome='completed')"
        )


class TestBatchAttempt:
    def test_fields_cannot_be_set(self):
        attempt = BatchAttempt(0.0, 100.0, ok=True)
        with pytest.raises(AttributeError):
            attempt.ok = False

    def test_equal_values_hash_and_compare_equal(self):
        a = BatchAttempt(0.0, 100.0, ok=False, failure="crash")
        b = BatchAttempt(0.0, 100.0, ok=False, failure="crash")
        assert a == b and hash(a) == hash(b)
        assert a != BatchAttempt(0.0, 100.0, ok=False, failure="transient")

    def test_repr(self):
        assert repr(BatchAttempt(0.0, 100.0, ok=True)) == (
            "BatchAttempt(start_cycle=0.0, end_cycle=100.0, ok=True, "
            "failure=None)"
        )


class TestAggregation:
    """Hand-computed trace: 2 requests batched together + 1 straggler.

    Batch A: requests 0, 1 arrive at 0 and 10, dispatched at 10 on
    replica 0, complete at 210 (service 200, batch size 2).
    Request 2 arrives at 50, dispatched at 210, completes at 310
    (service 100, batch size 1) on replica 0.
    """

    @pytest.fixture
    def metrics(self):
        records = [
            record(0, 0, 10, 210, replica=0, batch=2),
            record(1, 10, 10, 210, replica=0, batch=2),
            record(2, 50, 210, 310, replica=0, batch=1),
        ]
        stats = [ReplicaStats(replica_id=0, batches=2, requests=3, busy_cycles=300)]
        return aggregate_metrics(
            records,
            stats,
            frequency_hz=100e6,
            ops_per_request=1e6,
            single_image_cycles=100.0,
            reference_gops=1.0,
        )

    def test_counts_and_makespan(self, metrics):
        assert metrics.requests == 3
        assert metrics.makespan_cycles == 310  # first arrival 0 -> 310

    def test_queue_and_service_means(self, metrics):
        # queue waits: 10, 0, 160 ; services: 200, 200, 100
        assert metrics.mean_queue_cycles == pytest.approx((10 + 0 + 160) / 3)
        assert metrics.max_queue_cycles == 160
        assert metrics.mean_service_cycles == pytest.approx(500 / 3)
        assert metrics.mean_batch_size == pytest.approx(5 / 3)

    def test_latency_percentiles(self, metrics):
        # latencies: 210, 200, 260 -> sorted [200, 210, 260]
        assert metrics.p50_latency_cycles == 210
        assert metrics.p95_latency_cycles == 260
        assert metrics.p99_latency_cycles == 260

    def test_throughput(self, metrics):
        assert metrics.throughput_per_mcycle == pytest.approx(3 / 310 * 1e6)
        # 310 cycles at 100 MHz = 3.1 us for 3 requests.
        assert metrics.requests_per_second == pytest.approx(3 / (310 / 100e6))

    def test_achieved_gops(self, metrics):
        # 3 Mops in 3.1 us = ~967.7 GOPS.
        seconds = 310 / 100e6
        assert metrics.achieved_gops == pytest.approx(3e6 / seconds / 1e9)

    def test_replica_utilization(self, metrics):
        assert metrics.replica_stats[0].utilization(310) == pytest.approx(300 / 310)

    def test_summary_mentions_key_numbers(self, metrics):
        text = metrics.summary()
        assert "served 3 requests" in text
        assert "p50" in text and "p99" in text
        assert "replica 0" in text
        assert "GOPS" in text

    def test_empty_records_raise(self):
        with pytest.raises(ServingError):
            aggregate_metrics(
                [], [], frequency_hz=1.0, ops_per_request=0,
                single_image_cycles=0, reference_gops=0,
            )


def failure(rid, arrival, at, outcome, replica=-1):
    return RequestRecord(
        request_id=rid,
        arrival_cycle=float(arrival),
        dispatch_cycle=float(at),
        completion_cycle=float(at),
        replica_id=replica,
        batch_size=0,
        outcome=outcome,
    )


class TestFaultAggregation:
    def test_failures_counted_and_makespan_spans_abandonment(self):
        records = [record(0, 0, 10, 210, batch=1)]
        failures = [
            failure(1, 20, 500, "failed"),
            failure(2, 30, 30, "shed"),
        ]
        stats = [ReplicaStats(replica_id=0, batches=1, requests=1,
                              busy_cycles=200)]
        metrics = aggregate_metrics(
            records, stats, frequency_hz=100e6, ops_per_request=1e6,
            single_image_cycles=100.0, reference_gops=1.0,
            failures=failures, retries=3, slo_cycles=250.0,
        )
        assert metrics.requests == 1
        assert metrics.failed == 1
        assert metrics.shed == 1
        assert metrics.retries == 3
        assert metrics.offered == 3
        assert metrics.completion_rate == pytest.approx(1 / 3)
        # Makespan runs to the failed request's abandonment at 500.
        assert metrics.makespan_cycles == 500
        # The single completion (latency 210) meets the 250-cycle SLO.
        assert metrics.slo_attainment == 1.0
        text = metrics.summary()
        assert "1 failed" in text and "1 shed" in text
        assert "goodput" in text
        assert "SLO attainment: 100.0%" in text

    def test_zero_completed_is_reportable_not_an_error(self):
        failures = [failure(0, 0, 400, "failed")]
        stats = [ReplicaStats(replica_id=0, batches=0, requests=0,
                              busy_cycles=0.0, failed_batches=3,
                              wasted_cycles=600.0)]
        metrics = aggregate_metrics(
            [], stats, frequency_hz=100e6, ops_per_request=1e6,
            single_image_cycles=100.0, reference_gops=1.0,
            failures=failures, retries=2, slo_cycles=250.0,
        )
        assert metrics.requests == 0
        assert math.isnan(metrics.p99_latency_cycles)
        assert metrics.slo_attainment == 0.0
        assert "no completed requests" in metrics.summary()
        # NaN degrades to None in the JSON view.
        payload = metrics.to_dict()
        assert payload["p99_latency_cycles"] is None
        assert payload["failed"] == 1

    def test_goodput_alias_and_fault_free_summary_unchanged(self):
        records = [record(0, 0, 10, 210, batch=1)]
        stats = [ReplicaStats(replica_id=0, batches=1, requests=1,
                              busy_cycles=200)]
        metrics = aggregate_metrics(
            records, stats, frequency_hz=100e6, ops_per_request=1e6,
            single_image_cycles=100.0, reference_gops=1.0,
        )
        assert metrics.goodput_per_second == metrics.requests_per_second
        assert metrics.completion_rate == 1.0
        text = metrics.summary()
        # No fault lines in a clean run's summary.
        assert "faults:" not in text and "SLO" not in text
