"""Tests for the dynamic batching queue (deadline + max-batch limits)."""

import pytest

from repro.serve.batcher import DynamicBatcher, InferenceRequest, ServingError


def req(i, t):
    return InferenceRequest(request_id=i, arrival_cycle=float(t))


class TestValidation:
    def test_max_batch_must_be_positive(self):
        with pytest.raises(ServingError):
            DynamicBatcher(max_batch=0)

    def test_max_wait_must_be_non_negative(self):
        with pytest.raises(ServingError):
            DynamicBatcher(max_batch=1, max_wait_cycles=-1.0)

    def test_arrivals_must_be_ordered(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=10)
        batcher.add(req(0, 100))
        with pytest.raises(ServingError):
            batcher.add(req(1, 50))

    def test_out_of_order_error_names_both_requests(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=10)
        batcher.add(req(7, 100))
        with pytest.raises(ServingError) as excinfo:
            batcher.add(req(3, 50))
        message = str(excinfo.value)
        assert "request 3" in message and "request 7" in message
        assert "retry_at" in message  # points at the re-arrival path


class TestRequestContract:
    """An immutable named tuple: equal (and hashed) by value."""

    def test_fields_cannot_be_set(self):
        request = req(0, 100)
        with pytest.raises(AttributeError):
            request.arrival_cycle = 5.0
        with pytest.raises(AttributeError):
            request.deadline = 5.0

    def test_equal_values_hash_and_compare_equal(self):
        assert req(3, 7) == req(3, 7)
        assert hash(req(3, 7)) == hash(req(3, 7))
        assert req(3, 7) != req(3, 8)
        assert req(3, 7) == (3, 7.0, 1, None)

    def test_repr(self):
        assert repr(req(3, 7).retry_at(9)) == (
            "InferenceRequest(request_id=3, arrival_cycle=9.0, attempts=2, "
            "first_arrival_cycle=7.0)"
        )


class TestRetryPath:
    def test_retry_at_stamps_fresh_arrival_and_keeps_origin(self):
        fresh = req(0, 100)
        assert fresh.origin_cycle == 100
        retried = fresh.retry_at(500)
        assert type(retried) is InferenceRequest
        assert retried.request_id == 0
        assert retried.arrival_cycle == 500
        assert retried.attempts == 2
        assert retried.origin_cycle == 100
        # A second retry still anchors at the original arrival.
        again = retried.retry_at(900)
        assert again.attempts == 3
        assert again.origin_cycle == 100

    def test_requeue_re_enqueues_in_order(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=10)
        batcher.add(req(0, 100))
        batcher.add(req(1, 120))
        failed = batcher.pop_batch(130)[0]
        # A stale arrival_cycle would violate the in-order contract;
        # requeue() stamps `now` so the same request re-enters cleanly.
        retried = batcher.requeue(failed, now=300)
        assert retried.arrival_cycle == 300
        assert retried.attempts == 2
        assert batcher.pending[-1].request_id == 0


class TestDeadline:
    def test_empty_queue_is_never_ready(self):
        batcher = DynamicBatcher(max_batch=2, max_wait_cycles=10)
        assert not batcher.ready_at(1e9)
        assert batcher.next_deadline() is None

    def test_partial_batch_waits_until_deadline(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=10)
        batcher.add(req(0, 100))
        assert batcher.next_deadline() == 110
        assert not batcher.ready_at(100)
        assert not batcher.ready_at(109.9)
        assert batcher.ready_at(110)
        assert batcher.ready_at(200)

    def test_deadline_tracks_oldest_request(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=10)
        batcher.add(req(0, 100))
        batcher.add(req(1, 105))
        # The *oldest* request's wait budget governs, not the newest.
        assert batcher.next_deadline() == 110

    def test_zero_wait_is_ready_immediately(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=0)
        batcher.add(req(0, 42))
        assert batcher.ready_at(42)

    def test_dispatch_cycle(self):
        batcher = DynamicBatcher(max_batch=2, max_wait_cycles=10)
        assert batcher.dispatch_cycle(0, 0) == float("inf")
        batcher.add(req(0, 100))
        # A partial batch waits for its deadline and the replica.
        assert batcher.dispatch_cycle(100, 50) == 110
        assert batcher.dispatch_cycle(100, 130) == 130
        assert batcher.dispatch_cycle(120, 50) == 120
        # A full batch goes as soon as the clock and the replica allow.
        batcher.add(req(1, 104))
        assert batcher.dispatch_cycle(104, 50) == 104
        assert batcher.dispatch_cycle(104, 107) == 107

    def test_full_batch_ready_before_deadline(self):
        batcher = DynamicBatcher(max_batch=2, max_wait_cycles=1000)
        batcher.add(req(0, 0))
        batcher.add(req(1, 0))
        assert batcher.has_full_batch()
        assert batcher.ready_at(0)


class TestPop:
    def test_pop_before_ready_raises(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=10)
        batcher.add(req(0, 100))
        with pytest.raises(ServingError):
            batcher.pop_batch(105)

    def test_pop_is_fifo_and_capped(self):
        batcher = DynamicBatcher(max_batch=2, max_wait_cycles=0)
        for i in range(5):
            batcher.add(req(i, i))
        batch = batcher.pop_batch(10)
        assert [r.request_id for r in batch] == [0, 1]
        assert len(batcher) == 3
        batch = batcher.pop_batch(10)
        assert [r.request_id for r in batch] == [2, 3]

    def test_partial_pop_at_deadline(self):
        batcher = DynamicBatcher(max_batch=8, max_wait_cycles=10)
        batcher.add(req(0, 0))
        batcher.add(req(1, 5))
        batch = batcher.pop_batch(10)
        assert [r.request_id for r in batch] == [0, 1]
        assert len(batcher) == 0

    def test_deadline_advances_after_pop(self):
        batcher = DynamicBatcher(max_batch=1, max_wait_cycles=10)
        batcher.add(req(0, 0))
        batcher.add(req(1, 7))
        batcher.pop_batch(0)
        assert batcher.next_deadline() == 17
