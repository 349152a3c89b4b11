"""Tests for the streaming annotation service layer.

Covers the PR's acceptance contract:

* a :class:`StreamSession` fed record-by-record with ``window >= len`` yields,
  after the final record, exactly the m-semantics of batch ``annotate``;
* at the default window, streamed record-level labels agree with the batch
  decode on >= 95% of records of the mall workload;

plus store semantics, live queries over in-flight sessions, and service
persistence (save → load → bitwise-identical decodes).
"""

from __future__ import annotations

import pytest

from repro.analytics.behaviour import conversion_rates
from repro.mobility.records import PositioningSequence
from repro.queries.tkfrpq import TkFRPQ
from repro.queries.tkprq import TkPRQ
from repro.runtime import ExecutionPolicy
from repro.service import AnnotationService, SemanticsStore, StreamSession


@pytest.fixture()
def service(fitted_annotator):
    return AnnotationService(fitted_annotator)


@pytest.fixture(scope="module")
def short_sequences(small_split):
    """Truncated test sequences — streaming mechanics don't need 250+ records."""
    _, test = small_split
    return [
        PositioningSequence(
            list(labeled.sequence)[:60], object_id=labeled.object_id, sort=False
        )
        for labeled in test.sequences
    ]


def stream_whole_sequence(session, sequence):
    """Feed a p-sequence record-by-record; return everything finalized."""
    finalized = session.extend(sequence)
    finalized.extend(session.finish())
    return finalized


class TestStreamSessionExactness:
    def test_window_at_least_sequence_length_matches_batch(
        self, service, fitted_annotator, short_sequences
    ):
        for i, sequence in enumerate(short_sequences):
            batch = fitted_annotator.annotate(sequence)
            session = service.session(f"exact-{i}", window=len(sequence) + 1)
            assert stream_whole_sequence(session, sequence) == batch
            assert service.store.semantics_for(f"exact-{i}") == batch

    def test_exact_flag_matches_batch_with_small_window(
        self, service, fitted_annotator, short_sequences
    ):
        sequence = short_sequences[0]
        batch = fitted_annotator.annotate(sequence)
        session = service.session("exact-flag", window=8, exact=True)
        assert stream_whole_sequence(session, sequence) == batch

    def test_default_window_label_agreement(
        self, service, fitted_annotator, small_split
    ):
        _, test = small_split
        total = agreeing = 0
        for i, labeled in enumerate(test.sequences):
            sequence = labeled.sequence
            session = service.session(f"agree-{i}", keep_history=True)
            stream_whole_sequence(session, sequence)
            stream_regions, stream_events = session.labels
            batch_regions, batch_events = fitted_annotator.predict_labels(sequence)
            total += len(sequence)
            agreeing += sum(
                1
                for j in range(len(sequence))
                if stream_regions[j] == batch_regions[j]
                and stream_events[j] == batch_events[j]
            )
        agreement = agreeing / total
        assert agreement >= 0.95, (
            f"streamed labels agree with batch on only {agreement:.1%} of records"
        )

    def test_streamed_record_counts_cover_sequence(self, service, short_sequences):
        sequence = short_sequences[0]
        session = service.session("coverage", window=16)
        finalized = stream_whole_sequence(session, sequence)
        assert sum(ms.record_count for ms in finalized) == len(sequence)
        for earlier, later in zip(finalized, finalized[1:]):
            assert earlier.end_time <= later.start_time


class TestStreamSessionMechanics:
    def test_finalization_lags_the_window(self, service, short_sequences):
        sequence = short_sequences[0]
        session = service.session("lag", window=16)
        for record in sequence:
            session.add(record)
            assert session.published_record_count <= max(
                0, session.record_count - 16 + session.guard
            )

    def test_windowed_session_decodes_bounded_tails(self, service, short_sequences):
        sequence = short_sequences[0]
        session = service.session("bounded", window=16)
        session.extend(sequence)
        assert session.decode_count == len(sequence)

    def test_windowed_session_memory_stays_bounded(self, service, short_sequences):
        sequence = short_sequences[0]
        session = service.session("compact", window=16)
        for record in sequence:
            session.add(record)
            # Retention = the decode window plus the still-unpublished runs.
            assert session.retained_record_count == (
                session.record_count - session.labels_start
            )
            assert session.labels_start == min(
                session.published_record_count,
                max(0, session.record_count - 16),
            )
        assert session.retained_record_count < len(sequence)
        # The streamed output is unaffected by compaction.
        finalized = session.finish()
        total_published = service.store.semantics_for("compact")
        assert sum(ms.record_count for ms in total_published) == len(sequence)
        assert finalized
        assert finalized == total_published[-len(finalized):]

    def test_keep_history_retains_everything(self, service, short_sequences):
        sequence = short_sequences[0]
        session = service.session("history", window=16, keep_history=True)
        session.extend(sequence)
        assert session.labels_start == 0
        assert session.retained_record_count == len(sequence)
        regions, events = session.labels
        assert len(regions) == len(events) == len(sequence)

    def test_finished_sessions_are_evicted(self, service, short_sequences):
        session = service.session("evicted")
        session.add(short_sequences[0][0])
        assert service._sessions.get("evicted") is session
        session.finish()
        assert "evicted" not in service._sessions
        assert service.live_sessions() == []

    def test_out_of_order_record_rejected(self, service, short_sequences):
        sequence = short_sequences[0]
        session = service.session("order")
        session.add(sequence[5])
        with pytest.raises(ValueError, match="time order"):
            session.add(sequence[0])

    def test_add_after_finish_rejected(self, service, short_sequences):
        sequence = short_sequences[0]
        session = service.session("closed")
        session.add(sequence[0])
        session.finish()
        with pytest.raises(ValueError, match="finished"):
            session.add(sequence[1])
        assert session.finish() == []

    def test_add_point_convenience(self, service, short_sequences):
        record = short_sequences[0][0]
        session = service.session("points")
        session.add_point(record.x, record.y, record.timestamp, floor=record.floor)
        assert session.record_count == 1
        assert session.sequence[0].location == record.location

    def test_duplicate_live_session_rejected(self, service):
        service.session("dup")
        with pytest.raises(ValueError, match="live session"):
            service.session("dup")

    def test_finished_session_can_be_replaced(self, service):
        service.session("replace").finish()
        replacement = service.session("replace")
        assert isinstance(replacement, StreamSession)

    def test_unfitted_annotator_rejected(self, small_space, fast_config):
        from repro.core import C2MNAnnotator

        unfitted = C2MNAnnotator(small_space, config=fast_config)
        with pytest.raises(ValueError, match="fitted"):
            AnnotationService(unfitted)

    def test_invalid_window_and_guard_rejected(self, service, fitted_annotator):
        with pytest.raises(ValueError, match="window"):
            AnnotationService(fitted_annotator, window=1)
        with pytest.raises(ValueError, match="guard"):
            service.session("bad-guard", window=8, guard=8)


class TestSemanticsStore:
    def test_publish_and_read(self, service, short_sequences):
        store = service.store
        for i, sequence in enumerate(short_sequences):
            session = service.session(f"obj-{i}")
            stream_whole_sequence(session, sequence)
        assert len(store) == len(short_sequences)
        assert store.total_semantics == sum(len(entries) for entries in store)
        assert sorted(store.objects()) == sorted(
            f"obj-{i}" for i in range(len(short_sequences))
        )
        assert store.semantics_for("missing") == []

    def test_iteration_matches_query_input_shape(self, service, short_sequences):
        session = service.session("iter")
        stream_whole_sequence(session, short_sequences[0])
        per_object = list(service.store)
        assert TkPRQ(3).evaluate(service.store) == TkPRQ(3).evaluate(per_object)
        assert TkFRPQ(3).evaluate(service.store) == TkFRPQ(3).evaluate(per_object)
        # Mappings work too (the store's dict snapshot).
        assert TkPRQ(3).evaluate(service.store.as_dict()) == TkPRQ(3).evaluate(
            per_object
        )

    def test_clear(self, service, short_sequences):
        session = service.session("clear-me")
        stream_whole_sequence(session, short_sequences[0])
        service.store.clear("clear-me")
        assert service.store.semantics_for("clear-me") == []
        service.store.clear()
        assert len(service.store) == 0

    def test_store_round_trip(self, service, short_sequences, tmp_path):
        session = service.session("persist")
        stream_whole_sequence(session, short_sequences[0])
        path = tmp_path / "store.json"
        service.store.save(path)
        reloaded = SemanticsStore.load(path)
        assert reloaded.as_dict() == service.store.as_dict()


class TestLiveQueries:
    def test_queries_see_in_flight_traffic(self, service, short_sequences):
        sequence = short_sequences[0]
        session = service.session("live", window=12)
        session.extend(sequence)
        # Session still open: whatever is already finalized is queryable.
        if session.published_record_count:
            assert service.store.total_semantics > 0
            top = service.popular_regions(3)
            assert all(count >= 1 for _, count in top)
        session.finish()
        assert service.popular_regions(3) == TkPRQ(3).evaluate(service.store)
        assert service.frequent_pairs(3) == TkFRPQ(3).evaluate(service.store)

    def test_analytics_over_store(self, service, small_split):
        _, test = small_split
        service.annotate_batch([labeled.sequence for labeled in test.sequences])
        stats = conversion_rates(service.store)
        assert stats, "batch-published semantics must produce analytics"


class _RecordingStore(SemanticsStore):
    """A store that remembers every ``entries`` list it was handed."""

    def __init__(self):
        super().__init__()
        self.published = []

    def publish(self, object_id, semantics):
        self.published.append(semantics)
        super().publish(object_id, semantics)


class TestAnnotateBatch:
    @pytest.mark.parametrize(
        "policy",
        [
            ExecutionPolicy.serial(),
            ExecutionPolicy.serial(batch=False),
            ExecutionPolicy.processes(2),
        ],
        ids=["serial-batched", "unbatched", "processes-2"],
    )
    def test_duplicates_publish_every_position_without_sharing(
        self, fitted_annotator, short_sequences, policy
    ):
        first, second = short_sequences[:2]
        batch = [first, second, first, second, first]
        store = _RecordingStore()
        service = AnnotationService(fitted_annotator, store=store)
        results = service.annotate_batch(batch, policy=policy)

        assert results == fitted_annotator.annotate_many(batch)
        # Every input position was published exactly once, as its own list.
        assert sorted(map(id, store.published)) == sorted(map(id, results))
        # Duplicates never share result lists or MSemantics objects.
        entries = [entry for result in results for entry in result]
        assert len({id(entry) for entry in entries}) == len(entries)


class TestServiceIndex:
    def test_enable_index_keeps_queries_identical(self, service, small_split):
        _, test = small_split
        service.annotate_batch([labeled.sequence for labeled in test.sequences])
        scan_regions = service.query_popular_regions(3)
        scan_pairs = service.query_frequent_pairs(3)
        assert service.index is None
        index = service.enable_index()
        assert service.index is index
        assert TkPRQ(3).explain(service.store).use_index
        assert service.query_popular_regions(3) == scan_regions
        assert service.query_frequent_pairs(3) == scan_pairs
        service.disable_index()
        assert service.index is None
        assert service.query_popular_regions(3) == scan_regions

    def test_streaming_publishes_into_the_index(
        self, service, short_sequences, fitted_annotator
    ):
        service.enable_index()
        session = service.session("indexed-stream")
        stream_whole_sequence(session, short_sequences[0])
        # Every published m-semantics must have reached the index.
        assert service.store.total_semantics > 0
        assert service.index.total_entries == service.store.total_semantics
        snapshot = list(service.store.as_dict().values())
        assert service.query_popular_regions(5) == TkPRQ(5).evaluate(snapshot)

    def test_indexed_flag_round_trips_through_save_load(
        self, service, small_space, tmp_path
    ):
        service.enable_index()
        path = tmp_path / "service.json"
        service.save(path)
        reloaded = AnnotationService.load(path, small_space)
        assert reloaded.index is not None

    def test_constructor_indexed_flag(self, fitted_annotator):
        indexed_service = AnnotationService(fitted_annotator, indexed=True)
        assert indexed_service.index is not None

    def test_batch_and_streaming_share_the_store(
        self, service, fitted_annotator, small_split
    ):
        _, test = small_split
        batch_sequence = test.sequences[0].sequence
        service.annotate_batch([batch_sequence])
        assert service.store.semantics_for(
            batch_sequence.object_id
        ) == fitted_annotator.annotate(batch_sequence)


class TestServicePersistence:
    def test_save_load_round_trip_decodes_identically(
        self, service, fitted_annotator, small_space, small_split, tmp_path
    ):
        _, test = small_split
        path = tmp_path / "service.json"
        service.save(path)
        reloaded = AnnotationService.load(path, small_space)
        assert reloaded.window == service.window
        assert reloaded.annotator.name == fitted_annotator.name
        assert reloaded.annotator.is_fitted
        for labeled in test.sequences:
            assert reloaded.annotator.predict_labels(
                labeled.sequence
            ) == fitted_annotator.predict_labels(labeled.sequence)

    def test_loaded_service_streams_identically(
        self, service, small_space, short_sequences, tmp_path
    ):
        sequence = short_sequences[0]
        path = tmp_path / "service.json"
        service.save(path)
        reloaded = AnnotationService.load(path, small_space)
        original = stream_whole_sequence(service.session("twin"), sequence)
        restored = stream_whole_sequence(reloaded.session("twin"), sequence)
        assert restored == original

    def test_load_rejects_foreign_files(self, small_space, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="annotation-service"):
            AnnotationService.load(path, small_space)

    def test_baseline_service_save_raises_clearly(
        self, small_space, small_split, fast_config, tmp_path
    ):
        """Baselines stream fine but carry no weights — saving must say so."""
        from repro.core import make_annotator

        train, _ = small_split
        smot = make_annotator("SMoT", small_space, config=fast_config)
        smot.fit(train.sequences)
        service = AnnotationService(smot)
        with pytest.raises(TypeError, match="refit"):
            service.save(tmp_path / "smot.json")
