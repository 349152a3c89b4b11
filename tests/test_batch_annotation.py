"""Batch/parallel annotation: ``annotate_many`` policies and the harness pool.

Parallel labeling must be a pure throughput knob: same results, same order
as the serial path, for any worker count.
"""

import pytest

from repro.core import C2MNAnnotator
from repro.evaluation.harness import MethodEvaluator
from repro.runtime import ExecutionPolicy

PARALLEL = ExecutionPolicy.processes(2)


@pytest.fixture(scope="module")
def test_sequences(small_split):
    _, test = small_split
    return [labeled.sequence for labeled in test.sequences]


class TestPredictLabelsMany:
    def test_matches_serial_predictions(self, fitted_annotator, test_sequences):
        serial = [fitted_annotator.predict_labels(s) for s in test_sequences]
        assert fitted_annotator.predict_labels_many(test_sequences) == serial
        assert (
            fitted_annotator.predict_labels_many(test_sequences, policy=PARALLEL)
            == serial
        )

    def test_order_preserved_under_parallelism(self, fitted_annotator, test_sequences):
        # Length is a per-sequence fingerprint: result k must belong to input k.
        results = fitted_annotator.predict_labels_many(test_sequences, policy=PARALLEL)
        for sequence, (regions, events) in zip(test_sequences, results):
            assert len(regions) == len(sequence)
            assert len(events) == len(sequence)

    def test_empty_batch(self, fitted_annotator):
        assert fitted_annotator.predict_labels_many([]) == []
        assert fitted_annotator.predict_labels_many([], policy=PARALLEL) == []


class TestAnnotateMany:
    def test_matches_serial_annotation(self, fitted_annotator, test_sequences):
        serial = [fitted_annotator.annotate(s) for s in test_sequences]
        assert fitted_annotator.annotate_many(test_sequences) == serial
        assert fitted_annotator.annotate_many(test_sequences, policy=PARALLEL) == serial


class TestEvaluatorWorkers:
    def test_parallel_evaluation_matches_serial(self, fitted_annotator, small_split):
        train, test = small_split
        serial = MethodEvaluator(keep_predictions=True).evaluate(
            fitted_annotator, train.sequences, test.sequences, fit=False
        )
        parallel = MethodEvaluator(keep_predictions=True, policy=PARALLEL).evaluate(
            fitted_annotator, train.sequences, test.sequences, fit=False
        )
        assert parallel.scores == serial.scores
        for serial_pred, parallel_pred in zip(serial.predictions, parallel.predictions):
            assert serial_pred.region_labels == parallel_pred.region_labels
            assert serial_pred.event_labels == parallel_pred.event_labels


class TestEngineSwitch:
    def test_annotator_engines_decode_identically(self, small_space, small_split, fast_config):
        train, test = small_split
        reference = C2MNAnnotator(
            small_space, config=fast_config.with_engine("reference")
        )
        vectorized = C2MNAnnotator(
            small_space, config=fast_config.with_engine("vectorized")
        )
        reference.fit(train.sequences[:2])
        vectorized.fit(train.sequences[:2])
        for labeled in test.sequences[:3]:
            assert reference.predict_labels(labeled.sequence) == (
                vectorized.predict_labels(labeled.sequence)
            )

    def test_unknown_engine_rejected_by_config(self, fast_config):
        with pytest.raises(ValueError, match="engine"):
            fast_config.with_engine("turbo")
