"""Conformance suite for the unified :class:`repro.core.protocol.Annotator`.

Every compared method — the full C2MN, each structural variant and each
baseline — is run through the same parametrized checks: structural protocol
membership, fitted-state bookkeeping, label shapes, annotate/merge
consistency and the ``*_many`` batch contract (input order preserved,
every execution policy produces identical results).

Training here uses a deliberately tiny configuration: conformance is about
the API contract, not annotation quality.
"""

from __future__ import annotations

import pytest

from repro.core import Annotator, AnnotatorBase, C2MNConfig, make_annotator
from repro.core.variants import VARIANT_NAMES
from repro.mobility.records import EVENTS, MSemantics
from repro.runtime import ExecutionPolicy

UNBATCHED = ExecutionPolicy.serial(batch=False)

BASELINE_NAMES = ("SMoT", "HMM+DC", "SAPDV", "SAPDA")
ALL_METHOD_NAMES = VARIANT_NAMES + ("C2MN@R",) + BASELINE_NAMES


@pytest.fixture(scope="module")
def tiny_config():
    """Smallest legal learning configuration — conformance only needs the API."""
    return C2MNConfig.fast(
        max_iterations=1, mcmc_samples=2, lbfgs_iterations=1, icm_sweeps=2
    )


@pytest.fixture(scope="module", params=ALL_METHOD_NAMES)
def fitted_method(request, small_space, small_split, tiny_config):
    """Each compared method, constructed by name and fitted on two sequences."""
    train, _ = small_split
    method = make_annotator(request.param, small_space, config=tiny_config)
    method.fit(train.sequences[:2])
    return method


class TestProtocolMembership:
    def test_every_method_satisfies_protocol(self, fitted_method):
        assert isinstance(fitted_method, Annotator)

    def test_every_method_derives_from_base(self, fitted_method):
        assert isinstance(fitted_method, AnnotatorBase)

    def test_name_matches_construction(self, small_space, tiny_config):
        for name in ALL_METHOD_NAMES:
            method = make_annotator(name, small_space, config=tiny_config)
            assert method.name == name

    def test_unfitted_method_reports_unfitted(self, small_space, tiny_config):
        method = make_annotator("SMoT", small_space, config=tiny_config)
        assert not method.is_fitted

    def test_duck_typed_object_satisfies_protocol(self):
        class Structural:
            name = "structural"

            @property
            def is_fitted(self):
                return True

            def fit(self, training_sequences):
                return self

            def predict_labels(self, sequence):
                return [], []

            def predict_labeled_sequence(self, sequence):
                raise NotImplementedError

            def annotate(self, sequence, *, region_grouping=None):
                return []

            def predict_labels_many(self, sequences, *, policy=None):
                return []

            def annotate_many(self, sequences, *, policy=None, region_grouping=None):
                return []

        assert isinstance(Structural(), Annotator)

    def test_incomplete_object_fails_protocol(self):
        class Incomplete:
            name = "incomplete"

        assert not isinstance(Incomplete(), Annotator)


class TestFittedState:
    def test_is_fitted_after_fit(self, fitted_method):
        assert fitted_method.is_fitted


class TestLabeling:
    def test_predict_labels_shapes(self, fitted_method, small_split):
        _, test = small_split
        sequence = test.sequences[0].sequence
        regions, events = fitted_method.predict_labels(sequence)
        assert len(regions) == len(sequence)
        assert len(events) == len(sequence)
        assert all(isinstance(region, int) for region in regions)
        assert all(event in EVENTS for event in events)

    def test_predict_labeled_sequence_wraps(self, fitted_method, small_split):
        _, test = small_split
        sequence = test.sequences[0].sequence
        labeled = fitted_method.predict_labeled_sequence(sequence)
        assert labeled.sequence is sequence
        assert labeled.object_id == sequence.object_id
        assert (labeled.region_labels, labeled.event_labels) == (
            fitted_method.predict_labels(sequence)
        )

    def test_annotate_merges_labels(self, fitted_method, small_split):
        _, test = small_split
        sequence = test.sequences[0].sequence
        semantics = fitted_method.annotate(sequence)
        assert semantics, "annotation must produce at least one m-semantics"
        assert all(isinstance(ms, MSemantics) for ms in semantics)
        assert sum(ms.record_count for ms in semantics) == len(sequence)
        for earlier, later in zip(semantics, semantics[1:]):
            assert earlier.end_time <= later.start_time


class TestBatchContract:
    def test_many_match_serial_and_keep_order(self, fitted_method, small_split):
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        serial = [fitted_method.predict_labels(sequence) for sequence in sequences]
        assert fitted_method.predict_labels_many(sequences) == serial
        assert fitted_method.predict_labels_many(sequences, policy=UNBATCHED) == serial

    def test_annotate_many_match_serial(self, fitted_method, small_split):
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        serial = [fitted_method.annotate(sequence) for sequence in sequences]
        assert fitted_method.annotate_many(sequences) == serial
        assert fitted_method.annotate_many(sequences, policy=UNBATCHED) == serial

    def test_empty_batch(self, fitted_method):
        assert fitted_method.predict_labels_many([]) == []
        assert fitted_method.annotate_many([]) == []

    @pytest.mark.parametrize("keyword", ["workers", "backend"])
    def test_removed_keywords_rejected(self, fitted_method, small_split, keyword):
        """The retired ``workers=``/``backend=`` spellings fail loudly,
        whatever the batch size, instead of being silently converted."""
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        value = {"workers": 2, "backend": "process"}[keyword]
        for batch in (sequences, sequences[:1], []):
            with pytest.raises(TypeError, match=keyword):
                fitted_method.predict_labels_many(batch, **{keyword: value})
            with pytest.raises(TypeError, match=keyword):
                fitted_method.annotate_many(batch, **{keyword: value})

    def test_non_policy_rejected(self, fitted_method, small_split):
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        for batch in (sequences, []):
            with pytest.raises(TypeError, match="ExecutionPolicy"):
                fitted_method.predict_labels_many(batch, policy="process")
            with pytest.raises(TypeError, match="ExecutionPolicy"):
                fitted_method.annotate_many(batch, policy={"workers": 2})

    @pytest.mark.parametrize(
        "policy",
        [ExecutionPolicy.serial(), ExecutionPolicy.processes(2)],
        ids=["serial", "processes-2"],
    )
    def test_duplicated_batch_matches_serial(self, fitted_method, small_split, policy):
        """Coalesced duplicates get the serial result at every position,
        each as its own object."""
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        batch = sequences + sequences[::-1] + sequences[:1]
        labels = fitted_method.predict_labels_many(batch, policy=policy)
        assert labels == [fitted_method.predict_labels(sequence) for sequence in batch]
        semantics = fitted_method.annotate_many(batch, policy=policy)
        assert semantics == [fitted_method.annotate(sequence) for sequence in batch]
        entries = [entry for result in semantics for entry in result]
        assert len({id(entry) for entry in entries}) == len(entries)
        assert len({id(regions) for regions, _ in labels}) == len(batch)


class TestProcessBackendDeterminism:
    """Sharded process decoding must be bitwise-identical to the serial path.

    Runs over the same parametrized ``fitted_method`` fixture as the rest of
    the conformance suite, so C2MN, every structural variant and every
    baseline is checked at several worker counts.
    """

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_predict_labels_many_process_matches_serial(
        self, fitted_method, small_split, workers
    ):
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        serial = fitted_method.predict_labels_many(sequences, policy=ExecutionPolicy.serial())
        sharded = fitted_method.predict_labels_many(
            sequences, policy=ExecutionPolicy.processes(workers)
        )
        assert sharded == serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_annotate_many_process_matches_serial(
        self, fitted_method, small_split, workers
    ):
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        serial = fitted_method.annotate_many(sequences, policy=ExecutionPolicy.serial())
        sharded = fitted_method.annotate_many(
            sequences, policy=ExecutionPolicy.processes(workers)
        )
        assert sharded == serial

    def test_annotate_many_process_with_region_grouping(
        self, fitted_method, small_split, small_space
    ):
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        grouping = {region_id: region_id for region_id in small_space.region_ids}
        serial = fitted_method.annotate_many(
            sequences, policy=ExecutionPolicy.serial(), region_grouping=grouping
        )
        sharded = fitted_method.annotate_many(
            sequences, policy=ExecutionPolicy.processes(2), region_grouping=grouping
        )
        assert sharded == serial

    def test_unbatched_process_matches_serial(self, fitted_method, small_split):
        """The per-sequence fallback layout, sharded across processes."""
        _, test = small_split
        sequences = [labeled.sequence for labeled in test.sequences]
        serial = [fitted_method.predict_labels(sequence) for sequence in sequences]
        policy = ExecutionPolicy.processes(2, batch=False)
        assert fitted_method.predict_labels_many(sequences, policy=policy) == serial
