"""The unified :class:`Annotator` contract every annotation method implements.

Two pieces live here:

* :class:`Annotator` — a runtime-checkable :class:`typing.Protocol` describing
  the surface shared by every compared method: ``fit`` / ``predict_labels`` /
  ``predict_labeled_sequence`` / ``annotate`` plus the ``*_many`` batch
  variants and the ``is_fitted`` / ``name`` introspection attributes.  The
  evaluation harness, the experiment runners, the streaming
  :class:`repro.service.AnnotationService` and the examples are all written
  against this protocol, so C2MN-family annotators and baselines are
  interchangeable everywhere.
* :class:`AnnotatorBase` — the shared implementation.  Concrete methods
  implement two hooks — :meth:`AnnotatorBase._fit` and
  :meth:`AnnotatorBase.predict_labels` — and inherit the label wrapping,
  label-and-merge and batch machinery (serial or process-parallel) that
  used to be duplicated between ``core/annotator.py`` and
  ``baselines/base.py``.

The protocol is structural: any object with the right attributes satisfies
``isinstance(obj, Annotator)`` whether or not it derives from
:class:`AnnotatorBase`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.config import C2MNConfig
from repro.core.merge import merge_record_labels
from repro.crf.batch import plan_batch
from repro.indoor.floorplan import IndoorSpace
from repro.runtime import ExecutionPolicy, Executor
from repro.mobility.records import LabeledSequence, MSemantics, PositioningSequence


@runtime_checkable
class Annotator(Protocol):
    """Structural contract of every annotation method (C2MN family and baselines).

    ``fit`` learns from labeled sequences; ``predict_labels`` returns
    record-level ``(regions, events)`` for one p-sequence; ``annotate`` merges
    the labels into m-semantics; the ``*_many`` variants batch over many
    sequences under an :class:`~repro.runtime.ExecutionPolicy`.
    ``is_fitted`` and ``name`` support introspection by harnesses and
    services.
    """

    name: str

    @property
    def is_fitted(self) -> bool: ...

    def fit(self, training_sequences: Sequence[LabeledSequence]): ...

    def predict_labels(
        self, sequence: PositioningSequence
    ) -> Tuple[List[int], List[str]]: ...

    def predict_labeled_sequence(
        self, sequence: PositioningSequence
    ) -> LabeledSequence: ...

    def annotate(
        self,
        sequence: PositioningSequence,
        *,
        region_grouping: Optional[Dict[int, int]] = None,
    ) -> List[MSemantics]: ...

    def predict_labels_many(
        self,
        sequences: Sequence[PositioningSequence],
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> List[Tuple[List[int], List[str]]]: ...

    def annotate_many(
        self,
        sequences: Sequence[PositioningSequence],
        *,
        policy: Optional[ExecutionPolicy] = None,
        region_grouping: Optional[Dict[int, int]] = None,
    ) -> List[List[MSemantics]]: ...


class AnnotatorBase(ABC):
    """Shared implementation of the :class:`Annotator` protocol.

    Subclasses implement :meth:`_fit` (may be empty for parameter-free
    methods) and :meth:`predict_labels`; everything else — label wrapping,
    label-and-merge, batch mapping under an execution policy, fitted-state
    bookkeeping — is provided here once.

    Annotators must be picklable for the ``*_many`` methods to run under a
    process policy (the annotator is broadcast to the worker pool).
    """

    def __init__(
        self,
        space: IndoorSpace,
        *,
        config: Optional[C2MNConfig] = None,
        name: str = "annotator",
    ):
        self._space = space
        self._config = config if config is not None else C2MNConfig()
        self._fitted = False
        self.name = name

    # ------------------------------------------------------------ properties
    @property
    def space(self) -> IndoorSpace:
        return self._space

    @property
    def config(self) -> C2MNConfig:
        return self._config

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    # --------------------------------------------------------------- training
    def fit(self, training_sequences: Sequence[LabeledSequence]):
        """Learn from labeled sequences.

        Returns whatever the subclass hook returns (e.g. a training report),
        or the annotator itself when the hook returns nothing.
        """
        result = self._fit(list(training_sequences))
        self._fitted = True
        return self if result is None else result

    def _fit(self, training_sequences: Sequence[LabeledSequence]):
        """Hook for subclasses; parameter-free methods can leave it empty."""

    # -------------------------------------------------------------- inference
    @abstractmethod
    def predict_labels(
        self, sequence: PositioningSequence
    ) -> Tuple[List[int], List[str]]:
        """Return per-record region ids and event labels for one p-sequence."""

    def predict_labeled_sequence(self, sequence: PositioningSequence) -> LabeledSequence:
        """Return the decoded labels wrapped in a :class:`LabeledSequence`."""
        regions, events = self.predict_labels(sequence)
        return LabeledSequence(
            sequence=sequence,
            region_labels=regions,
            event_labels=events,
            object_id=sequence.object_id,
        )

    def annotate(
        self,
        sequence: PositioningSequence,
        *,
        region_grouping: Optional[Dict[int, int]] = None,
    ) -> List[MSemantics]:
        """Label the sequence and merge the labels into m-semantics (Figure 2)."""
        regions, events = self.predict_labels(sequence)
        return merge_record_labels(
            sequence, regions, events, region_grouping=region_grouping
        )

    # ------------------------------------------------------------------ batch
    def _decode_bucket(
        self, sequences: Sequence[PositioningSequence]
    ) -> List[Tuple[List[int], List[str]]]:
        """Decode one bucket of *distinct* sequences; override to batch.

        The default is the per-sequence loop, which is trivially bitwise
        identical to serial decoding — baselines inherit it unchanged.
        :class:`repro.core.annotator.C2MNAnnotator` overrides it with the
        lockstep bucket decoder (:func:`repro.crf.batch.decode_icm_many`).
        """
        return [self.predict_labels(sequence) for sequence in sequences]

    def predict_labels_batch(
        self, sequences: Sequence[PositioningSequence]
    ) -> List[Tuple[List[int], List[str]]]:
        """Decode a batch in-process through the batch planner.

        The batch is coalesced and bucketed by
        :func:`repro.crf.batch.plan_batch`: sequences with identical
        content fingerprints decode **once**, and every duplicate receives
        its own copy of the labels (equal bytes in produce equal labels
        out, so coalescing is bitwise-exact by construction).
        """
        plan = plan_batch(sequences)
        return plan.scatter([self._decode_bucket(items) for items in plan.bucket_items()])

    def annotate_bucket(
        self,
        sequences: Sequence[PositioningSequence],
        *,
        region_grouping: Optional[Dict[int, int]] = None,
    ) -> List[List[MSemantics]]:
        """Annotate one bucket of distinct sequences: batched decode, then merging.

        The unit of work :meth:`annotate_many` and
        :meth:`repro.service.AnnotationService.annotate_batch` dispatch
        for each bucket of a :func:`repro.crf.batch.plan_batch` plan.
        """
        sequences = list(sequences)
        labels = self._decode_bucket(sequences)
        return [
            merge_record_labels(
                sequence, regions, events, region_grouping=region_grouping
            )
            for sequence, (regions, events) in zip(sequences, labels)
        ]

    def _map_buckets(
        self,
        method: str,
        fallback_method: str,
        sequences: Sequence[PositioningSequence],
        policy: Optional[ExecutionPolicy],
        **kwargs,
    ) -> List:
        """Fan a batch out according to ``policy`` and gather in input order.

        With ``policy.batch`` the batch is planned once by
        :func:`repro.crf.batch.plan_batch` — coalesced by content, then
        grouped into length buckets — and each bucket of distinct
        sequences dispatches as one ``method`` call; coalesced duplicates
        receive deep copies of their representative's result.  Without
        ``policy.batch``, ``fallback_method`` runs per sequence (the
        pre-batching layout).
        """
        executor = Executor(policy)
        policy = executor.policy
        if not policy.batch:
            return executor.map_broadcast(self, fallback_method, sequences, **kwargs)
        plan = plan_batch(sequences, policy)
        return plan.scatter(
            executor.map_broadcast(self, method, plan.bucket_items(), **kwargs)
        )

    def predict_labels_many(
        self,
        sequences: Sequence[PositioningSequence],
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> List[Tuple[List[int], List[str]]]:
        """Decode a collection of p-sequences under an execution policy.

        ``policy`` selects the backend (``"serial"`` or ``"process"``), the
        worker fan-out, and length-bucketed batching with duplicate
        coalescing; the default policy batches serially.  The process
        backend shards buckets across a persistent worker pool and
        broadcasts this annotator through shared memory — the only way
        GIL-bound decoding scales with cores.  Results are returned in
        input order regardless of completion order and are bitwise
        identical across backends and batching modes.
        """
        return self._map_buckets("_decode_bucket", "predict_labels", sequences, policy)

    def annotate_many(
        self,
        sequences: Sequence[PositioningSequence],
        *,
        policy: Optional[ExecutionPolicy] = None,
        region_grouping: Optional[Dict[int, int]] = None,
    ) -> List[List[MSemantics]]:
        """Annotate a collection of p-sequences under an execution policy.

        Same execution model and ordering guarantee as
        :meth:`predict_labels_many`; merging always runs per sequence, so
        result objects are never shared between batch members.
        """
        return self._map_buckets(
            "annotate_bucket",
            "annotate",
            sequences,
            policy,
            region_grouping=region_grouping,
        )
