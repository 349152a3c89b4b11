"""Train-and-evaluate harness for one annotation method on one data split.

:class:`MethodEvaluator` hides the mechanics shared by every experiment:
fit the method on the training sequences, label every test sequence, score
the labels (RA/EA/CA/PA), optionally merge into m-semantics for the query
experiments, and record wall-clock timings.

Methods are consumed through the :class:`repro.core.protocol.Annotator`
protocol, so every C2MN variant and every baseline is handled identically.
The test sequences are labeled through the method's own
``predict_labels_many`` under the evaluator's
:class:`~repro.runtime.ExecutionPolicy` (predictions keep input order):
a process policy shards length buckets across the persistent worker pool,
which is what scales the GIL-bound figure/table reproductions with cores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.merge import merge_labeled_sequence
from repro.core.protocol import Annotator
from repro.evaluation.metrics import AccuracyScores, score_sequences
from repro.mobility.records import LabeledSequence, MSemantics
from repro.runtime import ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios import Scenario


@dataclass
class EvaluationResult:
    """Everything measured for one method on one train/test split."""

    method: str
    scores: AccuracyScores
    training_seconds: float
    labeling_seconds: float
    predictions: List[LabeledSequence] = field(default_factory=list)
    semantics: List[List[MSemantics]] = field(default_factory=list)

    def row(self) -> Dict[str, float]:
        """A flat dict row for table reporting."""
        return {
            "method": self.method,
            "RA": self.scores.region_accuracy,
            "EA": self.scores.event_accuracy,
            "CA": self.scores.combined_accuracy,
            "PA": self.scores.perfect_accuracy,
            "train_s": self.training_seconds,
            "label_s": self.labeling_seconds,
        }


class MethodEvaluator:
    """Runs one method over a train/test split of labeled sequences."""

    def __init__(
        self,
        *,
        tradeoff: float = 0.7,
        keep_predictions: bool = True,
        policy: Optional[ExecutionPolicy] = None,
    ):
        self.tradeoff = tradeoff
        self.keep_predictions = keep_predictions
        self.policy = policy if policy is not None else ExecutionPolicy()

    def evaluate(
        self,
        method: Annotator,
        train_sequences: Sequence[LabeledSequence],
        test_sequences: Sequence[LabeledSequence],
        *,
        fit: bool = True,
    ) -> EvaluationResult:
        """Fit ``method`` (any :class:`Annotator`) and score it."""
        method_name = getattr(method, "name", method.__class__.__name__)

        training_seconds = 0.0
        if fit:
            start = time.perf_counter()
            method.fit(list(train_sequences))
            training_seconds = time.perf_counter() - start

        predictions: List[LabeledSequence] = []
        semantics: List[List[MSemantics]] = []
        start = time.perf_counter()
        label_pairs = method.predict_labels_many(
            [truth.sequence for truth in test_sequences],
            policy=self.policy,
        )
        for truth, (regions, events) in zip(test_sequences, label_pairs):
            predicted = LabeledSequence(
                sequence=truth.sequence,
                region_labels=regions,
                event_labels=events,
                object_id=truth.object_id,
            )
            predictions.append(predicted)
            semantics.append(merge_labeled_sequence(predicted))
        labeling_seconds = time.perf_counter() - start

        scores = score_sequences(predictions, test_sequences, tradeoff=self.tradeoff)
        return EvaluationResult(
            method=method_name,
            scores=scores,
            training_seconds=training_seconds,
            labeling_seconds=labeling_seconds,
            predictions=predictions if self.keep_predictions else [],
            semantics=semantics if self.keep_predictions else [],
        )

    def evaluate_many(
        self,
        methods: Sequence[Annotator],
        train_sequences: Sequence[LabeledSequence],
        test_sequences: Sequence[LabeledSequence],
    ) -> List[EvaluationResult]:
        """Evaluate several methods on the same split."""
        return [
            self.evaluate(method, train_sequences, test_sequences)
            for method in methods
        ]

    def evaluate_scenario(
        self,
        method: Annotator,
        scenario: Union[str, Scenario],
        *,
        seed: Optional[int] = None,
        train_fraction: float = 0.7,
        split_seed: int = 17,
        fit: bool = True,
    ) -> EvaluationResult:
        """Evaluate ``method`` on a scenario, by name or already materialised.

        A ``str`` is materialised here (``seed`` overrides the spec default);
        passing the ``Scenario`` you already materialised to build the method
        avoids simulating the workload twice.  Either way the dataset is
        split with ``train_fraction``/``split_seed`` and run through the
        usual fit-and-score path.  The method must have been built over a
        venue equal to the scenario's — typically via
        ``make_annotator(name, scenario.space)``.
        """
        from repro.mobility.dataset import train_test_split
        from repro.scenarios import materialize

        if isinstance(scenario, str):
            scenario = materialize(scenario, seed)
        elif seed is not None and seed != scenario.seed:
            raise ValueError(
                f"seed={seed} conflicts with the already-materialised "
                f"scenario {scenario.name!r} (seed {scenario.seed}); "
                "pass the name to re-materialise"
            )
        dataset = scenario.dataset
        train, test = train_test_split(
            dataset, train_fraction=train_fraction, seed=split_seed
        )
        return self.evaluate(method, train.sequences, test.sequences, fit=fit)


def ground_truth_semantics(
    sequences: Sequence[LabeledSequence],
) -> List[List[MSemantics]]:
    """Merge the ground-truth labels into m-semantics (query ground truth)."""
    return [merge_labeled_sequence(sequence) for sequence in sequences]
