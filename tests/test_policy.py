"""Unit tests of the unified :class:`repro.runtime.ExecutionPolicy`.

Covers construction/validation, the convenience constructors, the
load-balancing bucket cap, persistence (``to_dict``/``from_dict`` and
the service save/load round trip, which fails loudly on retired
backends), and that the retired ``workers=``/``backend=`` keywords fail
loudly on every batch surface.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.evaluation import experiments
from repro.evaluation.harness import MethodEvaluator
from repro.runtime import DEFAULT_BUCKET_SIZE, ExecutionPolicy, Executor
from repro.runtime.executor import _SHARDS_PER_WORKER
from repro.service import AnnotationService


# --------------------------------------------------------------------------
# Construction and validation
# --------------------------------------------------------------------------
class TestConstruction:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.backend == "serial"
        assert policy.workers is None
        assert policy.batch is True

    def test_exactly_three_fields(self):
        assert [f.name for f in fields(ExecutionPolicy)] == [
            "backend",
            "workers",
            "batch",
        ]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().backend = "process"

    def test_hashable_and_comparable(self):
        assert ExecutionPolicy() == ExecutionPolicy()
        assert len({ExecutionPolicy(), ExecutionPolicy()}) == 1
        assert ExecutionPolicy() != ExecutionPolicy(backend="process")

    @pytest.mark.parametrize("backend", ["gpu", "thread"])
    def test_rejects_unknown_backend(self, backend):
        with pytest.raises(ValueError):
            ExecutionPolicy(backend=backend)

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_non_positive_workers(self, bad):
        with pytest.raises(ValueError):
            ExecutionPolicy(workers=bad)

    @pytest.mark.parametrize("bad", [1, 0, "yes", None])
    def test_rejects_non_bool_batch(self, bad):
        with pytest.raises(TypeError):
            ExecutionPolicy(batch=bad)

    @pytest.mark.parametrize(
        "field, value", [("bucket_size", 8), ("reuse_pool", False), ("threads", 2)]
    )
    def test_retired_fields_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            ExecutionPolicy(**{field: value})

    def test_thread_constructor_is_gone(self):
        assert not hasattr(ExecutionPolicy, "threads")

    def test_serial_constructor(self):
        policy = ExecutionPolicy.serial()
        assert policy.backend == "serial"
        assert policy.effective_workers == 1

    def test_processes_constructor(self):
        assert ExecutionPolicy.processes(2) == ExecutionPolicy(
            backend="process", workers=2
        )

    def test_constructor_overrides_forward(self):
        assert ExecutionPolicy.serial(batch=False).batch is False

    def test_with_replaces_and_revalidates(self):
        policy = ExecutionPolicy().with_(backend="process", workers=2)
        assert policy == ExecutionPolicy(backend="process", workers=2)
        with pytest.raises(ValueError):
            ExecutionPolicy().with_(workers=0)


# --------------------------------------------------------------------------
# The load-balancing bucket cap
# --------------------------------------------------------------------------
class TestEffectiveBucketSize:
    def test_serial_uses_the_default_size(self):
        policy = ExecutionPolicy(workers=4)
        assert policy.effective_bucket_size(1000) == DEFAULT_BUCKET_SIZE

    def test_single_worker_uses_the_default_size(self):
        policy = ExecutionPolicy(backend="process", workers=1)
        assert policy.effective_bucket_size(1000) == DEFAULT_BUCKET_SIZE

    def test_parallel_shrinks_for_load_balance(self):
        # 24 items over 4 workers x 4 shards -> at most 2 items per bucket.
        assert ExecutionPolicy.processes(4).effective_bucket_size(24) == 2

    def test_default_size_stays_the_upper_bound(self):
        policy = ExecutionPolicy.processes(2)
        assert policy.effective_bucket_size(10_000) == DEFAULT_BUCKET_SIZE

    def test_never_below_one(self):
        assert ExecutionPolicy.processes(8).effective_bucket_size(2) == 1

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    @pytest.mark.parametrize("n_items", [2, 5, 24, 1000])
    def test_smallest_cap_that_feeds_every_shard(self, workers, n_items):
        """The cap is the smallest size that spreads the batch over every
        worker's shards, clamped to ``[1, DEFAULT_BUCKET_SIZE]``."""
        size = ExecutionPolicy.processes(workers).effective_bucket_size(n_items)
        assert 1 <= size <= DEFAULT_BUCKET_SIZE
        shards = workers * _SHARDS_PER_WORKER
        if size < DEFAULT_BUCKET_SIZE:
            assert size * shards >= n_items
        if size > 1:
            assert (size - 1) * shards < n_items


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------
class TestPersistence:
    def test_round_trip(self):
        policy = ExecutionPolicy.processes(3, batch=False)
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    @pytest.mark.parametrize(
        "field, value", [("bucket_size", 8), ("reuse_pool", False), ("threads", 2)]
    )
    def test_from_dict_ignores_retired_fields(self, field, value):
        payload = ExecutionPolicy.serial().to_dict()
        payload[field] = value
        assert ExecutionPolicy.from_dict(payload) == ExecutionPolicy.serial()

    def test_from_dict_defaults_missing_keys(self):
        assert ExecutionPolicy.from_dict({}) == ExecutionPolicy()
        assert ExecutionPolicy.from_dict({"backend": "process"}).backend == "process"

    def test_service_save_load_round_trips_policy(
        self, fitted_annotator, tmp_path
    ):
        policy = ExecutionPolicy.processes(2, batch=False)
        service = AnnotationService(fitted_annotator, policy=policy)
        path = tmp_path / "service.json"
        service.save(path)
        assert "backend" not in json.loads(path.read_text())
        reloaded = AnnotationService.load(path, fitted_annotator.space)
        assert reloaded.policy == policy

    def _saved_payload(self, fitted_annotator, tmp_path):
        path = tmp_path / "service.json"
        AnnotationService(fitted_annotator).save(path)
        return path, json.loads(path.read_text())

    def test_service_load_rejects_removed_backend(self, fitted_annotator, tmp_path):
        path, payload = self._saved_payload(fitted_annotator, tmp_path)
        payload["policy"]["backend"] = "thread"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'serial', 'process'"):
            AnnotationService.load(path, fitted_annotator.space)

    def test_service_load_rejects_pre_policy_file(self, fitted_annotator, tmp_path):
        path, payload = self._saved_payload(fitted_annotator, tmp_path)
        del payload["policy"]
        payload["backend"] = "serial"  # the pre-policy spelling
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="policy"):
            AnnotationService.load(path, fitted_annotator.space)


# --------------------------------------------------------------------------
# The retired workers=/backend= keywords are gone from every batch surface
# --------------------------------------------------------------------------
_RUNNERS = [
    experiments.run_accuracy_comparison,
    experiments.run_training_fraction_sweep,
    experiments.run_mcmc_sweep,
    experiments.run_query_precision,
    experiments.run_sparsity_sweep,
    experiments.run_error_sweep,
]
_LEGACY = {"workers": 2, "backend": "process"}


class TestRemovedKeywords:
    @pytest.mark.parametrize("keyword", sorted(_LEGACY))
    @pytest.mark.parametrize("runner", _RUNNERS, ids=lambda runner: runner.__name__)
    def test_experiment_runners_reject_legacy_keywords(self, runner, keyword):
        with pytest.raises(TypeError, match=keyword):
            runner(**{keyword: _LEGACY[keyword]})

    @pytest.mark.parametrize("keyword", sorted(_LEGACY))
    def test_method_evaluator_rejects_legacy_keywords(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            MethodEvaluator(**{keyword: _LEGACY[keyword]})

    @pytest.mark.parametrize("keyword", sorted(_LEGACY))
    def test_service_rejects_legacy_keywords(self, fitted_annotator, keyword):
        with pytest.raises(TypeError, match=keyword):
            AnnotationService(fitted_annotator, **{keyword: _LEGACY[keyword]})
        service = AnnotationService(fitted_annotator)
        with pytest.raises(TypeError, match=keyword):
            service.annotate_batch([], **{keyword: _LEGACY[keyword]})

    def test_executor_takes_only_a_policy(self):
        with pytest.raises(TypeError):
            Executor("process", 2)
        with pytest.raises(TypeError):
            Executor(backend="process", workers=2)

    @pytest.mark.parametrize(
        "bad", ["process", 2, {"backend": "serial"}], ids=["str", "int", "dict"]
    )
    def test_executor_rejects_non_policy(self, bad):
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            Executor(bad)

    def test_service_batch_rejects_non_policy(self, fitted_annotator):
        service = AnnotationService(fitted_annotator)
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            service.annotate_batch([], policy="process")
