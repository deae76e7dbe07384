"""Edge-case tests for the fault plans (repro.cloud.failures)."""

import pytest

from repro.classiccloud import ClassicCloudConfig, ClassicCloudFramework
from repro.cloud.failures import FaultPlan, TaskFaults, WorkerCrash
from repro.core.application import get_application
from repro.sim.rng import RngRegistry
from repro.workloads.genome import cap3_task_specs


def small_config(**kwargs):
    defaults = dict(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        seed=7,
        fault_plan=FaultPlan.none(),
        consistency_window_s=0.0,
    )
    defaults.update(kwargs)
    return ClassicCloudConfig(**defaults)


class TestPlanContracts:
    def test_bare_constructor_is_fault_free(self):
        plan = FaultPlan()
        assert plan.worker_crashes == []
        assert plan.queue_miss_probability == 0.0
        assert plan.message_duplicate_probability == 0.0
        assert plan.storage_error_rate == 0.0
        assert plan.straggler_probability == 0.0
        assert plan.poison_task_ids == frozenset()

    def test_none_is_an_alias_for_the_bare_constructor(self):
        assert FaultPlan.none() == FaultPlan()

    def test_paper_default_differs_only_in_queue_miss(self):
        assert FaultPlan.paper_default() == FaultPlan(
            queue_miss_probability=0.02
        )
        assert FaultPlan.paper_default() != FaultPlan.none()

    def test_crashes_for_filters_and_sorts(self):
        plan = FaultPlan(
            worker_crashes=[
                WorkerCrash(worker_index=1, at_time=50.0),
                WorkerCrash(worker_index=0, at_time=20.0),
                WorkerCrash(worker_index=1, at_time=10.0),
            ]
        )
        assert [c.at_time for c in plan.crashes_for(1)] == [10.0, 50.0]
        assert [c.at_time for c in plan.crashes_for(0)] == [20.0]
        assert plan.crashes_for(5) == []

    @pytest.mark.parametrize(
        "field",
        [
            "message_duplicate_probability",
            "queue_miss_probability",
            "storage_error_rate",
            "straggler_probability",
        ],
    )
    @pytest.mark.parametrize("value", [-0.5, 1.5])
    def test_probabilities_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: value})

    def test_probability_bounds_are_inclusive(self):
        FaultPlan(storage_error_rate=0.0, straggler_probability=1.0)

    def test_straggler_slowdown_below_one_rejected(self):
        with pytest.raises(ValueError, match="straggler_slowdown"):
            FaultPlan(straggler_slowdown=-1.0)
        with pytest.raises(ValueError, match="straggler_slowdown"):
            FaultPlan(straggler_slowdown=0.5)
        assert FaultPlan(straggler_slowdown=1.0).straggler_slowdown == 1.0

    def test_negative_poison_restart_rejected(self):
        with pytest.raises(ValueError, match="poison_restart_s"):
            FaultPlan(poison_restart_s=-3.0)
        assert FaultPlan(poison_restart_s=0.0).poison_restart_s == 0.0

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(worker_index=-1, at_time=5.0), "worker_index"),
            (dict(worker_index=0, at_time=-5.0), "at_time"),
            (
                dict(worker_index=0, at_time=5.0, restart_after=-1.0),
                "restart_after",
            ),
        ],
    )
    def test_negative_crash_fields_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            WorkerCrash(**kwargs)

    def test_empty_plan_crashes_for_any_worker(self):
        assert FaultPlan.none().crashes_for(0) == []


class TestTaskFaults:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(straggler_probability=-0.1), "straggler_probability"),
            (dict(straggler_probability=1.5), "straggler_probability"),
            (dict(straggler_slowdown=0.5), "straggler_slowdown"),
            (dict(straggler_slowdown=float("nan")), "straggler_slowdown"),
            (dict(failure_probability=-0.1), "failure_probability"),
            (dict(failure_probability=1.0), "failure_probability"),
        ],
    )
    def test_out_of_range_fields_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TaskFaults(**kwargs)

    def test_bounds(self):
        TaskFaults(straggler_probability=1.0, straggler_slowdown=1.0)
        TaskFaults(failure_probability=0.999)

    def test_fault_free_draw_is_noise_only(self):
        rng = RngRegistry(3)
        draw = TaskFaults().drawer(rng, "w", "jitter")
        service, fail_at = draw(10.0)
        expected = 10.0 * float(
            RngRegistry(3).stream("w-jitter").uniform(0.98, 1.02)
        )
        assert (service, fail_at) == (expected, None)
        # A zero probability draws nothing and creates no stream.
        assert "w-fail" not in rng._streams
        fresh = RngRegistry(3).stream("w-straggle").bit_generator.state
        assert rng.stream("w-straggle").bit_generator.state == fresh

    def test_draws_follow_each_stream_in_order(self):
        faults = TaskFaults(0.5, 4.0, 0.5)
        draw = faults.drawer(RngRegistry(9), "slot")
        ref = RngRegistry(9)
        straggle, noise, fail = (
            ref.stream(f"slot-{s}") for s in ("straggle", "noise", "fail")
        )
        for _ in range(50):
            service = 2.0
            if straggle.random() < 0.5:
                service *= 4.0
            service *= float(noise.uniform(0.98, 1.02))
            fail_at = None
            if fail.random() < 0.5:
                fail_at = service * float(fail.uniform(0.1, 0.9))
            assert draw(2.0) == (service, fail_at)

    def test_backup_consumes_its_straggle_draw_but_never_straggles(self):
        faults = TaskFaults(straggler_probability=1.0, straggler_slowdown=9.0)
        draw = faults.drawer(RngRegistry(1), "slot")
        backup, _ = draw(1.0, backup=True)
        primary, _ = draw(1.0)
        assert 0.98 <= backup <= 1.02
        assert 9.0 * 0.98 <= primary <= 9.0 * 1.02
        replay = faults.drawer(RngRegistry(1), "slot")
        replay(1.0)  # the straggle stream advanced once for the backup
        assert replay(1.0) == (primary, None)

    def test_plan_builds_stragglers_without_failures(self):
        plan = FaultPlan(straggler_probability=0.3, straggler_slowdown=8.0)
        assert plan.task_faults == TaskFaults(0.3, 8.0, 0.0)


class TestEdgeCaseRuns:
    def test_crash_at_time_zero_still_completes(self):
        tasks = cap3_task_specs(16, reads_per_file=200)
        config = small_config(
            fault_plan=FaultPlan(
                worker_crashes=[WorkerCrash(worker_index=0, at_time=0.0)]
            )
        )
        result = ClassicCloudFramework(config).run(
            get_application("cap3"), tasks
        )
        assert result.completed_task_ids == {t.task_id for t in tasks}

    def test_crash_beyond_run_end_never_fires(self):
        tasks = cap3_task_specs(16, reads_per_file=200)
        quiet = ClassicCloudFramework(small_config()).run(
            get_application("cap3"), tasks
        )
        late = ClassicCloudFramework(
            small_config(
                fault_plan=FaultPlan(
                    worker_crashes=[
                        WorkerCrash(worker_index=0, at_time=1e9)
                    ]
                )
            )
        ).run(get_application("cap3"), tasks)
        assert late.completed_task_ids == {t.task_id for t in tasks}
        # The pending crash never perturbs the run.
        assert late.makespan_seconds == quiet.makespan_seconds  # repro: noqa[RPR005] exact: determinism contract
