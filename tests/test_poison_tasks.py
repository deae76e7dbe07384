"""Poison tasks end-to-end: crash loops bounded by the redrive policy.

The paper's fault-tolerance argument covers worker failures (idempotent
re-execution).  A *poison* input — one that crashes every worker that
touches it — breaks that argument: without a redrive policy the job
never finishes.  With one, healthy work completes and the poison task is
quarantined for inspection.
"""

import pytest

from repro.classiccloud import ClassicCloudConfig, ClassicCloudFramework
from repro.cloud.failures import FaultPlan
from repro.core.application import get_application
from repro.workloads.genome import cap3_task_specs


def config(poison_ids=frozenset(), max_attempts=None, **kwargs):
    defaults = dict(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        visibility_timeout_s=60.0,
        fault_plan=FaultPlan(
            queue_miss_probability=0.0,
            poison_task_ids=frozenset(poison_ids),
            poison_restart_s=20.0,
        ),
        consistency_window_s=0.0,
        seed=13,
        max_task_attempts=max_attempts,
    )
    defaults.update(kwargs)
    return ClassicCloudConfig(**defaults)


@pytest.fixture
def cap3():
    return get_application("cap3")


def test_poison_task_quarantined_healthy_work_completes(cap3):
    tasks = cap3_task_specs(24, reads_per_file=200)
    poison = {tasks[5].task_id}
    result = ClassicCloudFramework(
        config(poison_ids=poison, max_attempts=3)
    ).run(cap3, tasks)
    healthy = {t.task_id for t in tasks} - poison
    assert result.completed_task_ids == healthy
    assert result.failed == poison
    assert result.extras["dead_lettered"] == 1.0
    # The run terminated despite a task that can never succeed.
    assert result.makespan_seconds < 10_000


def test_multiple_poison_tasks(cap3):
    tasks = cap3_task_specs(24, reads_per_file=200)
    poison = {tasks[0].task_id, tasks[12].task_id, tasks[23].task_id}
    result = ClassicCloudFramework(
        config(poison_ids=poison, max_attempts=2)
    ).run(cap3, tasks)
    assert result.failed == poison
    assert len(result.completed_task_ids) == 21


def test_without_redrive_poison_hangs_until_watchdog(cap3):
    """The paper's unbounded behaviour: the poison message redelivers
    forever and the run only ends via the safety watchdog."""
    tasks = cap3_task_specs(8, reads_per_file=200)
    poison = {tasks[0].task_id}
    bounded = config(
        poison_ids=poison,
        max_attempts=None,
        max_sim_seconds=20_000.0,
    )
    with pytest.raises(RuntimeError, match="max_sim_seconds"):
        ClassicCloudFramework(bounded).run(cap3, tasks)


def test_redrive_without_poison_changes_nothing(cap3):
    tasks = cap3_task_specs(24, reads_per_file=200)
    plain = ClassicCloudFramework(config()).run(cap3, tasks)
    with_redrive = ClassicCloudFramework(config(max_attempts=5)).run(
        cap3, tasks
    )
    assert with_redrive.completed_task_ids == plain.completed_task_ids
    assert with_redrive.failed == set()
    assert with_redrive.extras["dead_lettered"] == 0.0


def test_tight_visibility_with_redrive_counts_tasks_once(cap3):
    """Regression: visibility shorter than the task time makes healthy
    tasks both complete *and* trip the receive limit.  The watcher must
    count distinct tasks (union), not sum the two tallies, or the run
    ends early with work unaccounted."""
    tasks = cap3_task_specs(16, reads_per_file=200)  # ~50s tasks
    result = ClassicCloudFramework(
        config(max_attempts=3, visibility_timeout_s=20.0)
    ).run(cap3, tasks)
    # Every task is accounted exactly once; a task that completed is a
    # success even if its message also dead-lettered.
    assert result.completed_task_ids | result.failed == {
        t.task_id for t in tasks
    }
    assert result.completed_task_ids & result.failed == set()
    assert result.completed_task_ids == {t.task_id for t in tasks}


def test_failed_tasks_round_trip_through_json(cap3, tmp_path):
    from repro.core.task import RunResult

    tasks = cap3_task_specs(12, reads_per_file=200)
    poison = {tasks[3].task_id}
    result = ClassicCloudFramework(
        config(poison_ids=poison, max_attempts=2)
    ).run(cap3, tasks)
    path = tmp_path / "trace.json"
    result.to_json(path)
    back = RunResult.from_json(path)
    assert back.failed == poison
    assert back.completed_task_ids == result.completed_task_ids


class _CountOnly:
    """A completion set that answers ``len`` and ``in`` but refuses to be
    iterated: accounting must not walk every completed task."""

    def __init__(self, ids):
        self._ids = frozenset(ids)

    def __len__(self):
        return len(self._ids)

    def __contains__(self, task_id):
        return task_id in self._ids

    def __iter__(self):
        raise AssertionError("redrive accounting iterated the completions")


def test_redrive_accounting_is_a_union_without_scanning_completions(cap3):
    """The watcher's per-poll accounting costs O(dead letters), not
    O(completed), and still counts a task that both completed and
    dead-lettered once."""
    from repro.classiccloud.framework import _SimRun

    tasks = cap3_task_specs(16, reads_per_file=200)  # ~48 s tasks
    run = _SimRun(
        config(max_attempts=2, visibility_timeout_s=2.0), cap3, tasks
    )
    run.execute()
    dead = {t.task_id for t in run.dead_letter_queue.peek_bodies()}
    # Healthy tasks dead-letter *and* complete: a sum would overcount.
    assert dead & run.completed
    assert len(run.completed) + len(dead) > len(tasks)
    run.completed = _CountOnly(run.completed)
    assert run._accounted_tasks() == len(tasks)
