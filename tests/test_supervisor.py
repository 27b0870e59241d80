"""Unit tests for the sweep supervisor (repro.evaluation.supervisor).

The heavy end-to-end scenarios (real sweeps under seeded fault plans)
live in ``tests/test_chaos.py``; this module covers the policy algebra,
the failure-record shapes, report ordering, and the supervision loop
itself driven by tiny synthetic task kinds — cheap enough to run in the
default suite.
"""

import pytest

from repro import faults
from repro.evaluation.supervisor import (
    FAILURE_REPORT_FORMAT,
    FAILURE_REPORT_VERSION,
    QuarantinedTask,
    SupervisedExecutor,
    SupervisorPolicy,
    TaskFailure,
    TaskKind,
    _kind_for,
    _TASK_KINDS,
    register_task_kind,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import diff_snapshots, global_metrics

# -- policy ------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError, match="max_task_retries"):
        SupervisorPolicy(max_task_retries=-1)
    with pytest.raises(ValueError, match="heartbeat_interval_s"):
        SupervisorPolicy(heartbeat_interval_s=0.0)


def test_backoff_is_deterministic_exponential_with_cap():
    policy = SupervisorPolicy(backoff_base_s=0.05, backoff_cap_s=0.3)
    assert policy.backoff_delay(1) == pytest.approx(0.05)
    assert policy.backoff_delay(2) == pytest.approx(0.10)
    assert policy.backoff_delay(3) == pytest.approx(0.20)
    assert policy.backoff_delay(4) == pytest.approx(0.30)  # capped
    assert policy.backoff_delay(10) == pytest.approx(0.30)


# -- failure records ---------------------------------------------------------


def _quarantined(key="k", benchmark="b", config="c", arch_index=0, task="point"):
    return QuarantinedTask(
        task=task, key=key, benchmark=benchmark, config=config,
        arch_index=arch_index, attempts=3,
        failures=[TaskFailure("crash", "worker exited with code -9", 0, None)],
    )


def test_failure_record_shape():
    record = _quarantined().record()
    assert record == {
        "task": "point", "key": "k", "benchmark": "b", "config": "c",
        "arch_index": 0, "attempts": 3,
        "failures": [{
            "reason": "crash", "detail": "worker exited with code -9",
            "attempt": 0, "backend": None,
        }],
    }


def test_failure_report_envelope_and_ordering():
    executor = SupervisedExecutor(settings=RuntimeConfig())
    executor.failures.extend([
        _quarantined(key="z", benchmark="b2", arch_index=4),
        _quarantined(key="a", benchmark="b1", arch_index=None, task="generation"),
        _quarantined(key="m", benchmark="b2", arch_index=1),
    ])
    report = executor.failure_report()
    assert report["format"] == FAILURE_REPORT_FORMAT
    assert report["version"] == FAILURE_REPORT_VERSION
    ordered = [(r["task"], r["benchmark"], r["arch_index"]) for r in report["quarantined"]]
    # generation sorts before point; within a kind, identity then index.
    assert ordered == [
        ("generation", "b1", None), ("point", "b2", 1), ("point", "b2", 4),
    ]


def test_empty_failure_report():
    executor = SupervisedExecutor(settings=RuntimeConfig())
    assert executor.failure_report()["quarantined"] == []


# -- task-kind registry ------------------------------------------------------


def test_unregistered_function_is_rejected():
    def mystery(task):
        return task, None

    with pytest.raises(KeyError, match="not a .*registered"):
        _kind_for(mystery)


# -- the supervision loop, driven by synthetic task kinds --------------------
#
# The worker resolves task kinds from its module-level registry; under the
# fork start method a kind registered by the test is inherited by worker
# processes, so tiny synthetic tasks exercise the real dispatch/collect/
# retry machinery in milliseconds.


def _double(task):
    return task * 2, None


def _always_fail(task):
    raise ValueError(f"synthetic failure for task {task}")


def _describe(task):
    return {"benchmark": "synthetic", "config": "unit", "arch_index": task}


@pytest.fixture
def synthetic_kinds():
    register_task_kind(TaskKind("test-double", _double, lambda t: f"d{t:04x}", _describe))
    register_task_kind(TaskKind("test-fail", _always_fail, lambda t: f"f{t:04x}", _describe))
    yield
    _TASK_KINDS.pop("test-double", None)
    _TASK_KINDS.pop("test-fail", None)


def _supervise(kind_name, tasks, **policy_kwargs):
    policy_kwargs.setdefault("backoff_base_s", 0.001)
    executor = SupervisedExecutor(
        settings=RuntimeConfig(), jobs=2,
        policy=SupervisorPolicy(**policy_kwargs),
    )
    return executor._supervise(_TASK_KINDS[kind_name], tasks)


def test_supervised_tasks_complete_in_index_order(synthetic_kinds):
    before = global_metrics().snapshot()
    outcomes, quarantined = _supervise("test-double", [1, 2, 3, 4, 5])
    assert [payload for payload, _ in outcomes] == [2, 4, 6, 8, 10]
    assert quarantined == []
    delta = diff_snapshots(global_metrics().snapshot(), before)
    assert delta["counters"]["supervisor/tasks"] == 5
    assert "supervisor/retries" not in delta["counters"]


def test_failing_task_retries_then_quarantines(synthetic_kinds):
    before = global_metrics().snapshot()
    outcomes, quarantined = _supervise("test-fail", [7], max_task_retries=1)
    assert outcomes == [None]
    assert len(quarantined) == 1
    item = quarantined[0]
    assert item.task == "test-fail" and item.key == "f0007"
    assert item.benchmark == "synthetic" and item.arch_index == 7
    assert item.attempts == 2  # first attempt + one retry
    assert [f.reason for f in item.failures] == ["error", "error"]
    assert all("synthetic failure" in f.detail for f in item.failures)
    delta = diff_snapshots(global_metrics().snapshot(), before)
    assert delta["counters"]["supervisor/retries"] == 1
    assert delta["counters"]["supervisor/quarantined_tasks"] == 1


def test_quarantine_does_not_block_other_tasks(synthetic_kinds):
    outcomes, quarantined = _supervise("test-double", [1, 2], max_task_retries=0)
    assert [payload for payload, _ in outcomes] == [2, 4]
    assert quarantined == []
    outcomes, quarantined = _supervise("test-fail", [1, 2], max_task_retries=0)
    assert outcomes == [None, None]
    assert [item.arch_index for item in quarantined] == [1, 2]


def test_worker_crash_is_detected_and_retried(synthetic_kinds):
    """A SIGKILL'd worker costs a retry and a restart, never the result.

    The plan is armed in the parent and inherited by forked workers; the
    kill fires inside the worker's task context, so the parent survives.
    """
    faults.reset()
    faults.arm(faults.FaultPlan(faults=(
        faults.FaultSpec(site="task:start", kind="kill", task="d0001"),
    )))
    before = global_metrics().snapshot()
    try:
        outcomes, quarantined = _supervise("test-double", [1, 2, 3])
        assert [payload for payload, _ in outcomes] == [2, 4, 6]
        assert quarantined == []
    finally:
        faults.reset()
    delta = diff_snapshots(global_metrics().snapshot(), before)
    assert delta["counters"]["supervisor/worker_crashes"] == 1
    assert delta["counters"]["supervisor/retries"] == 1
    assert delta["counters"]["supervisor/worker_restarts"] >= 1
    assert delta["counters"]["supervisor/backend_demotions"] == 1


def test_run_attempt_reports_exceptions_not_raises(synthetic_kinds):
    from repro.evaluation.supervisor import _run_attempt

    status, payload, delta = _run_attempt("test-fail", 3, "f0003", 0, None)
    assert status == "error"
    assert "synthetic failure for task 3" in payload
    assert delta is None
    status, payload, delta = _run_attempt("test-double", 3, "d0003", 0, None)
    assert status == "done" and payload == 6
