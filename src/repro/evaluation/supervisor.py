"""Supervised sweep execution: fault-tolerant workers over the sweep grid.

:class:`SupervisedExecutor` runs the same deterministic task grid as
:class:`~repro.evaluation.parallel.SweepExecutor`, but owns its worker
pool directly instead of delegating to ``multiprocessing.Pool``:

* every worker gets a **dedicated pipe** (a SIGKILL'd worker can never
  wedge a shared queue lock) and a **heartbeat thread**;
* the parent detects dead workers (``is_alive``/exitcode), tasks past
  their **deadline**, and **heartbeat silence** (a wedged native call
  holding the GIL), kills the offender, and **replenishes the pool**;
* failed attempts are retried with **deterministic exponential
  backoff**, up to ``max_task_retries`` retries;
* a retry that follows a worker *crash* is **demoted** to the numpy
  screening backend (``REPRO_SCREENING_BACKEND=numpy`` semantics forced
  for that attempt) — safe because the backends are bit-identical by
  contract, so a native-kernel segfault costs speed, never results;
* a task that exhausts its retries is **quarantined**: recorded to the
  checkpoint as a structured ``failure`` entry, counted, and skipped —
  the sweep completes with a partial-result report instead of dying.

Determinism: tasks are dispatched and collected **by grid index**, each
attempt re-derives the task's per-point seeds from its content identity,
and worker metrics deltas merge key-wise — so for the non-quarantined
points the sweep output is byte-identical to a fault-free run, for any
``--jobs`` count, any backend, and any fault schedule.

Every supervision event is counted in the
:class:`~repro.runtime.metrics.MetricsRegistry` (``supervisor/tasks``,
``supervisor/retries``, ``supervisor/worker_crashes``,
``supervisor/worker_restarts``, ``supervisor/deadline_kills``,
``supervisor/heartbeat_timeouts``, ``supervisor/backend_demotions``,
``supervisor/quarantined_tasks``) and lands in ``--metrics-out``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults
from repro.evaluation import parallel
from repro.evaluation.checkpoint import generation_task_key, point_task_key
from repro.evaluation.configs import ExperimentConfig
from repro.evaluation.experiment import DEFAULT_CONFIGS, ExperimentResult
from repro.evaluation.parallel import SweepExecutor
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import global_metrics

FAILURE_REPORT_FORMAT = "repro-sweep-failures"
FAILURE_REPORT_VERSION = 1


# ---------------------------------------------------------------------------
# Policy and failure records.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision knobs.

    None of these can affect sweep *values* (retries re-derive the same
    content-addressed seeds), so the policy deliberately lives outside
    :class:`~repro.runtime.config.RuntimeConfig` and the config digest.

    Args:
        task_deadline_s: Kill a task attempt running longer than this
            (None disables; hung workers then require heartbeats).
        heartbeat_interval_s: How often workers prove liveness.
        heartbeat_timeout_s: Kill a busy worker silent this long — the
            GIL-holding-hang detector (None disables).
        max_task_retries: Retries *after* the first attempt before a
            task is quarantined.
        backoff_base_s: Retry ``n`` (1-based) becomes eligible after
            ``backoff_base_s * 2**(n-1)`` seconds, capped below —
            deterministic, no jitter, so schedules replay.
        backoff_cap_s: Upper bound on any single backoff delay.
        demote_after_crash: Force the numpy screening backend on every
            retry that follows a worker crash.
        shutdown_grace_s: How long to wait for workers to exit cleanly.
    """

    task_deadline_s: Optional[float] = None
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: Optional[float] = None
    max_task_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    demote_after_crash: bool = True
    shutdown_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")

    def backoff_delay(self, retry_number: int) -> float:
        """Delay before 1-based retry ``retry_number`` becomes eligible."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2 ** (retry_number - 1)))


@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt of one task."""

    reason: str  #: "crash" | "deadline" | "heartbeat" | "error"
    detail: str
    attempt: int
    backend: Optional[str]  #: screening backend forced for the attempt

    def record(self) -> dict:
        return {
            "reason": self.reason,
            "detail": self.detail,
            "attempt": self.attempt,
            "backend": self.backend,
        }


@dataclass
class QuarantinedTask:
    """A task that exhausted its retries and was skipped."""

    task: str  #: "generation" | "point"
    key: str
    benchmark: str
    config: str
    arch_index: Optional[int]
    attempts: int
    failures: List[TaskFailure] = field(default_factory=list)

    def record(self) -> dict:
        """The structured failure entry (checkpoint + ``--failures-out``)."""
        return {
            "task": self.task,
            "key": self.key,
            "benchmark": self.benchmark,
            "config": self.config,
            "arch_index": self.arch_index,
            "attempts": self.attempts,
            "failures": [failure.record() for failure in self.failures],
        }


# ---------------------------------------------------------------------------
# Task kinds.  The supervisor addresses tasks by the same content digests
# the checkpoint uses, so fault plans, retries, and failure records are
# all keyed identically to resume records.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskKind:
    """Parent-side registry entry for one kind of sweep task.

    Never crosses the fork boundary: workers receive the kind *name*
    over the pipe and resolve these callables from their own copy of
    the module-level registry, so the Callable fields are not worker
    payload.
    """

    name: str
    func: Callable[[Any], Tuple[Any, Any]]  # repro-lint: disable=REPRO-P401
    key_of: Callable[[Any], str]  # repro-lint: disable=REPRO-P401
    describe: Callable[[Any], Dict[str, Any]]  # repro-lint: disable=REPRO-P401


def _generation_key(task: Tuple) -> str:
    benchmark, config_value, settings = task
    return generation_task_key(benchmark, config_value, settings)


def _generation_describe(task: Tuple) -> Dict[str, Any]:
    benchmark, config_value, _ = task
    return {"benchmark": benchmark, "config": config_value, "arch_index": None}


def _point_key(task: Tuple) -> str:
    benchmark, config_value, arch_index, architecture, settings = task
    return point_task_key(benchmark, config_value, arch_index, architecture, settings)


def _point_describe(task: Tuple) -> Dict[str, Any]:
    benchmark, config_value, arch_index, _, _ = task
    return {"benchmark": benchmark, "config": config_value, "arch_index": arch_index}


_TASK_KINDS: Dict[str, TaskKind] = {}


def register_task_kind(kind: TaskKind) -> None:
    """Make a task function supervisable (also a test hook).

    Worker processes resolve the function by ``kind.name``, so the kind
    must be registered at import time of this module in *every* process
    (module-level registration satisfies that under any start method).
    """
    _TASK_KINDS[kind.name] = kind


register_task_kind(TaskKind(
    "generation", parallel._generate_task, _generation_key, _generation_describe,
))
register_task_kind(TaskKind(
    "point", parallel._evaluate_task, _point_key, _point_describe,
))


def _kind_for(func: Callable) -> TaskKind:
    for kind in _TASK_KINDS.values():
        if kind.func is func:
            return kind
    raise KeyError(
        f"task function {getattr(func, '__name__', func)!r} is not a "
        "registered supervisable task kind"
    )


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


@contextmanager
def _forced_backend(backend: Optional[str]):
    """Force a screening backend for one attempt (bit-identical swap)."""
    if backend is None:
        yield
        return
    from repro.collision import merge_kernel

    previous = merge_kernel.active_backend()
    merge_kernel.set_backend(backend)
    try:
        yield
    finally:
        merge_kernel.set_backend(previous)


@faults.fault_boundary
def _run_attempt(
    kind_name: str, task: Any, digest: str, attempt: int, backend: Optional[str],
) -> Tuple[str, Any, Any]:
    """Run one task attempt, converting any raise into a failure message."""
    kind = _TASK_KINDS[kind_name]
    try:
        with faults.task_context(digest, attempt):
            faults.maybe_inject("task:start")
            with _forced_backend(backend):
                payload, delta = kind.func(task)
        return "done", payload, delta
    except Exception as error:  # fault boundary: reported, never swallowed
        detail = f"{type(error).__name__}: {error}"
        return "error", f"{detail}\n{traceback.format_exc(limit=8)}", None


def _worker_main(conn, worker_id: int, heartbeat_interval: float) -> None:
    """Worker loop: receive task attempts, run them, send results + beats."""
    stop = threading.Event()
    send_lock = threading.Lock()

    def _send(message: Tuple) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError, ValueError):
                stop.set()  # parent is gone; let the recv loop exit

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            _send(("heartbeat", worker_id))

    threading.Thread(target=_beat, daemon=True, name="supervisor-heartbeat").start()
    while not stop.is_set():
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, index, attempt, digest, backend, kind_name, task = message
        status, payload, delta = _run_attempt(kind_name, task, digest, attempt, backend)
        _send(("result", worker_id, index, attempt, status, payload, delta))
    stop.set()


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = (
        "id", "process", "conn", "task_index", "attempt", "backend",
        "dispatched_at", "last_beat",
    )

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.task_index: Optional[int] = None
        self.attempt = 0
        self.backend: Optional[str] = None
        self.dispatched_at = 0.0
        self.last_beat = 0.0

    @property
    def busy(self) -> bool:
        return self.task_index is not None

    def clear(self) -> None:
        self.task_index = None
        self.backend = None


@dataclass(frozen=True)
class _Pending:
    index: int
    attempt: int
    eligible_at: float
    backend: Optional[str] = None


class SupervisedExecutor(SweepExecutor):
    """A :class:`SweepExecutor` whose workers are supervised.

    Unlike the base executor, tasks always run in worker processes —
    even with ``jobs=1`` — so a crash or hang can never take down the
    coordinating process.  Results are byte-identical to the base
    executor's for every completed task.

    Quarantined tasks accumulate on :attr:`failures`;
    :meth:`failure_report` renders them as the partial-result report.
    """

    def __init__(
        self,
        settings: Optional[RuntimeConfig] = None,
        configs: Iterable[ExperimentConfig] = DEFAULT_CONFIGS,
        jobs: int = 1,
        policy: Optional[SupervisorPolicy] = None,
    ) -> None:
        super().__init__(settings=settings, configs=configs, jobs=jobs)
        self.policy = policy or SupervisorPolicy()
        self.failures: List[QuarantinedTask] = []

    # -- reporting ------------------------------------------------------------

    def failure_report(self) -> dict:
        """The structured partial-result report (``--failures-out``)."""
        quarantined = sorted(
            (item.record() for item in self.failures),
            key=lambda r: (
                r["task"], r["benchmark"], r["config"],
                -1 if r["arch_index"] is None else r["arch_index"], r["key"],
            ),
        )
        return {
            "format": FAILURE_REPORT_FORMAT,
            "version": FAILURE_REPORT_VERSION,
            "quarantined": quarantined,
        }

    # -- execution ------------------------------------------------------------

    def _run_tasks(self, func, tasks):
        if not tasks:
            return []
        kind = _kind_for(func)
        outcomes, quarantined = self._supervise(kind, list(tasks))
        metrics = global_metrics()
        payloads = []
        for outcome in outcomes:
            if outcome is None:
                continue
            payload, delta = outcome
            if delta is not None:
                # Supervised tasks always run in workers, so deltas
                # always merge (no in-process double-count case).
                metrics.merge(delta)
            payloads.append(payload)
        for item in quarantined:
            self.failures.append(item)
            self._record_failure(item)
        return payloads

    def _record_failure(self, item: QuarantinedTask) -> None:
        if not self.settings.checkpoint_path:
            return
        session = parallel._session_module().session_for(self.settings)
        session.record_task_failure(item.record())

    def _supervise(
        self, kind: TaskKind, tasks: List,
    ) -> Tuple[List[Optional[Tuple[Any, Any]]], List[QuarantinedTask]]:
        policy = self.policy
        metrics = global_metrics()
        total = len(tasks)
        digests = [kind.key_of(task) for task in tasks]
        metrics.increment("supervisor/tasks", total)

        outcomes: List[Optional[Tuple[Any, Any]]] = [None] * total
        quarantined: Dict[int, QuarantinedTask] = {}
        failures: Dict[int, List[TaskFailure]] = {index: [] for index in range(total)}
        demoted: set = set()
        pending = deque(_Pending(index, 0, 0.0) for index in range(total))
        finished = 0

        workers: Dict[int, _Worker] = {}
        next_worker_id = 0
        target = min(self.jobs, total)

        def _spawn(replacement: bool) -> None:
            nonlocal next_worker_id
            worker_id = next_worker_id
            next_worker_id += 1
            parent_conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_worker_main,
                args=(child_conn, worker_id, policy.heartbeat_interval_s),
                daemon=True,
                name=f"sweep-worker-{worker_id}",
            )
            process.start()
            child_conn.close()
            workers[worker_id] = _Worker(worker_id, process, parent_conn)
            workers[worker_id].last_beat = time.monotonic()
            if replacement:
                metrics.increment("supervisor/worker_restarts")

        def _retire(worker: _Worker) -> None:
            workers.pop(worker.id, None)
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(policy.shutdown_grace_s)

        def _attempt_failed(
            index: int, attempt: int, reason: str, detail: str,
            backend: Optional[str],
        ) -> None:
            nonlocal finished
            failures[index].append(TaskFailure(reason, detail, attempt, backend))
            if attempt >= policy.max_task_retries:
                describe = kind.describe(tasks[index])
                quarantined[index] = QuarantinedTask(
                    task=kind.name,
                    key=digests[index],
                    benchmark=describe["benchmark"],
                    config=describe["config"],
                    arch_index=describe["arch_index"],
                    attempts=attempt + 1,
                    failures=failures[index],
                )
                metrics.increment("supervisor/quarantined_tasks")
                finished += 1
                return
            if policy.demote_after_crash and reason == "crash":
                demoted.add(index)
            next_backend = "numpy" if index in demoted else None
            if next_backend is not None and backend is None:
                metrics.increment("supervisor/backend_demotions")
            eligible_at = time.monotonic() + policy.backoff_delay(attempt + 1)
            pending.append(_Pending(index, attempt + 1, eligible_at, next_backend))
            metrics.increment("supervisor/retries")

        def _fail_worker_task(worker: _Worker, reason: str, detail: str) -> None:
            index, attempt, backend = worker.task_index, worker.attempt, worker.backend
            worker.clear()
            if index is not None and outcomes[index] is None and index not in quarantined:
                _attempt_failed(index, attempt, reason, detail, backend)

        def _dispatch(worker: _Worker, item: _Pending) -> bool:
            message = (
                "task", item.index, item.attempt, digests[item.index],
                item.backend, kind.name, tasks[item.index],
            )
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError):
                pending.appendleft(item)  # worker died idle; not a task failure
                _retire(worker)
                return False
            worker.task_index = item.index
            worker.attempt = item.attempt
            worker.backend = item.backend
            worker.dispatched_at = worker.last_beat = time.monotonic()
            return True

        def _handle_message(worker: _Worker, message: Tuple) -> None:
            nonlocal finished
            worker.last_beat = time.monotonic()
            if message[0] != "result":
                return
            _, _, index, attempt, status, payload, delta = message
            if worker.task_index != index or outcomes[index] is not None:
                worker.clear()
                return  # stale result (task already resolved elsewhere)
            backend = worker.backend
            worker.clear()
            if status == "done":
                outcomes[index] = (payload, delta)
                finished += 1
            else:
                _attempt_failed(index, attempt, "error", payload, backend)

        try:
            for _ in range(target):
                _spawn(replacement=False)
            while finished < total:
                now = time.monotonic()
                # Keep the pool at strength while work remains.
                while len(workers) < target and (pending or any(
                    worker.busy for worker in workers.values()
                ) or not workers):
                    _spawn(replacement=True)
                # Hand eligible attempts to idle workers, lowest index first.
                idle = [w for w in workers.values() if not w.busy]
                for worker in idle:
                    if not pending:
                        break
                    eligible = sorted(
                        (item for item in pending if item.eligible_at <= now),
                        key=lambda item: item.index,
                    )
                    if not eligible:
                        break
                    item = eligible[0]
                    pending.remove(item)
                    _dispatch(worker, item)
                if finished >= total:
                    break
                # Wait for results/heartbeats; short tick bounds every
                # health check (deadline, heartbeat, backoff eligibility).
                conns = [w.conn for w in workers.values()]
                ready = mp_connection.wait(conns, timeout=0.05) if conns else []
                by_conn = {w.conn: w for w in workers.values()}
                for conn in ready:
                    worker = by_conn.get(conn)
                    if worker is None:
                        continue
                    try:
                        while conn.poll():
                            _handle_message(worker, conn.recv())
                    except (EOFError, OSError):
                        pass  # torn pipe: the liveness check below decides
                # Liveness, deadline, and heartbeat enforcement.
                now = time.monotonic()
                for worker in list(workers.values()):
                    if not worker.process.is_alive():
                        exitcode = worker.process.exitcode
                        metrics.increment("supervisor/worker_crashes")
                        _fail_worker_task(
                            worker, "crash", f"worker exited with code {exitcode}",
                        )
                        _retire(worker)
                    elif worker.busy and policy.task_deadline_s is not None and \
                            now - worker.dispatched_at > policy.task_deadline_s:
                        metrics.increment("supervisor/deadline_kills")
                        deadline = policy.task_deadline_s
                        _fail_worker_task(
                            worker, "deadline",
                            f"task exceeded {deadline:.3f}s deadline",
                        )
                        _retire(worker)
                    elif worker.busy and policy.heartbeat_timeout_s is not None and \
                            now - worker.last_beat > policy.heartbeat_timeout_s:
                        metrics.increment("supervisor/heartbeat_timeouts")
                        timeout = policy.heartbeat_timeout_s
                        _fail_worker_task(
                            worker, "heartbeat",
                            f"no heartbeat for {timeout:.3f}s",
                        )
                        _retire(worker)
        finally:
            for worker in list(workers.values()):
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for worker in list(workers.values()):
                worker.process.join(policy.shutdown_grace_s)
                _retire(worker)

        ordered = [quarantined[index] for index in sorted(quarantined)]
        return outcomes, ordered


def run_supervised_sweep(
    benchmarks: Sequence[str],
    jobs: int = 1,
    settings: Optional[RuntimeConfig] = None,
    configs: Iterable[ExperimentConfig] = DEFAULT_CONFIGS,
    policy: Optional[SupervisorPolicy] = None,
) -> Tuple[Dict[str, ExperimentResult], "SupervisedExecutor"]:
    """Run a supervised sweep; returns (results, executor-with-failures)."""
    executor = SupervisedExecutor(
        settings=settings, configs=configs, jobs=jobs, policy=policy,
    )
    return executor.run(benchmarks), executor
