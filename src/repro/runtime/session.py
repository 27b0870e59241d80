"""The runtime session: one owner for warm engines, caches, and stores.

A :class:`Session` binds one frozen :class:`~repro.runtime.config.RuntimeConfig`
to lazily constructed shared state — the :class:`~repro.mapping.engine.RoutingEngine`
(with its persistent :class:`~repro.mapping.engine.RoutingCache`), the
:class:`~repro.design.engine.DesignEngine` (with its persistent
:class:`~repro.design.engine.DesignCache`), the sweep checkpoint store,
and the process-wide ``YieldSimulator`` noise-tensor caches those engines
share — and exposes digest-keyed entry points (:meth:`Session.design`,
:meth:`Session.route`, :meth:`Session.evaluate`, :meth:`Session.sweep`).

Two properties make this the surface a long-lived serving tier can mount:

* **One session per config per process.** Sessions register themselves
  in a process-level registry keyed by ``config.digest()`` (store paths
  canonicalized first, so relative/symlink aliases of one cache file
  share one warm engine).  :func:`session_for` is the get-or-create
  entry used by the CLI and by every sweep worker.
* **Concurrent identical requests dedupe.** Entry points serialize
  engine access (the engines are not thread-safe) and track in-flight
  request keys: a thread asking for work another thread is already
  computing waits for it, then serves the answer from the now-warm
  engine caches — one engine call total, counted under the
  ``session/deduped_requests`` metric.

Everything a session returns is byte-identical to what fresh per-call
engines would produce: engines are transparent caches over pure
deterministic functions, and the session adds no state of its own.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro.benchmarks.library import get_benchmark
from repro.circuit.circuit import QuantumCircuit
from repro.design.engine import DesignEngine, DesignOptions, circuit_design_key
from repro.evaluation.checkpoint import SweepCheckpoint
from repro.evaluation.configs import ExperimentConfig
from repro.evaluation.experiment import (
    DEFAULT_CONFIGS,
    ExperimentResult,
    design_engine_for,
    evaluate_benchmark,
)
from repro.hardware.architecture import Architecture
from repro.mapping.engine import (
    RoutingEngine,
    architecture_cache_key,
    circuit_cache_key,
    profile_cache_key,
)
from repro.profiling.profiler import CircuitProfile
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import MetricsRegistry, global_metrics

T = TypeVar("T")


class Session:
    """Warm engines, caches, and stores for one runtime configuration.

    Everything is constructed lazily: creating a session is cheap, and a
    fully-warm resumed sweep that never routes never builds a routing
    engine.  Construction also registers the session in the process
    registry under ``config.digest()`` (latest wins), so in-process
    sweep tasks find the same warm engines the CLI command used.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config or RuntimeConfig()
        self.metrics = metrics or global_metrics()
        self._lock = threading.RLock()  # serializes engine compute
        self._flight_lock = threading.Lock()
        self._inflight: Dict[Tuple, threading.Event] = {}
        self._routing_engine: Optional[RoutingEngine] = None
        self._design_engine: Optional[DesignEngine] = None
        self._checkpoint: Optional[SweepCheckpoint] = None
        # Persisted-entry watermarks: merge_save only when an engine
        # computed something the store has not seen from this session.
        self._merged_routing_misses = 0
        self._merged_design_misses = 0
        # Screening-stats watermark: the process-wide screening counters
        # at construction time, so :meth:`screening_stats` reports only
        # this session's work — no stale counts leak between sessions.
        from repro.collision import screening_stats as _screening_stats

        self._screening_baseline = _screening_stats()
        _register(self)

    # -- lazily constructed shared state -----------------------------------

    @property
    def routing_engine(self) -> RoutingEngine:
        """The shared routing engine, warm-loaded from the persistent cache."""
        with self._lock:
            if self._routing_engine is None:
                engine = RoutingEngine(self.config.routing)
                if self.config.routing_cache_path:
                    engine.cache.load(self.config.routing_cache_path, missing_ok=True)
                self._routing_engine = engine
        return self._routing_engine

    @property
    def design_engine(self) -> DesignEngine:
        """The shared design engine, warm-loaded from the persistent cache."""
        with self._lock:
            if self._design_engine is None:
                self._design_engine = design_engine_for(self.config)
        return self._design_engine

    @property
    def checkpoint(self) -> Optional[SweepCheckpoint]:
        """The sweep checkpoint store, snapshot-loaded when resuming."""
        if not self.config.checkpoint_path:
            return None
        with self._lock:
            if self._checkpoint is None:
                self._checkpoint = SweepCheckpoint(self.config.checkpoint_path)
                if self.config.resume:
                    self._checkpoint.load()
        return self._checkpoint

    @property
    def has_routing_engine(self) -> bool:
        """Whether the routing engine was ever constructed (tests/metrics)."""
        return self._routing_engine is not None

    @property
    def has_design_engine(self) -> bool:
        """Whether the design engine was ever constructed (tests/metrics)."""
        return self._design_engine is not None

    # -- request dedup ------------------------------------------------------

    def _deduped(self, key: Tuple, compute: Callable[[], T]) -> T:
        """Run ``compute`` unless an identical request is already in flight.

        The owning thread computes under the session lock; followers
        wait for it, then recompute under the lock themselves — by then
        the engines are warm, so the follower's call is a cache hit and
        the expensive work ran exactly once.
        """
        while True:
            with self._flight_lock:
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    owner = True
                else:
                    owner = False
            if owner:
                try:
                    with self._lock:
                        return compute()
                finally:
                    with self._flight_lock:
                        del self._inflight[key]
                    event.set()
            self.metrics.increment("session/deduped_requests")
            event.wait()

    # -- digest-keyed entry points ------------------------------------------

    def design_options(self, **overrides) -> DesignOptions:
        """Design-flow options derived from this session's config."""
        base = dict(
            sigma_ghz=self.config.sigma_ghz,
            local_trials=self.config.frequency_local_trials,
            allocation_strategy=self.config.allocation_strategy,
            frequency_screening=self.config.screening,
        )
        base.update(overrides)
        return DesignOptions(**base)

    def design(
        self,
        circuit: QuantumCircuit,
        max_four_qubit_buses: int = 0,
        options: Optional[DesignOptions] = None,
        name: Optional[str] = None,
    ) -> Architecture:
        """Design one architecture (see :meth:`DesignEngine.design`)."""
        options = options or self.design_options()
        key = ("design", circuit_design_key(circuit), max_four_qubit_buses,
               _options_key(options), name)
        return self._deduped(
            key,
            lambda: self.design_engine.design(
                circuit, max_four_qubit_buses, options, name=name
            ),
        )

    def design_series(
        self,
        circuit: QuantumCircuit,
        max_buses: Optional[int] = None,
        options: Optional[DesignOptions] = None,
    ) -> List[Architecture]:
        """Design a bus-count series (see :meth:`DesignEngine.design_series`)."""
        options = options or self.design_options()
        key = ("design_series", circuit_design_key(circuit), max_buses,
               _options_key(options))
        return self._deduped(
            key,
            lambda: self.design_engine.design_series(circuit, max_buses, options),
        )

    def route(
        self,
        circuit: QuantumCircuit,
        architecture: Architecture,
        profile: Optional[CircuitProfile] = None,
        keep_routed_circuit: Optional[bool] = None,
    ):
        """Route a circuit (see :meth:`RoutingEngine.route`)."""
        if keep_routed_circuit is None:
            keep_routed_circuit = self.config.keep_routed_circuits
        key = ("route", circuit_cache_key(circuit),
               architecture_cache_key(architecture),
               profile_cache_key(profile), keep_routed_circuit)
        return self._deduped(
            key,
            lambda: self.routing_engine.route(
                circuit, architecture, profile=profile,
                keep_routed_circuit=keep_routed_circuit,
            ),
        )

    def evaluate(
        self,
        benchmark,
        configs: Iterable[ExperimentConfig] = DEFAULT_CONFIGS,
    ) -> ExperimentResult:
        """Evaluate one benchmark (name or circuit) on this session's engines."""
        circuit = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
        configs = tuple(configs)
        key = ("evaluate", circuit_design_key(circuit),
               tuple(config.value for config in configs))
        return self._deduped(
            key,
            lambda: evaluate_benchmark(
                circuit, configs, settings=self.config,
                engine=self.routing_engine, design_engine=self.design_engine,
            ),
        )

    def sweep(
        self,
        benchmarks: Iterable[str],
        configs=None,
        jobs: int = 1,
    ):
        """Run the parallel evaluation sweep on this session's config.

        With ``jobs=1`` the sweep tasks run in this process and find this
        session through the registry; with ``jobs>1`` workers rebuild an
        equivalent session from the pickled config (same digest) and
        their metrics deltas merge back into this process's registry.
        """
        from repro.evaluation.parallel import SweepExecutor

        executor = (
            SweepExecutor(settings=self.config, jobs=jobs)
            if configs is None
            else SweepExecutor(settings=self.config, configs=configs, jobs=jobs)
        )
        return executor.run(benchmarks)

    # -- persistence --------------------------------------------------------

    def persist_routing(self) -> Optional[int]:
        """Merge newly computed routings into the persistent store, if any.

        Returns the store's entry count after the merge, or None when
        there is no store, no engine, or nothing new since the last merge
        (each lookup miss is a subsequent ``put``, so the miss count is a
        watermark of entries the store may not have).
        """
        path = self.config.routing_cache_path
        with self._lock:
            engine = self._routing_engine
            if not path or engine is None:
                return None
            if engine.cache.misses <= self._merged_routing_misses:
                return None
            self._merged_routing_misses = engine.cache.misses
            return engine.cache.merge_save(path)

    def persist_design(self) -> Optional[int]:
        """Merge newly computed frequency plans into the persistent store."""
        path = self.config.design_cache_path
        with self._lock:
            engine = self._design_engine
            if not path or engine is None:
                return None
            if engine.frequency_cache.misses <= self._merged_design_misses:
                return None
            self._merged_design_misses = engine.frequency_cache.misses
            return engine.frequency_cache.merge_save(path)

    def persist(self) -> Dict[str, Optional[int]]:
        """Persist both engine caches; a dict of store entry counts."""
        return {"routing": self.persist_routing(), "design": self.persist_design()}

    def record_task_failure(self, failure: Dict[str, object]) -> bool:
        """Record a supervised sweep's quarantined task in the checkpoint.

        ``failure`` is the supervisor's structured failure record (task
        kind, content key, identity, per-attempt reasons).  Returns
        False when this session has no checkpoint store to record into
        — the supervisor then only reports the failure in memory.
        """
        checkpoint = self.checkpoint
        if checkpoint is None:
            return False
        checkpoint.record_failure(dict(failure))
        return True

    # -- observability ------------------------------------------------------

    def screening_stats(self) -> Dict[str, object]:
        """This session's screening work: counts and phase-ns deltas.

        The process-wide screening counters are monotone; the delta
        against the construction-time watermark is exactly what this
        session (and anything sharing the process since) screened.  If
        :func:`repro.collision.reset_screening_stats` zeroed the globals
        after this session was built, the raw counts are below the
        watermark — the clamp then reports the post-reset counts rather
        than negative values.
        """
        from repro.collision import screening_stats as _screening_stats

        current = _screening_stats()
        baseline = self._screening_baseline
        stats: Dict[str, object] = {}
        for key, value in current.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                before = baseline.get(key, 0)
                delta = value - before
                stats[key] = delta if delta >= 0 else value
            else:
                stats[key] = value  # e.g. the active backend name
        return stats


def _options_key(options: DesignOptions) -> Tuple:
    """Hashable value identity of design options, for request dedup keys."""
    return (
        options.bus_strategy,
        options.frequency_strategy,
        options.sigma_ghz,
        options.local_trials,
        options.random_bus_seed,
        options.frequency_seed,
        options.frequency_refinement_passes,
        options.allocation_strategy,
        options.frequency_screening,
    )


# ---------------------------------------------------------------------------
# The process-level session registry, keyed by config content digest.
# ---------------------------------------------------------------------------

# Reentrant: session_for holds it across get-or-create, and creating a
# Session registers itself under the same lock.
_REGISTRY_LOCK = threading.RLock()
_PROCESS_SESSIONS: Dict[str, Session] = {}


def _register(session: Session) -> None:
    with _REGISTRY_LOCK:
        _PROCESS_SESSIONS[session.config.digest()] = session


def session_for(config: Optional[RuntimeConfig] = None) -> Session:
    """The process's session for this config, created on first use.

    Keyed by :meth:`RuntimeConfig.digest`, which canonicalizes store
    paths — so two configs naming the same cache file through different
    relative/symlink spellings share one session and one warm engine.
    """
    config = config or RuntimeConfig()
    with _REGISTRY_LOCK:
        session = _PROCESS_SESSIONS.get(config.digest())
        if session is not None:
            return session
        return Session(config)


def peek_session(config: Optional[RuntimeConfig] = None) -> Optional[Session]:
    """The existing session for this config, or None (never creates one)."""
    config = config or RuntimeConfig()
    with _REGISTRY_LOCK:
        return _PROCESS_SESSIONS.get(config.digest())


def process_sessions() -> List[Session]:
    """Every live session in this process's registry."""
    with _REGISTRY_LOCK:
        return list(_PROCESS_SESSIONS.values())


def reset_process_sessions() -> None:
    """Drop every registered session (engines, caches, checkpoints).

    The test-isolation / fork-hygiene hook: after this, the next
    :func:`session_for` call builds cold state from scratch.
    """
    with _REGISTRY_LOCK:
        _PROCESS_SESSIONS.clear()
