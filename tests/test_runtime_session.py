"""Tests for the runtime session layer: config digests, the process
registry, request dedup, and worker→parent metrics merging."""

import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.benchmarks import get_benchmark
from repro.design import (
    allocation_call_count,
    reset_allocation_call_count,
    reset_shared_caches,
)
from repro.evaluation import (
    ExperimentConfig,
    evaluate_benchmark,
    run_sweep,
)
from repro.evaluation import parallel
from repro.runtime.config import RuntimeConfig, canonical_store_path
from repro.runtime.metrics import diff_snapshots, global_metrics
from repro.runtime.session import peek_session, session_for

FAST_KW = dict(yield_trials=300, frequency_local_trials=80, random_bus_seeds=(1,))
FAST_SETTINGS = RuntimeConfig(**FAST_KW)
FAST_CONFIGS = (ExperimentConfig.EFF_FULL, ExperimentConfig.EFF_LAYOUT_ONLY)


def point_fingerprint(result):
    return [
        (p.config.value, p.architecture_name, p.yield_rate, p.total_gates,
         p.num_swaps, p.normalized_reciprocal_gates)
        for p in result.points
    ]


def _cold_process():
    """Simulate a fresh process: no sessions, no shared design caches."""
    parallel.reset_worker_state()
    reset_shared_caches()
    reset_allocation_call_count()


class TestRuntimeConfigRoundTrip:
    def test_evaluation_settings_shim_returns_self(self, tmp_path):
        # The frozen benchmark harness loads a config file, calls
        # evaluation_settings() and hands the result to SweepExecutor.
        path = tmp_path / "config.json"
        path.write_text(RuntimeConfig(**FAST_KW).to_json())
        config = RuntimeConfig.from_json(path)
        assert config.evaluation_settings() is config
        executor = parallel.SweepExecutor(config.evaluation_settings(), jobs=1)
        assert executor.settings is config

    def test_json_round_trip_preserves_digest(self, tmp_path):
        config = RuntimeConfig(
            yield_trials=500, routing_cache_path="sqlite:cache.db",
            allocation_strategy="analytic-guided",
        )
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        loaded = RuntimeConfig.from_json(path)
        assert loaded == config
        assert loaded.digest() == config.digest()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime-config keys"):
            RuntimeConfig.from_mapping({"nope": 1})

    def test_config_is_picklable_with_stable_digest(self):
        config = RuntimeConfig(**FAST_KW)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.digest() == config.digest()

    def test_invalid_combinations_fail_at_resolution(self):
        with pytest.raises(ValueError):
            RuntimeConfig(resume=True)  # resume without a checkpoint
        with pytest.raises(ValueError):
            RuntimeConfig(allocation_strategy="nope")


#: Every numeric field, spelled once as an int and once as a float.
NUMERIC_SPELLINGS = [
    ("yield_trials", 10_000, 10_000.0),
    ("frequency_local_trials", 2000, 2000.0),
    ("yield_seed", 7, 7.0),
    ("sigma_ghz", 1, 1.0),
    ("random_bus_seeds", (1, 2), (1.0, 2.0)),
]

#: Values each field must reject at construction.
BAD_VALUES = [
    ("yield_trials", 10_000.5),
    ("yield_trials", 0),
    ("yield_trials", -5),
    ("yield_trials", True),
    ("yield_trials", float("nan")),
    ("yield_trials", float("inf")),
    ("frequency_local_trials", 0),
    ("frequency_local_trials", 2000.5),
    ("frequency_local_trials", False),
    ("yield_seed", 7.5),
    ("yield_seed", True),
    ("yield_seed", float("nan")),
    ("sigma_ghz", float("nan")),
    ("sigma_ghz", float("inf")),
    ("sigma_ghz", -0.03),
    ("sigma_ghz", True),
    ("sigma_ghz", "0.03"),
    ("random_bus_seeds", (1, 2.5)),
    ("random_bus_seeds", (True,)),
]


class TestRuntimeConfigValidation:
    """Numeric fields are coerced to their declared type and range-checked
    once, in ``__post_init__``: one physical config has one digest."""

    @pytest.mark.parametrize("name, as_int, as_float", NUMERIC_SPELLINGS)
    def test_int_and_float_spellings_digest_equal(self, name, as_int, as_float):
        spelled_int = RuntimeConfig(**{name: as_int})
        spelled_float = RuntimeConfig(**{name: as_float})
        assert spelled_int == spelled_float
        assert spelled_int.digest() == spelled_float.digest()

    def test_default_spellings_keep_their_digest(self):
        # The digest of a config spelled with the declared types must not
        # move: it addresses persisted sessions and checkpoints.
        assert RuntimeConfig().digest() == (
            "7dd1197baaaccbe4122c87ba4a952fcfe4a2fc27dc07e6126756ecdffe83b637"
        )

    @pytest.mark.parametrize("name, value", BAD_VALUES)
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RuntimeConfig(**{name: value})


def test_config_module_does_not_import_the_evaluation_layer():
    code = (
        "import sys\n"
        "from repro.runtime.config import RuntimeConfig\n"
        "RuntimeConfig()\n"
        "assert not [m for m in sys.modules if m.startswith('repro.evaluation')]\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestStorePathAliasing:
    """Regression: worker engine maps used to key on raw cache-path
    strings, so ``cache.json`` and ``/abs/dir/cache.json`` naming the
    same file got two engines (and two racing writers).  Sessions key on
    the config digest, which canonicalizes store paths first."""

    def test_relative_and_absolute_spellings_share_one_engine(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        relative = RuntimeConfig(routing_cache_path="cache.json", **FAST_KW)
        absolute = RuntimeConfig(
            routing_cache_path=str(tmp_path / "cache.json"), **FAST_KW
        )
        assert relative.digest() == absolute.digest()
        parallel.reset_worker_state()
        assert parallel._worker_engine(relative) is parallel._worker_engine(absolute)

    def test_symlink_aliases_share_one_engine(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        link = tmp_path / "link"
        link.symlink_to(real)
        via_real = RuntimeConfig(
            design_cache_path=str(real / "plans.json"), **FAST_KW
        )
        via_link = RuntimeConfig(
            design_cache_path=str(link / "plans.json"), **FAST_KW
        )
        assert via_real.digest() == via_link.digest()
        parallel.reset_worker_state()
        assert (parallel._worker_design_engine(via_real)
                is parallel._worker_design_engine(via_link))

    def test_different_paths_get_different_sessions(self, tmp_path):
        a = RuntimeConfig(routing_cache_path=str(tmp_path / "a.json"), **FAST_KW)
        b = RuntimeConfig(routing_cache_path=str(tmp_path / "b.json"), **FAST_KW)
        assert a.digest() != b.digest()
        parallel.reset_worker_state()
        assert parallel._worker_engine(a) is not parallel._worker_engine(b)

    def test_scheme_prefix_survives_canonicalization(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        canonical = canonical_store_path("sqlite:cache.db")
        assert canonical == f"sqlite:{tmp_path / 'cache.db'}"
        assert canonical_store_path(None) is None


class TestSessionRegistry:
    def test_session_for_is_get_or_create(self):
        parallel.reset_worker_state()
        config = RuntimeConfig(**FAST_KW)
        assert peek_session(config) is None
        session = session_for(config)
        assert session_for(config) is session
        assert peek_session(config) is session

    def test_sessions_are_lazy(self):
        parallel.reset_worker_state()
        session = session_for(RuntimeConfig(**FAST_KW))
        assert not session.has_routing_engine
        assert not session.has_design_engine


class TestSessionByteIdentity:
    """Acceptance: one shared warm Session serves design + evaluate +
    sweep with outputs byte-identical to fresh per-call engines, for any
    --jobs count, cold and warm."""

    def test_warm_session_evaluate_matches_fresh_engines(self):
        _cold_process()
        circuit = get_benchmark("sym6_145")
        fresh = evaluate_benchmark(circuit, configs=FAST_CONFIGS,
                                   settings=FAST_SETTINGS)
        session = session_for(FAST_SETTINGS)
        cold = session.evaluate("sym6_145", FAST_CONFIGS)
        warm = session.evaluate("sym6_145", FAST_CONFIGS)
        assert point_fingerprint(cold) == point_fingerprint(fresh)
        assert point_fingerprint(warm) == point_fingerprint(fresh)

    def test_warm_session_sweep_matches_cold_sweep_for_any_jobs(self):
        _cold_process()
        reference = run_sweep(["sym6_145"], jobs=1, settings=FAST_SETTINGS,
                              configs=FAST_CONFIGS)
        session = session_for(FAST_SETTINGS)  # warm from the run above
        assert session.has_design_engine
        for jobs in (1, 2, 4):
            result = session.sweep(["sym6_145"], configs=FAST_CONFIGS, jobs=jobs)
            assert point_fingerprint(result["sym6_145"]) == point_fingerprint(
                reference["sym6_145"]
            ), f"warm session sweep diverged at jobs={jobs}"


class TestConcurrentDedup:
    def test_identical_concurrent_requests_compute_once(self):
        circuit = get_benchmark("sym6_145")

        # Reference: the Algorithm 3 search cost of one cold design.
        _cold_process()
        session_for(FAST_SETTINGS).design(circuit, 1)
        single = allocation_call_count()
        assert single > 0

        _cold_process()
        session = session_for(FAST_SETTINGS)
        deduped_before = global_metrics().counter("session/deduped_requests")

        # Hold the owner's engine call open until at least one follower
        # has parked on the in-flight event (followers bump the dedup
        # counter *before* waiting).  Without the gate a fast cold design
        # can finish before the pool even dispatches the other threads,
        # and every request would be served from the warm cache instead
        # of exercising the dedup path.
        engine = session.design_engine
        real_design = engine.design

        def gated_design(*args, **kwargs):
            deadline = time.monotonic() + 10.0
            while (global_metrics().counter("session/deduped_requests")
                   <= deduped_before and time.monotonic() < deadline):
                time.sleep(0.001)
            return real_design(*args, **kwargs)

        engine.design = gated_design
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda _: session.design(circuit, 1), range(8)
                ))
        finally:
            engine.design = real_design
        assert allocation_call_count() == single, (
            "concurrent identical requests must resolve to one engine call"
        )
        assert len({arch.name for arch in results}) == 1
        assert global_metrics().counter("session/deduped_requests") > deduped_before


class TestWorkerMetricsMerge:
    def test_forked_worker_deltas_merge_into_parent(self):
        _cold_process()
        baseline = global_metrics().snapshot()
        run_sweep(["sym6_145"], jobs=2, settings=FAST_SETTINGS,
                  configs=FAST_CONFIGS)
        delta = diff_snapshots(global_metrics().snapshot(), baseline)
        counters = delta["counters"]
        # All the work happened in forked children; the parent registry
        # sees it only through the merged task deltas.
        assert counters.get("design/allocation_calls", 0) > 0
        assert counters.get("yield/estimates", 0) > 0
        assert counters.get("routing/routes", 0) > 0
        assert counters.get("design/architectures", 0) > 0

    def test_serial_sweep_counter_deltas_are_deterministic(self):
        deltas = []
        for _ in range(2):
            _cold_process()
            baseline = global_metrics().snapshot()
            run_sweep(["sym6_145"], jobs=1, settings=FAST_SETTINGS,
                      configs=FAST_CONFIGS)
            current = global_metrics().snapshot()
            deltas.append(diff_snapshots(current, baseline)["counters"])
        assert deltas[0] == deltas[1]

    def test_in_process_sweep_does_not_double_count(self):
        """jobs=1 tasks run in the parent's own registry; their deltas
        must not be merged back on top (every estimate counted once)."""
        _cold_process()
        baseline = global_metrics().counter("yield/estimates")
        results = run_sweep(["sym6_145"], jobs=1, settings=FAST_SETTINGS,
                            configs=FAST_CONFIGS)
        estimates = global_metrics().counter("yield/estimates") - baseline
        assert estimates == len(results["sym6_145"].points)
