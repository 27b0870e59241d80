"""Tests for the staged design engine (profile/layout/selection/frequency caches)."""

import pytest

from repro.benchmarks import get_benchmark
from repro.design import DesignEngine, DesignFlow, DesignOptions
from repro.design.bus_selection import select_four_qubit_buses, select_random_buses
from repro.design.engine import BusStrategy, FrequencyStrategy
from repro.evaluation import ExperimentConfig, architectures_for_config


FAST = DesignOptions(local_trials=200)


@pytest.fixture
def engine():
    return DesignEngine()


@pytest.fixture
def circuit():
    return get_benchmark("sym6_145")


def fingerprint(architecture):
    return (
        architecture.name,
        tuple(sorted(bus.square.origin for bus in architecture.four_qubit_buses())),
        tuple(sorted(architecture.coupling_edges())),
        tuple(sorted(architecture.frequencies.items())),
    )


class TestStageCaches:
    def test_profile_and_layout_computed_once_per_content(self, engine, circuit):
        first = engine.profile(circuit)
        assert engine.profile(circuit) is first
        layout = engine.layout(circuit)
        assert engine.layout(circuit) is layout
        stats = engine.stats()
        assert stats["profile"]["misses"] == 1
        assert stats["layout"]["misses"] == 1

    def test_equal_circuit_objects_share_stages(self, engine, circuit):
        other = get_benchmark("sym6_145")
        assert other is not circuit
        assert engine.profile(circuit) is engine.profile(other)
        assert engine.stats()["profile"]["misses"] == 1

    def test_bus_selection_prefixes_match_direct_calls(self, engine, circuit):
        profile = engine.profile(circuit)
        layout = engine.layout(circuit)
        for k in range(engine.max_four_qubit_buses(circuit) + 2):
            direct = select_four_qubit_buses(layout.lattice, profile, k)
            via_engine = engine.bus_selection(circuit, k)
            assert [s.origin for s in via_engine.selected_squares] == \
                [s.origin for s in direct.selected_squares]
            assert via_engine.max_available == direct.max_available
            assert via_engine.weights == direct.weights
        # One full-length selection serves every budget.
        assert engine.stats()["bus-selection"]["misses"] == 1

    def test_random_bus_selection_prefixes_match_direct_calls(self, engine, circuit):
        layout = engine.layout(circuit)
        options = DesignOptions(bus_strategy=BusStrategy.RANDOM, random_bus_seed=5)
        for k in range(4):
            direct = select_random_buses(layout.lattice, k, seed=5)
            via_engine = engine.bus_selection(circuit, k, options)
            assert [s.origin for s in via_engine.selected_squares] == \
                [s.origin for s in direct.selected_squares]

    def test_unseeded_random_selection_bypasses_cache(self, engine, circuit):
        options = DesignOptions(bus_strategy=BusStrategy.RANDOM, random_bus_seed=None)
        before = engine.stats()["bus-selection"]["entries"]
        engine.bus_selection(circuit, 2, options)
        assert engine.stats()["bus-selection"]["entries"] == before

    def test_frequency_stage_shared_across_identical_connection_designs(
        self, engine, circuit
    ):
        first = engine.design(circuit, 1, FAST)
        # A differently named architecture with the same coupling design
        # reuses the memoized allocation.
        second = engine.design(circuit, 1, FAST, name="renamed")
        assert second.frequencies == first.frequencies
        stats = engine.stats()["frequency"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_designs_are_caller_owned(self, engine, circuit):
        first = engine.design(circuit, 1, FAST)
        first.name = "mutated"
        first.frequencies[0] = 9.99
        second = engine.design(circuit, 1, FAST)
        assert second.name != "mutated"
        assert second.frequencies[0] != 9.99


class TestEngineEquivalence:
    def test_design_matches_private_flow(self, engine, circuit):
        from_engine = engine.design(circuit, 1, FAST)
        from_flow = DesignFlow(circuit, FAST).design(1)
        assert fingerprint(from_engine) == fingerprint(from_flow)

    def test_series_matches_private_flow(self, engine, circuit):
        via_engine = engine.design_series(circuit, options=FAST)
        via_flow = DesignFlow(circuit, FAST).design_series()
        assert [fingerprint(a) for a in via_engine] == [fingerprint(a) for a in via_flow]

    def test_shared_engine_does_not_change_flow_results(self, engine, circuit):
        shared_a = DesignFlow(circuit, FAST, engine=engine).design_series()
        shared_b = DesignFlow(circuit, FAST, engine=engine).design_series()
        private = DesignFlow(circuit, FAST).design_series()
        assert [fingerprint(a) for a in shared_a] == [fingerprint(a) for a in private]
        assert [fingerprint(a) for a in shared_b] == [fingerprint(a) for a in private]

    def test_max_buses_matches_selection(self, engine, circuit):
        direct = select_four_qubit_buses(
            engine.layout(circuit).lattice, engine.profile(circuit), None
        )
        assert engine.max_four_qubit_buses(circuit) == direct.max_available


class TestAblationFlows:
    """The ablation configurations run through the engine with correct reuse."""

    def test_eff_5_freq_reuses_upstream_stages(self, engine, circuit):
        architectures_for_config(
            circuit, ExperimentConfig.EFF_FULL,
            frequency_local_trials=200, engine=engine,
        )
        stats_before = engine.stats()
        five_freq = architectures_for_config(
            circuit, ExperimentConfig.EFF_5_FREQ,
            frequency_local_trials=200, engine=engine,
        )
        stats_after = engine.stats()
        assert five_freq, "eff-5-freq produced no architectures"
        # Same circuit, same layout, same greedy selection: the ablation
        # adds no profile/layout/selection misses and — because the
        # 5-frequency scheme is a closed-form pattern — no frequency-stage
        # work at all.
        for stage in ("profile", "layout", "bus-selection", "frequency"):
            assert stats_after[stage]["misses"] == stats_before[stage]["misses"], stage
        assert stats_after["profile"]["hits"] > stats_before["profile"]["hits"]
        assert all(
            arch.name.endswith("5freq") for arch in five_freq
        )

    def test_eff_rd_bus_runs_through_engine(self, engine, circuit):
        first = architectures_for_config(
            circuit, ExperimentConfig.EFF_RD_BUS,
            random_bus_seeds=(1, 2), frequency_local_trials=200, engine=engine,
        )
        stats = engine.stats()
        # One full random selection sequence per seed (plus the greedy
        # sequence sizing the series), each a single selection-stage miss.
        assert stats["bus-selection"]["misses"] == 3
        assert stats["frequency"]["misses"] <= len(first)
        # Regenerating is served from the caches: no new misses anywhere.
        second = architectures_for_config(
            circuit, ExperimentConfig.EFF_RD_BUS,
            random_bus_seeds=(1, 2), frequency_local_trials=200, engine=engine,
        )
        stats_again = engine.stats()
        for stage in ("profile", "layout", "bus-selection", "frequency"):
            assert stats_again[stage]["misses"] == stats[stage]["misses"], stage
        assert [fingerprint(a) for a in first] == [fingerprint(a) for a in second]

    def test_rd_bus_duplicate_square_sets_share_allocations(self, engine, circuit):
        architectures = architectures_for_config(
            circuit, ExperimentConfig.EFF_RD_BUS,
            random_bus_seeds=(1, 2, 3, 4, 5), frequency_local_trials=200, engine=engine,
        )
        distinct_designs = {
            tuple(sorted(arch.coupling_edges())) for arch in architectures
        }
        stats = engine.stats()["frequency"]
        # Seeds that agree on their selected squares share one Algorithm 3
        # run: allocation misses equal the number of distinct connection
        # designs, not the number of architectures.
        assert stats["misses"] == len(distinct_designs)
        assert len(distinct_designs) < len(architectures)


class TestEnumCompatibility:
    def test_enums_importable_from_flow_module(self):
        from repro.design.flow import BusStrategy as FlowBus
        from repro.design.flow import FrequencyStrategy as FlowFreq

        assert FlowBus is BusStrategy
        assert FlowFreq is FrequencyStrategy


class TestUnseededRandomSeries:
    def test_unseeded_random_series_never_duplicates(self, engine, circuit):
        """Unseeded random selection redraws per call, so the series must
        dedup on the *built* architectures, like the pre-engine flow."""
        options = DesignOptions(
            bus_strategy=BusStrategy.RANDOM,
            random_bus_seed=None,
            frequency_strategy=FrequencyStrategy.FIVE_FREQUENCY,
        )
        for _attempt in range(3):
            counts = [
                len(arch.four_qubit_buses())
                for arch in engine.design_series(circuit, options=options)
            ]
            assert counts == sorted(set(counts)), counts
