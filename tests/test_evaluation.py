"""Tests for the evaluation harness: configurations, experiment, Pareto, analysis."""

import pytest

from repro.benchmarks import get_benchmark
from repro.evaluation import (
    ExperimentConfig,
    architectures_for_config,
    evaluate_benchmark,
    evaluate_suite,
    figure5_data,
    figure10_rows,
    format_figure10_table,
    frequency_allocation_gain,
    headline_comparisons,
    is_dominated,
    layout_effect_gain,
    pareto_front,
)
from repro.evaluation.analysis import (
    compare_points,
    geometric_mean_yield_ratio,
    mean_performance_change,
)
from repro.evaluation.experiment import DataPoint
from repro.evaluation.figures import figure10_series
from repro.evaluation.pareto import dominates_all
from repro.runtime.config import RuntimeConfig

FAST_SETTINGS = RuntimeConfig(
    yield_trials=500, frequency_local_trials=200, random_bus_seeds=(1,)
)


@pytest.fixture(scope="module")
def sym6_result():
    """Shared evaluation result for the smallest benchmark (fast settings)."""
    return evaluate_benchmark(get_benchmark("sym6_145"), settings=FAST_SETTINGS)


def make_point(yield_rate, gates, config=ExperimentConfig.EFF_FULL, buses=0, name="p"):
    return DataPoint(
        benchmark="b",
        config=config,
        architecture_name=name,
        num_qubits=7,
        num_connections=10,
        num_four_qubit_buses=buses,
        yield_rate=yield_rate,
        total_gates=gates,
    )


class TestConfigurations:
    def test_ibm_config_has_four_architectures(self):
        circuit = get_benchmark("sym6_145")
        assert len(architectures_for_config(circuit, ExperimentConfig.IBM)) == 4

    def test_eff_full_series_length(self):
        circuit = get_benchmark("sym6_145")
        archs = architectures_for_config(
            circuit, ExperimentConfig.EFF_FULL, frequency_local_trials=200
        )
        buses = [len(a.four_qubit_buses()) for a in archs]
        assert buses == list(range(len(buses)))

    def test_eff_layout_only_has_two_designs(self):
        circuit = get_benchmark("sym6_145")
        archs = architectures_for_config(circuit, ExperimentConfig.EFF_LAYOUT_ONLY)
        assert len(archs) == 2
        assert archs[0].num_connections() <= archs[1].num_connections()

    def test_eff_rd_bus_respects_seeds(self):
        circuit = get_benchmark("sym6_145")
        archs = architectures_for_config(
            circuit,
            ExperimentConfig.EFF_RD_BUS,
            random_bus_seeds=(1, 2),
            frequency_local_trials=200,
        )
        assert all("seed" in arch.name for arch in archs)

    def test_all_generated_architectures_are_valid(self):
        circuit = get_benchmark("sym6_145")
        for config in ExperimentConfig:
            for arch in architectures_for_config(
                circuit, config, random_bus_seeds=(1,), frequency_local_trials=200
            ):
                assert arch.is_valid(), (config, arch.validate())


class TestExperiment:
    def test_result_contains_all_configs(self, sym6_result):
        configs = {point.config for point in sym6_result.points}
        assert configs == set(ExperimentConfig)

    def test_normalization_puts_worst_at_one(self, sym6_result):
        worst = min(point.normalized_reciprocal_gates for point in sym6_result.points)
        assert worst == pytest.approx(1.0)

    def test_normalized_value_reciprocal_relation(self, sym6_result):
        worst_gates = max(point.total_gates for point in sym6_result.points)
        for point in sym6_result.points:
            assert point.normalized_reciprocal_gates == pytest.approx(
                worst_gates / point.total_gates
            )

    def test_yield_rates_in_unit_interval(self, sym6_result):
        assert all(0.0 <= point.yield_rate <= 1.0 for point in sym6_result.points)

    def test_by_config_filters(self, sym6_result):
        ibm_points = sym6_result.by_config(ExperimentConfig.IBM)
        assert len(ibm_points) == 4
        assert all(point.config is ExperimentConfig.IBM for point in ibm_points)

    def test_best_yield_and_best_performance(self, sym6_result):
        best_yield = sym6_result.best_yield()
        best_perf = sym6_result.best_performance()
        assert best_yield.yield_rate == max(p.yield_rate for p in sym6_result.points)
        assert best_perf.total_gates == min(p.total_gates for p in sym6_result.points)

    def test_too_small_architectures_skipped(self):
        """A 16-qubit benchmark cannot run on smaller generated layouts only."""
        circuit = get_benchmark("qft_16")
        result = evaluate_benchmark(
            circuit, configs=[ExperimentConfig.IBM], settings=FAST_SETTINGS
        )
        assert all(point.num_qubits >= 16 for point in result.points)

    def test_evaluate_suite_keys(self):
        circuits = {"sym6_145": get_benchmark("sym6_145")}
        results = evaluate_suite(
            circuits, configs=[ExperimentConfig.EFF_FULL], settings=FAST_SETTINGS
        )
        assert set(results) == {"sym6_145"}


class TestPareto:
    def test_dominated_point_detected(self):
        good = make_point(0.5, 100)
        bad = make_point(0.1, 200)
        assert is_dominated(bad, [good, bad])
        assert not is_dominated(good, [good, bad])

    def test_equal_points_do_not_dominate_each_other(self):
        a = make_point(0.5, 100, name="a")
        b = make_point(0.5, 100, name="b")
        assert not is_dominated(a, [a, b])

    def test_pareto_front_extraction(self):
        points = [
            make_point(0.5, 100, name="a"),
            make_point(0.8, 150, name="b"),
            make_point(0.1, 120, name="c"),  # dominated by a
        ]
        front = pareto_front(points)
        assert {p.architecture_name for p in front} == {"a", "b"}

    def test_front_sorted_by_gates(self):
        points = [make_point(0.8, 150, name="b"), make_point(0.5, 100, name="a")]
        assert [p.architecture_name for p in pareto_front(points)] == ["a", "b"]

    def test_dominates_all(self):
        ours = [make_point(0.5, 100), make_point(0.9, 150)]
        baselines = [make_point(0.05, 160), make_point(0.4, 110)]
        assert dominates_all(ours, baselines)
        assert not dominates_all(baselines, ours)


class TestAnalysis:
    def test_compare_points_ratio_and_change(self):
        ours = make_point(0.2, 110)
        baseline = make_point(0.02, 100)
        comparison = compare_points(ours, baseline, trials=1000)
        assert comparison.yield_ratio == pytest.approx(10.0)
        assert comparison.performance_change == pytest.approx(0.10)

    def test_zero_yield_uses_floor(self):
        ours = make_point(0.1, 100)
        baseline = make_point(0.0, 100)
        comparison = compare_points(ours, baseline, trials=1000)
        assert comparison.yield_ratio == pytest.approx(0.1 / (1.0 / 1000))

    def test_geometric_mean(self):
        comparisons = [
            compare_points(make_point(0.4, 100), make_point(0.1, 100), 1000),
            compare_points(make_point(0.9, 100), make_point(0.1, 100), 1000),
        ]
        assert geometric_mean_yield_ratio(comparisons) == pytest.approx(6.0, rel=1e-6)

    def test_mean_performance_change(self):
        comparisons = [
            compare_points(make_point(0.4, 110), make_point(0.1, 100), 1000),
            compare_points(make_point(0.4, 90), make_point(0.1, 100), 1000),
        ]
        assert mean_performance_change(comparisons) == pytest.approx(0.0)

    def test_headline_comparisons_structure(self, sym6_result):
        headline = headline_comparisons({"sym6_145": sym6_result}, trials=500)
        assert set(headline) == {"simplest_vs_ibm1", "simplest_vs_ibm2", "max_vs_ibm4"}
        assert len(headline["simplest_vs_ibm1"]) == 1

    def test_layout_and_frequency_gains_positive(self, sym6_result):
        layout = layout_effect_gain({"sym6_145": sym6_result}, trials=500)
        frequency = frequency_allocation_gain({"sym6_145": sym6_result}, trials=500)
        assert layout and frequency
        assert geometric_mean_yield_ratio(layout) > 1.0
        assert geometric_mean_yield_ratio(frequency) >= 1.0


class TestFigures:
    def test_figure5_matrices_shapes(self):
        data = figure5_data()
        assert data["UCCSD_ansatz_8"].shape == (8, 8)
        assert data["misex1_241"].shape == (15, 15)

    def test_figure10_rows_cover_all_points(self, sym6_result):
        rows = figure10_rows(sym6_result)
        assert len(rows) == len(sym6_result.points)
        assert all("yield_rate" in row for row in rows)

    def test_format_figure10_table_mentions_configs(self, sym6_result):
        table = format_figure10_table(sym6_result)
        assert "eff-full" in table
        assert "ibm" in table
        assert "sym6_145" in table

    def test_figure10_series_sorted_by_performance(self, sym6_result):
        xs, ys = figure10_series(sym6_result, ExperimentConfig.EFF_FULL)
        assert xs == sorted(xs)
        assert len(xs) == len(ys)
