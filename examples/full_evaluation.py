#!/usr/bin/env python3
"""Reproduce Figure 10 and the Section 5.3/5.4 headline numbers.

This is the paper's full evaluation: every benchmark is evaluated under
all five experiment configurations, the per-benchmark yield vs
performance series are printed (with an ASCII rendering of each Figure 10
subfigure), and the aggregate comparisons are summarized:

* most simplified design vs IBM 16Q baseline (paper: ~4x yield, ~7.7% perf);
* most simplified design vs IBM 16Q + four 4-qubit buses (paper: >100x yield);
* maximally connected design vs IBM 20Q + six 4-qubit buses (paper: >1000x yield);
* layout subroutine alone (paper: ~35x yield on average);
* frequency allocation subroutine (paper: ~10x yield on average).

The full run with the paper's 10,000-trial Monte Carlo takes several
minutes; pass ``--fast`` to use reduced settings for a quick look, or
name specific benchmarks on the command line.

Run:  python examples/full_evaluation.py [--fast] [benchmark ...]
"""

import argparse

from repro.benchmarks import BENCHMARK_NAMES, benchmark_suite
from repro.evaluation import (
    evaluate_suite,
    frequency_allocation_gain,
    headline_comparisons,
    layout_effect_gain,
)
from repro.evaluation.analysis import geometric_mean_yield_ratio, mean_performance_change
from repro.evaluation.figures import format_figure10_table
from repro.runtime.config import RuntimeConfig
from repro.visualization import render_pareto_scatter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmarks", nargs="*", default=list(BENCHMARK_NAMES))
    parser.add_argument("--fast", action="store_true",
                        help="reduced Monte Carlo settings for a quick run")
    parser.add_argument("--plot", action="store_true", help="print ASCII Pareto plots")
    args = parser.parse_args()

    if args.fast:
        settings = RuntimeConfig(
            yield_trials=2000, frequency_local_trials=500, random_bus_seeds=(1, 2)
        )
    else:
        settings = RuntimeConfig()

    circuits = benchmark_suite(args.benchmarks)
    results = evaluate_suite(circuits, settings=settings)

    for result in results.values():
        print(format_figure10_table(result))
        if args.plot:
            print()
            print(render_pareto_scatter(result))
        print()

    trials = settings.yield_trials
    headline = headline_comparisons(results, trials=trials)
    print("=== Section 5.3 headline comparisons (geometric-mean yield ratio, mean perf change) ===")
    for key, label, paper in (
        ("simplest_vs_ibm1", "simplest eff-full vs IBM 16Q 2Q-bus", "~4x yield, ~-7.7% gates"),
        ("simplest_vs_ibm2", "simplest eff-full vs IBM 16Q 4Q-bus", ">100x yield, <+1% gates"),
        ("max_vs_ibm4", "max-bus eff-full vs IBM 20Q 4Q-bus", ">1000x yield, ~+3.5% gates"),
    ):
        comparisons = headline[key]
        if not comparisons:
            continue
        print(f"{label:<45} yield x{geometric_mean_yield_ratio(comparisons):8.1f}   "
              f"gates {mean_performance_change(comparisons):+6.1%}   (paper: {paper})")

    layout = layout_effect_gain(results, trials=trials)
    frequency = frequency_allocation_gain(results, trials=trials)
    print("\n=== Section 5.4 subroutine breakdowns ===")
    if layout:
        print(f"{'layout design only vs IBM baseline (2)':<45} "
              f"yield x{geometric_mean_yield_ratio(layout):8.1f}   "
              f"gates {mean_performance_change(layout):+6.1%}   (paper: ~35x)")
    if frequency:
        print(f"{'optimized frequencies vs 5-frequency scheme':<45} "
              f"yield x{geometric_mean_yield_ratio(frequency):8.1f}   "
              f"gates {mean_performance_change(frequency):+6.1%}   (paper: ~10x)")


if __name__ == "__main__":
    main()
