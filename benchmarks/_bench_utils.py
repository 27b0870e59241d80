"""Helpers shared by the benchmark harness (result writing, settings)."""

from __future__ import annotations

import os
from pathlib import Path

from repro.runtime.config import RuntimeConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: Full-fidelity settings (the paper's configuration).
FULL_SETTINGS = RuntimeConfig(
    yield_trials=10_000,
    frequency_local_trials=2000,
    random_bus_seeds=(1, 2, 3, 4, 5),
)

#: Reduced settings used by default so the harness stays laptop-friendly.
QUICK_SETTINGS = RuntimeConfig(
    yield_trials=4000,
    frequency_local_trials=800,
    random_bus_seeds=(1, 2),
)

#: Benchmarks evaluated by default in the heavy Figure 10 sweep.
QUICK_BENCHMARKS = (
    "sym6_145",
    "UCCSD_ansatz_8",
    "z4_268",
    "dc1_220",
    "cm152a_212",
    "adr4_197",
    "ising_model_16",
    "qft_16",
)


def full_run_requested() -> bool:
    """True when the caller asked for the paper's full configuration."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")


def active_settings() -> RuntimeConfig:
    return FULL_SETTINGS if full_run_requested() else QUICK_SETTINGS


def active_benchmarks() -> tuple:
    from repro.benchmarks import BENCHMARK_NAMES

    return tuple(BENCHMARK_NAMES) if full_run_requested() else QUICK_BENCHMARKS


def write_result(name: str, text: str) -> Path:
    """Write a regenerated table to benchmarks/results/<name>.txt and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(text)
    return path
