"""The benchmark library: the twelve programs of the paper's evaluation.

Every benchmark is identified by the exact name used in Figure 10.  The
qubit counts match the paper; the reversible-arithmetic circuits are
synthetic substitutes (see :mod:`repro.benchmarks.reversible` and
DESIGN.md) whose gate-count scale and coupling-pattern character follow
the originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qft import qft_circuit
from repro.benchmarks.reversible import ReversibleSpec, reversible_circuit
from repro.benchmarks.uccsd import uccsd_ansatz_circuit


@dataclass(frozen=True)
class BenchmarkInfo:
    """Metadata for one benchmark program.

    Attributes:
        name: The name used in the paper's figures.
        num_qubits: Logical register size.
        domain: Application domain (reporting only).
        source: Where the paper obtained the original circuit.
        synthetic: True when this library substitutes a synthetic circuit.
    """

    name: str
    num_qubits: int
    domain: str
    source: str
    synthetic: bool


_REVERSIBLE_SPECS: Dict[str, ReversibleSpec] = {
    "adr4_197": ReversibleSpec(
        name="adr4_197", num_qubits=13, num_inputs=8, num_terms=110, max_controls=3,
        cluster_size=4,
    ),
    "radd_250": ReversibleSpec(
        name="radd_250", num_qubits=13, num_inputs=8, num_terms=100, max_controls=3,
        cluster_size=4,
    ),
    "rd84_142": ReversibleSpec(
        name="rd84_142", num_qubits=15, num_inputs=8, num_terms=105, max_controls=3,
        cluster_size=5,
    ),
    "misex1_241": ReversibleSpec(
        name="misex1_241", num_qubits=15, num_inputs=6, num_terms=140, max_controls=3,
        cluster_size=4,
    ),
    "square_root_7": ReversibleSpec(
        name="square_root_7", num_qubits=15, num_inputs=7, num_terms=120, max_controls=3,
        cluster_size=4,
    ),
    "cm152a_212": ReversibleSpec(
        name="cm152a_212", num_qubits=12, num_inputs=11, num_terms=80, max_controls=3,
        cluster_size=4,
    ),
    "dc1_220": ReversibleSpec(
        name="dc1_220", num_qubits=11, num_inputs=4, num_terms=90, max_controls=3,
        cluster_size=3,
    ),
    "z4_268": ReversibleSpec(
        name="z4_268", num_qubits=11, num_inputs=7, num_terms=95, max_controls=3,
        cluster_size=4,
    ),
    "sym6_145": ReversibleSpec(
        name="sym6_145", num_qubits=7, num_inputs=6, num_terms=90, max_controls=3,
        cluster_size=4,
    ),
}


_BENCHMARK_INFO: Dict[str, BenchmarkInfo] = {
    "adr4_197": BenchmarkInfo("adr4_197", 13, "arithmetic", "RevLib", True),
    "radd_250": BenchmarkInfo("radd_250", 13, "arithmetic", "RevLib", True),
    "rd84_142": BenchmarkInfo("rd84_142", 15, "arithmetic", "RevLib", True),
    "misex1_241": BenchmarkInfo("misex1_241", 15, "arithmetic", "RevLib", True),
    "square_root_7": BenchmarkInfo("square_root_7", 15, "arithmetic", "RevLib", True),
    "cm152a_212": BenchmarkInfo("cm152a_212", 12, "arithmetic", "RevLib", True),
    "dc1_220": BenchmarkInfo("dc1_220", 11, "arithmetic", "RevLib", True),
    "z4_268": BenchmarkInfo("z4_268", 11, "arithmetic", "RevLib", True),
    "sym6_145": BenchmarkInfo("sym6_145", 7, "symmetric function", "RevLib", True),
    "UCCSD_ansatz_8": BenchmarkInfo("UCCSD_ansatz_8", 8, "VQE / simulation", "QISKit", False),
    "ising_model_16": BenchmarkInfo("ising_model_16", 16, "simulation", "ScaffCC", False),
    "qft_16": BenchmarkInfo("qft_16", 16, "arithmetic / transform", "QISKit", False),
}

#: Benchmark names in the order used throughout the evaluation.
BENCHMARK_NAMES: Tuple[str, ...] = tuple(_BENCHMARK_INFO)


def _build(name: str) -> QuantumCircuit:
    """Synthesize the named benchmark, memoized, returning a caller-owned copy.

    Benchmark synthesis is deterministic but not free (the reversible
    substitutes decompose hundreds of multi-controlled gates), and sweep
    workers rebuild their circuit once per task.  The master circuit per
    name is built once per process; every caller receives a fresh copy,
    so mutating a returned circuit can never leak into later calls.
    """
    master = _MASTERS.get(name)
    if master is None:
        if name in _REVERSIBLE_SPECS:
            master = reversible_circuit(_REVERSIBLE_SPECS[name])
        elif name == "UCCSD_ansatz_8":
            master = uccsd_ansatz_circuit(8)
        elif name == "ising_model_16":
            master = ising_model_circuit(16)
        elif name == "qft_16":
            master = qft_circuit(16)
        else:
            raise KeyError(name)
        # Warm the digest and the lowered IR so every copy shares them.
        master.content_hash()
        master.lowered()
        _MASTERS[name] = master
    return master.copy()


_MASTERS: Dict[str, QuantumCircuit] = {}


def get_benchmark(name: str) -> QuantumCircuit:
    """Build the benchmark circuit with the given paper name.

    Names are case-insensitive; the canonical spellings are listed in
    :data:`BENCHMARK_NAMES`.
    """
    canonical = _canonical_name(name)
    return _build(canonical)


def benchmark_info(name: str) -> BenchmarkInfo:
    """Metadata for the named benchmark."""
    return _BENCHMARK_INFO[_canonical_name(name)]


def benchmark_suite(names: List[str] = None) -> Dict[str, QuantumCircuit]:
    """Build several benchmarks at once (all twelve by default)."""
    selected = [_canonical_name(n) for n in names] if names else list(BENCHMARK_NAMES)
    return {name: _build(name) for name in selected}


def _canonical_name(name: str) -> str:
    lowered = name.lower()
    for canonical in _BENCHMARK_INFO:
        if canonical.lower() == lowered:
            return canonical
    raise KeyError(
        f"unknown benchmark {name!r}; available benchmarks: {', '.join(BENCHMARK_NAMES)}"
    )
