"""The profiler front end: one call extracting everything the design flow needs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.profiling.coupling import (
    coupling_strength_matrix,
    degree_list_of,
    graph_of,
    weights_of,
)


@dataclass
class CircuitProfile:
    """Profiling result consumed by the architecture design flow.

    Attributes:
        circuit_name: Name of the profiled circuit.
        num_qubits: Logical register size.
        strength_matrix: Symmetric matrix of two-qubit gate counts.
        degree_list: ``(qubit, degree)`` pairs in descending degree order.
        graph: The weighted logical coupling graph.
        num_two_qubit_gates: Total number of two-qubit gates.
        num_gates: Total gate count (including 1q gates and measurements).
    """

    circuit_name: str
    num_qubits: int
    strength_matrix: np.ndarray
    degree_list: List[Tuple[int, int]]
    graph: nx.Graph
    num_two_qubit_gates: int
    num_gates: int
    _edge_weights: Dict[Tuple[int, int], int] = field(default_factory=dict, repr=False)

    # -- convenience accessors -----------------------------------------------------

    def strength(self, qubit_a: int, qubit_b: int) -> int:
        """Number of two-qubit gates between the two logical qubits."""
        return int(self.strength_matrix[qubit_a, qubit_b])

    def degree(self, qubit: int) -> int:
        """Coupling degree of a qubit."""
        return int(self.strength_matrix[qubit].sum())

    def neighbors(self, qubit: int) -> List[int]:
        """Logical qubits sharing at least one two-qubit gate with ``qubit``."""
        return sorted(self.graph.neighbors(qubit))

    def coupled_pairs(self) -> List[Tuple[int, int]]:
        """All ``(i, j)`` with ``i < j`` having non-zero coupling strength."""
        return sorted(self._edge_weights)

    def edge_weight_map(self) -> Dict[Tuple[int, int], int]:
        """Copy of the coupled-pair weight dictionary."""
        return dict(self._edge_weights)

    @property
    def max_strength(self) -> int:
        """Largest pairwise coupling strength (0 for a circuit with no 2q gates)."""
        return int(self.strength_matrix.max()) if self.strength_matrix.size else 0

    def summary(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit_name,
            "num_qubits": self.num_qubits,
            "num_gates": self.num_gates,
            "num_two_qubit_gates": self.num_two_qubit_gates,
            "num_coupled_pairs": len(self._edge_weights),
            "max_pair_strength": self.max_strength,
        }


def profile_circuit(circuit: QuantumCircuit) -> CircuitProfile:
    """Profile a circuit per paper Section 3.1.

    Single-qubit gates, initialization, and measurement operations are
    ignored; only the two-qubit gate structure is extracted.  The
    strength matrix is counted once, from the circuit's lowered IR, and
    everything else is derived from it.
    """
    matrix = coupling_strength_matrix(circuit)
    weights = weights_of(matrix)
    return CircuitProfile(
        circuit_name=circuit.name,
        num_qubits=circuit.num_qubits,
        strength_matrix=matrix,
        degree_list=degree_list_of(matrix),
        graph=graph_of(circuit.num_qubits, weights),
        num_two_qubit_gates=circuit.lowered().num_two_qubit,
        num_gates=len(circuit),
        _edge_weights=weights,
    )
