"""Coupling strength matrix and coupling degree list (paper Section 3.1).

These functions implement exactly the profiling procedure illustrated by
Figure 4 of the paper: single-qubit gates, initialization, and
measurements are ignored; each two-qubit gate adds one to the symmetric
coupling strength matrix; the coupling degree of a qubit is the sum of
the weights of its incident edges in the logical coupling graph.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.circuit.circuit import QuantumCircuit


def coupling_strength_matrix(circuit: QuantumCircuit) -> np.ndarray:
    """The symmetric matrix of two-qubit gate counts per logical qubit pair.

    Entry ``(i, j)`` is the number of two-qubit gate instances acting on
    logical qubits ``i`` and ``j`` (regardless of which is the control).
    The diagonal is zero.  Counted from the circuit's lowered IR.
    """
    ir = circuit.lowered()
    n = ir.num_qubits
    mask = np.frombuffer(ir.two_qubit, dtype=np.uint8).astype(bool)
    first = np.asarray(ir.operand_a, dtype=np.int64)[mask]
    second = np.asarray(ir.operand_b, dtype=np.int64)[mask]
    counts = np.bincount(first * n + second, minlength=n * n).reshape(n, n)
    return (counts + counts.T).astype(np.int64)


def coupling_degrees(circuit: QuantumCircuit) -> np.ndarray:
    """Per-qubit coupling degree: total number of two-qubit gates on each qubit."""
    return coupling_strength_matrix(circuit).sum(axis=1)


def coupling_degree_list(circuit: QuantumCircuit) -> List[Tuple[int, int]]:
    """Qubits sorted by coupling degree, descending (paper Figure 4 (d)).

    Returns:
        A list of ``(qubit_index, coupling_degree)`` pairs.  Ties are broken
        by qubit index so the ordering is deterministic.
    """
    return degree_list_of(coupling_strength_matrix(circuit))


def coupling_graph(circuit: QuantumCircuit) -> nx.Graph:
    """The logical coupling graph (paper Figure 4 (b)).

    Vertices are logical qubits; an edge exists when at least one two-qubit
    gate acts on the pair, weighted by the number of such gates.  Qubits
    with no two-qubit gates still appear as isolated vertices.
    """
    matrix = coupling_strength_matrix(circuit)
    return graph_of(matrix.shape[0], weights_of(matrix))


def edge_weights(circuit: QuantumCircuit) -> Dict[Tuple[int, int], int]:
    """Dictionary of ``(i, j) -> weight`` with ``i < j`` for coupled pairs only."""
    return weights_of(coupling_strength_matrix(circuit))


# -- derived from a strength matrix (the profiler computes the matrix once) --


def degree_list_of(matrix: np.ndarray) -> List[Tuple[int, int]]:
    """:func:`coupling_degree_list` of a strength matrix."""
    degrees = matrix.sum(axis=1)
    order = sorted(range(matrix.shape[0]), key=lambda q: (-int(degrees[q]), q))
    return [(q, int(degrees[q])) for q in order]


def weights_of(matrix: np.ndarray) -> Dict[Tuple[int, int], int]:
    """:func:`edge_weights` of a strength matrix, pairs in row-major order."""
    rows, cols = np.nonzero(np.triu(matrix, k=1))
    return {(int(i), int(j)): int(matrix[i, j]) for i, j in zip(rows, cols)}


def graph_of(num_qubits: int, weights: Dict[Tuple[int, int], int]) -> nx.Graph:
    """:func:`coupling_graph` from :func:`weights_of` a strength matrix."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    for (i, j), weight in weights.items():
        graph.add_edge(i, j, weight=weight)
    return graph
