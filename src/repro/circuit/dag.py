"""Gate dependency DAG views over the flat circuit IR.

The mapper (``repro.mapping``) consumes two-qubit gates in dependency
order: a gate becomes executable only once all earlier gates acting on any
of its qubits have been executed.  That partial order lives in the
circuit's lowered :class:`~repro.circuit.ir.CircuitIR`; :class:`CircuitDAG`
and :class:`ExecutionFrontier` are thin object views over it, in the
style of the SABRE algorithm (Li et al., ASPLOS 2019 — reference [18] of
the paper), for callers that want :class:`DAGNode` objects.  The router
and the routing verifier run on the IR arrays directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate
from repro.circuit.ir import CircuitIR, lookahead


@dataclass
class DAGNode:
    """A node in the dependency DAG.

    Attributes:
        index: Position of the gate in the original circuit.
        gate: The gate itself.
        predecessors: Indices of nodes that must execute before this one.
        successors: Indices of nodes that depend on this one.
    """

    index: int
    gate: Gate
    predecessors: Set[int] = field(default_factory=set)
    successors: Set[int] = field(default_factory=set)


class CircuitDAG:
    """Dependency DAG over the gates of a circuit.

    Barriers order the gates around them but are not emitted as nodes to
    execute; measurements and single-qubit gates are kept so that the
    router can reproduce the *total* post-mapping gate count used as the
    performance metric in Section 5.1.  Nodes are built on first access.
    """

    def __init__(self, circuit: QuantumCircuit) -> None:
        self._circuit = circuit
        self._ir = circuit.lowered()
        self._nodes: Dict[int, DAGNode] = {}

    # -- read-only structure -------------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        return self._circuit

    @property
    def ir(self) -> CircuitIR:
        """The lowered circuit this DAG views."""
        return self._ir

    @property
    def num_nodes(self) -> int:
        return self._ir.num_nodes

    def node(self, index: int) -> DAGNode:
        node = self._nodes.get(index)
        if node is None:
            gate = self._circuit.gates[index]
            if gate.name == "barrier":
                raise KeyError(index)
            node = DAGNode(index, gate, set(self._ir.predecessors(index)),
                           set(self._ir.successors(index)))
            self._nodes[index] = node
        return node

    def nodes(self) -> List[DAGNode]:
        """All nodes sorted by original circuit position."""
        gates = self._circuit.gates
        return [self.node(i) for i in range(len(gates)) if gates[i].name != "barrier"]

    def topological_order(self) -> List[DAGNode]:
        """Kahn's algorithm; ties broken by original circuit order."""
        ir = self._ir
        remaining = list(ir.pred_count)
        ready = list(ir.front)
        order: List[DAGNode] = []
        while ready:
            index = heapq.heappop(ready)
            order.append(self.node(index))
            for succ in ir.successors(index):
                remaining[succ] -= 1
                if not remaining[succ]:
                    heapq.heappush(ready, succ)
        if len(order) != ir.num_nodes:
            raise RuntimeError("cycle detected in circuit DAG (should be impossible)")
        return order

    def front_layer(self) -> List[DAGNode]:
        """Nodes with no predecessors (initially executable gates)."""
        return [self.node(i) for i in self._ir.front]


class ExecutionFrontier:
    """Mutable traversal state over a :class:`CircuitDAG`.

    Tracks which gates have executed and which are executable now (the
    *front layer*), and looks ahead past the front.
    """

    def __init__(self, dag: CircuitDAG) -> None:
        self._dag = dag
        self._remaining_preds: List[int] = list(dag.ir.pred_count)
        self._front: Set[int] = set(dag.ir.front)
        self._num_executed = 0

    @property
    def done(self) -> bool:
        """True once every gate has been executed."""
        return self._num_executed == self._dag.num_nodes

    @property
    def num_executed(self) -> int:
        return self._num_executed

    @property
    def remaining(self) -> int:
        """Number of gates not yet executed."""
        return self._dag.num_nodes - self._num_executed

    def front_nodes(self) -> List[DAGNode]:
        """Currently executable gates, in original circuit order."""
        return [self._dag.node(i) for i in sorted(self._front)]

    def execute(self, index: int) -> List[DAGNode]:
        """Mark gate ``index`` as executed and return newly unblocked nodes."""
        if index not in self._front:
            raise ValueError(f"gate {index} is not currently executable")
        self._front.discard(index)
        self._num_executed += 1
        unblocked: List[DAGNode] = []
        remaining = self._remaining_preds
        for succ in self._dag.ir.successors(index):
            remaining[succ] -= 1
            if not remaining[succ]:
                self._front.add(succ)
                unblocked.append(self._dag.node(succ))
        return unblocked

    def lookahead_nodes(self, depth: int) -> List[DAGNode]:
        """Up to ``depth`` not-yet-executable two-qubit gates beyond the front layer.

        Used by the SABRE-style extended-set heuristic: SWAP decisions
        consider gates that will become executable soon, not just the
        immediately blocked ones.
        """
        return [
            self._dag.node(i)
            for i in lookahead(self._dag.ir, sorted(self._front), depth)
        ]
