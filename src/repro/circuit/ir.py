"""The flat integer circuit IR shared by profiling, routing and verification.

A :class:`~repro.circuit.circuit.QuantumCircuit` is lowered once
(:meth:`~repro.circuit.circuit.QuantumCircuit.lowered`, cached like its
content digest) into parallel integer arrays indexed by gate position:

* ``opcodes`` — each gate's index into ``names``;
* ``operand_a`` / ``operand_b`` — the first and second qubit of each gate
  (``-1`` where a gate has fewer);
* ``two_qubit`` — a byte mask of the gates that need a physical coupling,
  with their count cached in ``num_two_qubit``;
* the dependency DAG, built on first use: ``pred_count`` per gate plus a
  successor CSR (compressed sparse row adjacency) — gate ``g``'s
  successors are ``succ[succ_ptr[g]:succ_ptr[g + 1]]``, in ascending
  order.

A gate depends on the latest earlier gate on each of its qubits.
Barriers are not DAG nodes: they order the gates around them (a barrier
with no qubits spans the whole register) and are folded into direct
edges, so a barrier slot has no edges and never executes.
:meth:`CircuitIR.reversed` is the IR of the reversed gate sequence, built
once from the same CSR, which is what bidirectional routing passes run on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.gates import TWO_QUBIT_GATES, Gate


class CircuitIR:
    """The lowered form of one gate sequence (see the module docstring).

    The gate arrays are built eagerly; the dependency DAG (``pred_count``,
    ``succ_ptr``, ``succ`` and the initial ``front``) on first use, since
    profiling reads only the gate arrays.
    """

    __slots__ = (
        "num_qubits", "size", "num_nodes", "names", "opcodes", "operand_a",
        "operand_b", "two_qubit", "num_two_qubit", "barrier_opcode",
        "_gates", "_dag", "_reversed",
    )

    def __init__(
        self, num_qubits: int, names: Tuple[str, ...], opcodes: List[int],
        operand_a: List[int], operand_b: List[int], two_qubit: bytearray,
        gates: Optional[Sequence[Gate]] = None,
        dag: Optional[Tuple[List[int], List[int], List[int]]] = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.size = len(opcodes)
        self.names = names
        self.opcodes = opcodes
        self.operand_a = operand_a
        self.operand_b = operand_b
        self.two_qubit = two_qubit
        self.num_two_qubit = sum(two_qubit)
        #: The opcode of ``barrier`` (-1 when the circuit has none).
        self.barrier_opcode = names.index("barrier") if "barrier" in names else -1
        self.num_nodes = self.size - opcodes.count(self.barrier_opcode)
        # The gates the DAG is built from (dropped once it is), or the DAG
        # itself as (pred_count, succ_ptr, succ, front).
        self._gates = gates
        self._dag = None if dag is None else dag + (self._front_of(dag[0]),)
        self._reversed: Optional[CircuitIR] = None

    @classmethod
    def lower(cls, num_qubits: int, gates: Sequence[Gate]) -> "CircuitIR":
        """Lower a gate sequence on ``num_qubits`` qubits."""
        size = len(gates)
        opcode_of: Dict[str, int] = {}
        opcodes = [0] * size
        operand_a = [-1] * size
        operand_b = [-1] * size
        two_qubit = bytearray(size)
        for g, gate in enumerate(gates):
            name = gate.name
            opcodes[g] = opcode_of.setdefault(name, len(opcode_of))
            qubits = gate.qubits
            if qubits and name != "barrier":
                operand_a[g] = qubits[0]
                if len(qubits) > 1:
                    operand_b[g] = qubits[1]
                if name in TWO_QUBIT_GATES:
                    two_qubit[g] = 1
        return cls(num_qubits, tuple(opcode_of), opcodes, operand_a, operand_b,
                   two_qubit, gates=gates)

    # -- the dependency DAG ------------------------------------------------------

    @property
    def pred_count(self) -> List[int]:
        """Number of direct predecessors per gate (0 at barrier slots)."""
        return self._dependencies()[0]

    @property
    def succ_ptr(self) -> List[int]:
        """CSR row pointers: gate ``g``'s successors are ``succ[succ_ptr[g]:succ_ptr[g + 1]]``."""
        return self._dependencies()[1]

    @property
    def succ(self) -> List[int]:
        """CSR column indices: every gate's direct successors, ascending per gate."""
        return self._dependencies()[2]

    @property
    def front(self) -> Tuple[int, ...]:
        """The initially executable gates, ascending."""
        return self._dependencies()[3]

    def _front_of(self, pred_count: List[int]) -> Tuple[int, ...]:
        barrier = self.barrier_opcode
        return tuple(
            g for g in range(self.size) if not pred_count[g] and self.opcodes[g] != barrier
        )

    def _dependencies(self) -> Tuple[List[int], List[int], List[int], Tuple[int, ...]]:
        if self._dag is None:
            assert self._gates is not None
            num_qubits = self.num_qubits
            pred_count = [0] * self.size
            successors: List[List[int]] = [[] for _ in range(self.size)]
            # latest[q]: the gates a next gate on qubit q depends on — one
            # gate, or after a barrier the union of the latest gates on its
            # span.
            latest: List[Tuple[int, ...]] = [()] * num_qubits
            for g, gate in enumerate(self._gates):
                qubits = gate.qubits
                if gate.name == "barrier":
                    span = qubits or range(num_qubits)
                    merged = tuple(sorted({p for q in span for p in latest[q]}))
                    for q in span:
                        latest[q] = merged
                    continue
                if len(qubits) == 1:
                    preds = latest[qubits[0]]
                else:
                    preds = tuple(sorted({p for q in qubits for p in latest[q]}))
                pred_count[g] = len(preds)
                for p in preds:
                    successors[p].append(g)
                mine = (g,)
                for q in qubits:
                    latest[q] = mine
            succ_ptr = [0]
            succ: List[int] = []
            for following in successors:
                succ.extend(following)
                succ_ptr.append(len(succ))
            self._dag = (pred_count, succ_ptr, succ, self._front_of(pred_count))
            self._gates = None
        return self._dag

    def successors(self, g: int) -> List[int]:
        """Gates that depend directly on gate ``g``, ascending."""
        _, succ_ptr, succ, _ = self._dependencies()
        return succ[succ_ptr[g]:succ_ptr[g + 1]]

    def predecessors(self, g: int) -> List[int]:
        """Gates that gate ``g`` depends on directly, ascending."""
        last = self.size - 1
        return [last - r for r in reversed(self.reversed().successors(last - g))]

    def reversed(self) -> "CircuitIR":
        """The IR of the reversed gate sequence (built once, then cached).

        Gate ``g`` sits at position ``size - 1 - g`` and the dependency
        edges flip, which is exactly the DAG a fresh lowering of the
        reversed sequence would build: both keep an edge between two gates
        whenever they are consecutive on a qubit, barriers folded.
        """
        if self._reversed is None:
            _, forward_ptr, forward, _ = self._dependencies()
            last = self.size - 1
            predecessors: List[List[int]] = [[] for _ in range(self.size)]
            for g in range(self.size):
                for s in forward[forward_ptr[g]:forward_ptr[g + 1]]:
                    predecessors[s].append(g)
            succ_ptr = [0]
            succ: List[int] = []
            for g in range(last, -1, -1):
                succ.extend(last - p for p in reversed(predecessors[g]))
                succ_ptr.append(len(succ))
            pred_count = [forward_ptr[g + 1] - forward_ptr[g] for g in range(last, -1, -1)]
            flipped = CircuitIR(
                self.num_qubits, self.names, self.opcodes[::-1], self.operand_a[::-1],
                self.operand_b[::-1], self.two_qubit[::-1],
                dag=(pred_count, succ_ptr, succ),
            )
            flipped._reversed = self
            self._reversed = flipped
        return self._reversed


def lookahead(ir: CircuitIR, front: Sequence[int], depth: int) -> List[int]:
    """Up to ``depth`` two-qubit gates beyond ``front``, breadth first.

    ``front`` is the current executable front, ascending.  Every gate
    reachable from a front gate's successors is a strict descendant of
    the front, so it can be neither executed nor in the front itself —
    visited-tracking alone suffices.  Gates are claimed at enqueue time,
    so each enters the queue once; this is the router's hottest loop.
    """
    result: List[int] = []
    if depth <= 0:
        return result
    succ_ptr = ir.succ_ptr
    succ = ir.succ
    two_qubit = ir.two_qubit
    visited = bytearray(ir.size)
    queue: List[int] = []
    for g in front:
        for s in succ[succ_ptr[g]:succ_ptr[g + 1]]:
            if not visited[s]:
                visited[s] = 1
                queue.append(s)
    for g in queue:  # the list grows while it is walked: a FIFO queue
        if two_qubit[g]:
            result.append(g)
            if len(result) >= depth:
                break
        for s in succ[succ_ptr[g]:succ_ptr[g + 1]]:
            if not visited[s]:
                visited[s] = 1
                queue.append(s)
    return result
