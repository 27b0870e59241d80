"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`~repro.circuit.gates.Gate` objects
acting on ``num_qubits`` logical qubits.  It is deliberately minimal: the
architecture design flow needs gate ordering, two-qubit structure, and
qubit counts — it does not simulate state vectors.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.circuit.gates import Gate, GateKind
from repro.circuit.ir import CircuitIR


class QuantumCircuit:
    """An ordered sequence of gates on a fixed register of logical qubits.

    Args:
        num_qubits: Size of the logical qubit register.
        name: Optional human-readable name (used in reports and figures).
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._gates: List[Gate] = []
        self._gates_tuple: Optional[Tuple[Gate, ...]] = None
        self._content_hash: Optional[int] = None
        self._ir: Optional[CircuitIR] = None
        self.name = name

    # -- basic container protocol -------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of logical qubits in the register."""
        return self._num_qubits

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gate sequence as an immutable tuple (cached until the next append)."""
        if self._gates_tuple is None:
            self._gates_tuple = tuple(self._gates)
        return self._gates_tuple

    def content_hash(self) -> int:
        """A 64-bit digest of the gate sequence, cached until the next append.

        Routing caches key circuits by value; hashing thousands of gate
        dataclasses per lookup would dwarf the lookup itself, so the digest
        is computed once per mutation generation.  It is derived from
        SHA-256 over a canonical per-gate encoding — **not** Python's
        salted ``hash()`` — so the same circuit digests identically in
        every process, which persisted routing caches rely on for their
        keys to match across invocations.
        """
        if self._content_hash is None:
            digest = hashlib.sha256()
            for gate in self.gates:
                digest.update(repr((gate.name, gate.qubits, gate.params)).encode())
            self._content_hash = int.from_bytes(digest.digest()[:8], "big")
        return self._content_hash

    def lowered(self) -> CircuitIR:
        """The circuit lowered to the flat integer IR, cached until the next append.

        Profiling, routing and routing verification all read this one
        :class:`~repro.circuit.ir.CircuitIR` instead of the gate objects,
        so a circuit is lowered once however many architectures it is
        routed onto.
        """
        if self._ir is None:
            self._ir = CircuitIR.lower(self._num_qubits, self.gates)
        return self._ir

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        return self._gates[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self._num_qubits == other._num_qubits and self._gates == other._gates

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self._num_qubits}, "
            f"num_gates={len(self._gates)})"
        )

    # -- construction -------------------------------------------------------------

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a gate, validating qubit indices.  Returns ``self`` for chaining."""
        for qubit in gate.qubits:
            if not 0 <= qubit < self._num_qubits:
                raise ValueError(
                    f"gate {gate} uses qubit {qubit} outside register of size {self._num_qubits}"
                )
        self._gates.append(gate)
        self._gates_tuple = None
        self._content_hash = None
        self._ir = None
        return self

    def append_unchecked(self, gate: Gate) -> None:
        """Append a gate without qubit-range validation.

        For loops that construct gates on indices already known to be in
        range (building a routed circuit appends one gate per routing
        step); everything else should use :meth:`append`.
        """
        self._gates.append(gate)
        self._gates_tuple = None
        self._content_hash = None
        self._ir = None

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        """Append every gate from ``gates``."""
        for gate in gates:
            self.append(gate)
        return self

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append all gates of ``other`` (registers must be compatible)."""
        if other.num_qubits > self._num_qubits:
            raise ValueError(
                f"cannot compose a {other.num_qubits}-qubit circuit onto "
                f"a {self._num_qubits}-qubit circuit"
            )
        return self.extend(other.gates)

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Return a shallow copy (gates are immutable, so this is safe).

        The cached gate tuple, content digest and lowered IR carry over —
        they describe the same gate sequence — so copies hit the engines'
        identity fast paths instead of re-hashing, re-comparing or
        re-lowering thousands of gates; every cache resets independently
        on the copy's next append.
        """
        new = QuantumCircuit(self._num_qubits, name or self.name)
        new._gates = list(self._gates)
        new._gates_tuple = self._gates_tuple
        new._content_hash = self._content_hash
        new._ir = self._ir
        return new

    def remap_qubits(self, mapping: Dict[int, int], num_qubits: Optional[int] = None,
                     name: Optional[str] = None) -> "QuantumCircuit":
        """Return a new circuit with every qubit index translated through ``mapping``."""
        size = num_qubits if num_qubits is not None else self._num_qubits
        new = QuantumCircuit(size, name or self.name)
        for gate in self._gates:
            new.append(gate.remap(mapping))
        return new

    # -- statistics used throughout the paper -------------------------------------

    def count_gates(self, predicate: Optional[Callable[[Gate], bool]] = None) -> int:
        """Count gates, optionally restricted to those satisfying ``predicate``."""
        if predicate is None:
            return len(self._gates)
        return sum(1 for gate in self._gates if predicate(gate))

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates (the quantity profiled in Section 3)."""
        return self.count_gates(lambda g: g.is_two_qubit)

    @property
    def num_single_qubit_gates(self) -> int:
        return self.count_gates(lambda g: g.kind is GateKind.SINGLE_QUBIT)

    @property
    def num_measurements(self) -> int:
        return self.count_gates(lambda g: g.kind is GateKind.MEASUREMENT)

    def gate_counts(self) -> Dict[str, int]:
        """Histogram of gate names."""
        counts: Dict[str, int] = {}
        for gate in self._gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    def two_qubit_pairs(self) -> List[Tuple[int, int]]:
        """Ordered (control, target) pairs of every two-qubit gate."""
        return [tuple(g.qubits) for g in self._gates if g.is_two_qubit]

    def used_qubits(self) -> List[int]:
        """Sorted list of qubit indices touched by at least one gate."""
        used = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return sorted(used)

    def depth(self) -> int:
        """Circuit depth counting single- and two-qubit gates (barriers ignored)."""
        layer_of_qubit = [0] * self._num_qubits
        depth = 0
        for gate in self._gates:
            if gate.kind is GateKind.BARRIER:
                continue
            layer = 1 + max(layer_of_qubit[q] for q in gate.qubits)
            for qubit in gate.qubits:
                layer_of_qubit[qubit] = layer
            depth = max(depth, layer)
        return depth

    def two_qubit_depth(self) -> int:
        """Circuit depth counting only two-qubit gates."""
        layer_of_qubit = [0] * self._num_qubits
        depth = 0
        for gate in self._gates:
            if not gate.is_two_qubit:
                continue
            layer = 1 + max(layer_of_qubit[q] for q in gate.qubits)
            for qubit in gate.qubits:
                layer_of_qubit[qubit] = layer
            depth = max(depth, layer)
        return depth

    # -- summaries -----------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """A compact dictionary describing the circuit (used by reports)."""
        return {
            "name": self.name,
            "num_qubits": self._num_qubits,
            "num_gates": len(self._gates),
            "num_two_qubit_gates": self.num_two_qubit_gates,
            "num_single_qubit_gates": self.num_single_qubit_gates,
            "num_measurements": self.num_measurements,
            "depth": self.depth(),
            "two_qubit_depth": self.two_qubit_depth(),
        }
