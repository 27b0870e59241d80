"""Gate objects for the quantum circuit IR.

A :class:`Gate` is an immutable record of a named operation applied to one
or two qubits (plus optional real parameters).  The architecture design
flow only distinguishes between single-qubit operations, two-qubit
operations, and measurements (Section 3 of the paper), but the IR keeps
the full gate names so that circuits can be round-tripped through OpenQASM
and so that the mapper can reason about gate semantics (e.g. SWAP
insertion and CNOT counting).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Tuple


class GateKind(enum.Enum):
    """Coarse classification of operations used by the profiler."""

    SINGLE_QUBIT = "single_qubit"
    TWO_QUBIT = "two_qubit"
    MEASUREMENT = "measurement"
    BARRIER = "barrier"


#: Names of supported single-qubit gates.
ONE_QUBIT_GATES = frozenset(
    {
        "id",
        "h",
        "x",
        "y",
        "z",
        "s",
        "sdg",
        "t",
        "tdg",
        "rx",
        "ry",
        "rz",
        "u1",
        "u2",
        "u3",
        "sx",
    }
)

#: Names of supported two-qubit gates.
TWO_QUBIT_GATES = frozenset({"cx", "cz", "cp", "crz", "swap", "rzz", "rxx"})

#: Number of parameters each parameterised gate expects.
_PARAM_COUNTS = {
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "u1": 1,
    "u2": 2,
    "u3": 3,
    "cp": 1,
    "crz": 1,
    "rzz": 1,
    "rxx": 1,
}


@dataclass(frozen=True)
class Gate:
    """A single operation in a quantum circuit.

    Attributes:
        name: Lower-case gate name (``"cx"``, ``"h"``, ``"measure"`` ...).
        qubits: Logical qubit indices the gate acts on (1 or 2 entries,
            except ``barrier`` which may span any number).
        params: Real-valued parameters (rotation angles), possibly empty.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.qubits and self.name != "barrier":
            raise ValueError(f"gate {self.name!r} must act on at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} has duplicate qubits {self.qubits}")
        if self.name in ONE_QUBIT_GATES and len(self.qubits) != 1:
            raise ValueError(f"{self.name!r} acts on exactly one qubit, got {self.qubits}")
        if self.name in TWO_QUBIT_GATES and len(self.qubits) != 2:
            raise ValueError(f"{self.name!r} acts on exactly two qubits, got {self.qubits}")
        expected_params = _PARAM_COUNTS.get(self.name, 0)
        if self.name in _PARAM_COUNTS and len(self.params) != expected_params:
            raise ValueError(
                f"{self.name!r} expects {expected_params} parameter(s), got {len(self.params)}"
            )

    @property
    def kind(self) -> GateKind:
        """Coarse classification used by the profiler."""
        if self.name == "measure":
            return GateKind.MEASUREMENT
        if self.name == "barrier":
            return GateKind.BARRIER
        if self.name in TWO_QUBIT_GATES:
            return GateKind.TWO_QUBIT
        return GateKind.SINGLE_QUBIT

    @property
    def is_two_qubit(self) -> bool:
        """True for gates that require a physical qubit connection."""
        return self.kind is GateKind.TWO_QUBIT

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def remap(self, mapping) -> "Gate":
        """Return a copy of the gate with qubits translated through ``mapping``.

        Only operand distinctness is re-validated (the one invariant a
        non-injective mapping can break); name, parameter, and arity checks
        from ``__post_init__`` are skipped because translation cannot
        violate them and building a routed circuit remaps one gate per
        routed operation, making redundant re-validation a measurable cost.

        Args:
            mapping: A dict-like or callable from old index to new index.

        Raises:
            ValueError: When the mapping sends two operands to the same qubit.
        """
        if callable(mapping):
            new_qubits = tuple(mapping(q) for q in self.qubits)
        else:
            new_qubits = tuple(mapping[q] for q in self.qubits)
        if len(new_qubits) > 1 and len(set(new_qubits)) != len(new_qubits):
            raise ValueError(f"gate {self.name!r} has duplicate qubits {new_qubits}")
        new = object.__new__(Gate)
        object.__setattr__(new, "name", self.name)
        object.__setattr__(new, "qubits", new_qubits)
        object.__setattr__(new, "params", self.params)
        return new

    def __str__(self) -> str:
        params = ""
        if self.params:
            params = "(" + ", ".join(f"{p:.6g}" for p in self.params) + ")"
        qubits = ", ".join(f"q{q}" for q in self.qubits)
        return f"{self.name}{params} {qubits}"


# ---------------------------------------------------------------------------
# Convenience constructors.  These keep call sites readable:
#   circuit.append(cx(0, 1))  instead of  circuit.append(Gate("cx", (0, 1)))
# ---------------------------------------------------------------------------


def h(qubit: int) -> Gate:
    """Hadamard gate."""
    return Gate("h", (qubit,))


def x(qubit: int) -> Gate:
    """Pauli-X gate."""
    return Gate("x", (qubit,))


def y(qubit: int) -> Gate:
    """Pauli-Y gate."""
    return Gate("y", (qubit,))


def z(qubit: int) -> Gate:
    """Pauli-Z gate."""
    return Gate("z", (qubit,))


def s(qubit: int) -> Gate:
    """Phase gate (sqrt(Z))."""
    return Gate("s", (qubit,))


def sdg(qubit: int) -> Gate:
    """Adjoint phase gate."""
    return Gate("sdg", (qubit,))


def t(qubit: int) -> Gate:
    """T gate (fourth root of Z)."""
    return Gate("t", (qubit,))


def tdg(qubit: int) -> Gate:
    """Adjoint T gate."""
    return Gate("tdg", (qubit,))


def rx(theta: float, qubit: int) -> Gate:
    """X-rotation by ``theta``."""
    return Gate("rx", (qubit,), (float(theta),))


def ry(theta: float, qubit: int) -> Gate:
    """Y-rotation by ``theta``."""
    return Gate("ry", (qubit,), (float(theta),))


def rz(theta: float, qubit: int) -> Gate:
    """Z-rotation by ``theta``."""
    return Gate("rz", (qubit,), (float(theta),))


def u1(lam: float, qubit: int) -> Gate:
    """Diagonal single-qubit phase gate."""
    return Gate("u1", (qubit,), (float(lam),))


def u2(phi: float, lam: float, qubit: int) -> Gate:
    """IBM u2 gate (pi/2 rotation with two phases)."""
    return Gate("u2", (qubit,), (float(phi), float(lam)))


def u3(theta: float, phi: float, lam: float, qubit: int) -> Gate:
    """General single-qubit rotation."""
    return Gate("u3", (qubit,), (float(theta), float(phi), float(lam)))


def cx(control: int, target: int) -> Gate:
    """CNOT gate."""
    return Gate("cx", (control, target))


def cz(control: int, target: int) -> Gate:
    """Controlled-Z gate."""
    return Gate("cz", (control, target))


def cp(theta: float, control: int, target: int) -> Gate:
    """Controlled-phase gate."""
    return Gate("cp", (control, target), (float(theta),))


def swap(a: int, b: int) -> Gate:
    """SWAP gate."""
    return Gate("swap", (a, b))


def rzz(theta: float, a: int, b: int) -> Gate:
    """Two-qubit ZZ interaction, the building block of Ising evolution."""
    return Gate("rzz", (a, b), (float(theta),))


def measure(qubit: int) -> Gate:
    """Computational-basis measurement."""
    return Gate("measure", (qubit,))


def barrier(*qubits: int) -> Gate:
    """Barrier pseudo-gate (ignored by profiling and routing)."""
    return Gate("barrier", tuple(qubits))


def is_clifford_angle(theta: float, tol: float = 1e-9) -> bool:
    """Return True when ``theta`` is a multiple of pi/2 (used by tests)."""
    return abs((theta / (math.pi / 2)) - round(theta / (math.pi / 2))) < tol
