"""Tests for the flat integer circuit IR and the routing trace built on it."""

import pytest

from repro.benchmarks import get_benchmark
from repro.circuit import QuantumCircuit, barrier, cx, h, measure, rz, swap
from repro.circuit.gates import Gate
from repro.circuit.ir import CircuitIR, lookahead
from repro.hardware import Architecture, Lattice, ibm_16q_2x8
from repro.mapping import RoutingEngine, SabreParameters, SabreRouter
from repro.mapping.router import verify_trace


def chain_architecture(n):
    return Architecture.from_layout("chain", Lattice.rectangle(1, n))


def mixed_circuit():
    circuit = QuantumCircuit(4, name="mixed")
    circuit.extend([
        h(0), cx(0, 1), barrier(1, 2), rz(0.25, 2), cx(2, 3), barrier(),
        swap(3, 0), measure(1), cx(1, 2), barrier(0), h(0), measure(0),
    ])
    return circuit


def structure(ir):
    return (ir.num_qubits, ir.num_nodes, [ir.names[op] for op in ir.opcodes],
            ir.operand_a, ir.operand_b, bytes(ir.two_qubit), ir.num_two_qubit,
            ir.pred_count, ir.succ_ptr, ir.succ, ir.front)


class TestLowering:
    def test_arrays_describe_the_gates(self):
        ir = mixed_circuit().lowered()
        assert ir.size == 12 and ir.num_nodes == 9
        assert ir.names[ir.opcodes[3]] == "rz"
        assert (ir.operand_a[1], ir.operand_b[1]) == (0, 1)
        assert (ir.operand_a[0], ir.operand_b[0]) == (0, -1)
        assert [g for g in range(ir.size) if ir.two_qubit[g]] == [1, 4, 6, 8]
        assert ir.num_two_qubit == 4 == mixed_circuit().num_two_qubit_gates

    def test_barriers_fold_into_direct_edges(self):
        ir = mixed_circuit().lowered()
        # rz on qubit 2 follows cx(0, 1) through barrier(1, 2).
        assert ir.predecessors(3) == [1]
        # The full-register barrier orders swap(3, 0) after everything before it.
        assert ir.predecessors(6) == [1, 4]
        assert ir.successors(1) == [3, 6, 7, 8]
        assert ir.front == (0,)
        for slot in (2, 5, 9):
            assert ir.pred_count[slot] == 0 and ir.successors(slot) == []

    def test_reversed_ir_is_the_lowering_of_the_reversed_circuit(self):
        for circuit in (mixed_circuit(), get_benchmark("sym6_145")):
            flipped = QuantumCircuit(circuit.num_qubits).extend(reversed(circuit.gates))
            assert structure(circuit.lowered().reversed()) == structure(flipped.lowered())
            assert circuit.lowered().reversed().reversed() is circuit.lowered()

    def test_lowering_is_cached_shared_by_copies_and_reset_by_append(self):
        circuit = mixed_circuit()
        ir = circuit.lowered()
        assert circuit.lowered() is ir
        copy = circuit.copy()
        assert copy.lowered() is ir
        copy.append(h(3))
        assert copy.lowered() is not ir and copy.lowered().size == ir.size + 1
        circuit.append_unchecked(h(2))
        assert circuit.lowered() is not ir

    def test_benchmark_copies_share_one_lowering(self):
        assert get_benchmark("qft_16").lowered() is get_benchmark("qft_16").lowered()

    def test_lookahead_is_breadth_first_past_the_front(self):
        circuit = QuantumCircuit(3).extend([cx(0, 1), h(1), cx(1, 2), cx(0, 1), cx(0, 2)])
        ir = circuit.lowered()
        # cx(0, 1) at 3 is one step from the front, cx(1, 2) at 2 two (via h).
        assert lookahead(ir, ir.front, 5) == [3, 2, 4]
        assert lookahead(ir, ir.front, 2) == [3, 2]
        assert lookahead(ir, ir.front, 0) == []

    def test_empty_register_slots(self):
        ir = CircuitIR.lower(2, [])
        assert ir.size == ir.num_nodes == ir.num_two_qubit == 0
        assert ir.front == () and ir.succ_ptr == [0]


class TestRoutingTrace:
    def route(self, circuit, arch, passes=1):
        router = SabreRouter(arch, SabreParameters(passes=passes))
        mapping = {q: q for q in range(circuit.num_qubits)}
        return router, router.trace_best(circuit.lowered(), mapping)

    def test_trace_builds_the_route_best_circuit(self):
        circuit = get_benchmark("sym6_145")
        arch = ibm_16q_2x8()
        router, (trace, num_swaps, final, used) = self.route(circuit, arch, passes=3)
        routed, swaps, best_final, best_used = router.route_best(
            circuit, {q: q for q in range(circuit.num_qubits)}
        )
        assert (swaps, best_final, best_used) == (num_swaps, final, used)
        assert list(router.routed_circuit(circuit, trace, used).gates) == list(routed.gates)
        assert sum(1 for step in trace if step < 0) == num_swaps
        verify_trace(circuit.lowered(), trace, arch, used)

    @pytest.mark.parametrize(
        "corrupt", ["duplicate", "reorder", "drop", "uncoupled_swap", "no_swaps"]
    )
    def test_verify_trace_rejects_corrupted_traces(self, corrupt):
        circuit = QuantumCircuit(4).extend([cx(0, 1), cx(1, 2), cx(0, 3), h(3)])
        arch = chain_architecture(4)
        _router, (trace, _swaps, _final, used) = self.route(circuit, arch)
        verify_trace(circuit.lowered(), trace, arch, used)
        trace = list(trace)
        if corrupt == "duplicate":
            trace.insert(1, trace[0])
        elif corrupt == "reorder":
            trace[0], trace[1] = trace[1], trace[0]
        elif corrupt == "drop":
            trace.pop()
        elif corrupt == "no_swaps":
            # cx(0, 3) then runs on physical 0 and 3, which are not coupled.
            assert any(step < 0 for step in trace)
            trace = [step for step in trace if step >= 0]
        else:
            trace.insert(0, ~(0 * 4 + 3))  # physical 0 and 3 are not coupled
        with pytest.raises(AssertionError):
            verify_trace(circuit.lowered(), trace, arch, used)

    def test_counts_only_routing_builds_no_routed_gates(self, monkeypatch):
        circuit = get_benchmark("ising_model_16")
        arch = ibm_16q_2x8(True)

        def forbidden(*args, **kwargs):
            raise AssertionError("a counts-only route built routed gates")

        monkeypatch.setattr(Gate, "remap", forbidden)
        monkeypatch.setattr(SabreRouter, "routed_circuit", forbidden)
        result = RoutingEngine(SabreParameters(passes=3)).route(
            circuit, arch, keep_routed_circuit=False
        )
        assert result.routed_circuit is None and result.num_swaps >= 0

    def test_engine_verifies_every_route(self, monkeypatch):
        original = SabreRouter.trace_best

        def dropped_gate(self, ir, mapping):
            trace, num_swaps, final, used = original(self, ir, mapping)
            return trace[:-1], num_swaps, final, used

        monkeypatch.setattr(SabreRouter, "trace_best", dropped_gate)
        with pytest.raises(AssertionError, match="unexecuted"):
            RoutingEngine().route(get_benchmark("sym6_145"), ibm_16q_2x8(),
                                  keep_routed_circuit=False)
