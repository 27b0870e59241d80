"""Sweep checkpointing: resumable design-space grids.

A sweep is a deterministic grid of independent tasks — architecture
*generation* tasks (one per benchmark x configuration, dominated by the
Algorithm 3 frequency search) and point *evaluation* tasks (one per
architecture, dominated by routing plus Monte Carlo yield).  The
checkpoint records every completed task in a
:mod:`repro.persistence` store (any backend), keyed by a **content
digest** of everything that can influence the task's result:

* a generation task digests its benchmark, configuration, and the
  design-affecting settings (local trials, bus seeds, allocation
  strategy — screening is excluded, exactly as in the
  :class:`~repro.design.engine.DesignCache`, because it is provably
  winner-preserving);
* a point task digests its identity (benchmark, configuration,
  architecture index), the *full serialized architecture*, and the
  evaluation-affecting settings (yield trials, sigma, seed, router
  parameters).

Because the keys are content digests, ``--resume`` can never replay a
stale result into a sweep whose settings changed — a changed knob
changes every affected digest, and those tasks simply recompute.  An
interrupted sweep restarted with ``--resume`` therefore produces output
byte-identical to an uninterrupted run, for any ``--jobs`` count and
any store backend: completed points are restored (value-exact, via the
JSON float round trip), incomplete ones recompute under the same
deterministic per-point seeds, and checkpointed generation tasks are
restored without a single Algorithm 3 Monte Carlo call.

Workers record tasks as they finish (the store's locked union merge
keeps concurrent writers from dropping each other's records), so a kill
at any moment loses at most the tasks in flight.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro import faults, persistence
from repro.evaluation.configs import ExperimentConfig
from repro.evaluation.experiment import DataPoint
from repro.hardware.architecture import Architecture
from repro.hardware.bus import BusType, four_qubit_bus, two_qubit_bus
from repro.hardware.lattice import Lattice, Square
from repro.runtime.config import RuntimeConfig

#: A generation task's recorded rows: ``(benchmark, config value,
#: architecture index, architecture)`` — exactly the worker task output.
GenerationRows = List[Tuple[str, str, int, Architecture]]


def _digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON text of a task-identity payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generation_task_key(benchmark: str, config_value: str, settings: RuntimeConfig) -> str:
    """Content digest of one architecture-generation task.

    Covers every setting that can change which architectures the task
    produces.  Screening is deliberately excluded (winner-preserving,
    mirroring the design cache); evaluation-only knobs like yield trials
    are excluded because they cannot affect generation.
    """
    return _digest({
        "task": "generation",
        "benchmark": benchmark,
        "config": config_value,
        "frequency_local_trials": settings.frequency_local_trials,
        "random_bus_seeds": list(settings.random_bus_seeds),
        "allocation_strategy": settings.allocation_strategy,
    })


def point_task_key(
    benchmark: str,
    config_value: str,
    arch_index: int,
    architecture: Architecture,
    settings: RuntimeConfig,
) -> str:
    """Content digest of one point-evaluation task.

    The full serialized architecture participates, so a point record can
    never be served to a sweep whose generation settings produced a
    different architecture under the same index.
    """
    return _digest({
        "task": "point",
        "benchmark": benchmark,
        "config": config_value,
        "arch_index": arch_index,
        "architecture": architecture_record(architecture),
        "yield_trials": settings.yield_trials,
        "sigma_ghz": settings.sigma_ghz,
        "yield_seed": settings.yield_seed,
        "routing": asdict(settings.routing),
    })


# ---------------------------------------------------------------------------
# Serialization.  Round trips are *exact*: container iteration orders are
# preserved (never re-sorted) and floats survive via JSON's shortest-repr
# round trip, so a restored architecture or data point is value-identical
# to the recorded one and downstream output stays byte-identical.
# ---------------------------------------------------------------------------


def architecture_record(architecture: Architecture) -> dict:
    """A JSON-compatible, order-preserving image of an architecture."""
    return {
        "name": architecture.name,
        "coordinates": [
            [qubit, node[0], node[1]]
            for qubit, node in architecture.lattice.coordinates().items()
        ],
        "buses": [
            {
                "type": bus.bus_type.value,
                "qubits": list(bus.qubits),
                "square": list(bus.square.origin) if bus.square else None,
            }
            for bus in architecture.buses
        ],
        "frequencies": [
            [qubit, value] for qubit, value in architecture.frequencies.items()
        ],
        "logical_to_physical": [
            [logical, physical]
            for logical, physical in architecture.logical_to_physical.items()
        ],
    }


def architecture_from_record(record: dict) -> Architecture:
    """Rebuild an architecture from :func:`architecture_record` output."""
    lattice = Lattice()
    for qubit, x, y in record["coordinates"]:
        lattice.place(int(qubit), (int(x), int(y)))
    buses = []
    for bus in record["buses"]:
        qubits = [int(qubit) for qubit in bus["qubits"]]
        if bus["type"] == BusType.TWO_QUBIT.value:
            buses.append(two_qubit_bus(qubits[0], qubits[1]))
        else:
            origin = bus["square"]
            buses.append(
                four_qubit_bus(
                    tuple(qubits), Square((int(origin[0]), int(origin[1])))
                )
            )
    return Architecture(
        name=record["name"],
        lattice=lattice,
        buses=buses,
        frequencies={
            int(qubit): float(value) for qubit, value in record["frequencies"]
        },
        logical_to_physical={
            int(logical): int(physical)
            for logical, physical in record["logical_to_physical"]
        },
    )


def point_record(point: DataPoint) -> dict:
    """A JSON-compatible image of a completed evaluation point."""
    return {
        "benchmark": point.benchmark,
        "config": point.config.value,
        "architecture_name": point.architecture_name,
        "num_qubits": point.num_qubits,
        "num_connections": point.num_connections,
        "num_four_qubit_buses": point.num_four_qubit_buses,
        "yield_rate": point.yield_rate,
        "total_gates": point.total_gates,
        "num_swaps": point.num_swaps,
    }


def point_from_record(record: dict) -> DataPoint:
    """Rebuild a data point from :func:`point_record` output.

    ``normalized_reciprocal_gates`` is not persisted: it is a
    whole-benchmark normalization recomputed by
    :meth:`~repro.evaluation.experiment.ExperimentResult.normalize`
    after every sweep, resumed or not.
    """
    return DataPoint(
        benchmark=record["benchmark"],
        config=ExperimentConfig(record["config"]),
        architecture_name=record["architecture_name"],
        num_qubits=int(record["num_qubits"]),
        num_connections=int(record["num_connections"]),
        num_four_qubit_buses=int(record["num_four_qubit_buses"]),
        yield_rate=float(record["yield_rate"]),
        total_gates=int(record["total_gates"]),
        num_swaps=int(record["num_swaps"]),
    )


class SweepCheckpoint:
    """Completed sweep tasks, persisted in a pluggable cache store.

    One checkpoint store holds three record kinds under one envelope:
    ``generation`` records (the architecture rows of one benchmark x
    configuration task), ``point`` records (one evaluated data point),
    and ``failure`` records (a supervised sweep's quarantined tasks,
    written so a partial run's gaps are explained in the store itself).
    Records are keyed by the content digests above; the file-level
    identity is ``(kind, key)``.

    Lookups are served from the snapshot taken by :meth:`load`;
    recordings go straight to the store via the backend's locked union
    merge, so any number of workers (or hosts, on a shared filesystem)
    can checkpoint one sweep concurrently.

    ``failure`` records never satisfy a resume lookup: a quarantined
    task *recomputes* on the next run (its fault may have been
    environmental), and succeeds or is re-quarantined on its own
    merits.  They exist for reporting and forensics.
    """

    FORMAT = "repro-sweep-checkpoint"
    VERSION = 1

    def __init__(self, path) -> None:
        self.path = str(path)
        self._generations: Dict[str, dict] = {}
        self._points: Dict[str, dict] = {}
        self._failures: Dict[str, dict] = {}

    @staticmethod
    def _record_key(record: dict) -> Tuple:
        return (record["kind"], record["key"])

    # -- snapshot -------------------------------------------------------------

    def load(self) -> int:
        """Snapshot the store's completed tasks for resume lookups.

        Missing stores are simply cold.  A *torn* single-file store —
        half-written trailing record, the signature of a copy or append
        interrupted mid-byte — is salvaged instead of crashing
        ``--resume``: every intact record is kept, the damaged file is
        quarantined (``<name>.quarantine-<pid>``), and the lost tail
        simply recomputes.  A store holding a different cache kind's
        data still fails loud (:class:`~repro.persistence.WrongFormatError`
        means a typo'd path, not damage).  Returns the number of
        records loaded.
        """
        try:
            records = persistence.read_cache_entries(
                self.path, self.FORMAT, self.VERSION, missing_ok=True,
                kind="sweep checkpoint",
            ) or []
        except persistence.WrongFormatError:
            raise
        except ValueError as error:
            salvaged = persistence.salvage_torn_store(
                self.path, self.FORMAT, self.VERSION, kind="sweep checkpoint",
            )
            if salvaged is None:
                raise error
            records = salvaged
            if records:
                # Re-persist the intact records so the rebuilt store is
                # whole again: without this, salvaged tasks would satisfy
                # *this* resume but vanish from the store (resumed tasks
                # are never re-recorded), costing a recompute next run.
                persistence.union_merge_save(
                    self.path, self.FORMAT, self.VERSION, records,
                    self._record_key, kind="sweep checkpoint",
                )
        for record in records:
            if record.get("kind") == "generation":
                self._generations[record["key"]] = record
            elif record.get("kind") == "point":
                self._points[record["key"]] = record
            elif record.get("kind") == "failure":
                self._failures[record["key"]] = record
        return len(records)

    @property
    def completed_generations(self) -> int:
        return len(self._generations)

    @property
    def completed_points(self) -> int:
        return len(self._points)

    @property
    def recorded_failures(self) -> int:
        return len(self._failures)

    def failures(self) -> List[dict]:
        """Quarantine records loaded from the store, ordered by key."""
        return [
            dict(self._failures[key]["failure"])
            for key in sorted(self._failures)
        ]

    # -- lookups (resume) -----------------------------------------------------

    def generation_rows(self, key: str) -> Optional[GenerationRows]:
        record = self._generations.get(key)
        if record is None:
            return None
        return [
            (benchmark, config_value, int(index), architecture_from_record(arch))
            for benchmark, config_value, index, arch in record["rows"]
        ]

    def point(self, key: str) -> Optional[DataPoint]:
        record = self._points.get(key)
        if record is None:
            return None
        return point_from_record(record["point"])

    # -- recording ------------------------------------------------------------

    def record_generation(self, key: str, rows: GenerationRows) -> None:
        record = {
            "kind": "generation",
            "key": key,
            "rows": [
                [benchmark, config_value, index, architecture_record(arch)]
                for benchmark, config_value, index, arch in rows
            ],
        }
        self._generations[key] = record
        faults.maybe_inject("checkpoint:record", store_path=self.path)
        persistence.union_merge_save(
            self.path, self.FORMAT, self.VERSION, [record], self._record_key,
            kind="sweep checkpoint",
        )

    def record_point(self, key: str, point: DataPoint) -> None:
        record = {"kind": "point", "key": key, "point": point_record(point)}
        self._points[key] = record
        faults.maybe_inject("checkpoint:record", store_path=self.path)
        persistence.union_merge_save(
            self.path, self.FORMAT, self.VERSION, [record], self._record_key,
            kind="sweep checkpoint",
        )

    def record_failure(self, failure: dict) -> None:
        """Record a quarantined task's structured failure entry.

        ``failure`` is the supervisor's report record (task kind,
        content key, identity, and the per-attempt failure list); it is
        stored verbatim under the ``failure`` kind so the checkpoint
        explains the sweep's gaps.
        """
        record = {"kind": "failure", "key": failure["key"], "failure": failure}
        self._failures[failure["key"]] = record
        persistence.union_merge_save(
            self.path, self.FORMAT, self.VERSION, [record], self._record_key,
            kind="sweep checkpoint",
        )
