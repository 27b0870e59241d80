"""The frozen runtime configuration: resolved once, digested, carried everywhere.

:class:`RuntimeConfig` is the one configuration type of the stack: the
evaluation harness, the sweep workers, the runtime session and the CLI
all take it.  It is:

* **frozen and picklable** — resolved once (from CLI flags and/or a
  ``--runtime-config`` JSON file) and shipped to sweep workers intact;
* **validated at the boundary** — numeric fields are coerced to their
  declared types and range-checked in ``__post_init__``, so ``1`` and
  ``1.0`` spell one config and NaN or negative σ never reach a worker;
* **content-digestable** — :meth:`RuntimeConfig.digest` is a SHA-256
  over the canonical JSON payload, with every store path canonicalized
  via :func:`canonical_store_path` first.  Sessions are keyed by this
  digest, so relative/symlink aliases of one cache file resolve to one
  session and one warm engine (the aliasing bug class the persistence
  locks guard against).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.hardware.frequency import DEFAULT_SIGMA_GHZ
from repro.mapping.sabre import SabreParameters
from repro.persistence import parse_store_path
from repro.utils.validation import finite, integral

#: Router parameters used by the evaluation harness by default.
#:
#: Bidirectional forward-backward-forward routing (``passes=3``) is
#: deterministic and never worse than a single pass (qft_16: 134 → 72
#: swaps), and with the persistent ``RoutingCache`` merged in-worker its
#: ~3x routing cost is paid once per (circuit, architecture) ever — so
#: evaluation defaults to it.  ``SabreParameters()`` itself keeps
#: ``passes=1``: the router's own default stays the paper-exact single
#: pass; only the evaluation harness opts into the quality win.
DEFAULT_EVALUATION_ROUTING = SabreParameters(passes=3)


def canonical_store_path(path: Optional[str]) -> Optional[str]:
    """Canonicalize a store path, preserving its backend scheme prefix.

    ``cache.json``, ``./cache.json``, and a symlink alias all resolve to
    the same absolute real path; an explicit ``json:`` / ``sharded:`` /
    ``sqlite:`` scheme is split off first and reattached after
    resolution, so backend selection survives canonicalization.
    """
    if path is None:
        return None
    scheme, raw = parse_store_path(path)
    resolved = Path(raw).resolve()
    return f"{scheme}:{resolved}" if scheme else str(resolved)


_PATH_FIELDS = ("routing_cache_path", "design_cache_path", "checkpoint_path")


@dataclass(frozen=True)
class RuntimeConfig:
    """Every knob of the design flow and its evaluation, resolved once and frozen.

    Two configs with equal digests are served by one warm
    :class:`~repro.runtime.session.Session` per process.

    Attributes:
        yield_trials: Monte Carlo trials per architecture (paper: 10,000).
        sigma_ghz: Fabrication precision (paper: 30 MHz).
        yield_seed: Seed of the yield simulator (common random numbers
            across architectures).
        frequency_local_trials: Trials per candidate inside Algorithm 3.
        random_bus_seeds: Seeds for the ``eff-rd-bus`` sample cloud.
        keep_routed_circuits: Whether mapping results retain full circuits
            (disabled by default to keep sweeps light).
        routing: Router tuning parameters shared by every evaluation point
            (bidirectional passes, seeded restarts, look-ahead window).
            Defaults to :data:`DEFAULT_EVALUATION_ROUTING` — bidirectional
            ``passes=3`` routing, deterministic and never worse than the
            single-pass router default.
        routing_cache_path: Optional path to a persisted routing-result
            cache (see :meth:`~repro.mapping.engine.RoutingCache.load`):
            evaluation engines warm-load it, so repeated sweeps reuse
            routing results across processes.  Missing files are ignored.
        allocation_strategy: Algorithm 3 search strategy used by the
            design-flow configurations (``eff-full`` / ``eff-rd-bus``);
            the paper-exact ``bfs-greedy`` by default.  Setting
            ``analytic-guided`` or ``coordinate-descent`` runs the whole
            sweep as that ablation — byte-identically for any job count.
        design_cache_path: Optional path to a persisted design-stage
            cache (see :class:`~repro.design.engine.DesignCache`):
            design engines warm-load it, so repeated evaluations reuse
            Algorithm 3 frequency plans across processes.  Missing files
            are ignored.
        screening: Whether Algorithm 3 uses the exact interval-count
            screening engine (:mod:`repro.collision.screening`) on the
            cold path.  Screening is winner-preserving — sweep outputs
            are byte-identical with it on or off, for any job count —
            so ``False`` (the ``--no-screening`` CLI flag) exists as an
            escape hatch and benchmark baseline.
        checkpoint_path: Optional path to a sweep checkpoint store (see
            :class:`~repro.evaluation.checkpoint.SweepCheckpoint`, any
            :mod:`repro.persistence` backend): workers record every
            completed generation and evaluation task into it, so an
            interrupted sweep can be restarted.
        resume: Skip sweep tasks already recorded in the checkpoint
            store.  Resume lookups are keyed by content digests of each
            task's full identity (inputs plus result-affecting
            settings), so a resumed sweep is byte-identical to an
            uninterrupted one — and never replays stale results after a
            settings change.  Requires ``checkpoint_path``.
    """

    yield_trials: int = 10_000
    sigma_ghz: float = DEFAULT_SIGMA_GHZ
    yield_seed: int = 7
    frequency_local_trials: int = 2000
    random_bus_seeds: Tuple[int, ...] = (1, 2, 3, 4, 5)
    keep_routed_circuits: bool = False
    routing: SabreParameters = DEFAULT_EVALUATION_ROUTING
    routing_cache_path: Optional[str] = None
    allocation_strategy: str = "bfs-greedy"
    design_cache_path: Optional[str] = None
    screening: bool = True
    checkpoint_path: Optional[str] = None
    resume: bool = False

    def __post_init__(self) -> None:
        # Coerce and validate once, here: every spelling of one value
        # (10000 / 10000.0) digests identically, and a bad config fails
        # at resolution time, not after workers fork.
        for name in ("yield_trials", "frequency_local_trials"):
            object.__setattr__(self, name, integral(name, getattr(self, name), 1))
        object.__setattr__(self, "yield_seed", integral("yield_seed", self.yield_seed))
        object.__setattr__(self, "sigma_ghz", finite("sigma_ghz", self.sigma_ghz, 0.0))
        object.__setattr__(self, "random_bus_seeds", tuple(
            integral("random_bus_seeds", seed) for seed in self.random_bus_seeds
        ))
        if isinstance(self.routing, Mapping):
            object.__setattr__(self, "routing", SabreParameters(**dict(self.routing)))
        from repro.design.frequency_allocation import resolve_strategy

        resolve_strategy(self.allocation_strategy)
        if self.resume and not self.checkpoint_path:
            raise ValueError("resume=True requires checkpoint_path")

    def evaluation_settings(self) -> "RuntimeConfig":
        """This config itself; kept only for the frozen benchmark harness."""
        return self

    # -- canonical form + digest -------------------------------------------

    def canonical(self) -> "RuntimeConfig":
        """This config with every store path canonicalized."""
        updates = {
            name: canonical_store_path(getattr(self, name))
            for name in _PATH_FIELDS
            if getattr(self, name) is not None
        }
        return dataclasses.replace(self, **updates) if updates else self

    def payload(self) -> Dict[str, Any]:
        """The canonical JSON-serializable form digest() hashes."""
        data = dataclasses.asdict(self)
        data["routing"] = dataclasses.asdict(self.routing)
        data["random_bus_seeds"] = list(self.random_bus_seeds)
        for name in _PATH_FIELDS:
            data[name] = canonical_store_path(data[name])
        return data

    def digest(self) -> str:
        """SHA-256 content digest of the canonical payload.

        Store paths are canonicalized first, so relative/symlink aliases
        of the same cache file digest identically — the process-level
        session registry keys on this.
        """
        encoded = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> str:
        """Deterministic JSON (non-canonicalized paths, as configured)."""
        data = dataclasses.asdict(self)
        data["routing"] = dataclasses.asdict(self.routing)
        data["random_bus_seeds"] = list(self.random_bus_seeds)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "RuntimeConfig":
        """Build a config from a JSON-decoded mapping; unknown keys fail."""
        names = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown runtime-config keys: {sorted(unknown)}")
        payload = dict(data)
        if "random_bus_seeds" in payload:
            payload["random_bus_seeds"] = tuple(payload["random_bus_seeds"])
        return cls(**payload)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "RuntimeConfig":
        """Load a ``--runtime-config`` JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"runtime config {path} must be a JSON object")
        return cls.from_mapping(data)
