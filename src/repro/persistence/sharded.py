"""The digest-sharded store: entries fanned out across ``NN/`` shard files.

One logical cache becomes a directory of up to 256 small JSON files,
``<root>/<NN>/entries.json``, where ``NN`` is the first byte (two hex
digits) of the SHA-256 digest of each entry's canonical merge key.  Two
properties make this the fleet-scale backend:

* **Writers rarely collide** — a merge only locks and rewrites the
  shards its records actually land in, so concurrent workers whose new
  entries hash to different shards proceed entirely in parallel (the
  single-file backend serializes every merge behind one lock).
* **Faults stay local** — a torn, truncated, garbage, or wrong-version
  shard file degrades *that shard* to cold (with a
  :class:`~repro.persistence.store.CacheStoreFault` warning); peer
  shards are unaffected.  A merge landing on an unreadable shard
  quarantines the bad file (``entries.json.quarantine-<pid>``) before
  writing fresh state, so no bytes are ever silently destroyed.

Each shard file uses the standard entry envelope (``format`` /
``version`` / ``entries``), so shards self-describe and mixed-version
stores fail no worse than shard-by-shard.  A ``shards.json`` marker at
the root identifies the directory as a sharded store to the
:func:`~repro.persistence.store.open_store` sniffer.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, List, Optional

from repro.persistence.store import (
    CacheStore,
    WrongFormatError,
    atomic_write_text,
    cache_file_lock,
    canonical_key,
    key_digest,
    validate_envelope,
)

#: Marker file identifying a directory as a sharded cache store.
MARKER_NAME = "shards.json"
MARKER_FORMAT = "repro-sharded-store"
MARKER_VERSION = 1

#: Entry file inside each shard directory.
SHARD_FILE = "entries.json"

#: Fan-out width: one shard per first digest byte.
NUM_SHARDS = 256

_SHARD_DIR_RE = re.compile(r"^[0-9a-f]{2}$")


def shard_for_key(key) -> str:
    """The shard id (two hex digits) a merge key routes to.

    Total and stable: every JSON-expressible key maps to exactly one of
    the 256 shards, identically in every process and on every platform
    (the routing digest is SHA-256 over the key's canonical JSON text,
    never the salted builtin ``hash``).
    """
    return key_digest(key)[:2]


class ShardedStore(CacheStore):
    """A cache store fanned out across digest-prefixed shard files."""

    backend = "sharded"

    # -- layout helpers -------------------------------------------------------

    def _marker_path(self) -> Path:
        return self.path / MARKER_NAME

    def _shard_path(self, shard_id: str) -> Path:
        return self.path / shard_id / SHARD_FILE

    def _shard_files(self) -> List[Path]:
        """Existing shard entry files, in deterministic (shard id) order."""
        if not self.path.is_dir():
            return []
        found = []
        for child in sorted(self.path.iterdir()):
            if child.is_dir() and _SHARD_DIR_RE.match(child.name):
                shard = child / SHARD_FILE
                if shard.is_file():
                    found.append(shard)
        return found

    def _ensure_marker(self) -> None:
        if not self._marker_path().exists():
            atomic_write_text(
                self._marker_path(),
                json.dumps(
                    {
                        "format": MARKER_FORMAT,
                        "version": MARKER_VERSION,
                        "shards": NUM_SHARDS,
                    }
                )
                + "\n",
            )

    def exists(self) -> bool:
        return self._marker_path().exists() or bool(self._shard_files())

    # -- shard file IO --------------------------------------------------------

    def _read_shard(
        self, shard: Path, file_format: str, version: int, kind: str
    ) -> Optional[List[dict]]:
        """One shard's entries, or ``None`` when the shard is degraded to cold.

        Every persisted-state *fault* — unreadable bytes, garbage JSON,
        an unknown version — is contained to this shard and reported via
        :class:`CacheStoreFault`; peers are read normally.  A shard
        holding another cache kind's data (a misconfigured path, not
        corruption) raises :class:`WrongFormatError` like every backend.
        """
        try:
            payload = json.loads(shard.read_text(encoding="utf-8"))
            return validate_envelope(payload, shard, file_format, version, kind)
        except WrongFormatError:
            raise
        except (OSError, ValueError) as error:
            # json.JSONDecodeError subclasses ValueError, so torn/garbage
            # and wrong-version shards land here together.
            self._fault(
                f"sharded {kind} store treats shard {shard} as cold: {error}"
            )
            return None

    def _quarantine(self, shard: Path, reason: str, kind: str) -> None:
        """Move an unreadable shard file aside before writing fresh state.

        Recovery must not destroy bytes: the bad file is renamed to
        ``entries.json.quarantine-<pid>`` (atomic, same directory) so a
        human can inspect it, and the shard proceeds as cold.
        """
        target = shard.with_name(f"{shard.name}.quarantine-{os.getpid()}")
        try:
            os.replace(shard, target)
        except OSError:  # pragma: no cover - already moved by a peer
            return
        self._fault(
            f"sharded {kind} store quarantined unreadable shard {shard} "
            f"to {target.name}: {reason}"
        )

    def _write_shard(
        self, shard: Path, file_format: str, version: int, entries: List[dict]
    ) -> None:
        payload = {"format": file_format, "version": version, "entries": entries}
        atomic_write_text(shard, json.dumps(payload) + "\n")

    # -- protocol -------------------------------------------------------------

    def read(self, file_format, version, missing_ok=False, kind=None):
        kind = kind or file_format
        if not self.exists():
            self._missing(missing_ok, kind)
            return None
        entries: List[dict] = []
        for shard in self._shard_files():
            records = self._read_shard(shard, file_format, version, kind)
            if records:
                entries.extend(records)
        return entries

    def replace(self, file_format, version, entries, key_of=None, kind=None):
        kind = kind or file_format
        if key_of is None:
            raise ValueError(
                "the sharded store needs key_of to route entries to shards; "
                "pass the cache's record-key function"
            )
        groups: Dict[str, List[dict]] = {}
        for entry in entries:
            groups.setdefault(shard_for_key(key_of(entry)), []).append(entry)
        # An image write: not safe against concurrent union_merge callers
        # (same caveat as the single-file save); the store-level lock only
        # serializes replace against replace.
        with cache_file_lock(self.path / "store"):
            self._ensure_marker()
            for shard_id, group in groups.items():
                self._write_shard(
                    self._shard_path(shard_id), file_format, version, group
                )
            for shard in self._shard_files():
                if shard.parent.name not in groups:
                    os.unlink(shard)
        return len(entries)

    def union_merge(self, file_format, version, records, key_of, kind=None):
        kind = kind or file_format
        self.path.mkdir(parents=True, exist_ok=True)
        self._ensure_marker()
        groups: Dict[str, List[dict]] = {}
        for record in records:
            groups.setdefault(shard_for_key(key_of(record)), []).append(record)
        for shard_id in sorted(groups):
            shard = self._shard_path(shard_id)
            with cache_file_lock(shard):
                existing: List[dict] = []
                if shard.exists():
                    loaded = self._read_shard(shard, file_format, version, kind)
                    if loaded is None:
                        # The shard is unreadable; preserve its bytes and
                        # merge onto a cold shard.  Peer shards are never
                        # touched.
                        self._quarantine(shard, "unreadable during merge", kind)
                    else:
                        existing = loaded
                merged: Dict[str, dict] = {}
                for record in existing:
                    merged[canonical_key(key_of(record))] = record
                for record in groups[shard_id]:
                    merged[canonical_key(key_of(record))] = record
                self._write_shard(shard, file_format, version, list(merged.values()))
        return self.count_entries(file_format, version, kind)

    def count_entries(self, file_format: int, version: int, kind: str) -> int:
        """Total readable entries across every shard (cold shards count 0)."""
        total = 0
        for shard in self._shard_files():
            records = self._read_shard(shard, file_format, version, kind)
            if records:
                total += len(records)
        return total
