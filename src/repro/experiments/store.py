"""Persistent content-keyed store for experiment results.

:class:`ResultStore` is the disk tier of the runner's two-tier cache:
every :class:`~repro.experiments.runner.ExperimentResult` is archived
as one compact JSON file (the lossless tagged codec of
:mod:`repro.experiments.artifacts`, written by ``json.dumps`` with no
indent so the C encoder serializes it) under a **content key** derived
from

* the experiment's registry name,
* its fully-resolved parameters (canonical JSON), and
* a fingerprint of the ``repro`` package's source code,

so editing any ``repro`` module invalidates every stored result — a
stale entry can never be served after the code that produced it
changed.  Lookups are fail-open: a truncated, corrupt or hand-mangled
entry counts as a miss (and is recorded in :meth:`ResultStore.stats`),
never an exception, so the caller simply recomputes.

Writes are atomic (temp file + ``os.replace``) and therefore safe under
the parallel executor's concurrent workers.  Reads parse any JSON
layout, so entries written indented by older code are still hits.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments import artifacts

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.experiments.registry import ExperimentRegistry
    from repro.experiments.runner import ExperimentResult

#: Format tag written into every entry; bumping it invalidates the store.
STORE_FORMAT = "repro-result-store/v1"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hex digest of every ``repro`` source file's contents.

    Part of the store's content key: results computed by different code
    land under different keys, so a stale entry is unreachable rather
    than wrong.  Cached per process (the tree does not change under a
    running executor).
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def content_key(name: str, params: Mapping[str, Any],
                fingerprint: Optional[str] = None) -> str:
    """The store's content key for one ``(experiment, params)`` run."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    encoded = artifacts.canonical_json(dict(sorted(params.items())))
    digest = hashlib.sha256(
        json.dumps([name, encoded, fingerprint]).encode()).hexdigest()
    return digest[:24]


@dataclass(frozen=True)
class StoreStats:
    """Counters of one :class:`ResultStore` instance's lifetime."""

    hits: int
    misses: int
    corrupt: int
    writes: int
    evictions: int
    entries: int
    total_bytes: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits, "misses": self.misses,
            "corrupt": self.corrupt, "writes": self.writes,
            "evictions": self.evictions, "entries": self.entries,
            "total_bytes": self.total_bytes,
        }


class ResultStore:
    """On-disk content-keyed archive of experiment results.

    Parameters
    ----------
    directory:
        Where entries live (created on first use).  One JSON file per
        entry, named ``<experiment>--<key>.json`` so the store is
        greppable by eye.
    registry:
        Registry used to rebuild specs on :meth:`get` (defaults to the
        process-wide catalogue).
    fingerprint:
        Override of :func:`code_fingerprint`, for tests that need to
        simulate a code change without editing files.
    """

    def __init__(self, directory: Any,
                 registry: Optional["ExperimentRegistry"] = None,
                 fingerprint: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self._registry = registry
        self._fingerprint = fingerprint
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        self._writes = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """The code fingerprint keyed into every entry."""
        return (self._fingerprint if self._fingerprint is not None
                else code_fingerprint())

    def key_for(self, name: str, params: Mapping[str, Any]) -> str:
        """Content key of one ``(experiment, resolved params)`` run."""
        return content_key(name, params, self.fingerprint)

    def path_for(self, name: str, params: Mapping[str, Any]) -> Path:
        """Entry path for one run (whether or not it exists yet)."""
        return self.directory / f"{name}--{self.key_for(name, params)}.json"

    # ------------------------------------------------------------------ #
    # Read / write / evict
    # ------------------------------------------------------------------ #
    def get(self, name: str,
            params: Mapping[str, Any]) -> Optional["ExperimentResult"]:
        """The stored result for a run, or ``None``.

        Missing entries are plain misses.  Unreadable ones — truncated
        JSON, a bad codec node, an envelope whose parameters no longer
        validate — are counted as ``corrupt``, removed, and reported as
        misses so the caller recomputes; the store never raises on read.
        """
        from repro.experiments.runner import ExperimentResult

        path = self.path_for(name, params)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if entry.get("format") != STORE_FORMAT:
                raise artifacts.ArtifactError(
                    f"unknown store format in {path.name}")
            result = ExperimentResult.from_dict(entry["result"],
                                                registry=self._registry)
        except FileNotFoundError:
            self._misses += 1
            return None
        except Exception:
            # Fail open: a mangled entry is recomputed, never fatal.
            self._corrupt += 1
            self._misses += 1
            path.unlink(missing_ok=True)
            return None
        self._hits += 1
        return result

    def put(self, result: "ExperimentResult") -> Path:
        """Archive one result (atomic write; last writer wins)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.name, result.params)
        entry = {
            "format": STORE_FORMAT,
            "experiment": result.name,
            "key": self.key_for(result.name, result.params),
            "fingerprint": self.fingerprint,
            "result": result.to_dict(),
        }
        handle, temp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{path.stem}-", suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(json.dumps(entry))
            os.replace(temp_name, path)
        except BaseException:
            Path(temp_name).unlink(missing_ok=True)
            raise
        self._writes += 1
        return path

    def evict(self, name: str,
              params: Optional[Mapping[str, Any]] = None) -> int:
        """Remove entries; returns how many were deleted.

        With ``params`` exactly one run's entry is targeted; without,
        every entry of experiment ``name`` (any parameters, any code
        fingerprint) is removed.
        """
        if params is not None:
            targets = [self.path_for(name, params)]
        else:
            targets = sorted(self.directory.glob(f"{name}--*.json"))
        removed = 0
        for path in targets:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed += 1
        self._evictions += removed
        return removed

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for path in self._entry_paths():
            path.unlink(missing_ok=True)
            removed += 1
        self._evictions += removed
        return removed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _entry_paths(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(path for path in self.directory.glob("*--*.json")
                      if not path.name.startswith("."))

    def __len__(self) -> int:
        return len(self._entry_paths())

    def __contains__(self, key: Tuple[str, Mapping[str, Any]]) -> bool:
        name, params = key
        return self.path_for(name, params).is_file()

    def keys(self) -> List[str]:
        """Entry file stems (``experiment--key``), sorted."""
        return [path.stem for path in self._entry_paths()]

    @property
    def stats(self) -> StoreStats:
        """Lifetime counters plus the current on-disk footprint."""
        paths = self._entry_paths()
        return StoreStats(
            hits=self._hits, misses=self._misses, corrupt=self._corrupt,
            writes=self._writes, evictions=self._evictions,
            entries=len(paths),
            total_bytes=sum(path.stat().st_size for path in paths))

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary: counters plus per-experiment entry counts
        (what the CI job archives as ``store-stats.json``)."""
        per_experiment: Dict[str, int] = {}
        for path in self._entry_paths():
            experiment = path.stem.rsplit("--", 1)[0]
            per_experiment[experiment] = per_experiment.get(experiment, 0) + 1
        summary = self.stats.to_dict()
        summary["directory"] = str(self.directory)
        summary["fingerprint"] = self.fingerprint
        summary["per_experiment"] = dict(sorted(per_experiment.items()))
        return summary


__all__ = [
    "ResultStore",
    "STORE_FORMAT",
    "StoreStats",
    "code_fingerprint",
    "content_key",
]
