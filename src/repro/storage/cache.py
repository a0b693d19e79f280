"""Content-addressed on-disk cache of built scenarios.

Every experiment replays the same simulated worlds: a
:class:`~repro.scenario.ScenarioConfig` plus its seed uniquely determine
the topology, BGP feed, population, latency ground truth and delegate
matrices.  Rebuilding all of that per process is pure waste, so builds
can be persisted once and reloaded byte-identically.

Layout, under a cache root (``--cache-dir`` / ``$REPRO_CACHE_DIR``)::

    <root>/<key>/meta.json            # schema version, config echo
    <root>/<key>/scenario.pkl.gz      # world minus matrices (pickle)
    <root>/<key>/matrices.npz         # delegate matrices (npz archive)

``<key>`` is a SHA-256 digest over the canonical JSON of the scenario
config (the runtime-only cache directory excluded)
plus :data:`SCHEMA_VERSION`.  Any change to what a config value means
must bump the schema version, which invalidates every existing entry;
changing any world-determining config field changes the key, so stale
entries are never returned.  Writes go through a temp file + rename so
concurrent runs only ever observe complete artifacts.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import pickle
import tempfile
import zipfile
from pathlib import Path
from typing import Optional, Union

from repro.errors import ReproError
from repro.storage.artifacts import load_matrices, save_matrices

PathLike = Union[str, Path]

#: Bump whenever the semantics of cached artifacts change (pickle layout,
#: matrix contents): old entries become unreadable by key mismatch rather
#: than silently wrong.
#: v2: the close sets once cached here gained ``probes_by_as``; they are
#: no longer cached, and the number stays so existing entries stay valid.
#: v3: pickled routers hold a CSR export and array routing trees.
SCHEMA_VERSION = 3

#: Environment override for the cache root when no explicit directory is
#: configured.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Config fields that do not determine the world and are excluded from
#: cache keys (they only control how the build is executed).
_RUNTIME_FIELDS = ("cache_dir",)


def resolve_cache_dir(cache_dir: Optional[PathLike] = None) -> Optional[Path]:
    """Resolve the cache root: explicit setting, else ``$REPRO_CACHE_DIR``,
    else ``None`` (caching disabled)."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(env) if env else None


def _canonical_config(config) -> dict:
    payload = dataclasses.asdict(config)
    for name in _RUNTIME_FIELDS:
        payload.pop(name, None)
    return payload


def scenario_cache_key(config) -> str:
    """Stable content hash of a scenario config (+ schema version)."""
    payload = {"schema": SCHEMA_VERSION, "config": _canonical_config(config)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ScenarioCache:
    """Load/store built scenarios under one cache root."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    def dir_for(self, config) -> Path:
        return self.root / scenario_cache_key(config)

    def load(self, config):
        """The cached scenario for ``config``; ``None`` when there is no whole entry.

        The returned scenario carries the *requested* config object, so
        runtime fields (the cache directory) follow the caller
        rather than whatever run populated the cache.
        """
        entry = self.dir_for(config)
        try:
            meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
            if meta.get("schema") != SCHEMA_VERSION:
                return None
            with gzip.open(entry / "scenario.pkl.gz", "rb") as handle:
                scenario = pickle.load(handle)
            scenario._matrices = load_matrices(entry / "matrices.npz")
        except (
            OSError,             # a file is missing (cold miss) or unreadable
            EOFError,
            pickle.UnpicklingError,
            zipfile.BadZipFile,  # truncated matrices.npz
            ReproError,          # foreign matrix archive version
            KeyError,            # archive without one of its arrays
            ValueError,          # undecodable JSON / not an npz at all
        ):
            return None  # partial/corrupt entry: treat as a miss
        scenario.config = config
        return scenario

    def save(self, scenario) -> Path:
        """Persist a built scenario (forces matrix computation first)."""
        if not getattr(scenario, "cacheable", True):
            raise ValueError(
                "refusing to cache a derived scenario (subsampled or "
                "measured view): its contents do not match its config key"
            )
        matrices = scenario.matrices  # materialize before stripping
        entry = self.dir_for(scenario.config)
        entry.mkdir(parents=True, exist_ok=True)
        bare = dataclasses.replace(scenario, _matrices=None)
        _atomic_write_bytes(
            entry / "scenario.pkl.gz",
            gzip.compress(pickle.dumps(bare, protocol=pickle.HIGHEST_PROTOCOL)),
        )
        # The temp name must keep the .npz suffix (numpy appends it otherwise).
        tmp_npz = entry / "matrices.tmp.npz"
        save_matrices(tmp_npz, matrices)
        os.replace(tmp_npz, entry / "matrices.npz")
        meta = {
            "schema": SCHEMA_VERSION,
            "key": scenario_cache_key(scenario.config),
            "config": _canonical_config(scenario.config),
            "clusters": matrices.count,
            "hosts": len(scenario.population),
        }
        _atomic_write_bytes(
            entry / "meta.json",
            json.dumps(meta, indent=2, sort_keys=True, default=str).encode("utf-8"),
        )
        return entry
