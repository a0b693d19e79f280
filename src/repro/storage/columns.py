"""Chunked, resumable on-disk storage for streamed delegate columns.

The streaming engine never materializes an N×N delegate matrix; it
assembles destination-column blocks on demand and spills them here.  A
store is a directory of per-chunk ``.npy`` files plus a ``meta.json``
identity document:

- chunks are fixed-width column blocks ``[start, start+chunk)`` (the
  last one ragged), three arrays each (``rtt``/``loss``/``hops``), all
  written atomically (tmp file + ``os.replace``) so a killed run never
  leaves a torn chunk;
- the identity key is content-addressed — callers derive it from the
  same canonical scenario hash :mod:`repro.storage.cache` uses, so a
  store is only ever re-read by the exact world that wrote it; a
  mismatched ``meta.json`` (different key, N, or chunk width) empties
  the store rather than poisoning a resumed run;
- reads come back memory-mapped (``np.load(mmap_mode="r")``): a
  100k-tier sweep touches pages, not gigabytes.

``np.save``/``np.load`` round-trip float64/int64 arrays bit-exactly,
which keeps the spill path inside the engine's bit-identical contract.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

__all__ = ["COLUMN_STORE_SCHEMA", "ColumnStore"]

#: Bump when the on-disk layout changes; stores of other versions are
#: treated as foreign and cleared on open.
COLUMN_STORE_SCHEMA = 1

_ARRAYS = ("rtt", "loss", "hops")


class ColumnStore:
    """Per-chunk spill store for streamed delegate-matrix columns."""

    def __init__(self, root: Union[str, Path], key: str, n: int, chunk: int) -> None:
        if n < 1 or chunk < 1:
            raise ValueError("ColumnStore needs n >= 1 and chunk >= 1")
        self.root = Path(root)
        self.key = key
        self.n = int(n)
        self.chunk = int(chunk)
        self.root.mkdir(parents=True, exist_ok=True)
        self._validate_or_reset()

    # -- identity ------------------------------------------------------

    def _meta_path(self) -> Path:
        return self.root / "meta.json"

    def _meta_document(self) -> dict:
        return {
            "schema": COLUMN_STORE_SCHEMA,
            "key": self.key,
            "n": self.n,
            "chunk": self.chunk,
        }

    def _validate_or_reset(self) -> None:
        """Adopt a matching store; clear anything else."""
        meta_path = self._meta_path()
        if meta_path.exists():
            try:
                found = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                found = None
            if found == self._meta_document():
                return
            self.clear()
        _atomic_write(meta_path, json.dumps(self._meta_document(), sort_keys=True))

    def clear(self) -> None:
        """Remove every chunk (and the identity document)."""
        for path in self.root.glob("*.npy"):
            path.unlink(missing_ok=True)
        self._meta_path().unlink(missing_ok=True)

    # -- chunk geometry ------------------------------------------------

    def starts(self) -> List[int]:
        """Chunk start columns, ascending."""
        return list(range(0, self.n, self.chunk))

    def columns_of(self, start: int) -> np.ndarray:
        """The column indices of the chunk starting at ``start``."""
        return np.arange(start, min(start + self.chunk, self.n), dtype=np.int64)

    def _paths(self, start: int) -> Tuple[Path, ...]:
        return tuple(self.root / f"{name}_{start:08d}.npy" for name in _ARRAYS)

    # -- I/O -----------------------------------------------------------

    def has(self, start: int) -> bool:
        return all(path.exists() for path in self._paths(start))

    def complete(self) -> bool:
        """Whether every chunk of the matrix has been spilled."""
        return all(self.has(start) for start in self.starts())

    def save(self, start: int, rtt: np.ndarray, loss: np.ndarray, hops: np.ndarray) -> None:
        """Atomically persist one column block (N rows × chunk cols)."""
        width = len(self.columns_of(start))
        for name, array in zip(_ARRAYS, (rtt, loss, hops)):
            if array.shape != (self.n, width):
                raise ValueError(
                    f"chunk {start}: {name} block must be {(self.n, width)}, "
                    f"got {array.shape}"
                )
        for path, array in zip(self._paths(start), (rtt, loss, hops)):
            _atomic_save(path, array)

    def load(self, start: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One column block back, memory-mapped read-only."""
        rtt_path, loss_path, hops_path = self._paths(start)
        return (
            np.load(rtt_path, mmap_mode="r"),
            np.load(loss_path, mmap_mode="r"),
            np.load(hops_path, mmap_mode="r"),
        )

    def chunk_count(self) -> Tuple[int, int]:
        """(stored, total) chunk counts — resume progress."""
        stored = sum(1 for start in self.starts() if self.has(start))
        return stored, len(self.starts())

    def stored_bytes(self) -> int:
        """Bytes on disk across every chunk file."""
        return sum(path.stat().st_size for path in self.root.glob("*.npy"))


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_save(path: Path, array: np.ndarray) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.save(handle, np.ascontiguousarray(array))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
