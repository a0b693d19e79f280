"""Binary artifact persistence: delegate matrices round-trip through
``.npz`` (prefixes stored as strings, arrays natively) so a measured
dataset can be reused across runs, like the paper replaying its King
measurements.  (Per-session method records round-trip through CSV next
to their type, in :mod:`repro.evaluation.metrics`.)
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import ArtifactError, ReproError
from repro.measurement.matrix import DelegateMatrices
from repro.netaddr import IPv4Prefix

PathLike = Union[str, Path]

_MATRIX_FORMAT_VERSION = 1


def save_matrices(path: PathLike, matrices: DelegateMatrices) -> None:
    """Serialize delegate matrices to a ``.npz`` archive."""
    np.savez_compressed(
        Path(path),
        version=np.array([_MATRIX_FORMAT_VERSION]),
        prefixes=np.array([str(p) for p in matrices.prefixes]),
        asn_of=matrices.asn_of,
        sizes=matrices.sizes,
        rtt_ms=matrices.rtt_ms,
        loss=matrices.loss,
        as_hops=matrices.as_hops,
    )


#: ``(array, dtype kinds, ndim)`` of a matrix archive: each axis spans
#: the clusters named by ``prefixes``.
_MATRIX_ARRAYS = (
    ("asn_of", "iu", 1),
    ("sizes", "iu", 1),
    ("rtt_ms", "f", 2),
    ("loss", "f", 2),
    ("as_hops", "iu", 2),
)
#: What reading a damaged archive or member can raise.
_UNREADABLE = (ValueError, EOFError, zipfile.BadZipFile, zlib.error)


def load_matrices(path: PathLike) -> DelegateMatrices:
    """Load delegate matrices saved by :func:`save_matrices`.

    The archive is checked before it is trusted: every array present and
    readable, the arrays' kinds and shapes agreeing with the ``prefixes``
    header, and every RTT cell ``>= 0`` or ``inf`` — OPT's pruned two-hop
    fold is exact only on such RTTs.  Any failure raises
    :class:`~repro.errors.ArtifactError` naming the file and the array.
    """
    path = Path(path)
    try:
        archive = np.load(path, allow_pickle=False)
    except _UNREADABLE as exc:
        raise ArtifactError(f"{path}: not a matrix archive ({exc})") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ArtifactError(f"{path}: not a matrix archive (a bare .npy array)")
    with archive:

        def read(name: str) -> np.ndarray:
            try:
                return archive[name]
            except KeyError:
                raise ArtifactError(f"{path}: array {name!r} is missing") from None
            except _UNREADABLE as exc:
                raise ArtifactError(f"{path}: array {name!r} is unreadable ({exc})") from exc

        version = read("version")
        if version.shape != (1,) or int(version[0]) != _MATRIX_FORMAT_VERSION:
            raise ArtifactError(
                f"{path}: array 'version' holds {version.tolist()!r}; "
                f"supported: [{_MATRIX_FORMAT_VERSION}]"
            )
        names = read("prefixes")
        if names.ndim != 1:
            raise ArtifactError(f"{path}: array 'prefixes' is not one-dimensional")
        try:
            prefixes = [IPv4Prefix.from_string(str(p)) for p in names]
        except ReproError as exc:
            raise ArtifactError(f"{path}: array 'prefixes' holds {exc}") from exc
        n = len(prefixes)
        arrays = {}
        for name, kinds, ndim in _MATRIX_ARRAYS:
            array = arrays[name] = read(name)
            shape = (n,) * ndim
            if array.dtype.kind not in kinds or array.shape != shape:
                raise ArtifactError(
                    f"{path}: array {name!r} is {array.dtype} {array.shape}; "
                    f"want {shape} for {n} clusters"
                )
    if not np.all(arrays["rtt_ms"] >= 0):  # NaN fails it too
        raise ArtifactError(f"{path}: array 'rtt_ms' holds NaN or negative cells")
    return DelegateMatrices(
        prefixes=prefixes,
        index_of={p: i for i, p in enumerate(prefixes)},
        **arrays,
    )
