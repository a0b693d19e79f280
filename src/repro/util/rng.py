"""Deterministic random-number plumbing.

Every stochastic component in the library (topology generation, latency
jitter, workload sampling, protocol probing) takes an explicit
:class:`numpy.random.Generator`.  These helpers derive independent child
generators from a parent seed so experiments are reproducible end-to-end
and sub-systems cannot perturb each other's streams.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def derive_rng(seed: SeedLike, *labels: str) -> np.random.Generator:
    """Return a Generator derived deterministically from ``seed`` + labels.

    ``seed`` may be an int, an existing Generator (used to draw a child
    seed), or None (non-deterministic).  Labels namespace the stream so two
    subsystems sharing one experiment seed get independent sequences::

        rng_topo = derive_rng(42, "topology")
        rng_load = derive_rng(42, "workload")
    """
    if isinstance(seed, np.random.Generator):
        root = int(seed.integers(0, 2**63 - 1))
    elif seed is None:
        return np.random.default_rng()
    else:
        root = int(seed)
    mixed = np.random.SeedSequence([root] + [_label_to_int(lbl) for lbl in labels])
    return np.random.default_rng(mixed)


def _label_to_int(label: str) -> int:
    value = 0
    for ch in label:
        value = (value * 131 + ord(ch)) % (2**31 - 1)
    return value
