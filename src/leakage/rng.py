"""Seeded random streams.

One experiment seed fans out into independent labeled sub-streams, so
results do not depend on the order in which components draw their
randomness.

``substream`` imports ``hashlib`` (and OpenSSL) itself, so a run that draws no
stream never loads it; a seeded run still does, through ``numpy.random``'s
own imports of ``secrets`` and ``hmac``.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, label: str) -> np.random.Generator:
    """Generator for the sub-stream ``label`` of the experiment ``seed``."""
    import hashlib

    digest = hashlib.sha256(label.encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)))
