"""Small shared helpers: deterministic sub-seeding."""

from __future__ import annotations

import numpy as np


def spawn_seed(seed: int, *key: int) -> int:
    """Derive an independent child seed from a master seed and an index key.

    Uses the platform-independent SeedSequence expansion, so sweeps and
    per-item generators are reproducible no matter how work is scheduled.
    """
    if seed < 0 or any(k < 0 for k in key):
        raise ValueError("seeds and sub-seed keys must be non-negative")
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])
