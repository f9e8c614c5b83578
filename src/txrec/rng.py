"""Named, seeded random streams.

All randomness in the package flows through generators created here; there is
no global RNG state. Each consumer asks for a stream by name, so e.g. the
masking draws are reproducible independently of how many parameters were
initialized before them. Stream names in use:

    "init"                  parameter initialization
    "mask"                  MLM corruption draws during training
    "valid-mask"            MLM corruption draws of the validation loss
    "data"                  shuffling of training example order
    "dropout"               dropout masks
    "synthetic-domain-{d}"  synthetic corpus generation, one per domain d
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for the (seed, name) pair; same pair, same stream."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
