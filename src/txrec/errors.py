"""Exception types shared across the package.

The CLI maps these onto process exit codes (config 2, data 3, checkpoint 4).
"""

from __future__ import annotations


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class DataError(Exception):
    """Malformed input data: items, interactions, vocabulary files."""


class CatalogError(DataError):
    """An item id was referenced that the catalog does not contain."""


class NonFiniteLossError(DataError):
    """Training met a NaN or infinite batch loss, before it reached the weights."""


class CheckpointError(Exception):
    """Unreadable, corrupt, or incompatible checkpoint file."""
