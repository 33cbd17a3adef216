"""Persistent substrate cache + cross-run incremental analysis.

Enabled with ``--cache <dir>`` (or the ``REPRO_CACHE`` environment
variable) on ``analyze``, ``corpus-analyze`` and ``bench``. See
``docs/performance.md`` ("Persistent substrate cache") for the key scheme,
the invalidation story, and measured cold/warm numbers.
"""

from __future__ import annotations

import importlib
import os
from typing import Optional

#: re-exported name -> defining submodule, resolved on first access so
#: resolving ``--cache`` does not import the store (and ``sqlite3``)
_EXPORTS = {
    "CACHE_VERSION": "store",
    "SubstrateStore": "store",
    "corrupt_store_for_testing": "store",
    "SubstrateCache": "substrate",
    "CacheOutcome": "substrate",
    "RefutationMemo": "memo",
}

#: environment variable naming the default cache directory
CACHE_ENV = "REPRO_CACHE"


def cache_dir_from_env(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the cache directory: explicit flag wins, then $REPRO_CACHE,
    then None (caching disabled)."""
    if explicit:
        return explicit
    return os.environ.get(CACHE_ENV) or None


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
