"""Triple-storage substrate: unindexed and indexed stores plus statistics.

Two backends model the paper's two engine families.  :class:`MemoryStore`
answers every pattern by scanning (the in-memory engine model).
:class:`IndexedStore` dictionary-encodes terms to integers and answers
patterns from six hash indexes; it additionally exposes an id-level access
interface (``encode_pattern`` / ``triples_ids`` / ``count_ids``, advertised
via ``supports_id_access``) that the id-space SPARQL evaluator joins over
without decoding — the native-engine model.  See DESIGN.md.
"""

from .base import TripleStore
from .dictionary import TermDictionary
from .indexed_store import IndexedStore
from .memory_store import MemoryStore
from .mvcc import MvccStore, read_snapshot
from .snapshot import (
    FORMAT_VERSION as SNAPSHOT_FORMAT_VERSION,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    load_snapshot,
    read_snapshot_metadata,
    save_snapshot,
)
from .statistics import StoreStatistics

__all__ = [
    "TripleStore",
    "MemoryStore",
    "IndexedStore",
    "MvccStore",
    "read_snapshot",
    "TermDictionary",
    "StoreStatistics",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotCorruptError",
    "save_snapshot",
    "load_snapshot",
    "read_snapshot_metadata",
]
