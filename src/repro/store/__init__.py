"""Triple-storage substrate: an unindexed and an indexed store.

Two backends model the paper's two engine families.  Both dictionary-encode
terms to integers and answer a pattern as raw id 3-tuples (``triples_ids``),
which the one SPARQL executor joins over without decoding; they differ in the
access path behind it.  :class:`MemoryStore` scans every triple per pattern
(the in-memory engine model); :class:`IndexedStore` reads each pattern and
the cost model off four whole-store sorted permutations of the id triples
(SPO, OSP, PSO and POS; the native-engine model).  An MVCC draft
of either is a store of the same class (:class:`MvccStore`), and both
snapshot to the same container.  See DESIGN.md.
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

__all__ = [
    "TripleStore",
    "MemoryStore",
    "IndexedStore",
    "MvccStore",
    "read_snapshot",
    "TermDictionary",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotCorruptError",
    "save_snapshot",
    "load_snapshot",
    "read_snapshot_metadata",
]
