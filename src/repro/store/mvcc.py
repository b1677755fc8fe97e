"""Multi-version concurrency control over the snapshot-style stores.

SPARQL Update turns the previously read-only stores into shared mutable
state.  Rather than locking readers, :class:`MvccStore` keeps every published
store *generation* immutable: readers pin the current generation with one
attribute read and keep scanning it unperturbed; a single serialized writer
builds the next generation in a draft (``begin_generation`` on the underlying
store returns a copy-on-write store of the same class, written through its
ordinary ``add_all``/``remove_all``) and publishes it atomically by sealing
it and swapping one reference.

Invariants:

* A published generation is never mutated again.  Readers holding it see a
  frozen, consistent state for as long as they keep the reference.
* Publishing bumps ``version`` monotonically, once per outermost
  transaction; the engine's prepared-statement cache compares it (and the
  per-predicate change stamps of the generation) to decide which cached
  plans to re-plan.
* ``write_transaction`` holds the writer lock across WHERE evaluation *and*
  application, so read-modify-write updates never lose concurrent writes.
  A transaction opened inside another on the same thread joins it.

Readers should go through :func:`read_snapshot` at operation start and use
the returned plain store for the whole operation; the helper is a no-op on
non-MVCC stores, so callers need not know which kind they were given.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

from ..obs import get_registry
from .base import TripleStore


def read_snapshot(store):
    """Pin the current generation of ``store`` for a whole read operation.

    Returns the underlying immutable generation when ``store`` is an
    :class:`MvccStore`, and ``store`` itself otherwise.  One attribute read;
    atomic with respect to concurrent publishes.
    """
    snapshot = getattr(store, "snapshot", None)
    if snapshot is not None:
        return snapshot()
    return store


class WriteTransaction:
    """Handle yielded by :meth:`MvccStore.write_transaction`.

    ``base`` is the pre-update generation (evaluate WHERE clauses against
    it); ``insert``/``remove`` and their batch forms mutate the copy-on-write
    draft and count what actually changed.  Deletions and insertions may be
    issued in any order — the SPARQL Update executor applies deletes first
    per the spec, but the draft itself is order-agnostic.
    """

    def __init__(self, base, draft):
        self.base = base
        self._draft = draft
        self.inserted = 0
        self.deleted = 0
        #: Set when an exception left this transaction or one nested in it.
        self.failed = False

    def insert(self, triple):
        """Add one ground triple to the next generation; True when new."""
        return self.insert_all((triple,)) == 1

    def remove(self, triple):
        """Remove one ground triple from the next generation; True if present."""
        return self.remove_all((triple,)) == 1

    def insert_all(self, triples):
        """Add ground triples to the next generation in one write of the
        draft; returns the count that was new."""
        added = self._draft.add_all(triples)
        self.inserted += added
        return added

    def remove_all(self, triples):
        """Remove ground triples from the next generation in one write of
        the draft; returns the count that was present."""
        removed = self._draft.remove_all(triples)
        self.deleted += removed
        return removed


class MvccStore(TripleStore):
    """Snapshot-isolated facade over a :class:`~repro.store.IndexedStore` or
    :class:`~repro.store.MemoryStore`.

    Reads delegate to the current generation; point mutations (``add`` /
    ``remove``) run as single-triple transactions.  Bulk ingestion and the
    SPARQL Update executor use :meth:`write_transaction` directly so one
    update operation publishes exactly one generation.
    """

    def __init__(self, store):
        self._current = store
        self._writer_lock = threading.RLock()
        #: The outermost open transaction (only its lock holder reads it).
        self._transaction = None
        registry = get_registry()
        self._lock_wait_seconds = registry.histogram(
            "sp2b_mvcc_writer_lock_wait_seconds",
            "Time a write transaction waited to acquire the serialized "
            "writer lock.",
        )
        self._generations_published = registry.counter(
            "sp2b_mvcc_generations_published_total",
            "Store generations published by mutating write transactions.",
        )

    # -- snapshots and versioning ------------------------------------------

    def snapshot(self):
        """The current generation (an immutable plain store)."""
        return self._current

    @property
    def version(self):
        return self._current.version

    @contextmanager
    def write_transaction(self):
        """Serialize one writer; yield a :class:`WriteTransaction`.

        On normal exit, a mutated draft is sealed with ``version + 1`` and
        published atomically; an unmutated draft is discarded without a
        version bump (no-op updates must not invalidate prepared plans).
        A transaction opened while this thread already holds one (the lock
        is reentrant) joins it: same base, same draft, and only the
        outermost exit publishes.  An exception in any of them publishes
        nothing.
        """
        lock_requested = perf_counter()
        with self._writer_lock:
            # Reentrant acquires (nested transactions) report ~0 wait.
            self._lock_wait_seconds.observe(perf_counter() - lock_requested)
            outer = self._transaction
            if outer is not None:
                try:
                    yield WriteTransaction(outer.base, outer._draft)
                except BaseException:
                    outer.failed = True
                    raise
                return
            base = self._current
            transaction = WriteTransaction(base, base.begin_generation())
            self._transaction = transaction
            try:
                yield transaction
            finally:
                self._transaction = None
            draft = transaction._draft
            if not transaction.failed and draft.version != base.version:
                self._current = draft.seal(base.version + 1)
                self._generations_published.inc()

    # -- TripleStore interface ---------------------------------------------

    @property
    def name(self):
        return f"mvcc({self._current.name})"

    def add_all(self, triples):
        with self.write_transaction() as txn:
            return txn.insert_all(triples)

    def remove_all(self, triples):
        with self.write_transaction() as txn:
            return txn.remove_all(triples)

    def bulk_load(self, triples):
        # The draft's own bulk path: an IndexedStore sorts its columns once
        # instead of splicing them per triple.
        with self.write_transaction() as txn:
            added = txn._draft.bulk_load(triples)
            txn.inserted += added
            return added

    load_graph = bulk_load

    def triples(self, subject=None, predicate=None, object=None):
        return self._current.triples(subject, predicate, object)

    def triples_ids(self, subject=None, predicate=None, object=None):
        return self._current.triples_ids(subject, predicate, object)

    def contains(self, triple):
        return self._current.contains(triple)

    def count_ids(self, subject=None, predicate=None, object=None):
        return self._current.count_ids(subject, predicate, object)

    def __len__(self):
        return len(self._current)

    def save(self, path, metadata=None):
        return self._current.save(path, metadata=metadata)

    def __getattr__(self, attribute):
        # Anything else (statistics, dictionary, permutations) resolves
        # against the current generation.  Readers that need
        # a *consistent* view across several calls must pin a snapshot first.
        return getattr(self._current, attribute)

    def __repr__(self):
        return f"MvccStore(version={self.version}, current={self._current!r})"
