"""Scatter-gather execution over a subject-partitioned store.

This is the execution half of PR 8's scale-out layer (the storage half is
:class:`~repro.store.PartitionedStore`).  It extends the id-space evaluator
so that basic graph patterns *scatter* across the store's segments and the
produced id rows *gather* back into one stream:

* **union** — when every pattern of the BGP shares one subject term (see
  :func:`~repro.sparql.planner.scatter_strategy`), the whole BGP evaluates
  independently per segment and the gathered rows are the plain union:
  subject partitioning guarantees each result row is produced by exactly
  one segment, with unchanged multiplicity.
* **broadcast** — any other shape evaluates once against the partitioned
  store's global view: probes with a bound subject route to the owning
  segment (an implicit re-partitioning of the intermediate rows), all other
  accesses chain across every segment.

Union-scattered BGPs run on a **persistent fork-mode process pool**
(:class:`SegmentPool`): one worker per segment, forked once per store
version so the segments are shared copy-on-write exactly like PR 5's
workload clients — the parent ships only the (pickled) BGP node and slot
layout, workers ship back flat id-row lists, and the shared dictionary
makes those rows globally meaningful without re-mapping.  Everything
degrades gracefully: no fork start method, an unpicklable plan, a dead
worker, ``parallel=False``, EXPLAIN instrumentation, or ``K == 1`` all fall
back to sequential in-process per-segment evaluation with identical
results.  Correctness never depends on the pool.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import threading
import weakref
from time import perf_counter

from ..obs import get_registry
from .idspace import IdSpaceEvaluation
from .planner import SCATTER_UNION, scatter_strategy

# Scatter-layer telemetry (no-ops until the global registry is enabled).
# Every decision that routes a BGP away from the pool is a labelled
# fallback counter, so a serving setup can see *why* it is not scaling.
_SCATTER_BGPS = get_registry().counter(
    "sp2b_scatter_bgps_total",
    "BGPs evaluated against a partitioned store, by executed strategy "
    "(union_pool / union_sequential / broadcast).",
    labels=("strategy",),
)
_SCATTER_FALLBACKS = get_registry().counter(
    "sp2b_scatter_fallbacks_total",
    "Union-scatter evaluations that fell back to the sequential "
    "in-process path, by reason.",
    labels=("reason",),
)
_SEGMENT_TASK_SECONDS = get_registry().histogram(
    "sp2b_scatter_segment_task_seconds",
    "Per-segment task latency of pooled scatters: dispatch to gathered "
    "answer, parent-side.",
    labels=("segment",),
)


class ScatterError(RuntimeError):
    """A pool-side failure; callers fall back to in-process evaluation."""


def _fallback_reason(error):
    """Classify a :class:`ScatterError` for the fallback counter."""
    message = str(error)
    if "not picklable" in message:
        return "unpicklable"
    if "worker died" in message:
        return "worker_died"
    if "closed" in message:
        return "pool_closed"
    return "pool_error"


def pool_available():
    """Whether a segment pool can run here (needs the fork start method)."""
    return "fork" in multiprocessing.get_all_start_methods()


class ScatterGatherEvaluation(IdSpaceEvaluation):
    """Id-space evaluation that scatters BGPs over store segments.

    Instantiated by the evaluator facade whenever the store exposes a
    ``segments`` attribute; for ``K == 1`` every strategy degenerates to
    plain single-store evaluation, so the class is safe as the default for
    any partitioned store.
    """

    def _eval_bgp(self, node, seeds=None):
        segments = getattr(self._store, "segments", ())
        if (
            len(segments) > 1
            and node.patterns
            and seeds is None
            and not self._seed
            and scatter_strategy(node.patterns) == SCATTER_UNION
        ):
            return self._scatter_union(node, segments)
        # Broadcast (and every seeded/pre-bound case): the inherited
        # pipeline against the partitioned store's global view.  Bound-
        # subject probes route to one segment inside the store itself.
        if len(segments) > 1 and node.patterns:
            _SCATTER_BGPS.labels(strategy="broadcast").inc()
        return super()._eval_bgp(node, seeds)

    def _scatter_union(self, node, segments):
        """Evaluate one subject-aligned BGP per segment and union the rows."""
        if not self._observe:
            pool = pool_for(self._store)
            if pool is not None:
                try:
                    rows = pool.scatter(node, self._layout.names,
                                        check=self._check)
                    _SCATTER_BGPS.labels(strategy="union_pool").inc()
                    return rows
                except ScatterError as error:
                    # A broken pool must not break the query: retire it and
                    # serve this (and future) evaluations in-process.
                    _SCATTER_FALLBACKS.labels(
                        reason=_fallback_reason(error)).inc()
                    disable_pool(self._store)
            else:
                _SCATTER_FALLBACKS.labels(reason="no_pool").inc()
        else:
            _SCATTER_FALLBACKS.labels(reason="explain").inc()
        _SCATTER_BGPS.labels(strategy="union_sequential").inc()
        # Sequential per-segment evaluation.  With EXPLAIN instrumentation
        # on, this is the *required* path: the per-segment evaluations feed
        # the same PlanStep objects, so step.actual accumulates the true
        # per-step row totals across all segments.
        observe = self._observe
        deadline = self._deadline
        names = self._layout.names

        def generate():
            for segment in segments:
                evaluation = IdSpaceEvaluation(
                    segment, observe_plans=observe, deadline=deadline,
                )
                yield from evaluation.solve_bgp(node, names)

        return generate()


# ---------------------------------------------------------------------------
# The persistent per-store segment pool
# ---------------------------------------------------------------------------

#: One pool per live partitioned store, keyed weakly so a collected store
#: releases its (daemonic) workers with it.  Guarded by _POOLS_LOCK; pools
#: are retired when the store's version moves past the one they forked at.
_POOLS = weakref.WeakKeyDictionary()
_POOLS_LOCK = threading.Lock()


def pool_for(store):
    """The persistent :class:`SegmentPool` for ``store``, or None.

    None when parallelism is disabled (``store.parallel`` is False), the
    platform lacks fork, or the store has fewer than two segments.  A pool
    forked from an older store version is closed and rebuilt, so workers
    never serve stale segments.  Safe to call from several threads; pool
    creation is serialized.
    """
    segments = getattr(store, "segments", ())
    parallel = getattr(store, "parallel", None)
    if parallel is None:
        parallel = pool_available()
    if not parallel or len(segments) < 2 or not pool_available():
        return None
    with _POOLS_LOCK:
        pool = _POOLS.get(store)
        if pool is not None and pool.version != getattr(store, "version", 0):
            pool.close()
            pool = None
        if pool is None:
            pool = SegmentPool(segments, version=getattr(store, "version", 0))
            _POOLS[store] = pool
        return pool


def close_pool(store):
    """Shut down the store's pool, if any (idempotent)."""
    with _POOLS_LOCK:
        pool = _POOLS.pop(store, None)
    if pool is not None:
        pool.close()


def disable_pool(store):
    """Retire the store's pool and pin it to in-process evaluation."""
    close_pool(store)
    try:
        store.parallel = False
    except AttributeError:
        pass


def _segment_worker(index, segment, tasks, results):
    """One forked worker: evaluate shipped BGPs against its own segment.

    The segment was inherited copy-on-write at fork time.  Every task is
    answered exactly once (result or error), so the parent never blocks on
    a worker that failed to evaluate; a worker that dies outright is caught
    by the liveness poll in :meth:`SegmentPool.scatter`.
    """
    while True:
        item = tasks.get()
        if item is None:
            return
        task_id, payload = item
        try:
            names, node = pickle.loads(payload)
            rows = list(IdSpaceEvaluation(segment).solve_bgp(node, names))
            results.put((task_id, index, rows, None))
        except Exception as error:  # noqa: BLE001 - relayed to the parent
            try:
                results.put(
                    (task_id, index, None, f"{type(error).__name__}: {error}")
                )
            except Exception:  # noqa: BLE001 - queue itself unusable
                return


class _Gather:
    """Collection state of one in-flight scatter (K expected answers)."""

    __slots__ = ("parts", "errors", "remaining", "event", "lock",
                 "dispatched")

    def __init__(self, expected):
        self.parts = [None] * expected
        self.errors = []
        self.remaining = expected
        self.event = threading.Event()
        self.lock = threading.Lock()
        #: Set right before the tasks are enqueued; per-segment latency is
        #: measured from here to each answer (collector-thread side).
        self.dispatched = None

    def deliver(self, index, rows, error):
        if self.dispatched is not None and error is None:
            _SEGMENT_TASK_SECONDS.labels(segment=str(index)).observe(
                perf_counter() - self.dispatched
            )
        with self.lock:
            if error is not None:
                self.errors.append(error)
                self.event.set()
                return
            self.parts[index] = rows
            self.remaining -= 1
            if self.remaining == 0:
                self.event.set()


class SegmentPool:
    """A persistent fork-mode process pool, one worker per segment.

    Workers are forked once (inheriting the segments copy-on-write) and
    stay resident across queries — the per-query cost is one small pickled
    payload per worker plus the gathered row lists, not a store load.  A
    single collector thread routes results back to the waiting scatter
    calls, so concurrent server threads can have several scatters in
    flight at once.  Workers are daemonic: an exiting parent never hangs
    on the pool.
    """

    def __init__(self, segments, version=0):
        if not pool_available():
            raise ScatterError("fork start method unavailable")
        self.version = version
        context = multiprocessing.get_context("fork")
        self._tasks = [context.SimpleQueue() for _ in segments]
        self._results = context.SimpleQueue()
        self._processes = [
            context.Process(
                target=_segment_worker,
                args=(index, segment, tasks, self._results),
                name=f"segment-{index}",
                daemon=True,
            )
            for index, (segment, tasks) in enumerate(zip(segments, self._tasks))
        ]
        for process in self._processes:
            process.start()
        self._pending = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._closed = False
        self._collector = threading.Thread(
            target=self._collect, name="segment-gather", daemon=True
        )
        self._collector.start()

    @property
    def workers(self):
        return len(self._processes)

    def scatter(self, node, names, check=None):
        """Run one BGP on every segment; return the unioned id rows.

        The payload is pickled *here*, synchronously, so an unpicklable
        plan surfaces as :class:`ScatterError` instead of hanging a queue
        feeder.  ``check`` (a deadline callback) is polled while waiting,
        so query timeouts fire in the parent even mid-gather; a worker
        death also surfaces instead of blocking forever.
        """
        try:
            payload = pickle.dumps((tuple(names), node))
        except Exception as error:  # noqa: BLE001 - fall back, do not hang
            raise ScatterError(f"BGP is not picklable: {error}") from error
        with self._lock:
            if self._closed:
                raise ScatterError("segment pool is closed")
            task_id = next(self._ids)
            gather = _Gather(len(self._tasks))
            self._pending[task_id] = gather
        try:
            gather.dispatched = perf_counter()
            for tasks in self._tasks:
                tasks.put((task_id, payload))
            while not gather.event.wait(0.2):
                if check is not None:
                    check()
                if any(not process.is_alive() for process in self._processes):
                    raise ScatterError("a segment worker died")
        finally:
            with self._lock:
                self._pending.pop(task_id, None)
        if gather.errors:
            raise ScatterError(gather.errors[0])
        rows = []
        for part in gather.parts:
            rows.extend(part)
        return iter(rows)

    def _collect(self):
        """Route worker answers to their waiting scatter (collector thread)."""
        while True:
            try:
                item = self._results.get()
            except (EOFError, OSError):
                return
            if item is None:
                return
            task_id, index, rows, error = item
            with self._lock:
                gather = self._pending.get(task_id)
            if gather is not None:
                gather.deliver(index, rows, error)

    def close(self):
        """Stop workers and the collector (idempotent, best effort)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for tasks in self._tasks:
            try:
                tasks.put(None)
            except Exception:  # noqa: BLE001 - worker already gone
                pass
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        try:
            self._results.put(None)
        except Exception:  # noqa: BLE001 - collector already unblocked
            pass

    def __repr__(self):
        return (
            f"SegmentPool(workers={self.workers}, version={self.version}, "
            f"closed={self._closed})"
        )
