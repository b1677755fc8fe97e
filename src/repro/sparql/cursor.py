"""Streaming result cursors and cooperative evaluation deadlines.

The serving-oriented half of the engine API: where
:class:`~repro.sparql.results.SelectResult` materializes every solution
before the caller sees row one, a cursor is a *lazy, iterate-once* view over
an evaluation that is still running.  Rows are produced on demand, so

* ``LIMIT k`` queries stop evaluating after the k-th solution leaves the
  pipeline (the upstream generators are simply never pulled again),
* time-to-first-row is decoupled from time-to-last-row, and
* a :class:`Deadline` can interrupt the evaluation *mid-stream* with
  :class:`~repro.sparql.errors.QueryTimeout` — the paper's per-query budget
  enforced while the query runs, not classified after it finished.

:class:`SelectCursor` and :class:`AskCursor` share the cursor protocol
(``all()`` / ``first()`` / ``rows()`` / ``close()`` / ``serialize()``), so
benchmark and serving code can treat both query forms uniformly.  ``all()``
returns the eager result containers from :mod:`.results`, which keep their
multiset ``__eq__`` — the compatibility boundary for existing tests and the
cross-engine agreement checks.
"""

from __future__ import annotations

import sys
import time
from itertools import chain, islice

from .bindings import variable_name
from .errors import QueryTimeout
from .kernels import BLOCK_ROWS
from .results import AskResult, SelectResult
from .serializers import serialize, write


def window(rows, offset=0, limit=None):
    """The rows from ``offset`` on, at most ``limit`` of them, lazily.  A
    bound past ``sys.maxsize`` (which ``islice`` refuses) is one no result
    reaches: it is clamped there."""
    if not offset and limit is None:
        return rows
    start = min(offset or 0, sys.maxsize)
    return islice(rows, start, None if limit is None else min(start + limit, sys.maxsize))


class Deadline:
    """A wall-clock budget that evaluation loops check cooperatively.

    Pure-Python evaluation cannot be preempted portably, so the executor
    calls :meth:`check` inside its row-producing loops; the first check
    past the expiry raises :class:`QueryTimeout`.  A ``None`` budget never
    expires (:meth:`check` still exists so call sites stay branch-free).
    """

    __slots__ = ("budget", "expires_at")

    def __init__(self, budget):
        if budget is not None and budget != budget:
            # NaN compares false with everything: it would never expire.
            raise ValueError("deadline budget must be a number, not NaN")
        self.budget = budget
        self.expires_at = (
            None if budget is None else time.perf_counter() + max(budget, 0.0)
        )

    @classmethod
    def resolve(cls, deadline):
        """Coerce ``None`` / seconds / Deadline into a Deadline or None."""
        if deadline is None or isinstance(deadline, cls):
            return deadline
        return cls(float(deadline))

    def expired(self):
        return self.expires_at is not None and time.perf_counter() >= self.expires_at

    def remaining(self):
        """Seconds left, or None for an unbounded deadline."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.perf_counter()

    def check(self):
        """Raise :class:`QueryTimeout` once the budget is spent."""
        if self.expires_at is not None and time.perf_counter() >= self.expires_at:
            raise QueryTimeout(budget=self.budget)

    def guard(self, iterable):
        """Wrap an iterable so every pulled item re-checks the deadline."""
        if self.expires_at is None:
            return iter(iterable)

        def generate():
            for item in iterable:
                self.check()
                yield item

        return generate()

    def __repr__(self):
        return f"Deadline(budget={self.budget!r})"


class ResultCursor:
    """Protocol base of the streaming cursors (SELECT and ASK).

    Cursors are iterate-once: consuming methods (iteration, ``all()``,
    ``first()``, ``rows()``, ``serialize()``) drain whatever has not been
    consumed yet.  They are also context managers; leaving the ``with``
    block closes the cursor and releases the underlying evaluation.
    """

    form = None

    def all(self):
        raise NotImplementedError

    def first(self):
        raise NotImplementedError

    def rows(self):
        raise NotImplementedError

    def close(self):
        raise NotImplementedError

    def serialize(self, format="json"):
        """Drain the cursor into one W3C SPARQL-results string."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


class SelectCursor(ResultCursor):
    """A lazy, iterate-once stream of SELECT solutions.

    ``bindings`` is the evaluator's (lazy) solution iterator; nothing has
    been evaluated beyond the algebra-tree setup when the cursor is created.
    Rows cross the result boundary in batches — 1, 2, 4, ... up to the
    kernels' ``BLOCK_ROWS``, so ``first()`` and ``LIMIT k`` still pull no
    more than they deliver while a large result is drained at C speed —
    and ``deadline`` is re-checked once per batch and once at exhaustion
    (the executor additionally checks inside its own loops, so row-free
    stretches of work are interrupted too).
    """

    form = "SELECT"

    def __init__(self, variables, bindings, deadline=None):
        self.variables = list(variables)
        self.deadline = deadline
        self._bindings = iter(bindings)
        self._rows = chain.from_iterable(self._batches())
        self._closed = False
        #: Rows pulled from the evaluation so far (the final count once the
        #: cursor is exhausted).
        self.count = 0

    # -- streaming consumption ------------------------------------------------

    def _batches(self):
        size = 1
        while not self._closed:
            batch = list(islice(self._bindings, size))
            if self.deadline is not None:
                self.deadline.check()
            if not batch:
                self.close()
                return
            self.count += len(batch)
            yield batch
            size = min(size * 2, BLOCK_ROWS)

    def __iter__(self):
        return self._rows

    def __next__(self):
        return next(self._rows)

    def rows(self):
        """Stream result rows as tuples in projection-variable order."""
        names = [variable_name(v) for v in self.variables]
        for binding in self:
            yield binding.row(names)

    def first(self):
        """The next solution (or None when exhausted); closes the cursor."""
        for binding in self:
            self.close()
            return binding
        return None

    def all(self):
        """Drain the remaining solutions into an eager :class:`SelectResult`."""
        return SelectResult(self.variables, list(self))

    def close(self):
        """Release the underlying evaluation; further iteration yields nothing."""
        if self._closed:
            return
        self._closed = True
        self._rows = iter(())
        close = getattr(self._bindings, "close", None)
        if close is not None:
            close()

    @property
    def closed(self):
        return self._closed

    # -- serialization --------------------------------------------------------

    def serialize(self, format="json"):
        return serialize(self.variables, self, format)

    def write(self, fp, format="json"):
        """Stream-serialize the remaining rows to a file object."""
        return write(fp, self.variables, self, format)

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return (f"SelectCursor(vars={[str(v) for v in self.variables]}, "
                f"consumed={self.count}, {state})")


class AskCursor(ResultCursor):
    """The ASK side of the cursor protocol.

    The boolean is computed by the time the cursor exists (the evaluator
    short-circuits on the first solution), so every consuming method is
    O(1); the class exists to give ASK and SELECT one uniform surface.
    """

    form = "ASK"

    def __init__(self, value, deadline=None):
        self.value = bool(value)
        self.deadline = deadline
        self._closed = False

    def __bool__(self):
        return self.value

    def __iter__(self):
        return iter(())

    def first(self):
        """The boolean answer (symmetric with SelectCursor.first())."""
        self.close()
        return self.value

    def all(self):
        self.close()
        return AskResult(self.value)

    def rows(self):
        """A single one-cell row carrying the boolean answer."""
        yield (self.value,)

    def close(self):
        self._closed = True

    @property
    def closed(self):
        return self._closed

    def serialize(self, format="json"):
        return serialize((), self, format)

    def write(self, fp, format="json"):
        return write(fp, (), self, format)

    def __repr__(self):
        return f"AskCursor({self.value})"
