"""Property: readers under a concurrent update stream see committed states.

The MVCC contract, stated as a property: while one writer applies a random
stream of update operations, every concurrent read observes a result
multiset equal to what the fixed probe query produces on *some* committed
version of the store — never a half-applied update, never a mix of two
generations.  Checked across the deployable (store family, planner family)
configurations.
"""

import threading

from hypothesis import given, settings, strategies as st

from repro.sparql import EngineConfig, SparqlEngine
from repro.store import MvccStore

_CONFIGS = (
    EngineConfig(name="indexed-cost", store_type="indexed", planner="cost"),
    EngineConfig(name="indexed-greedy", store_type="indexed",
                 planner="greedy"),
    EngineConfig(name="memory-none", store_type="memory", planner="none"),
)

P = "http://example.org/p"
READERS = 3
READS_PER_THREAD = 8

#: The probe: everything under the predicate the writer churns.
PROBE = f"SELECT ?s ?o WHERE {{ ?s <{P}> ?o }}"


@st.composite
def update_streams(draw):
    """A random sequence of update operations over a small id space.

    Pairs are the atomicity unit: every operation inserts or deletes *two*
    triples for one subject in a single update, so a reader catching a
    generation mid-write would surface as a half-visible pair.
    """
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]),
                  st.integers(min_value=0, max_value=9)),
        min_size=4, max_size=12,
    ))
    operations = []
    for action, key in steps:
        subject = f"<http://example.org/s{key}>"
        pair = (f"{subject} <{P}> {2 * key} . "
                f"{subject} <{P}> {2 * key + 1} . ")
        if action == "insert":
            operations.append(f"INSERT DATA {{ {pair}}}")
        else:
            operations.append(f"DELETE DATA {{ {pair}}}")
    return operations


def _probe_multiset(engine):
    rows = engine.query(PROBE)
    return tuple(sorted(
        (str(binding.get("s")), str(binding.get("o"))) for binding in rows
    ))


class TestSnapshotIsolation:
    @given(update_streams())
    @settings(max_examples=8, deadline=None)
    def test_reads_match_some_committed_version(self, operations):
        for config in _CONFIGS:
            engine = SparqlEngine(config)
            engine.store = MvccStore(engine.store)
            engine.update(
                f"INSERT DATA {{ <http://example.org/s0> <{P}> 0 . "
                f"<http://example.org/s0> <{P}> 1 . }}"
            )

            committed = {_probe_multiset(engine)}
            committed_lock = threading.Lock()
            start = threading.Barrier(READERS + 1)
            observations = [None] * READERS
            errors = []

            def writer():
                try:
                    start.wait()
                    for operation in operations:
                        # Record the post-commit state before readers can
                        # be told about it: any multiset a reader observes
                        # afterwards is already in the committed set.
                        with committed_lock:
                            engine.update(operation)
                            committed.add(_probe_multiset(engine))
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            def reader(index):
                try:
                    start.wait()
                    seen = []
                    for _ in range(READS_PER_THREAD):
                        seen.append(_probe_multiset(engine))
                    observations[index] = seen
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(index,))
                for index in range(READERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors

            for seen in observations:
                for multiset in seen:
                    assert multiset in committed, (
                        f"{config.name}: observed state matching no "
                        f"committed version: {multiset!r}"
                    )
                    # Pair atomicity inside every observed state.
                    subjects = {}
                    for subject, _value in multiset:
                        subjects[subject] = subjects.get(subject, 0) + 1
                    assert all(count == 2 for count in subjects.values()), (
                        f"{config.name}: torn pair in {multiset!r}"
                    )
