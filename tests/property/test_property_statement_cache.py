"""Property: a cached statement is indistinguishable from a fresh prepare.

Whatever interleaving of updates and lookups an engine sees, the plan
``prepare_cached`` hands out — kept across a publish, restamped, or rebuilt
from the cached algebra — produces the result multiset and the BGP step
order of a ``prepare`` done at that very store version.  Plus the same
cache under four reader threads and one writer.
"""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sparql import NATIVE_COST, NATIVE_OPTIMIZED, SparqlEngine, algebra
from repro.store import IndexedStore, MvccStore

NODES = [f"<http://t/n{index}>" for index in range(4)]
PREDICATES = [f"<http://t/p{index}>" for index in range(3)]
P0, P1, P2 = PREDICATES

TEXTS = (
    f"SELECT ?s ?o WHERE {{ ?s {P0} ?x . ?x {P1} ?o }}",
    f"SELECT ?s WHERE {{ ?s {P2} ?o . ?s {P0} ?x }}",
    f"SELECT ?a ?d WHERE {{ ?a {P0} ?b . ?b {P1} ?c . ?c {P2} ?d }}",
    f"SELECT ?p ?o WHERE {{ {NODES[0]} ?p ?o }}",
    f"SELECT ?s ?o WHERE {{ {{ ?s {P0} ?o }} UNION {{ ?s {P1} ?o . ?o {P2} ?z }} }}",
)

nodes = st.sampled_from(NODES)
predicates = st.sampled_from(PREDICATES)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), nodes, predicates, nodes),
        st.tuples(st.just("delete"), nodes, predicates),
        st.tuples(st.just("query"), st.integers(0, len(TEXTS) - 1)),
    ),
    max_size=40,
)


def step_orders(tree):
    """Per BGP: its pattern order, its steps and their access path."""
    return [
        (list(node.patterns), node.plan.access,
         [step.pattern for step in node.plan.steps])
        for node in algebra.collect_bgps(tree)
    ]


@pytest.mark.parametrize("mvcc", (True, False), ids=("mvcc", "plain"))
@pytest.mark.parametrize("config", (NATIVE_COST, NATIVE_OPTIMIZED),
                         ids=lambda config: config.name)
@given(operations)
@settings(max_examples=40, deadline=None)
def test_cached_statement_equals_fresh_prepare_at_every_version(config, mvcc, steps):
    store = IndexedStore()
    engine = SparqlEngine(config, store=MvccStore(store) if mvcc else store)
    for step in steps:
        if step[0] == "insert":
            engine.update(f"INSERT DATA {{ {step[1]} {step[2]} {step[3]} }}")
        elif step[0] == "delete":
            engine.update(f"DELETE WHERE {{ {step[1]} {step[2]} ?o }}")
        else:
            text = TEXTS[step[1]]
            cached = engine.prepare_cached(text)
            fresh = engine.prepare(text)
            assert step_orders(cached.tree) == step_orders(fresh.tree)
            assert Counter(cached.run().all().rows()) == \
                Counter(fresh.run().all().rows())


# -- one engine, four readers, one writer ------------------------------------

LEFT, RIGHT = "<http://t/left>", "<http://t/right>"
PROBE = f"SELECT ?c ?l ?r WHERE {{ ?c {LEFT} ?l OPTIONAL {{ ?c {RIGHT} ?r }} }}"
READER_TEXTS = (PROBE, TEXTS[0], TEXTS[3])
READERS = 4
PUBLISHES = 60
JOIN_TIMEOUT = 60.0


def test_four_readers_and_a_writer_share_one_statement_cache():
    store = IndexedStore()
    engine = SparqlEngine(NATIVE_COST, store=MvccStore(store))
    engine.update(f"INSERT DATA {{ {NODES[0]} {P0} {NODES[1]} . {NODES[1]} {P1} {NODES[2]} }}")
    done = threading.Event()
    failures = []
    #: (text, version) -> the PreparedQuery objects handed out while the
    #: store stayed at that version for the whole lookup.
    handed_out = {}
    handed_out_lock = threading.Lock()

    def write():
        try:
            for number in range(PUBLISHES):
                canary = f"<http://t/c{number % 3}>"
                engine.update(
                    f'INSERT DATA {{ {canary} {LEFT} "{number}" . '
                    f'{canary} {RIGHT} "{number}" }}')
                engine.update(f"DELETE WHERE {{ {canary} ?p ?o }}")
        except Exception as error:  # noqa: BLE001 - reported by the assert below
            failures.append(error)
        finally:
            done.set()

    def read():
        try:
            while not done.is_set():
                for text in READER_TEXTS:
                    before = engine.store.version
                    prepared = engine.prepare_cached(text)
                    after = engine.store.version
                    rows = prepared.run().all()
                    if text is PROBE and any(row[2] is None for row in rows.rows()):
                        failures.append(AssertionError(f"torn pair: {rows.rows()}"))
                    if before == after:
                        with handed_out_lock:
                            handed_out.setdefault((text, before), set()).add(prepared)
        except Exception as error:  # noqa: BLE001 - reported by the assert below
            failures.append(error)

    threads = [threading.Thread(target=read) for _ in range(READERS)]
    threads.append(threading.Thread(target=write))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert engine.store.version == 1 + 2 * PUBLISHES
    assert handed_out
    for (text, version), prepared in handed_out.items():
        assert len(prepared) == 1, (text, version)
    # No canary update touches P0/P1: that text was planned exactly once.
    assert len({prepared for (text, _version), seen in handed_out.items()
                if text is TEXTS[0] for prepared in seen}) == 1
