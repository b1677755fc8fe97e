"""Brute-force recount of every number the cost model reads from a store.

The reference for ``IndexedStore``'s statistics, which are range lengths
and distinct keys of its sorted columns: here they are recomputed from
``triples_ids()`` with plain sets and lists, sharing nothing with the store.
Tests compare ``statistics_of(store)`` (what the store answers) with
``recount(store)`` (what a full pass finds), and ``store.count`` with
:func:`count`.
"""

from repro.rdf import RDF


def decoded_triples(store):
    """The store's triples as term 3-tuples, read through ``id_triples``."""
    decode = store.dictionary.decode
    return [tuple(map(decode, ids)) for ids in store.triples_ids()]


def count(triples, subject, predicate, object):
    """How many of ``triples`` match the pattern (``None`` is a wildcard)."""
    return sum(1 for triple in triples
               if all(term is None or term == value
                      for term, value in zip((subject, predicate, object), triple)))


def recount(store):
    """Every statistic of ``store``, recounted from its id triples."""
    triples = decoded_triples(store)
    predicates = {triple[1] for triple in triples}
    classes = {triple[2] for triple in triples if triple[1] == RDF.type}
    return {
        "predicates": {
            predicate: (
                sum(1 for triple in triples if triple[1] == predicate),
                len({triple[0] for triple in triples if triple[1] == predicate}),
                len({triple[2] for triple in triples if triple[1] == predicate}),
            )
            for predicate in predicates
        },
        "classes": {
            cls: sum(1 for triple in triples if triple[1:] == (RDF.type, cls))
            for cls in classes
        },
        "totals": (
            len(triples),
            len({triple[0] for triple in triples}),
            len({triple[2] for triple in triples}),
            len(predicates),
        ),
    }


def statistics_of(store):
    """What ``store`` answers for the keys of :func:`recount`."""
    triples = decoded_triples(store)
    predicates = {triple[1] for triple in triples}
    classes = {triple[2] for triple in triples if triple[1] == RDF.type}
    return {
        "predicates": {
            predicate: (
                store.count(None, predicate, None),
                store.distinct_subjects(predicate),
                store.distinct_objects(predicate),
            )
            for predicate in predicates
        },
        "classes": {cls: store.count(None, RDF.type, cls) for cls in classes},
        "totals": (
            store.count(),
            store.distinct_subject_total(),
            store.distinct_object_total(),
            store.distinct_predicates(),
        ),
    }


#: Each permutation's sort order, by positions of (subject, predicate, object).
ORDERS = {"spo": (0, 1, 2), "osp": (2, 0, 1), "pso": (1, 0, 2), "pos": (1, 2, 0)}


def permutations(store):
    """The four whole-store permutations of ``store`` as row lists, each row
    in its order's sequence (SPO's ``(s, p, o)``, POS's ``(p, o, s)``, ...)
    and the rows in stored order, spelled out from each one's row offsets
    and two stored columns."""
    return {order: _rows(store._permutations[order]) for order in ORDERS}


def _rows(permutation):
    starts, *values = permutation
    assert starts[0] == 0 and starts[-1] == len(values[0]) == len(values[1])
    return [(lead, *row) for lead in range(len(starts) - 1)
            for row in zip(*(column[starts[lead]:starts[lead + 1]] for column in values))]


def resorted(store):
    """What :func:`permutations` must answer: the distinct id triples
    rearranged into each order and freshly sorted."""
    triples = set(store.triples_ids())
    return {order: sorted(tuple(triple[position] for position in positions)
                          for triple in triples)
            for order, positions in ORDERS.items()}
