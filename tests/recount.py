"""Brute-force recount of every number the cost model reads from a store.

The reference for ``IndexedStore``'s statistics, which are index sizes and
facts about the sorted runs: here they are recomputed from ``triples_ids()``
with plain sets and lists, sharing nothing with the store.  Tests compare
``statistics_of(store)`` (what the store answers) with ``recount(store)``
(what a full pass finds), and ``store.estimate`` with :func:`estimate`.
"""

from repro.rdf import RDF


def decoded_triples(store):
    """The store's triples as term 3-tuples, read through ``id_triples``."""
    decode = store.dictionary.decode
    return [tuple(map(decode, ids)) for ids in store.triples_ids()]


def estimate(triples, subject, predicate, object):
    """The attribute-independence estimate, straight from its definition."""
    if predicate is not None:
        matching = [triple for triple in triples if triple[1] == predicate]
        if not matching:
            return 0
        if object is not None and subject is None and predicate == RDF.type:
            return sum(1 for triple in matching if triple[2] == object)
        result = float(len(matching))
        if subject is not None:
            result /= max(len({triple[0] for triple in matching}), 1)
        if object is not None:
            result /= max(len({triple[2] for triple in matching}), 1)
        return result
    result = float(len(triples))
    if subject is not None:
        result /= max(len({triple[0] for triple in triples}), 1)
    if object is not None:
        result /= max(len({triple[2] for triple in triples}), 1)
    return result


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
                store.estimate(None, predicate, None),
                store.distinct_subjects(predicate),
                store.distinct_objects(predicate),
            )
            for predicate in predicates
        },
        "classes": {cls: store.estimate(None, RDF.type, cls) for cls in classes},
        "totals": (
            store.estimate(None, None, None),
            store.distinct_subject_total(),
            store.distinct_object_total(),
            store.distinct_predicates(),
        ),
    }
