"""Unit tests for store statistics and selectivity estimation."""

import pytest

from repro.rdf import BENCH, RDF, Literal, Triple, URIRef
from repro.store import StoreStatistics

EX = "http://example.org/"


def uri(local):
    return URIRef(EX + local)


def build_statistics():
    statistics = StoreStatistics()
    triples = [
        Triple(uri("a1"), RDF.type, BENCH.Article),
        Triple(uri("a2"), RDF.type, BENCH.Article),
        Triple(uri("p1"), RDF.type, BENCH.Proceedings),
        Triple(uri("a1"), uri("pages"), Literal("1--10")),
        Triple(uri("a2"), uri("pages"), Literal("11--20")),
        Triple(uri("a1"), uri("creator"), uri("alice")),
        Triple(uri("a2"), uri("creator"), uri("alice")),
        Triple(uri("a2"), uri("creator"), uri("bob")),
    ]
    for triple in triples:
        statistics.observe(triple)
    return statistics


class TestCounts:
    def test_triple_count(self):
        assert build_statistics().triple_count == 8

    def test_predicate_count(self):
        statistics = build_statistics()
        assert statistics.predicate_count(uri("creator")) == 3
        assert statistics.predicate_count(uri("missing")) == 0

    def test_distinct_subjects_and_objects(self):
        statistics = build_statistics()
        assert statistics.distinct_subjects(uri("creator")) == 2
        assert statistics.distinct_objects(uri("creator")) == 2

    def test_class_counts_from_rdf_type(self):
        statistics = build_statistics()
        assert statistics.class_count(BENCH.Article) == 2
        assert statistics.class_count(BENCH.Proceedings) == 1
        assert statistics.class_count(BENCH.Journal) == 0


class TestEstimates:
    def test_bound_predicate_estimate_is_predicate_count(self):
        assert build_statistics().estimate(None, uri("creator"), None) == 3

    def test_unknown_predicate_estimates_zero(self):
        assert build_statistics().estimate(None, uri("missing"), None) == 0

    def test_rdf_type_with_object_uses_class_count(self):
        assert build_statistics().estimate(None, RDF.type, BENCH.Article) == 2

    def test_bound_subject_reduces_estimate(self):
        statistics = build_statistics()
        bound = statistics.estimate(uri("a1"), uri("creator"), None)
        unbound = statistics.estimate(None, uri("creator"), None)
        assert bound < unbound

    def test_variable_predicate_uses_total(self):
        statistics = build_statistics()
        assert statistics.estimate(None, None, None) == pytest.approx(8.0)

    def test_variable_predicate_with_bound_subject_scales_down(self):
        statistics = build_statistics()
        estimate = statistics.estimate(uri("a1"), None, None)
        assert 0 < estimate < 8


class TestForget:
    def test_distinct_predicates(self):
        assert build_statistics().distinct_predicates() == 3

    def test_distinct_subject_total_spans_predicates(self):
        # Subjects: a1, a2, p1 — counted once each across all predicates.
        assert build_statistics().distinct_subject_total() == 3

    def test_distinct_object_total_spans_predicates(self):
        # Objects: Article, Proceedings, "1--10", "11--20", alice, bob.
        assert build_statistics().distinct_object_total() == 6

    def test_distinct_totals_track_removal(self):
        statistics = build_statistics()
        statistics.forget(Triple(uri("a2"), uri("creator"), uri("bob")))
        assert statistics.distinct_object_total() == 5

    def test_forget_is_inverse_of_observe(self):
        statistics = build_statistics()
        statistics.forget(Triple(uri("a1"), uri("creator"), uri("alice")))
        assert statistics.triple_count == 7
        assert statistics.predicate_count(uri("creator")) == 2
        # alice still appears as an object of another creator triple.
        assert statistics.distinct_objects(uri("creator")) == 2
        assert statistics.distinct_subjects(uri("creator")) == 1

    def test_forget_drops_distinct_entry_at_zero_occurrences(self):
        statistics = build_statistics()
        statistics.forget(Triple(uri("a2"), uri("creator"), uri("bob")))
        assert statistics.distinct_objects(uri("creator")) == 1

    def test_forget_maintains_class_counts(self):
        statistics = build_statistics()
        statistics.forget(Triple(uri("a1"), RDF.type, BENCH.Article))
        assert statistics.class_count(BENCH.Article) == 1
        statistics.forget(Triple(uri("a2"), RDF.type, BENCH.Article))
        assert statistics.class_count(BENCH.Article) == 0

    def test_forget_all_restores_empty_estimates(self):
        statistics = build_statistics()
        for triple in [
            Triple(uri("a1"), uri("pages"), Literal("1--10")),
            Triple(uri("a2"), uri("pages"), Literal("11--20")),
        ]:
            statistics.forget(triple)
        assert statistics.predicate_count(uri("pages")) == 0
        assert statistics.estimate(None, uri("pages"), None) == 0


class TestTotalsAndCopy:
    def test_variable_predicate_estimate_does_not_walk_the_maps(self):
        statistics = build_statistics()
        before = statistics.estimate(uri("a1"), None, None)
        # Once derived, the totals are two integers: emptying the maps
        # behind the statistics' back must not change the estimate.
        statistics._predicate_subjects = {}
        statistics._predicate_objects = {}
        assert statistics.estimate(uri("a1"), None, None) == before == 8 / 3

    def test_totals_follow_observe_and_forget_once_derived(self):
        statistics = build_statistics()
        assert statistics.distinct_subject_total() == 3
        statistics.observe(Triple(uri("a3"), uri("pages"), Literal("21--30")))
        statistics.observe(Triple(uri("a3"), uri("creator"), uri("alice")))
        assert statistics.distinct_subject_total() == 4
        assert statistics.distinct_object_total() == 7
        # a3 still has its creator triple; "21--30" is gone for good.
        statistics.forget(Triple(uri("a3"), uri("pages"), Literal("21--30")))
        assert statistics.distinct_subject_total() == 4
        assert statistics.distinct_object_total() == 6
        statistics.forget(Triple(uri("a3"), uri("creator"), uri("alice")))
        assert statistics.distinct_subject_total() == 3
        assert statistics.distinct_object_total() == 6

    def test_copy_shares_untouched_predicates_and_isolates_touched_ones(self):
        original = build_statistics()
        clone = original.copy()
        assert clone == original
        pages, creator = uri("pages"), uri("creator")
        assert clone._predicate_subjects[pages] is original._predicate_subjects[pages]
        clone.observe(Triple(uri("a3"), creator, uri("carol")))
        original.forget(Triple(uri("a1"), pages, Literal("1--10")))
        # Each side copied only the predicate it wrote to, and sees only
        # its own write.
        assert clone._predicate_subjects[pages] is not original._predicate_subjects[pages]
        assert clone.distinct_subjects(creator) == 3
        assert original.distinct_subjects(creator) == 2
        assert clone.distinct_subjects(pages) == 2
        assert original.distinct_subjects(pages) == 1
        assert (clone.distinct_subject_total(), original.distinct_subject_total()) == (4, 3)
        assert (clone.distinct_object_total(), original.distinct_object_total()) == (7, 5)
