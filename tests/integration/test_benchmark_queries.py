"""Integration tests: the 17 benchmark queries on generated data.

These tests encode the result-size and behaviour invariants the paper states
in Section V-A and Table V, evaluated on a deterministically generated
document, plus the cross-engine correctness check the paper applies to
exclude misbehaving engines.
"""

import pytest

from repro.queries import ALL_QUERIES, get_query
from repro.sparql import AskResult

import oracle


def query_on(engine, identifier):
    return engine.query(get_query(identifier).text)


class TestResultInvariants:
    def test_q1_returns_exactly_one_row(self, native_engine):
        assert len(query_on(native_engine, "Q1")) == 1

    def test_q1_year_is_1940(self, native_engine):
        result = query_on(native_engine, "Q1")
        assert result.rows()[0][0].to_python() == 1940

    def test_q2_rows_have_mandatory_fields_bound(self, native_engine):
        result = query_on(native_engine, "Q2")
        for binding in result:
            assert binding.get("inproc") is not None
            assert binding.get("yr") is not None

    def test_q2_is_ordered_by_year(self, native_engine):
        result = query_on(native_engine, "Q2")
        years = [binding.get("yr").to_python() for binding in result]
        assert years == sorted(years)

    def test_q3_selectivity_ordering(self, native_engine):
        # Table V: |Q3a| >> |Q3b| > |Q3c| = 0, mirroring the attribute
        # probabilities pages >> month > isbn.
        q3a = len(query_on(native_engine, "Q3a"))
        q3b = len(query_on(native_engine, "Q3b"))
        q3c = len(query_on(native_engine, "Q3c"))
        assert q3a > q3b >= q3c
        assert q3c == 0

    def test_q4_returns_symmetric_free_pairs(self, native_engine):
        result = query_on(native_engine, "Q4")
        pairs = {(str(b.get("name1")), str(b.get("name2"))) for b in result}
        for name1, name2 in pairs:
            assert name1 < name2
            assert (name2, name1) not in pairs

    def test_q5a_and_q5b_return_identical_person_sets(self, native_engine):
        # Section V-A: the one-to-one author/name mapping makes the implicit
        # and explicit join formulations equivalent.
        q5a = {str(b.get("person")) for b in query_on(native_engine, "Q5a")}
        q5b = {str(b.get("person")) for b in query_on(native_engine, "Q5b")}
        assert q5a == q5b

    def test_q6_authors_have_no_earlier_publication(self, native_engine):
        result = query_on(native_engine, "Q6")
        assert len(result) > 0
        # Every returned document year is the author's first publication year,
        # so no (name, year) pair may appear with an earlier year elsewhere.
        earliest = {}
        for binding in result:
            name = str(binding.get("name"))
            year = binding.get("yr").to_python()
            earliest.setdefault(name, set()).add(year)
        for years in earliest.values():
            assert len(years) == 1

    def test_q7_returns_few_results(self, native_engine):
        # The citation system is sparse (Section III-D), so double negation
        # yields few titles.
        assert len(query_on(native_engine, "Q7")) <= 25

    def test_q8_names_exclude_erdoes_himself(self, native_engine):
        result = query_on(native_engine, "Q8")
        names = {str(b.get("name")) for b in result}
        assert "Paul Erdoes" not in names
        assert len(result) > 0

    def test_q9_returns_exactly_four_predicates(self, native_engine):
        result = query_on(native_engine, "Q9")
        predicates = {str(b.get("predicate")) for b in result}
        assert len(result) == 4
        assert {
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "http://xmlns.com/foaf/0.1/name",
            "http://purl.org/dc/elements/1.1/creator",
            "http://swrc.ontoware.org/ontology#editor",
        } == predicates

    def test_q10_returns_only_erdoes_relations(self, native_engine):
        result = query_on(native_engine, "Q10")
        assert len(result) > 0
        predicates = {str(b.get("pred")) for b in result}
        assert predicates <= {
            "http://purl.org/dc/elements/1.1/creator",
            "http://swrc.ontoware.org/ontology#editor",
        }

    def test_q11_returns_at_most_ten_ordered_rows(self, native_engine):
        result = query_on(native_engine, "Q11")
        values = [str(b.get("ee")) for b in result]
        assert len(values) <= 10
        assert values == sorted(values)

    def test_q12a_and_q12b_answer_yes(self, native_engine):
        assert bool(query_on(native_engine, "Q12a")) is True
        assert bool(query_on(native_engine, "Q12b")) is True

    def test_q12c_answers_no(self, native_engine):
        assert bool(query_on(native_engine, "Q12c")) is False

    def test_ask_queries_return_ask_results(self, native_engine):
        for identifier in ("Q12a", "Q12b", "Q12c"):
            assert isinstance(query_on(native_engine, identifier), AskResult)


class TestResultGrowthWithDocumentSize:
    """Table V: result sizes grow with the document for the scaling queries
    and stay constant for the constant-size queries."""

    @pytest.fixture(scope="class")
    def engines_by_size(self, generated_graph_small, generated_graph_medium):
        from repro.sparql import NATIVE_OPTIMIZED, SparqlEngine

        return {
            2000: SparqlEngine.from_graph(generated_graph_small, NATIVE_OPTIMIZED),
            5000: SparqlEngine.from_graph(generated_graph_medium, NATIVE_OPTIMIZED),
        }

    @pytest.mark.parametrize("identifier", ("Q2", "Q3a", "Q5a", "Q6"))
    def test_scaling_queries_grow(self, engines_by_size, identifier):
        small = len(query_on(engines_by_size[2000], identifier))
        large = len(query_on(engines_by_size[5000], identifier))
        assert large > small

    @pytest.mark.parametrize("identifier,expected", (("Q1", 1), ("Q3c", 0), ("Q9", 4)))
    def test_constant_queries_stay_constant(self, engines_by_size, identifier, expected):
        assert len(query_on(engines_by_size[2000], identifier)) == expected
        assert len(query_on(engines_by_size[5000], identifier)) == expected

    def test_q11_capped_at_ten_for_both_sizes(self, engines_by_size):
        assert len(query_on(engines_by_size[2000], "Q11")) <= 10
        assert len(query_on(engines_by_size[5000], "Q11")) == 10


class TestCrossEngineCorrectness:
    """All engine configurations must return the same results (the check the
    paper uses to exclude Redland and SDB) — the ones the naive reference
    evaluator (``tests/oracle.py``) computes, not those of one trusted preset."""

    FAST_QUERIES = ("Q1", "Q2", "Q3a", "Q3b", "Q3c", "Q5b", "Q7", "Q9", "Q10",
                    "Q11", "Q12a", "Q12c")

    @staticmethod
    def assert_engines_agree(engines, graph, identifier):
        expected = oracle.answer(get_query(identifier).text, graph)
        for engine in engines:
            assert oracle.answer_of(query_on(engine, identifier)) == expected, (
                engine.config.name)

    @pytest.mark.parametrize("identifier", FAST_QUERIES)
    def test_engines_agree(self, all_engines_small, generated_graph_small, identifier):
        self.assert_engines_agree(all_engines_small, generated_graph_small, identifier)

    @pytest.mark.parametrize("identifier", ("Q5a", "Q6", "Q8", "Q12b"))
    def test_engines_agree_on_heavier_queries(self, all_engines_small,
                                              generated_graph_small, identifier):
        self.assert_engines_agree(all_engines_small, generated_graph_small, identifier)


class TestSampleGraphBehaviour:
    """The hand-built sample graph exercises edge cases with known answers."""

    def test_all_queries_run_on_sample_graph(self, sample_engines):
        for query in ALL_QUERIES:
            for engine in sample_engines:
                result = engine.query(query.text)
                assert result is not None

    def test_q7_on_sample_graph_finds_cited_but_unthreatened_paper(self, sample_engines):
        # article1 is cited by inproc1; inproc1 itself is uncited, so the
        # double negation removes article1 from the answer.
        engine = sample_engines[-1]
        result = engine.query(get_query("Q7").text)
        assert len(result) == 0

    def test_q8_on_sample_graph(self, sample_engines):
        engine = sample_engines[-1]
        names = {str(b.get("name")) for b in engine.query(get_query("Q8").text)}
        # Alice published with Erdoes (Erdoes number 1); Bob published with
        # Alice (Erdoes number 2).
        assert names == {"Alice Smith", "Bob Jones"}

    def test_q10_on_sample_graph(self, sample_engines):
        engine = sample_engines[-1]
        result = engine.query(get_query("Q10").text)
        assert len(result) == 2
