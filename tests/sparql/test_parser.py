"""Unit tests for the SPARQL parser."""

import random

import pytest

from repro.queries import ALL_QUERIES
from repro.rdf import DC, RDF, Literal, URIRef, Variable
from repro.sparql import (
    AskQuery,
    SelectQuery,
    SparqlError,
    SparqlSyntaxError,
    parse_query,
    parse_update,
)
from repro.sparql import ast


class TestSelectBasics:
    def test_simple_select(self):
        query = parse_query("SELECT ?x WHERE { ?x rdf:type foaf:Person }")
        assert isinstance(query, SelectQuery)
        assert query.variables == [Variable("x")]
        assert len(query.where.triple_patterns()) == 1

    def test_where_keyword_is_optional(self):
        query = parse_query("SELECT ?x { ?x rdf:type foaf:Person }")
        assert len(query.where.triple_patterns()) == 1

    def test_select_star(self):
        query = parse_query("SELECT * WHERE { ?x dc:title ?t }")
        assert query.variables == []
        assert query.projected_variables() is None

    def test_distinct_flag(self):
        query = parse_query("SELECT DISTINCT ?x WHERE { ?x dc:title ?t }")
        assert query.distinct is True

    def test_multiple_projection_variables(self):
        query = parse_query("SELECT ?a ?b ?c WHERE { ?a ?b ?c }")
        assert [v.name for v in query.variables] == ["a", "b", "c"]

    def test_prefix_declaration_overrides_default(self):
        text = (
            "PREFIX dc: <http://example.org/other/> "
            "SELECT ?t WHERE { ?x dc:title ?t }"
        )
        query = parse_query(text)
        pattern = query.where.triple_patterns()[0]
        assert pattern.predicate == URIRef("http://example.org/other/title")

    def test_default_prefixes_available_without_declaration(self):
        query = parse_query("SELECT ?t WHERE { ?x dc:title ?t }")
        pattern = query.where.triple_patterns()[0]
        assert pattern.predicate == DC.title

    def test_full_iri_term(self):
        query = parse_query("SELECT ?x WHERE { ?x <http://example.org/p> ?y }")
        assert query.where.triple_patterns()[0].predicate == URIRef("http://example.org/p")

    def test_a_keyword_expands_to_rdf_type(self):
        query = parse_query("SELECT ?x WHERE { ?x a foaf:Person }")
        assert query.where.triple_patterns()[0].predicate == RDF.type

    def test_typed_string_literal_object(self):
        query = parse_query(
            'SELECT ?j WHERE { ?j dc:title "Journal 1 (1940)"^^xsd:string }'
        )
        literal = query.where.triple_patterns()[0].object
        assert isinstance(literal, Literal)
        assert literal.lexical == "Journal 1 (1940)"
        assert literal.datatype.endswith("string")

    def test_semicolon_shares_subject(self):
        query = parse_query("SELECT ?x WHERE { ?x dc:title ?t ; dc:creator ?c }")
        patterns = query.where.triple_patterns()
        assert len(patterns) == 2
        assert patterns[0].subject == patterns[1].subject

    def test_comma_shares_subject_and_predicate(self):
        query = parse_query("SELECT ?x WHERE { ?x dc:creator ?a , ?b }")
        patterns = query.where.triple_patterns()
        assert len(patterns) == 2
        assert patterns[0].predicate == patterns[1].predicate


class TestModifiers:
    def test_order_by(self):
        query = parse_query("SELECT ?t WHERE { ?x dc:title ?t } ORDER BY ?t")
        assert query.order_by == [(Variable("t"), True)]

    def test_order_by_desc(self):
        query = parse_query("SELECT ?t WHERE { ?x dc:title ?t } ORDER BY DESC(?t)")
        assert query.order_by == [(Variable("t"), False)]

    def test_limit_and_offset(self):
        query = parse_query(
            "SELECT ?t WHERE { ?x dc:title ?t } ORDER BY ?t LIMIT 10 OFFSET 50"
        )
        assert query.limit == 10
        assert query.offset == 50

    def test_offset_before_limit(self):
        query = parse_query("SELECT ?t WHERE { ?x dc:title ?t } OFFSET 5 LIMIT 2")
        assert query.limit == 2
        assert query.offset == 5

    @pytest.mark.parametrize("modifier", ["LIMIT 1.5", "OFFSET 1.5", "LIMIT -1",
                                          "OFFSET +2", "LIMIT " + "9" * 4301],
                             ids=["limit-1.5", "offset-1.5", "limit--1", "offset-+2",
                                  "limit-4301-digits"])
    def test_a_limit_or_offset_not_of_digits_is_a_syntax_error(self, modifier):
        with pytest.raises(SparqlSyntaxError):
            parse_query(f"SELECT ?t WHERE {{ ?x dc:title ?t }} {modifier}")

    def test_limits_past_any_result_parse(self):
        query = parse_query(f"SELECT ?t WHERE {{ ?x dc:title ?t }} LIMIT {10 ** 400} "
                            f"OFFSET {10 ** 20}")
        assert (query.limit, query.offset) == (10 ** 400, 10 ** 20)

    @pytest.mark.parametrize("where", ["{ ?x ?p %s }", "{ ?x ?p ?o FILTER (?o < %s) }"],
                             ids=["object", "filter"])
    def test_an_integer_longer_than_int_parses_is_a_syntax_error(self, where):
        # int() refuses more than 4 300 digits with a ValueError.
        with pytest.raises(SparqlSyntaxError, match="too long"):
            parse_query("SELECT * WHERE " + where % ("9" * 4301))


class TestPatterns:
    def test_optional_group(self):
        query = parse_query(
            "SELECT ?x ?ab WHERE { ?x dc:title ?t OPTIONAL { ?x bench:abstract ?ab } }"
        )
        optionals = [e for e in query.where.elements if isinstance(e, ast.OptionalNode)]
        assert len(optionals) == 1
        assert len(optionals[0].group.triple_patterns()) == 1

    def test_nested_optional(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x dc:title ?t OPTIONAL { ?x dc:creator ?c "
            "OPTIONAL { ?c foaf:name ?n } } }"
        )
        outer = [e for e in query.where.elements if isinstance(e, ast.OptionalNode)][0]
        inner = [e for e in outer.group.elements if isinstance(e, ast.OptionalNode)]
        assert len(inner) == 1

    def test_union(self):
        query = parse_query(
            "SELECT ?x WHERE { { ?x dc:title ?t } UNION { ?x dc:creator ?t } }"
        )
        unions = [e for e in query.where.elements if isinstance(e, ast.UnionNode)]
        assert len(unions) == 1
        assert len(unions[0].branches) == 2

    def test_three_way_union(self):
        query = parse_query(
            "SELECT ?x WHERE { { ?x dc:title ?t } UNION { ?x dc:creator ?t } "
            "UNION { ?x foaf:name ?t } }"
        )
        unions = [e for e in query.where.elements if isinstance(e, ast.UnionNode)]
        assert len(unions[0].branches) == 3

    def test_filter_with_comparison(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x dcterms:issued ?yr FILTER (?yr < ?other) }"
        )
        filters = query.where.filters()
        assert len(filters) == 1
        assert isinstance(filters[0], ast.Comparison)
        assert filters[0].operator == "<"

    def test_filter_with_conjunction(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x dc:creator ?a FILTER (?a != ?b && ?x != ?y) }"
        )
        assert isinstance(query.where.filters()[0], ast.And)

    def test_filter_not_bound(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x dc:title ?t FILTER (!bound(?other)) }"
        )
        expression = query.where.filters()[0]
        assert isinstance(expression, ast.Not)
        assert isinstance(expression.operand, ast.Bound)

    def test_filter_regex(self):
        query = parse_query(
            'SELECT ?x WHERE { ?x dc:title ?t FILTER regex(?t, "^Data", "i") }'
        )
        assert isinstance(query.where.filters()[0], ast.Regex)

    def test_variable_predicate(self):
        query = parse_query("SELECT ?p WHERE { ?s ?p ?o }")
        assert query.where.triple_patterns()[0].predicate == Variable("p")


class TestAsk:
    def test_ask_query(self):
        query = parse_query("ASK { person:John_Q_Public rdf:type foaf:Person }")
        assert isinstance(query, AskQuery)
        assert len(query.where.triple_patterns()) == 1


class TestErrors:
    def test_missing_brace_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x dc:title ?t")

    def test_unknown_prefix_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x nosuch:title ?t }")

    def test_missing_projection_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT WHERE { ?x dc:title ?t }")

    def test_trailing_garbage_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x dc:title ?t } garbage")

    def test_construct_form_unsupported(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("CONSTRUCT { ?x dc:title ?t } WHERE { ?x dc:title ?t }")

    def test_literal_in_predicate_position_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query('SELECT ?x WHERE { ?x "notapredicate" ?t }')


class TestIrisAndEscapes:
    @pytest.mark.parametrize("text", [
        "SELECT ?x WHERE { <> dc:title ?x }",
        "SELECT ?x WHERE { ?x <> ?t }",
        "SELECT ?x WHERE { ?x dc:title ?t FILTER (?t = <>) }",
        'SELECT ?x WHERE { ?x dc:title "t"^^<> }',
    ])
    def test_empty_iri_is_a_syntax_error(self, text):
        with pytest.raises(SparqlSyntaxError, match="empty IRI"):
            parse_query(text)

    def test_empty_iri_in_an_update_is_a_syntax_error(self):
        with pytest.raises(SparqlSyntaxError):
            parse_update('INSERT DATA { <> <http://x/b> "c" }')

    @pytest.mark.parametrize("escape", [
        r"\uzzzz", r"\u12", r"\u", r"\u-001", r"\u0_41", r"\U0001F60",
        r"\U00110000", r"\uD800", r"\UFFFFFFFF",
    ])
    def test_malformed_codepoint_escape_is_a_syntax_error(self, escape):
        with pytest.raises(SparqlSyntaxError):
            parse_query(f'SELECT ?x WHERE {{ ?x dc:title "a{escape}z" }}')

    @pytest.mark.parametrize("escape,decoded", [
        (r"\u00e9", "\u00e9"), (r"\U0001F600", "\U0001F600"),
        (r"\U000000e9", "\u00e9"), (r"\n\t\"", "\n\t\""),
        (r"\\u0041", "\\u0041"), (r"\q", r"\q"),
    ])
    def test_escapes_decode(self, escape, decoded):
        query = parse_query(f'SELECT ?x WHERE {{ ?x dc:title "a{escape}b" }}')
        (pattern,) = query.where.triple_patterns()
        assert pattern.object == Literal(f"a{decoded}b")


#: Update texts the mutation test starts from, one per supported form.
UPDATE_FORMS = (
    'PREFIX ex: <http://example.org/>\n'
    'INSERT DATA { ex:s ex:p "v\\u00e9\\n" ; ex:q 1 , 2.5 . }',
    'DELETE DATA { <http://x/s> <http://x/p> "v"^^xsd:string . }',
    'PREFIX ex: <http://example.org/>\n'
    'DELETE { ?s ex:name ?old } INSERT { ?s ex:nick ?old } '
    'WHERE { ?s ex:name ?old FILTER (?old != "x") }',
    "DELETE WHERE { ?s <http://x/p> ?o }",
)

#: Fragments a mutation inserts besides single characters.
_FRAGMENTS = ("<>", '"\\u', "\\U", "\\uzz", '"\\U0001F600"', "<", '"', "{", ")")
_ALPHABET = '<>"\\u{}()?.:;,=!&|^_ aAzZ09#\n\'U$*+-'


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(4)
        if kind == 0:
            text = text[:at] + text[at + 1:]
        elif kind == 1:
            text = text[:at] + rng.choice(_ALPHABET) + text[at:]
        elif kind == 2:
            start = rng.randrange(len(text))
            text = text[:at] + text[start:start + rng.randint(1, 6)] + text[at:]
        else:
            text = text[:at] + rng.choice(_FRAGMENTS) + text[at:]
    return text


def test_mutated_texts_raise_only_sparql_errors():
    """Deleting, inserting and duplicating characters of the catalog texts
    and the update forms never escapes the parser as anything but a
    SparqlError (the server maps those to 400s, anything else to a 500)."""
    rng = random.Random(34)
    seeds = ([(parse_query, query.text) for query in ALL_QUERIES]
             + [(parse_update, text) for text in UPDATE_FORMS])
    for _ in range(8_000):
        parse, text = rng.choice(seeds)
        mutated = _mutate(rng, text)
        try:
            parse(mutated)
        except SparqlError:
            pass
        except Exception as error:  # pragma: no cover - the failure report
            pytest.fail(f"{type(error).__name__}: {error} on {mutated!r}")


class TestBenchmarkQueriesParse:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.identifier)
    def test_all_published_queries_parse(self, query):
        parsed = parse_query(query.text)
        expected_type = AskQuery if query.form == "ASK" else SelectQuery
        assert isinstance(parsed, expected_type)
