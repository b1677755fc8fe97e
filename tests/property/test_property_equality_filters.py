"""Property: the equality-filter rewrites never change a result multiset.

Filter pushing turns ``FILTER (?v = <iri>)`` into a bound pattern and
``FILTER (?a = ?b)`` between disconnected BGP parts into a keyed join.
The oracle is the same engine preset with ``push_filters=False``, which
evaluates every FILTER as written, row by row.  Hypothesis generates small
graphs holding value-equal literals of different datatypes (``1`` /
``1.0``, plain / ``xsd:string``), a NaN that equals nothing, and
BGP-shaped queries whose filters mix the rewritable shapes with the ones
that must be left alone (literal constants, ``||``, ``!``, variables
visible outside the BGP, OPTIONAL bodies, nested groups); all five presets
must agree with their oracle.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.rdf import DC, FOAF, RDF, SWRC, BENCH, Literal, Triple, URIRef
from repro.sparql import ENGINE_PRESETS, NATIVE_COST, load_engines

_PRESETS = ENGINE_PRESETS + (NATIVE_COST,)
_ORACLES = tuple(
    replace(config, name=config.name + "-unpushed", push_filters=False)
    for config in _PRESETS
)

_XSD = "http://www.w3.org/2001/XMLSchema#"
_VALUES = (
    Literal("1", datatype=_XSD + "integer"),
    Literal("1.0", datatype=_XSD + "decimal"),
    Literal("2", datatype=_XSD + "integer"),
    Literal("x"),
    Literal("x", datatype=_XSD + "string"),
    Literal("y"),
    Literal("NaN", datatype=_XSD + "double"),
)


@st.composite
def graphs(draw):
    """Persons and documents whose names/pages draw from ``_VALUES``."""
    triples = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        person = URIRef(f"http://p/{index}")
        triples.append(Triple(person, RDF.type, FOAF.Person))
        triples.append(Triple(person, FOAF.name, draw(st.sampled_from(_VALUES))))
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        doc = URIRef(f"http://d/{index}")
        triples.append(Triple(doc, RDF.type, BENCH.Article))
        triples.append(Triple(doc, SWRC.pages, draw(st.sampled_from(_VALUES))))
        for author in draw(st.lists(st.integers(min_value=0, max_value=3),
                                    max_size=2, unique=True)):
            triples.append(Triple(doc, DC.creator, URIRef(f"http://p/{author}")))
    return triples


_variables = st.sampled_from(["?a", "?b", "?c", "?d", "?e"])
_iris = st.sampled_from([
    "rdf:type", "dc:creator", "foaf:name", "swrc:pages", "bench:Article",
    "foaf:Person", "<http://p/0>", "<http://d/1>",
])
_literals = st.sampled_from(['"x"', "1", '"1.0"^^xsd:decimal', '"y"^^xsd:string'])


@st.composite
def patterns(draw, variables=_variables):
    subject = draw(st.one_of(variables, st.sampled_from(["<http://p/0>", "<http://d/1>"])))
    predicate = draw(st.one_of(
        variables, st.sampled_from(["rdf:type", "dc:creator", "foaf:name", "swrc:pages"])))
    object_ = draw(st.one_of(variables, variables, _iris, _literals))
    return f"{subject} {predicate} {object_}"


@st.composite
def conjuncts(draw):
    variable = draw(_variables)
    shape = draw(st.sampled_from(
        ["iri", "iri", "iri-flipped", "var", "var", "literal", "differs", "or", "not"]))
    if shape == "iri":
        return f"{variable} = {draw(_iris)}"
    if shape == "iri-flipped":
        return f"{draw(_iris)} = {variable}"
    if shape == "var":
        return f"{variable} = {draw(_variables)}"
    if shape == "literal":
        return f"{variable} = {draw(_literals)}"
    if shape == "differs":
        return f"{variable} != {draw(_variables)}"
    if shape == "or":
        return f"({variable} = {draw(_iris)} || {variable} = {draw(_variables)})"
    return f"!({variable} = {draw(_iris)})"


@st.composite
def queries(draw):
    shape = draw(st.sampled_from(["filter", "filter", "cross", "cross", "optional", "group"]))
    if shape == "cross":
        # Two parts that share no variable, linked only by equalities.
        left, right = st.sampled_from(["?a", "?b"]), st.sampled_from(["?c", "?d", "?e"])
        parts = (draw(st.lists(patterns(left), min_size=1, max_size=2))
                 + draw(st.lists(patterns(right), min_size=1, max_size=2)))
        links = [f"{draw(left)} = {draw(right)}"
                 for _ in range(draw(st.integers(min_value=1, max_value=2)))]
        extra = draw(st.lists(conjuncts(), max_size=2))
        body = " . ".join(draw(st.permutations(parts)))
        condition = " && ".join(draw(st.permutations(links + extra)))
    else:
        body = " . ".join(draw(st.lists(patterns(), min_size=1, max_size=4)))
        condition = " && ".join(draw(st.lists(conjuncts(), min_size=1, max_size=3)))
    if shape == "optional":
        # The filter sits in the OPTIONAL body: it is the join condition.
        body += f" OPTIONAL {{ {draw(patterns())} FILTER ({condition}) }}"
    elif shape == "group":
        # The filter sees only the nested group's variables.
        body += f" {{ {draw(patterns())} FILTER ({condition}) }}"
    else:
        body += f" FILTER ({condition})"
        if draw(st.booleans()):
            body += f" OPTIONAL {{ {draw(patterns())} }}"
    head = draw(st.sampled_from(["ASK", "SELECT *", "SELECT DISTINCT", "SELECT", "SELECT"]))
    if head in ("ASK", "SELECT *"):
        return f"{head} {{ {body} }}"
    projection = " ".join(draw(st.lists(_variables, min_size=1, max_size=3, unique=True)))
    return f"{head} {projection} WHERE {{ {body} }}"


def _outcome(engine, text):
    result = engine.query(text)
    return bool(result) if result.form == "ASK" else result.as_multiset()


@given(graphs(), queries())
@settings(max_examples=150, deadline=None)
def test_rewritten_equals_unrewritten_on_every_preset(triples, text):
    rewriting = load_engines(triples, _PRESETS)
    oracles = load_engines(triples, _ORACLES)
    expected = _outcome(oracles[0], text)
    for engine, oracle in zip(rewriting, oracles):
        assert _outcome(oracle, text) == expected, f"{oracle.config.name}: {text}"
        assert _outcome(engine, text) == expected, f"{engine.config.name}: {text}"
