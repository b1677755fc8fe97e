"""Byte identity of the result writers against the encoders they replaced.

The writers in :mod:`repro.sparql.serializers` build fragments with direct
per-format encoders and, for rows that are still id tuples, once per distinct
id.  The encoders they replaced — one dict and one ``json.dumps`` per row,
``escape`` per cell, ``csv.writer`` per row — live on *here* as the oracle:
every catalog and aggregate query, and a generated family of awkward terms,
must serialize to the same bytes through both.
"""

import csv
import io
import json
from collections import Counter
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries import AGGREGATE_QUERIES, ALL_QUERIES
from repro.rdf import BNode, Literal, URIRef, Variable
from repro.sparql import (
    IN_MEMORY_OPTIMIZED,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    Binding,
    ExplainReport,
    IdBinding,
    SlotLayout,
    kernels,
    load_engines,
    serializers,
    variable_name,
)
from repro.store.dictionary import TermDictionary

# -- the oracle: the replaced encoders, verbatim ------------------------------


def oracle_term_json(term):
    if isinstance(term, URIRef):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BNode):
        return {"type": "bnode", "value": term.label}
    encoded = {"type": "literal", "value": term.lexical}
    if term.language is not None:
        encoded["xml:lang"] = term.language
    elif term.datatype is not None:
        encoded["datatype"] = term.datatype
    return encoded


def oracle_json(fp, names, bindings):
    fp.write('{"head": {"vars": %s}, "results": {"bindings": [' % json.dumps(names))
    for count, binding in enumerate(bindings):
        if count:
            fp.write(", ")
        fp.write(json.dumps({
            name: oracle_term_json(term)
            for name in names
            for term in (binding.get(name),)
            if term is not None
        }))
    fp.write("]}}")


def oracle_term_xml(name, term):
    if isinstance(term, URIRef):
        inner = f"<uri>{escape(term.value)}</uri>"
    elif isinstance(term, BNode):
        inner = f"<bnode>{escape(term.label)}</bnode>"
    elif term.language is not None:
        inner = (f"<literal xml:lang={quoteattr(term.language)}>"
                 f"{escape(term.lexical)}</literal>")
    elif term.datatype is not None:
        inner = (f"<literal datatype={quoteattr(term.datatype)}>"
                 f"{escape(term.lexical)}</literal>")
    else:
        inner = f"<literal>{escape(term.lexical)}</literal>"
    return f"<binding name={quoteattr(name)}>{inner}</binding>"


def oracle_xml(fp, names, bindings):
    fp.write('<?xml version="1.0"?>\n')
    fp.write(f'<sparql xmlns="{serializers.SPARQL_RESULTS_NS}"><head>')
    for name in names:
        fp.write(f"<variable name={quoteattr(name)}/>")
    fp.write("</head><results>")
    for binding in bindings:
        fp.write("<result>")
        for name in names:
            term = binding.get(name)
            if term is not None:
                fp.write(oracle_term_xml(name, term))
        fp.write("</result>")
    fp.write("</results></sparql>")


def oracle_term_csv(term):
    if term is None:
        return ""
    if isinstance(term, URIRef):
        return term.value
    if isinstance(term, BNode):
        return f"_:{term.label}"
    return term.lexical


def oracle_csv(fp, names, bindings):
    writer = csv.writer(fp, lineterminator="\r\n")
    writer.writerow(names)
    for binding in bindings:
        writer.writerow([oracle_term_csv(binding.get(name)) for name in names])


def oracle_tsv(fp, names, bindings):
    fp.write("\t".join("?" + name for name in names) + "\n")
    for binding in bindings:
        fp.write("\t".join(
            "" if term is None else term.n3()
            for term in map(binding.get, names)
        ) + "\n")


ORACLES = {"json": oracle_json, "xml": oracle_xml, "csv": oracle_csv, "tsv": oracle_tsv}


def oracle(variables, bindings, format):
    buffer = io.StringIO()
    ORACLES[format](buffer, [variable_name(v) for v in variables], bindings)
    return buffer.getvalue()


# -- every catalog and aggregate query ---------------------------------------

PRESETS = (NATIVE_COST, NATIVE_OPTIMIZED, IN_MEMORY_OPTIMIZED)
QUERIES = tuple(ALL_QUERIES) + tuple(AGGREGATE_QUERIES)


@pytest.fixture(scope="module")
def engines(generated_graph_medium):
    return {
        engine.config.name: engine
        for engine in load_engines(generated_graph_medium, PRESETS)
    }


@pytest.mark.parametrize("path", ("kernels", "tuple-path"))
@pytest.mark.parametrize("preset", [config.name for config in PRESETS])
def test_catalog_documents_are_byte_identical(engines, preset, path, reference):
    engine = engines[preset]
    if path == "tuple-path":
        engine = reference.tuple_path(engine)
    assert len(QUERIES) == 21
    lazy_rows = 0
    for query in QUERIES:
        prepared = engine.prepare(query.text)
        if path == "tuple-path":
            plan = ExplainReport(prepared.tree, engine.config.planner, preset).render()
            assert "vectorized=yes" not in plan, query.identifier
        cursor = prepared.run()
        if cursor.form == "ASK":
            for format in serializers.FORMATS:
                assert cursor.serialize(format) == cursor.all().serialize(format)
            continue
        rows = list(cursor)
        lazy_rows += sum(isinstance(row, IdBinding) for row in rows)
        eager = [Binding(row.as_dict()) for row in rows]
        for format in serializers.FORMATS:
            expected = oracle(prepared.variables, rows, format)
            assert serializers.serialize(prepared.variables, rows, format) == expected, (
                f"{query.identifier} {format}: list of drained rows")
            assert serializers.serialize(prepared.variables, eager, format) == expected, (
                f"{query.identifier} {format}: eager copies of the rows")
        assert prepared.run().serialize("json") == oracle(prepared.variables, rows, "json"), (
            f"{query.identifier}: cursor streamed into the writer")
    # Every preset hands out lazy id rows; their eager copies took the
    # writers' per-cell branch to the same bytes.
    assert lazy_rows > 0


def test_first_chunk_is_written_before_the_evaluation_finishes(engines):
    prepared = engines[NATIVE_COST.name].prepare("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    total = len(list(prepared.run()))
    assert total > 2 * kernels.BLOCK_ROWS
    cursor = prepared.run()

    class FirstWrite(io.StringIO):
        pulled = None

        def write(self, text):
            if self.pulled is None and "bindings" not in text:
                self.pulled = cursor.count
            return super().write(text)

    buffer = FirstWrite()
    assert cursor.write(buffer, "json") == total
    assert 0 < buffer.pulled < total
    assert len(json.loads(buffer.getvalue())["results"]["bindings"]) == total


# -- generated terms: quoting, escaping, lazy / computed / unbound cells -----

_AWKWARD = ['"', "\\", "\n", "\r", "\t", "\x01", "\x1f", "\x7f", "<", ">", "&",
            "'", ",", "]]>", "\u00e9", "\u2028", "\U0001F600", "\U00010348", " "]
_text = st.lists(
    st.one_of(
        st.sampled_from(_AWKWARD),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=8,
).map("".join)
_iri_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"), blacklist_characters='<> "'),
    max_size=8,
)
_terms = st.one_of(
    _iri_text.map(lambda text: URIRef("http://x/" + text)),
    st.text(alphabet="abcXYZ019", min_size=1, max_size=6).map(BNode),
    _text.map(Literal),
    st.tuples(_text, st.sampled_from(("en", "en-GB", "de"))).map(
        lambda pair: Literal(pair[0], language=pair[1])),
    st.tuples(_text, _iri_text).map(
        lambda pair: Literal(pair[0], datatype="http://dt/" + pair[1])),
    st.integers(-5, 5).map(Literal),
)
#: One cell: (how it is stored in a lazy row, its term).  "id" cells go
#: through the dictionary, "term" cells sit in the row as computed terms
#: (aggregates), None is an unbound OPTIONAL cell.
_cells = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(("id", "term")), _terms),
)
_results = st.lists(st.tuples(_cells, _cells, _cells), max_size=6)

NAMES = ("a", "b", "c")
VARIABLES = [Variable(name) for name in NAMES]
XML_NS = "{http://www.w3.org/2005/sparql-results#}"
XML_LANG = "{http://www.w3.org/XML/1998/namespace}lang"


def _xml_safe(text):
    """Whether an XML 1.0 document can carry ``text`` at all and a parser
    hands it back unchanged (most control characters are not XML ``Char``s —
    nor were they for the replaced writer — and ``\\r`` is normalized away)."""
    return all(
        ch in "\t\n" or " " <= ch <= "\ud7ff" or "\ue000" <= ch <= "\ufffd"
        or ch >= "\U00010000"
        for ch in text
    )


@settings(max_examples=150, deadline=None)
@given(_results)
def test_generated_results_are_identical_and_parse_back(result):
    dictionary = TermDictionary()
    layout = SlotLayout(NAMES + ("hidden",), dictionary)
    lazy, eager, terms = [], [], []
    for cells in result:
        row_terms = [None if cell is None else cell[1] for cell in cells]
        row = tuple(
            None if cell is None
            else dictionary.encode(cell[1]) if cell[0] == "id" else cell[1]
            for cell in cells
        )
        lazy.append(IdBinding(layout, row + (None,)))
        eager.append(Binding(
            {name: term for name, term in zip(NAMES, row_terms) if term is not None}
        ))
        terms.append(row_terms)
    mixed = lazy[::2] + eager[1::2]
    documents = {}
    for format in serializers.FORMATS:
        expected = oracle(VARIABLES, eager, format)
        assert serializers.serialize(VARIABLES, lazy, format) == expected
        assert serializers.serialize(VARIABLES, eager, format) == expected
        assert (serializers.serialize(VARIABLES, mixed, format)
                == oracle(VARIABLES, mixed, format))
        documents[format] = expected

    parsed = json.loads(documents["json"])
    assert parsed["head"]["vars"] == list(NAMES)
    assert parsed["results"]["bindings"] == [
        {name: oracle_term_json(term)
         for name, term in zip(NAMES, row_terms) if term is not None}
        for row_terms in terms
    ]

    rows = list(csv.reader(io.StringIO(documents["csv"], newline="")))
    assert rows[0] == list(NAMES)
    assert rows[1:] == [
        [oracle_term_csv(term) for term in row_terms] for row_terms in terms
    ]

    lines = documents["tsv"].split("\n")
    assert lines[0] == "?a\t?b\t?c" and lines[-1] == ""
    assert [line.split("\t") for line in lines[1:-1]] == [
        ["" if term is None else term.n3() for term in row_terms]
        for row_terms in terms
    ]

    texts = [
        text
        for row_terms in terms for term in row_terms if term is not None
        for text in (
            (term.value,) if isinstance(term, URIRef)
            else (term.label,) if isinstance(term, BNode)
            else (term.lexical, term.datatype or "")
        )
    ]
    if all(_xml_safe(text) for text in texts):
        root = ElementTree.fromstring(documents["xml"])
        results = root.find(f"{XML_NS}results").findall(f"{XML_NS}result")
        assert len(results) == len(terms)
        for element, row_terms in zip(results, terms):
            bound = [(name, term) for name, term in zip(NAMES, row_terms)
                     if term is not None]
            assert [b.get("name") for b in element] == [name for name, _ in bound]
            for binding, (_name, term) in zip(element, bound):
                (child,) = binding
                if isinstance(term, URIRef):
                    assert (child.tag, child.text) == (f"{XML_NS}uri", term.value)
                elif isinstance(term, BNode):
                    assert (child.tag, child.text) == (f"{XML_NS}bnode", term.label)
                else:
                    assert child.tag == f"{XML_NS}literal"
                    assert (child.text or "") == term.lexical
                    assert child.get(XML_LANG) == term.language
                    assert child.get("datatype") == term.datatype


class CountingDictionary(TermDictionary):
    """A dictionary that counts its decodes per id."""

    def __init__(self):
        super().__init__()
        self.decodes = Counter()

    def decode(self, term_id):
        self.decodes[term_id] += 1
        return super().decode(term_id)


#: Which of the three projected cells a row leaves unbound, by pattern.
UNBOUND_PATTERNS = {
    "none": (), "first": (0,), "middle": (1,), "last": (2,), "every": (0, 1, 2),
}


def id_rows(dictionary, unbound_by_chunk, names=NAMES):
    """Lazy rows over 40 terms (ids repeat within and across chunks), in
    chunks of ``BLOCK_ROWS``: each chunk leaves cells unbound by its entry
    of ``unbound_by_chunk`` (a list of pattern names cycled over its rows;
    ``["none"]`` is a chunk with every cell bound).  A hidden fourth slot
    is never projected."""
    terms = [URIRef(f"http://x/{n}") if n % 3 == 0 else Literal(f"v{n},\"q\"")
             if n % 3 == 1 else Literal(n) for n in range(40)]
    ids = [dictionary.encode(term) for term in terms]
    layout = SlotLayout(names + ("hidden",), dictionary)
    rows = []
    for chunk, patterns in enumerate(unbound_by_chunk):
        for index in range(kernels.BLOCK_ROWS):
            row = index + chunk * kernels.BLOCK_ROWS
            unbound = UNBOUND_PATTERNS[patterns[index % len(patterns)]]
            cells = tuple(None if column in unbound else ids[(row * (column + 3)) % 40]
                          for column in range(len(names)))
            rows.append(IdBinding(layout, cells + (ids[row % 40],)))
    return rows, layout


@pytest.mark.parametrize("chunks", (
    [["none"], ["first"], ["none"], ["middle", "none"]],
    [["last"], ["every"], ["none", "none", "first"], ["none"], ["none"]],
    [["first", "middle", "last", "every", "none"]] * 3,
), ids=("mixed", "every-pattern", "cycled"))
def test_id_rows_with_unbound_cells_match_the_oracle_across_chunks(chunks):
    # Chunks of only bound cells take the writers' column path, chunks with
    # an unbound cell JSON's per-row path; both read one memo per column.
    dictionary = CountingDictionary()
    rows, layout = id_rows(dictionary, chunks)
    assert len(rows) > kernels.BLOCK_ROWS
    for format in serializers.FORMATS:
        dictionary.decodes.clear()
        layout._terms.clear()
        document = serializers.serialize(VARIABLES, rows, format)
        # Each distinct id the projection holds is decoded once.
        projected = {cell for row in rows for cell in row._row[:3] if cell is not None}
        assert set(dictionary.decodes) == projected
        assert set(dictionary.decodes.values()) == {1}
        assert document == oracle(VARIABLES, rows, format), format


def test_one_column_results_quote_empty_rows_as_csv_does():
    # A CSV row of one empty field (unbound, or an empty literal) is '""'.
    dictionary = TermDictionary()
    layout = SlotLayout(("a",), dictionary)
    cells = [None, dictionary.encode(Literal("")), dictionary.encode(Literal("x")),
             dictionary.encode(Literal("a,b"))]
    rows = [IdBinding(layout, (cells[n % 4],)) for n in range(kernels.BLOCK_ROWS + 5)]
    eager = [Binding({"a": row.get("a")} if row.get("a") is not None else {}) for row in rows]
    for format in serializers.FORMATS:
        for result in (rows, eager):
            assert (serializers.serialize([Variable("a")], result, format)
                    == oracle([Variable("a")], result, format)), format


def test_projection_without_variables_and_unprojected_names():
    dictionary = TermDictionary()
    layout = SlotLayout(("a",), dictionary)
    rows = [IdBinding(layout, (dictionary.encode(URIRef("http://x/1")),)),
            Binding({"a": URIRef("http://x/2")})]
    for format in serializers.FORMATS:
        for variables in ([], [Variable("zz"), Variable("a")]):
            assert (serializers.serialize(variables, rows, format)
                    == oracle(variables, rows, format))


def test_non_terms_are_rejected_by_every_writer():
    layout = SlotLayout(("a",), TermDictionary())
    for rows in ([Binding({"a": 42})], [IdBinding(layout, ("not a term",))]):
        for format in ("json", "xml", "csv"):
            with pytest.raises(TypeError):
                serializers.serialize([Variable("a")], rows, format)
