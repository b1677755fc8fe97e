"""Translation of generated entities into RDF triples (Figure 3 of the paper).

The mapping follows the paper's DBLP RDF scheme:

* document classes map to ``bench:`` classes beneath ``foaf:Document``
  (the ``rdfs:subClassOf`` schema layer is emitted once per document set,
  because Q6/Q7 navigate it),
* attributes map to the properties of Figure 3(a) with XSD-typed literals,
* persons are blank nodes ``_:Givenname_Lastname`` with ``foaf:name`` —
  except Paul Erdoes, who has a fixed URI (``person:Paul_Erdoes``),
* outgoing citations are modelled as an ``rdf:Bag`` blank node referenced
  through ``dcterms:references`` with ``rdf:_1 ... rdf:_n`` members,
* roughly 1% of articles/inproceedings carry a large ``bench:abstract``
  literal.
"""

from __future__ import annotations

from ..rdf.namespace import BENCH, DC, DCTERMS, FOAF, PERSON, RDF, RDFS, SWRC, XSD
from ..rdf.terms import BNode, Literal, URIRef
from ..rdf.triple import Triple

#: Base namespace for generated document URIs.
PUBLICATION_BASE = "http://localhost/publications/"

#: Document class name -> bench: class URI.
CLASS_URIS = {
    "article": BENCH.Article,
    "inproceedings": BENCH.Inproceedings,
    "proceedings": BENCH.Proceedings,
    "book": BENCH.Book,
    "incollection": BENCH.Incollection,
    "phdthesis": BENCH.PhDThesis,
    "mastersthesis": BENCH.MastersThesis,
    "www": BENCH.WWW,
}

#: Class URIs that also exist as schema-layer subclasses of foaf:Document.
SCHEMA_CLASSES = tuple(CLASS_URIS.values()) + (BENCH.Journal,)

_STRING = XSD.string.value
_INTEGER = XSD.integer.value


def string_literal(value):
    """An ``xsd:string``-typed literal (the form used by the published queries)."""
    return Literal(str(value), datatype=_STRING)


def integer_literal(value):
    """An ``xsd:integer``-typed literal."""
    return Literal(str(int(value)), datatype=_INTEGER)


def document_uri(document):
    """The URI minted for a generated document."""
    return URIRef(PUBLICATION_BASE + document.key)


def journal_uri(journal):
    """The URI minted for a journal venue."""
    return URIRef(PUBLICATION_BASE + journal.key)


def person_node(person):
    """The RDF node for a person: blank node, or the fixed Erdoes URI."""
    if person.is_erdoes:
        return PERSON.Paul_Erdoes
    return BNode(person.node_label)


def schema_triples():
    """The schema layer: every bench class is a subclass of foaf:Document."""
    for class_uri in SCHEMA_CLASSES:
        yield Triple(class_uri, RDFS.subClassOf, FOAF.Document)


def person_triples(person):
    """Type and name triples for a person (emitted once per person)."""
    node = person_node(person)
    yield Triple(node, RDF.type, FOAF.Person)
    yield Triple(node, FOAF.name, string_literal(person.name))


def journal_triples(journal):
    """Type, title, and year triples for a journal venue."""
    uri = journal_uri(journal)
    yield Triple(uri, RDF.type, BENCH.Journal)
    yield Triple(uri, DC.title, string_literal(journal.title))
    yield Triple(uri, DCTERMS.issued, integer_literal(journal.year))


#: Scalar attribute -> (property URI, literal factory).  Structural
#: attributes (author, editor, cite, crossref, journal) are handled
#: explicitly in :func:`document_triples`.
_SCALAR_PROPERTIES = {
    "address": (SWRC.address, string_literal),
    "booktitle": (BENCH.booktitle, string_literal),
    "cdrom": (BENCH.cdrom, string_literal),
    "chapter": (SWRC.chapter, integer_literal),
    "ee": (RDFS.seeAlso, string_literal),
    "isbn": (SWRC.isbn, string_literal),
    "month": (SWRC.month, integer_literal),
    "note": (BENCH.note, string_literal),
    "number": (SWRC.number, integer_literal),
    "pages": (SWRC.pages, string_literal),
    "publisher": (DC.publisher, string_literal),
    "school": (DC.publisher, string_literal),
    "series": (SWRC.series, integer_literal),
    "url": (FOAF.homepage, string_literal),
    "volume": (SWRC.volume, integer_literal),
}


def document_triples(document, emitted_persons=None):
    """All triples describing one document.

    ``emitted_persons`` is an optional set of person indices whose type/name
    triples were already written; persons not in the set have their triples
    emitted here and are added to it.  Passing None emits person triples
    unconditionally.
    """
    uri = document_uri(document)
    yield Triple(uri, RDF.type, CLASS_URIS[document.document_class])
    yield Triple(uri, DC.title, string_literal(document.title))
    yield Triple(uri, DCTERMS.issued, integer_literal(document.year))

    for attribute, value in sorted(document.values.items()):
        mapping = _SCALAR_PROPERTIES.get(attribute)
        if mapping is None:
            continue
        property_uri, literal_factory = mapping
        yield Triple(uri, property_uri, literal_factory(value))

    for person in document.authors:
        yield from _person_reference(person, emitted_persons)
        yield Triple(uri, DC.creator, person_node(person))
    for person in document.editors:
        yield from _person_reference(person, emitted_persons)
        yield Triple(uri, SWRC.editor, person_node(person))

    if document.journal is not None:
        yield Triple(uri, SWRC.journal, journal_uri(document.journal))
    if document.part_of is not None:
        yield Triple(uri, DCTERMS.partOf, document_uri(document.part_of))

    targeted = [target for target in document.citations if target is not None]
    if targeted:
        bag = BNode(f"references_{document.key.replace('/', '_')}")
        yield Triple(uri, DCTERMS.references, bag)
        yield Triple(bag, RDF.type, RDF.Bag)
        for position, target in enumerate(targeted, start=1):
            yield Triple(bag, RDF.term(f"_{position}"), document_uri(target))

    if document.abstract is not None:
        yield Triple(uri, BENCH.abstract, string_literal(document.abstract))


def _person_reference(person, emitted_persons):
    if emitted_persons is None:
        yield from person_triples(person)
        return
    key = person.index
    if key in emitted_persons:
        return
    emitted_persons.add(key)
    yield from person_triples(person)
