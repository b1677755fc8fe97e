"""Shared fixtures: hand-built sample graphs and generated documents."""

from __future__ import annotations

import pytest

from repro.generator import DblpGenerator, GeneratorConfig
from repro.rdf import (
    BENCH,
    DC,
    DCTERMS,
    FOAF,
    PERSON,
    RDF,
    RDFS,
    SWRC,
    BNode,
    Graph,
    Literal,
    Triple,
    URIRef,
)
from repro.sparql import (
    ENGINE_PRESETS,
    NATIVE_OPTIMIZED,
    SparqlEngine,
    algebra,
)
from repro.sparql.planner import KERNEL, PROBE

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


def string_literal(value):
    return Literal(value, datatype=XSD_STRING)


@pytest.fixture(scope="session")
def sample_graph():
    """A small hand-built DBLP-like graph with known content.

    Contains: one journal ("Journal 1 (1940)"), two articles, one
    proceedings, two inproceedings, three persons (one of them Paul Erdoes),
    a citation bag, and the schema layer — enough to give every benchmark
    query a non-trivial evaluation.
    """
    g = Graph()

    # Schema layer.
    for class_uri in (BENCH.Journal, BENCH.Article, BENCH.Inproceedings,
                      BENCH.Proceedings, BENCH.Book):
        g.add(Triple(class_uri, RDFS.subClassOf, FOAF.Document))

    journal = URIRef("http://localhost/publications/journals/Journal1/1940")
    g.add(Triple(journal, RDF.type, BENCH.Journal))
    g.add(Triple(journal, DC.title, string_literal("Journal 1 (1940)")))
    g.add(Triple(journal, DCTERMS.issued, Literal(1940)))

    erdoes = PERSON.Paul_Erdoes
    alice = BNode("Alice_Smith")
    bob = BNode("Bob_Jones")
    for person, name in ((erdoes, "Paul Erdoes"), (alice, "Alice Smith"), (bob, "Bob Jones")):
        g.add(Triple(person, RDF.type, FOAF.Person))
        g.add(Triple(person, FOAF.name, string_literal(name)))

    article1 = URIRef("http://localhost/publications/article/1950/1")
    g.add(Triple(article1, RDF.type, BENCH.Article))
    g.add(Triple(article1, DC.title, string_literal("Optimization of queries")))
    g.add(Triple(article1, DCTERMS.issued, Literal(1950)))
    g.add(Triple(article1, DC.creator, erdoes))
    g.add(Triple(article1, DC.creator, alice))
    g.add(Triple(article1, SWRC.journal, journal))
    g.add(Triple(article1, SWRC.pages, string_literal("1--10")))
    g.add(Triple(article1, RDFS.seeAlso, string_literal("http://example.org/ee/1")))

    article2 = URIRef("http://localhost/publications/article/1960/2")
    g.add(Triple(article2, RDF.type, BENCH.Article))
    g.add(Triple(article2, DC.title, string_literal("Indexing semistructured data")))
    g.add(Triple(article2, DCTERMS.issued, Literal(1960)))
    g.add(Triple(article2, DC.creator, alice))
    g.add(Triple(article2, SWRC.journal, journal))
    g.add(Triple(article2, SWRC.month, Literal(4)))
    g.add(Triple(article2, RDFS.seeAlso, string_literal("http://example.org/ee/2")))

    proceedings = URIRef("http://localhost/publications/proceedings/1960/3")
    g.add(Triple(proceedings, RDF.type, BENCH.Proceedings))
    g.add(Triple(proceedings, DC.title, string_literal("Conference 1 (1960)")))
    g.add(Triple(proceedings, DCTERMS.issued, Literal(1960)))
    g.add(Triple(proceedings, SWRC.editor, erdoes))

    inproc1 = URIRef("http://localhost/publications/inproceedings/1960/4")
    g.add(Triple(inproc1, RDF.type, BENCH.Inproceedings))
    g.add(Triple(inproc1, DC.title, string_literal("A study of joins")))
    g.add(Triple(inproc1, DCTERMS.issued, Literal(1960)))
    g.add(Triple(inproc1, DC.creator, alice))
    g.add(Triple(inproc1, DC.creator, bob))
    g.add(Triple(inproc1, DCTERMS.partOf, proceedings))
    g.add(Triple(inproc1, BENCH.booktitle, string_literal("Conference 1 (1960)")))
    g.add(Triple(inproc1, SWRC.pages, string_literal("11--20")))
    g.add(Triple(inproc1, FOAF.homepage, string_literal("http://example.org/inproc/1")))
    g.add(Triple(inproc1, RDFS.seeAlso, string_literal("http://example.org/ee/3")))
    g.add(Triple(inproc1, BENCH.abstract, string_literal("lorem ipsum " * 30)))

    inproc2 = URIRef("http://localhost/publications/inproceedings/1960/5")
    g.add(Triple(inproc2, RDF.type, BENCH.Inproceedings))
    g.add(Triple(inproc2, DC.title, string_literal("Benchmarking engines")))
    g.add(Triple(inproc2, DCTERMS.issued, Literal(1960)))
    g.add(Triple(inproc2, DC.creator, bob))
    g.add(Triple(inproc2, DCTERMS.partOf, proceedings))
    g.add(Triple(inproc2, BENCH.booktitle, string_literal("Conference 1 (1960)")))
    g.add(Triple(inproc2, SWRC.pages, string_literal("21--30")))
    g.add(Triple(inproc2, FOAF.homepage, string_literal("http://example.org/inproc/2")))
    g.add(Triple(inproc2, RDFS.seeAlso, string_literal("http://example.org/ee/4")))

    # inproc1 cites article1 via an rdf:Bag reference list.
    bag = BNode("references_1")
    g.add(Triple(inproc1, DCTERMS.references, bag))
    g.add(Triple(bag, RDF.type, RDF.Bag))
    g.add(Triple(bag, RDF.term("_1"), article1))

    return g


@pytest.fixture(scope="session")
def generated_graph_small():
    """A deterministically generated ~2000-triple document."""
    return DblpGenerator(GeneratorConfig(triple_limit=2_000, seed=7)).graph()


@pytest.fixture(scope="session")
def generated_graph_medium():
    """A deterministically generated ~5000-triple document."""
    return DblpGenerator(GeneratorConfig(triple_limit=5_000, seed=7)).graph()


@pytest.fixture(scope="session")
def native_engine(generated_graph_small):
    """A native-optimized engine over the small generated document."""
    return SparqlEngine.from_graph(generated_graph_small, NATIVE_OPTIMIZED)


@pytest.fixture(scope="session")
def all_engines_small(generated_graph_small):
    """All four engine presets loaded with the small generated document."""
    return [SparqlEngine.from_graph(generated_graph_small, config) for config in ENGINE_PRESETS]


@pytest.fixture(scope="session")
def sample_engines(sample_graph):
    """All four engine presets loaded with the hand-built sample graph."""
    return [SparqlEngine.from_graph(sample_graph, config) for config in ENGINE_PRESETS]


class TuplePathEngine(SparqlEngine):
    """An engine whose plans carry no batch kernels.

    It plans as its configuration says, then puts every BGP planned on the
    kernels on index probes, so it runs on the tuple path in the same order.
    """

    def _plan_algebra(self, tree, store):
        planned = super()._plan_algebra(tree, store)
        for node in algebra.collect_bgps(planned):
            if node.plan.access == KERNEL:
                node.plan.access = PROBE
        return planned


class ReferencePaths:
    """The kernel-free reference engine cross-path tests compare with; the
    independent reference for results is ``tests/oracle.py``."""

    @staticmethod
    def tuple_path(engine):
        """Same configuration over the same store, without kernels."""
        return TuplePathEngine(engine.config, store=engine.store)


@pytest.fixture(scope="session")
def reference():
    """Builder of the tuple-path reference engine."""
    return ReferencePaths
