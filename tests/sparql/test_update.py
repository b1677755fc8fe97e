"""SPARQL 1.1 Update: parsing and execution across both store families.

Covers the four supported forms (``INSERT DATA``, ``DELETE DATA``,
``DELETE/INSERT ... WHERE``, ``DELETE WHERE``), the SPARQL 1.1 semantics
corners (pre-update WHERE evaluation, delete-before-insert, unbound
template variables, fresh blank nodes), and the engine-level integration:
``engine.update`` plus the prepared-statement cache invalidation a version
bump must trigger.
"""

import pytest

from repro.rdf import BNode, URIRef, Variable
from repro.sparql import EngineConfig, SparqlEngine
from repro.sparql.ast import DeleteDataUpdate, InsertDataUpdate, ModifyUpdate
from repro.sparql.errors import SparqlSyntaxError
from repro.sparql.parser import parse_update
from repro.sparql.update import UpdateResult, execute_update
from repro.store import IndexedStore, MemoryStore, MvccStore

S = URIRef("http://example.org/s")
P = URIRef("http://example.org/p")
NAME = URIRef("http://example.org/name")
NICK = URIRef("http://example.org/nick")

#: Every (store family, MVCC wrapper) combination updates must work on.
STORE_BUILDERS = {
    "memory": MemoryStore,
    "indexed": IndexedStore,
    "mvcc-memory": lambda: MvccStore(MemoryStore()),
    "mvcc-indexed": lambda: MvccStore(IndexedStore()),
}

ENGINE_CONFIGS = (
    EngineConfig(name="mem-greedy", store_type="memory", planner="greedy"),
    EngineConfig(name="idx-cost", store_type="indexed", planner="cost"),
    EngineConfig(name="idx-none", store_type="indexed", planner="none"),
)


class TestParsing:
    def test_insert_data(self):
        update = parse_update(
            'INSERT DATA { <http://example.org/s> <http://example.org/p> "v" . }'
        )
        assert isinstance(update, InsertDataUpdate)
        assert len(update.triples) == 1
        assert update.triples[0].subject == S

    def test_delete_data(self):
        update = parse_update(
            "DELETE DATA { <http://example.org/s> <http://example.org/p> 1 . }"
        )
        assert isinstance(update, DeleteDataUpdate)
        assert len(update.triples) == 1

    def test_prefixes_apply_to_template(self):
        update = parse_update(
            "PREFIX ex: <http://example.org/>\n"
            "INSERT DATA { ex:s ex:p ex:o . }"
        )
        assert update.triples[0].subject == S

    def test_modify_form(self):
        update = parse_update(
            "PREFIX ex: <http://example.org/>\n"
            "DELETE { ?s ex:name ?old } INSERT { ?s ex:nick ?old }\n"
            "WHERE { ?s ex:name ?old }"
        )
        assert isinstance(update, ModifyUpdate)
        assert len(update.delete_templates) == 1
        assert len(update.insert_templates) == 1
        assert update.delete_templates[0].predicate == NAME
        assert update.insert_templates[0].predicate == NICK

    def test_delete_where_sugar(self):
        update = parse_update(
            "DELETE WHERE { ?s <http://example.org/p> ?o }"
        )
        assert isinstance(update, ModifyUpdate)
        assert update.insert_templates == []
        assert len(update.delete_templates) == 1
        assert update.delete_templates[0].subject == Variable("s")

    def test_insert_data_rejects_variables(self):
        with pytest.raises(SparqlSyntaxError):
            parse_update("INSERT DATA { ?s <http://example.org/p> 1 . }")

    def test_query_text_is_not_an_update(self):
        with pytest.raises(SparqlSyntaxError):
            parse_update("SELECT ?s WHERE { ?s ?p ?o }")


@pytest.mark.parametrize("store_name", sorted(STORE_BUILDERS))
class TestExecution:
    def build(self, store_name):
        return STORE_BUILDERS[store_name]()

    def test_insert_data_then_delete_data(self, store_name):
        store = self.build(store_name)
        result = execute_update(
            store,
            'INSERT DATA { <http://example.org/s> <http://example.org/p> "v" . }',
        )
        assert isinstance(result, UpdateResult)
        assert result.inserted == 1 and result.deleted == 0
        assert len(store) == 1
        result = execute_update(
            store,
            'DELETE DATA { <http://example.org/s> <http://example.org/p> "v" . }',
        )
        assert result.deleted == 1
        assert len(store) == 0

    def test_insert_data_is_idempotent(self, store_name):
        store = self.build(store_name)
        text = "INSERT DATA { <http://example.org/s> <http://example.org/p> 1 . }"
        assert execute_update(store, text).inserted == 1
        # Set semantics: re-inserting an existing triple changes nothing.
        assert execute_update(store, text).inserted == 0
        assert len(store) == 1

    def test_modify_renames_property(self, store_name):
        store = self.build(store_name)
        execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            'INSERT DATA { ex:a ex:name "A" . ex:b ex:name "B" . }',
        )
        result = execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            "DELETE { ?s ex:name ?v } INSERT { ?s ex:nick ?v }\n"
            "WHERE { ?s ex:name ?v }",
        )
        assert result.matched == 2
        assert result.deleted == 2 and result.inserted == 2
        assert store.count(None, NAME, None) == 0
        assert store.count(None, NICK, None) == 2

    def test_delete_where_removes_matches(self, store_name):
        store = self.build(store_name)
        execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            "INSERT DATA { ex:a ex:p 1 . ex:b ex:p 2 . ex:c ex:q 3 . }",
        )
        result = execute_update(
            store, "DELETE WHERE { ?s <http://example.org/p> ?o }"
        )
        assert result.deleted == 2
        assert len(store) == 1

    def test_where_sees_pre_update_state(self, store_name):
        # Inserting ex:p triples from an ex:p WHERE must not feed on its own
        # output: the WHERE solutions come from the pre-update generation.
        store = self.build(store_name)
        execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            "INSERT DATA { ex:a ex:p ex:b . ex:b ex:p ex:c . }",
        )
        result = execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            "INSERT { ?o ex:p ?s } WHERE { ?s ex:p ?o }",
        )
        assert result.matched == 2
        assert result.inserted == 2
        assert len(store) == 4

    def test_unbound_template_variable_skips_solution(self, store_name):
        store = self.build(store_name)
        execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            'INSERT DATA { ex:a ex:name "A" . ex:b ex:name "B" . '
            'ex:a ex:nick "aa" . }',
        )
        # ?nick is unbound for ex:b: its solution instantiates nothing.
        result = execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            "INSERT { ?s ex:p ?nick } WHERE "
            "{ ?s ex:name ?v . OPTIONAL { ?s ex:nick ?nick } }",
        )
        assert result.matched == 2
        assert result.inserted == 1

    def test_insert_template_bnodes_are_fresh_per_solution(self, store_name):
        store = self.build(store_name)
        execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            'INSERT DATA { ex:a ex:name "A" . ex:b ex:name "B" . }',
        )
        result = execute_update(
            store,
            "PREFIX ex: <http://example.org/>\n"
            "INSERT { ?s ex:attr _:n . _:n ex:val ?v } WHERE { ?s ex:name ?v }",
        )
        # Two solutions, two triples each; the blank node is shared within a
        # solution and distinct across solutions.
        assert result.inserted == 4
        attr = URIRef("http://example.org/attr")
        minted = {t.object for t in store.triples(None, attr, None)}
        assert len(minted) == 2
        assert all(isinstance(node, BNode) for node in minted)

    def test_version_advances_only_on_change(self, store_name):
        store = self.build(store_name)
        before = store.version
        result = execute_update(
            store, "INSERT DATA { <http://x/s> <http://x/p> 1 . }"
        )
        assert store.version > before
        assert result.version == store.version
        # A no-op update (deleting an absent triple) publishes nothing.
        at = store.version
        execute_update(store, "DELETE DATA { <http://x/zz> <http://x/p> 1 . }")
        if store_name.startswith("mvcc"):
            assert store.version == at


class TestEngineIntegration:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS, ids=lambda c: c.name)
    def test_update_visible_to_queries(self, config):
        engine = SparqlEngine(config)
        engine.store = MvccStore(engine.store)
        engine.update(
            "PREFIX ex: <http://example.org/>\n"
            'INSERT DATA { ex:a ex:name "A" . ex:b ex:name "B" . }'
        )
        rows = engine.query(
            "PREFIX ex: <http://example.org/>\n"
            "SELECT ?v WHERE { ?s ex:name ?v }"
        )
        assert sorted(binding.get("v").lexical for binding in rows) == ["A", "B"]
        engine.update(
            "PREFIX ex: <http://example.org/>\n"
            'DELETE DATA { ex:a ex:name "A" . }'
        )
        rows = engine.query(
            "PREFIX ex: <http://example.org/>\n"
            "SELECT ?v WHERE { ?s ex:name ?v }"
        )
        assert [binding.get("v").lexical for binding in rows] == ["B"]

    def test_update_invalidates_prepared_cache(self):
        # Stale-plan regression: a version bump must evict cached prepared
        # statements, whose planner statistics described the old generation.
        engine = SparqlEngine(EngineConfig(name="t", store_type="indexed",
                                           planner="cost"))
        engine.store = MvccStore(engine.store)
        text = "SELECT ?s WHERE { ?s <http://example.org/p> ?o }"
        first = engine.prepare_cached(text)
        assert engine.prepare_cached(text) is first
        engine.update("INSERT DATA { <http://x/s> <http://example.org/p> 1 . }")
        fresh = engine.prepare_cached(text)
        assert fresh is not first
        assert engine.prepare_cached(text) is fresh

    def test_noop_update_keeps_cache(self):
        engine = SparqlEngine(EngineConfig(name="t", store_type="indexed"))
        engine.store = MvccStore(engine.store)
        text = "SELECT ?s WHERE { ?s <http://example.org/p> ?o }"
        first = engine.prepare_cached(text)
        engine.update("DELETE DATA { <http://x/s> <http://x/p> 1 . }")
        assert engine.prepare_cached(text) is first

    def test_running_cursor_is_snapshot_pinned(self):
        engine = SparqlEngine(EngineConfig(name="t", store_type="indexed"))
        engine.store = MvccStore(engine.store)
        engine.update(
            "PREFIX ex: <http://example.org/>\n"
            "INSERT DATA { ex:a ex:p 1 . ex:b ex:p 2 . ex:c ex:p 3 . }"
        )
        prepared = engine.prepare_cached(
            "SELECT ?s WHERE { ?s <http://example.org/p> ?o }"
        )
        with prepared.run() as cursor:
            iterator = iter(cursor)
            next(iterator)
            # A concurrent delete publishes a new generation; the open
            # cursor keeps reading its pinned one.
            engine.update("DELETE WHERE { ?s <http://example.org/p> ?o }")
            remaining = sum(1 for _ in iterator)
        assert remaining == 2
        assert len(engine.store) == 0

    def test_update_on_plain_store_works_in_place(self):
        engine = SparqlEngine(EngineConfig(name="t", store_type="memory"))
        result = engine.update(
            "INSERT DATA { <http://x/s> <http://x/p> 1 . }"
        )
        assert result.inserted == 1
        assert len(engine.store) == 1
