"""The block kernels behind Q4's costly stages, against naive references.

* Block DISTINCT (:func:`kernels.distinct_blocks`): one sorted ``u64`` array
  of the keys seen so far, with keys repeated inside a block and across
  blocks, one- and two-column keys, ids near 2^32, results past
  ``2 * BLOCK_ROWS`` rows compared with ``tests/oracle.py``, and LIMIT
  pulling no block past the one that completes its answer.
* The columnar filter (:func:`kernels.filter_masks`): one key table per
  conjunct and evaluation, with strings that arrive in a later block and
  sort between earlier ones, numbers, language-tagged strings, IRIs and NaN
  on either side, and constant operands — every mask entry equal to what
  ``oracle.holds`` decides for that row.
"""

import itertools
import random

import numpy as np
import pytest

import oracle
from repro.rdf import BNode, Literal, Triple, URIRef, Variable
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER
from repro.sparql import NATIVE_COST, SparqlEngine, algebra, ast, kernels
from repro.sparql.planner import KERNEL
from repro.store.dictionary import TermDictionary


def block(**columns):
    """A Block of u32 columns keyed by slot number (``s0=[...]``)."""
    columns = {int(name[1:]): np.array(values, dtype=np.uintc)
               for name, values in columns.items()}
    (length,) = {len(column) for column in columns.values()}
    return kernels.Block(columns, length)


def naive_distinct(blocks, slots):
    """Per block, its keys no earlier row held, ascending."""
    seen, out = set(), []
    for each in blocks:
        keys = set(zip(*(each.columns[slot].tolist() for slot in slots)))
        fresh = sorted(keys - seen)
        seen |= keys
        if fresh:
            out.append(fresh)
    return out


def distinct(blocks, slots):
    return [list(zip(*(each.columns[slot].tolist() for slot in slots)))
            for each in kernels.distinct_blocks(iter(blocks), slots)]


# -- block DISTINCT -------------------------------------------------------------

TOP = 2**32 - 1


@pytest.mark.parametrize("slots", ((0,), (2,), (0, 2), (2, 0)))
def test_distinct_blocks_repeats_inside_and_across_blocks(slots):
    blocks = [
        block(s0=[5, 5, 1, 5, 1, 0], s1=[9, 8, 7, 6, 5, 4], s2=[3, 3, 2, 3, 9, 9]),
        block(s0=[1, 7, 7, 5, 0], s1=[0, 0, 0, 0, 0], s2=[2, 1, 1, 4, 9]),
        block(s0=[5, 1], s1=[1, 1], s2=[3, 2]),  # nothing fresh
        block(s0=[0, 7], s1=[2, 2], s2=[8, 1]),
    ]
    assert distinct(blocks, slots) == naive_distinct(blocks, slots)


@pytest.mark.parametrize("slots", ((0,), (0, 1), (1, 0)))
def test_distinct_blocks_keeps_ids_near_two_to_the_32(slots):
    # A two-column key is (first << 32) | second in a u64: the top ids must
    # neither wrap nor bleed into the other half.
    blocks = [
        block(s0=[TOP, 0, TOP, TOP - 1, 2**31], s1=[0, TOP, 0, TOP, 2**31]),
        block(s0=[0, TOP, 1, TOP - 1], s1=[TOP, TOP, 1, TOP]),
        block(s0=[TOP, 2**31 + 1], s1=[TOP - 1, 2**31 - 1]),
    ]
    assert distinct(blocks, slots) == naive_distinct(blocks, slots)


def test_distinct_blocks_over_many_random_blocks():
    rng = random.Random(7)
    blocks = [block(s0=[rng.randrange(300) for _ in range(n)],
                    s1=[rng.choice((0, 1, TOP)) for _ in range(n)])
              for n in (kernels.BLOCK_ROWS, 1, 700, kernels.BLOCK_ROWS, 50, 3)]
    for slots in ((0,), (1,), (0, 1), (1, 0)):
        assert distinct(blocks, slots) == naive_distinct(blocks, slots)


EX = "http://example.org/"
SUBJECTS = 3 * kernels.BLOCK_ROWS


def distinct_graph():
    """Subject i has one ``ex:p`` object (i mod 2600) and two ``ex:q``
    values (i mod 2 and 2 + i mod 3): a ``?s ex:p ?o . ?s ex:q ?x`` row per
    (subject, q value), so ``?o`` repeats inside a block (two rows per
    subject) and across blocks (subjects i and i + 2600)."""
    triples = []
    for i in range(SUBJECTS):
        subject = URIRef(f"{EX}s{i}")
        triples.append(Triple(subject, URIRef(EX + "p"), URIRef(f"{EX}o{i % 2600}")))
        for x in (i % 2, 2 + i % 3):
            triples.append(Triple(subject, URIRef(EX + "q"), Literal(x)))
    return triples


@pytest.fixture(scope="module")
def distinct_engine():
    triples = distinct_graph()
    return SparqlEngine.from_graph(triples, NATIVE_COST), triples


DISTINCT_QUERIES = {
    "one column": f"SELECT DISTINCT ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?x }}",
    "two columns": f"SELECT DISTINCT ?o ?x WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?x }}",
}


@pytest.mark.parametrize("name", DISTINCT_QUERIES)
def test_block_distinct_past_two_blocks_matches_the_oracle(distinct_engine, name):
    engine, triples = distinct_engine
    text = DISTINCT_QUERIES[name]
    prepared = engine.prepare(text)
    (bgp,) = algebra.collect_bgps(prepared.tree)
    assert bgp.plan.access == KERNEL
    result = engine.query(text)
    assert len(result) > 2 * kernels.BLOCK_ROWS
    assert oracle.answer_of(result) == oracle.answer(text, triples)


def test_limit_pulls_no_block_past_its_answer(distinct_engine, monkeypatch):
    engine, _triples = distinct_engine
    text = DISTINCT_QUERIES["two columns"]
    original = kernels.distinct_blocks
    pulled, fresh = [], []

    def spy(blocks, slots):
        def counted():
            for each in blocks:
                pulled.append(each.length)
                yield each
        for out in original(counted(), slots):
            fresh.append(out.length)
            yield out

    monkeypatch.setattr(kernels, "distinct_blocks", spy)
    total = len(engine.query(text))
    per_block, pulled[:], fresh[:] = list(fresh), [], []
    assert len(per_block) > 2 and sum(per_block) == total
    for limit in (1, per_block[0], per_block[0] + 1, total - 1):
        rows = list(engine.prepare(text).run(limit=limit))
        assert len(rows) == limit
        # The blocks whose fresh rows first reach the limit, and not one more.
        needed = next(count for count in range(1, len(per_block) + 1)
                      if sum(per_block[:count]) >= limit)
        assert len(pulled) == needed, limit
        pulled[:], fresh[:] = [], []


# -- the columnar filter ------------------------------------------------------

NUMBERS = [Literal(2), Literal(-1), Literal("2.0", datatype=XSD_DOUBLE),
           Literal("NaN", datatype=XSD_DOUBLE), Literal("abc", datatype=XSD_INTEGER),
           Literal(10**400)]
OTHERS = [Literal("b", language="en"), Literal("a", language="de"),
          URIRef(EX + "a"), URIRef(EX + "b"), BNode("n")]
#: Strings in three waves, each sorting between the ones before it.
WAVES = [[Literal("b"), Literal("d"), Literal("f")],
         [Literal("c"), Literal("a"), Literal("e")],
         [Literal("bb"), Literal("cc"), Literal("")]]
OPERATORS = ("<", "<=", ">", ">=", "=", "!=")
SLOTS = {Variable("a"): 0, Variable("b"): 1}


def variable(name):
    return ast.TermExpression(Variable(name))


def constant(term):
    return ast.TermExpression(term)


def masks_and_expected(expression, blocks, terms_of):
    """The compiled filter's masks over the blocks, in one evaluation, and
    ``oracle.holds`` per row with ?a in slot 0 and ?b in slot 1."""
    compiled = kernels.compile_filter(expression, SLOTS.get)
    assert compiled is not None
    masks = kernels.filter_masks(compiled, terms_of)
    got, expected = [], []
    for each in blocks:
        got.append(masks(each).tolist())
        rows = zip(*(each.columns[slot].tolist() for slot in (0, 1)))
        expected.append([oracle.holds(expression, {"a": terms_of(a), "b": terms_of(b)})
                         for a, b in rows])
    return got, expected


def encoded(waves):
    """The terms of each wave as ids of one dictionary, plus its decoder."""
    dictionary = TermDictionary()
    return [[dictionary.encode(term) for term in wave] for wave in waves], dictionary.decode


@pytest.mark.parametrize("op", OPERATORS)
def test_strings_arriving_later_sort_between_earlier_ones(op):
    # Every pair of a wave's ids, and of its ids with the earlier waves':
    # a rank taken before the later strings arrived would misorder them.
    (first, second, third), decode = encoded(WAVES)
    blocks = []
    seen = []
    for wave in (first, second, third):
        seen += wave
        pairs = [(a, b) for a in seen for b in seen if a in wave or b in wave]
        blocks.append(block(s0=[a for a, _b in pairs], s1=[b for _a, b in pairs]))
    got, expected = masks_and_expected(
        ast.Comparison(op, variable("a"), variable("b")), blocks, decode)
    assert got == expected


@pytest.mark.parametrize("op", OPERATORS)
def test_every_kind_on_either_side(op):
    # Numbers (NaN, malformed, past double range), language-tagged strings,
    # IRIs and blank nodes, paired every way, arriving over three blocks in
    # which new strings keep re-ranking the old.
    terms = NUMBERS + OTHERS + [term for wave in WAVES for term in wave]
    (ids,), decode = encoded([terms])
    pairs = list(itertools.product(ids, repeat=2))
    random.Random(op).shuffle(pairs)
    thirds = [pairs[:40], pairs[40:200], pairs[200:]]
    blocks = [block(s0=[a for a, _b in part], s1=[b for _a, b in part]) for part in thirds]
    got, expected = masks_and_expected(
        ast.Comparison(op, variable("a"), variable("b")), blocks, decode)
    assert got == expected


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("value", [Literal("c"), Literal(2), Literal("NaN", datatype=XSD_DOUBLE),
                                   Literal("zz"), URIRef(EX + "a"), Literal("b", language="en")],
                         ids=str)
def test_a_constant_operand_on_either_side(op, value):
    # "c" sorts between strings of the first and the second wave, "zz"
    # after all of them: the constant is ranked with the ids, and re-ranked.
    terms = NUMBERS + OTHERS
    waves = [terms + WAVES[0], WAVES[1], WAVES[2]]
    ids, decode = encoded(waves)
    blocks = [block(s0=wave, s1=wave[::-1]) for wave in ids]
    for expression in (ast.Comparison(op, variable("a"), constant(value)),
                       ast.Comparison(op, constant(value), variable("b")),
                       ast.And(ast.Comparison(op, variable("a"), constant(value)),
                               ast.Comparison(op, constant(value), variable("b")))):
        got, expected = masks_and_expected(expression, blocks, decode)
        assert got == expected, expression


def test_each_id_is_decoded_once_per_evaluation():
    (ids,), decode = encoded([[term for wave in WAVES for term in wave] + NUMBERS])
    calls = []

    def counting(ident):
        calls.append(ident)
        return decode(ident)

    compiled = kernels.compile_filter(
        ast.Comparison("<", variable("a"), variable("b")), SLOTS.get)
    masks = kernels.filter_masks(compiled, counting)
    for start in range(0, len(ids), 4):
        part = ids[:start + 4]
        masks(block(s0=part * 3, s1=part[::-1] * 3))
    assert sorted(calls) == sorted(ids)
