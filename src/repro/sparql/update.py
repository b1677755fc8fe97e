"""Execution of SPARQL 1.1 Update operations.

The parser (:func:`repro.sparql.parser.parse_update`) produces one of three
AST nodes — :class:`~repro.sparql.ast.InsertDataUpdate`,
:class:`~repro.sparql.ast.DeleteDataUpdate`,
:class:`~repro.sparql.ast.ModifyUpdate` — and :func:`execute_update` applies
it to a store.  Semantics follow the SPARQL 1.1 Update specification:

* the WHERE pattern of a modify operation is evaluated once against the
  *pre-update* state; both template sets are instantiated from that one
  solution sequence,
* deletions are applied before insertions,
* a solution that leaves any template variable unbound instantiates nothing
  from that template (the solution is skipped for it, not an error),
* blank nodes in INSERT templates mint a fresh node per solution.

Against an :class:`~repro.store.MvccStore`, the whole operation runs inside
one write transaction: WHERE evaluation is pinned to the transaction's base
generation, mutations build the next generation copy-on-write, and commit
publishes atomically — readers never observe a half-applied update.  Plain
stores are mutated in place (single-threaded embedded use).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from ..rdf.terms import BNode, Variable
from ..rdf.triple import Triple
from . import algebra
from .ast import DeleteDataUpdate, InsertDataUpdate, ModifyUpdate, UpdateOperation
from .errors import EvaluationError
from .idspace import IdSpaceEvaluation
from .parser import parse_update
from .planner import PLANNER_NONE, plan_tree

#: Counter minting process-unique blank-node labels for INSERT templates.
_fresh_bnode_ids = count()


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one executed update operation.

    ``inserted``/``deleted`` count actual store changes (not template
    instantiations — inserting an already-present triple changes nothing);
    ``matched`` is the number of WHERE solutions for the modify forms and
    ``None`` for the DATA forms; ``version`` is the store version after the
    operation committed.
    """

    operation: str
    inserted: int
    deleted: int
    matched: int = None
    version: int = 0

    def as_dict(self):
        payload = {
            "operation": self.operation,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "version": self.version,
        }
        if self.matched is not None:
            payload["matched"] = self.matched
        return payload


def execute_update(store, operation):
    """Apply one SPARQL Update operation to ``store``.

    ``operation`` is update text or a parsed :class:`UpdateOperation`; the
    WHERE pattern of modify forms runs in textual order on the store's own
    access path.  Returns an :class:`UpdateResult`.
    """
    if isinstance(operation, str):
        operation = parse_update(operation)
    if not isinstance(operation, UpdateOperation):
        raise TypeError(f"not an update operation: {operation!r}")
    transaction_factory = getattr(store, "write_transaction", None)
    if transaction_factory is not None:
        with transaction_factory() as txn:
            result = _apply(txn.base, txn.insert_all, txn.remove_all, operation)
        # The transaction published (or skipped publishing) by now; report
        # the store's post-commit version.
        return _stamp(result, store.version)
    # Plain store: mutate in place, WHERE solutions materialized first so
    # deletes cannot perturb the pattern evaluation they feed.
    result = _apply(store, store.add_all, store.remove_all, operation)
    return _stamp(result, getattr(store, "version", 0))


def _stamp(result, version):
    return UpdateResult(result.operation, result.inserted, result.deleted,
                        matched=result.matched, version=version)


def _apply(base, insert_all, remove_all, operation):
    """Run ``operation`` reading from ``base``, writing via the callbacks:
    one call removes the operation's triples, one adds them."""
    if isinstance(operation, InsertDataUpdate):
        return UpdateResult(operation.form, insert_all(operation.triples), 0)
    if isinstance(operation, DeleteDataUpdate):
        return UpdateResult(operation.form, 0, remove_all(operation.triples))
    if not isinstance(operation, ModifyUpdate):
        raise EvaluationError(f"unsupported update operation: {operation!r}")

    # The WHERE pattern runs in textual order on the store's own access path.
    tree = plan_tree(algebra.translate_group(operation.where), base, PLANNER_NONE)
    # Materialize: application must see the complete pre-update solution
    # sequence even on plain stores where writes are applied in place.
    solutions = list(IdSpaceEvaluation(base).bindings(tree))
    deletions = [_instantiate(template, solution, fresh_bnodes=None)
                 for solution in solutions for template in operation.delete_templates]
    insertions = []
    for solution in solutions:
        fresh_bnodes = {}
        insertions.extend(_instantiate(template, solution, fresh_bnodes)
                          for template in operation.insert_templates)
    deleted = remove_all([triple for triple in deletions if triple is not None])
    inserted = insert_all([triple for triple in insertions if triple is not None])
    return UpdateResult(operation.form, inserted, deleted,
                        matched=len(solutions))


def _instantiate(template, solution, fresh_bnodes):
    """Ground one triple template under a solution; None to skip.

    ``fresh_bnodes`` maps template blank-node labels to the per-solution
    fresh nodes minted so far (None in delete position, where the parser
    already rejected blank nodes).
    """
    terms = []
    for term in (template.subject, template.predicate, template.object):
        if isinstance(term, Variable):
            bound = solution.get(term)
            if bound is None:
                return None
            term = bound
        elif isinstance(term, BNode) and fresh_bnodes is not None:
            minted = fresh_bnodes.get(term.label)
            if minted is None:
                minted = BNode(f"u{next(_fresh_bnode_ids)}")
                fresh_bnodes[term.label] = minted
            term = minted
        terms.append(term)
    return Triple(*terms)
