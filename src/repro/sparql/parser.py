"""Recursive-descent parser for the SPARQL fragment used by SP2Bench.

Grammar (informal)::

    Query        := Prologue (SelectQuery | AskQuery)
    Prologue     := (PREFIX PNAME_NS IRI)*
    SelectQuery  := SELECT [DISTINCT] (Var+ | '*') WHERE? GroupGraphPattern Modifiers
    AskQuery     := ASK GroupGraphPattern
    Modifiers    := [ORDER BY OrderCondition+] [LIMIT n] [OFFSET n]
    GroupGraphPattern := '{' ( TriplesBlock | Filter | Optional | GroupOrUnion )* '}'
    Optional     := OPTIONAL GroupGraphPattern
    GroupOrUnion := GroupGraphPattern (UNION GroupGraphPattern)*
    Filter       := FILTER ( '(' Expression ')' | BuiltInCall )
    Expression   := Or of And of (Not | Comparison | Primary)

Triple blocks support the ``;`` (same subject) and ``,`` (same subject and
predicate) abbreviations as well as the ``a`` keyword for ``rdf:type``.

SPARQL 1.1 Update operations are parsed by :func:`parse_update`::

    Update       := Prologue ( InsertData | DeleteData | DeleteWhere | Modify )
    InsertData   := INSERT DATA TripleTemplate
    DeleteData   := DELETE DATA TripleTemplate
    DeleteWhere  := DELETE WHERE GroupGraphPattern
    Modify       := (DELETE TripleTemplate)? (INSERT TripleTemplate)?
                    WHERE GroupGraphPattern
    TripleTemplate := '{' TriplesBlock* '}'
"""

from __future__ import annotations

import re

from ..rdf.namespace import DEFAULT_PREFIXES, RDF, Namespace
from ..rdf.terms import BNode, Literal, URIRef, Variable
from ..rdf.triple import Triple
from . import ast
from .errors import SparqlSyntaxError
from .tokenizer import tokenize


def parse_query(text, extra_prefixes=None):
    """Parse SPARQL text into a :class:`SelectQuery` or :class:`AskQuery`.

    ``extra_prefixes`` optionally supplies prefix -> namespace bindings that
    are available even without a PREFIX declaration; the SP2Bench default
    prefixes are always available, matching the query prologue published with
    the benchmark.
    """
    return _Parser(text, extra_prefixes).parse()


def parse_update(text, extra_prefixes=None):
    """Parse SPARQL 1.1 Update text into one update operation.

    Supported forms: ``INSERT DATA { ... }``, ``DELETE DATA { ... }``,
    ``DELETE WHERE { ... }``, and the modify form
    ``[DELETE { t }] [INSERT { t }] WHERE { pattern }``.  Returns an
    :class:`~repro.sparql.ast.InsertDataUpdate`,
    :class:`~repro.sparql.ast.DeleteDataUpdate`, or
    :class:`~repro.sparql.ast.ModifyUpdate`.
    """
    return _Parser(text, extra_prefixes).parse_update()


class _Parser:
    """Single-use recursive descent parser instance."""

    def __init__(self, text, extra_prefixes=None):
        self._tokens = tokenize(text)
        self._index = 0
        self._prefixes = dict(DEFAULT_PREFIXES)
        if extra_prefixes:
            self._prefixes.update(extra_prefixes)

    # -- token plumbing -----------------------------------------------------

    def _peek(self, offset=0):
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self):
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _expect(self, kind, value=None):
        token = self._peek()
        if token.kind != kind or (value is not None and token.upper() != value.upper()):
            expected = value or kind
            raise SparqlSyntaxError(
                f"expected {expected}, found {token.value!r}", token.position
            )
        return self._advance()

    def _at_keyword(self, *words):
        token = self._peek()
        return token.kind == "KEYWORD" and token.upper() in {w.upper() for w in words}

    def _take_keyword(self, *words):
        if self._at_keyword(*words):
            return self._advance()
        return None

    # -- entry point ----------------------------------------------------------

    def parse(self):
        self._parse_prologue()
        if self._at_keyword("SELECT"):
            query = self._parse_select()
        elif self._at_keyword("ASK"):
            query = self._parse_ask()
        else:
            token = self._peek()
            raise SparqlSyntaxError(
                f"expected SELECT or ASK, found {token.value!r}", token.position
            )
        token = self._peek()
        if token.kind != "EOF":
            raise SparqlSyntaxError(
                f"unexpected trailing input {token.value!r}", token.position
            )
        return query

    def _parse_prologue(self):
        while self._take_keyword("PREFIX"):
            ns_token = self._peek()
            if ns_token.kind == "PNAME_NS":
                prefix = ns_token.value[:-1]
                self._advance()
            elif ns_token.kind == "QNAME" and ns_token.value.endswith(":"):
                prefix = ns_token.value[:-1]
                self._advance()
            else:
                raise SparqlSyntaxError(
                    f"expected prefix name, found {ns_token.value!r}", ns_token.position
                )
            iri_token = self._expect("IRI")
            self._prefixes[prefix] = Namespace(iri_token.value[1:-1])

    # -- query forms ----------------------------------------------------------

    def _parse_select(self):
        self._expect("KEYWORD", "SELECT")
        distinct = bool(self._take_keyword("DISTINCT") or self._take_keyword("REDUCED"))
        variables = []
        aggregates = []
        if self._peek().kind == "STAR":
            self._advance()
        else:
            while True:
                token = self._peek()
                if token.kind == "VAR":
                    variables.append(Variable(self._advance().value))
                    continue
                if token.kind == "LPAREN":
                    aggregates.append(self._parse_aggregate_item())
                    continue
                break
            if not variables and not aggregates:
                token = self._peek()
                raise SparqlSyntaxError(
                    f"expected projection variables or '*', found {token.value!r}",
                    token.position,
                )
        self._take_keyword("WHERE")
        where = self._parse_group()
        group_by = self._parse_group_by()
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit_offset()
        return ast.SelectQuery(
            variables=variables,
            where=where,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
            prefixes=dict(self._prefixes),
            aggregates=aggregates,
            group_by=group_by,
        )

    _AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    def _parse_aggregate_item(self):
        """Parse ``(COUNT(DISTINCT ?x) AS ?alias)`` style SELECT items."""
        self._expect("LPAREN")
        token = self._peek()
        if not self._at_keyword(*self._AGGREGATE_FUNCTIONS):
            raise SparqlSyntaxError(
                f"expected an aggregate function, found {token.value!r}", token.position
            )
        function = self._advance().upper()
        self._expect("LPAREN")
        distinct = bool(self._take_keyword("DISTINCT"))
        if self._peek().kind == "STAR":
            self._advance()
            variable = None
        else:
            variable = Variable(self._expect("VAR").value)
        self._expect("RPAREN")
        self._expect("KEYWORD", "AS")
        alias = Variable(self._expect("VAR").value)
        self._expect("RPAREN")
        if function != "COUNT" and variable is None:
            raise SparqlSyntaxError(f"{function}(*) is not supported", token.position)
        return ast.Aggregate(function=function, variable=variable,
                             alias=alias, distinct=distinct)

    def _parse_group_by(self):
        variables = []
        if self._take_keyword("GROUP"):
            self._expect("KEYWORD", "BY")
            while self._peek().kind == "VAR":
                variables.append(Variable(self._advance().value))
            if not variables:
                token = self._peek()
                raise SparqlSyntaxError("GROUP BY without variables", token.position)
        return variables

    def _parse_ask(self):
        self._expect("KEYWORD", "ASK")
        self._take_keyword("WHERE")
        where = self._parse_group()
        return ast.AskQuery(where=where, prefixes=dict(self._prefixes))

    # -- update forms ---------------------------------------------------------

    def parse_update(self):
        """Entry point for SPARQL 1.1 Update text (one operation)."""
        self._parse_prologue()
        if self._at_keyword("INSERT"):
            self._advance()
            if self._take_keyword("DATA"):
                triples = self._parse_triple_template(ground=True)
                update = ast.InsertDataUpdate(triples=triples,
                                              prefixes=dict(self._prefixes))
            else:
                update = self._parse_modify(delete_templates=[])
        elif self._at_keyword("DELETE"):
            self._advance()
            if self._take_keyword("DATA"):
                triples = self._parse_triple_template(ground=True,
                                                      allow_bnodes=False)
                update = ast.DeleteDataUpdate(triples=triples,
                                              prefixes=dict(self._prefixes))
            elif self._take_keyword("WHERE"):
                # DELETE WHERE { P } is shorthand for DELETE { P } WHERE { P }.
                where = self._parse_group()
                patterns = self._only_triple_patterns(where)
                update = ast.ModifyUpdate(delete_templates=patterns,
                                          insert_templates=[],
                                          where=where,
                                          prefixes=dict(self._prefixes))
            else:
                deletes = self._parse_triple_template(allow_bnodes=False)
                if self._take_keyword("INSERT"):
                    update = self._parse_modify(delete_templates=deletes)
                else:
                    update = self._parse_modify(delete_templates=deletes,
                                                insert_templates=[])
        else:
            token = self._peek()
            raise SparqlSyntaxError(
                f"expected INSERT or DELETE, found {token.value!r}",
                token.position,
            )
        token = self._peek()
        if token.kind != "EOF":
            raise SparqlSyntaxError(
                f"unexpected trailing input {token.value!r}", token.position
            )
        return update

    def _parse_modify(self, delete_templates, insert_templates=None):
        """Finish a modify form after its DELETE (and maybe INSERT) keyword.

        Called with ``insert_templates=None`` when an ``INSERT { t }`` block
        still has to be parsed; the WHERE clause is mandatory either way.
        """
        if insert_templates is None:
            insert_templates = self._parse_triple_template()
        if not delete_templates and not insert_templates:
            token = self._peek()
            raise SparqlSyntaxError(
                "update with empty DELETE and INSERT templates", token.position
            )
        self._expect("KEYWORD", "WHERE")
        where = self._parse_group()
        return ast.ModifyUpdate(delete_templates=delete_templates,
                                insert_templates=insert_templates,
                                where=where,
                                prefixes=dict(self._prefixes))

    def _parse_triple_template(self, ground=False, allow_bnodes=True):
        """Parse a ``{ triples }`` block into a list of triple (patterns).

        ``ground=True`` rejects variables (the DATA forms insert/delete
        verbatim triples); ``allow_bnodes=False`` additionally rejects blank
        nodes (DELETE templates, where a blank node could never match).
        """
        open_token = self._expect("LBRACE")
        group = ast.GroupGraphPattern()
        while True:
            token = self._peek()
            if token.kind == "RBRACE":
                self._advance()
                break
            if token.kind == "EOF":
                raise SparqlSyntaxError("unterminated triple template",
                                        token.position)
            self._parse_triples_block(group)
        triples = []
        for element in group.elements:
            pattern = element.pattern
            for term in (pattern.subject, pattern.predicate, pattern.object):
                if ground and isinstance(term, Variable):
                    raise SparqlSyntaxError(
                        f"variable {term.n3()} not allowed in a DATA block",
                        open_token.position,
                    )
                if not allow_bnodes and isinstance(term, BNode):
                    raise SparqlSyntaxError(
                        f"blank node {term.n3()} not allowed in a DELETE "
                        "template", open_token.position,
                    )
            triples.append(pattern)
        return triples

    def _only_triple_patterns(self, group):
        """The triple patterns of a DELETE WHERE group (nothing else allowed)."""
        patterns = []
        for element in group.elements:
            if not isinstance(element, ast.TriplePatternNode):
                raise SparqlSyntaxError(
                    f"DELETE WHERE allows only triple patterns, found "
                    f"{element!s}", None,
                )
            for term in (element.pattern.subject, element.pattern.predicate,
                         element.pattern.object):
                if isinstance(term, BNode):
                    raise SparqlSyntaxError(
                        f"blank node {term.n3()} not allowed in DELETE WHERE",
                        None,
                    )
            patterns.append(element.pattern)
        return patterns

    def _parse_order_by(self):
        conditions = []
        if self._take_keyword("ORDER"):
            self._expect("KEYWORD", "BY")
            while True:
                ascending = True
                if self._take_keyword("ASC"):
                    self._expect("LPAREN")
                    variable = Variable(self._expect("VAR").value)
                    self._expect("RPAREN")
                elif self._take_keyword("DESC"):
                    ascending = False
                    self._expect("LPAREN")
                    variable = Variable(self._expect("VAR").value)
                    self._expect("RPAREN")
                elif self._peek().kind == "VAR":
                    variable = Variable(self._advance().value)
                else:
                    break
                conditions.append((variable, ascending))
            if not conditions:
                token = self._peek()
                raise SparqlSyntaxError("ORDER BY without conditions", token.position)
        return conditions

    def _parse_limit_offset(self):
        limit = None
        offset = 0
        # LIMIT and OFFSET may appear in either order.
        for _ in range(2):
            if self._take_keyword("LIMIT"):
                limit = self._parse_count()
            elif self._take_keyword("OFFSET"):
                offset = self._parse_count()
        return limit, offset

    def _parse_count(self):
        """A LIMIT or OFFSET value: an integer of digits only."""
        token = self._expect("NUMBER")
        if not token.value.isdigit():
            raise SparqlSyntaxError(
                f"expected a non-negative integer, found {token.value!r}", token.position)
        return _integer(token)

    # -- graph patterns ---------------------------------------------------------

    def _parse_group(self):
        self._expect("LBRACE")
        group = ast.GroupGraphPattern()
        while True:
            token = self._peek()
            if token.kind == "RBRACE":
                self._advance()
                return group
            if token.kind == "EOF":
                raise SparqlSyntaxError("unterminated group graph pattern", token.position)
            if self._at_keyword("FILTER"):
                self._advance()
                group.elements.append(ast.FilterNode(self._parse_filter_constraint()))
                self._take_dot()
                continue
            if self._at_keyword("OPTIONAL"):
                self._advance()
                group.elements.append(ast.OptionalNode(self._parse_group()))
                self._take_dot()
                continue
            if token.kind == "LBRACE":
                group.elements.append(self._parse_group_or_union())
                self._take_dot()
                continue
            self._parse_triples_block(group)
        # unreachable
        return group

    def _take_dot(self):
        if self._peek().kind == "DOT":
            self._advance()
            return True
        return False

    def _parse_group_or_union(self):
        branches = [self._parse_group()]
        while self._take_keyword("UNION"):
            branches.append(self._parse_group())
        if len(branches) == 1:
            return branches[0]
        return ast.UnionNode(tuple(branches))

    def _parse_triples_block(self, group):
        """Parse one subject with its predicate-object list."""
        subject = self._parse_term(position="subject")
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_term(position="object")
                group.elements.append(
                    ast.TriplePatternNode(Triple(subject, predicate, obj))
                )
                if self._peek().kind == "COMMA":
                    self._advance()
                    continue
                break
            if self._peek().kind == "SEMICOLON":
                self._advance()
                # A dangling ';' before '}' or '.' is tolerated.
                if self._peek().kind in ("RBRACE", "DOT"):
                    break
                continue
            break
        self._take_dot()

    def _parse_verb(self):
        token = self._peek()
        if token.kind == "KEYWORD" and token.upper() == "A":
            self._advance()
            return RDF.type
        term = self._parse_term(position="predicate")
        if isinstance(term, (URIRef, Variable)):
            return term
        raise SparqlSyntaxError(
            f"invalid predicate {token.value!r}", token.position
        )

    def _parse_term(self, position):
        token = self._peek()
        if token.kind == "VAR":
            self._advance()
            return Variable(token.value)
        if token.kind == "IRI":
            self._advance()
            return _iri(token)
        if token.kind == "QNAME":
            self._advance()
            return self._expand_qname(token)
        if token.kind == "BLANK":
            self._advance()
            return BNode(token.value[2:])
        if token.kind == "STRING" and position == "object":
            return self._parse_literal()
        if token.kind == "NUMBER" and position == "object":
            self._advance()
            return _number_literal(token)
        if token.kind == "KEYWORD" and token.upper() in ("TRUE", "FALSE"):
            self._advance()
            return Literal(token.upper() == "TRUE")
        raise SparqlSyntaxError(
            f"unexpected token {token.value!r} in {position} position", token.position
        )

    def _expand_qname(self, token):
        prefix, _, local = token.value.partition(":")
        namespace = self._prefixes.get(prefix)
        if namespace is None:
            raise SparqlSyntaxError(f"unknown prefix {prefix!r}", token.position)
        base = namespace.base if isinstance(namespace, Namespace) else str(namespace)
        return URIRef(base + local)

    def _parse_literal(self):
        token = self._expect("STRING")
        lexical = _unescape_string(token.value[1:-1], token.position)
        datatype = None
        if self._peek().kind == "TYPED_HINT":
            self._advance()
            datatype_token = self._peek()
            if datatype_token.kind == "IRI":
                self._advance()
                datatype = _iri(datatype_token).value
            elif datatype_token.kind == "QNAME":
                self._advance()
                datatype = self._expand_qname(datatype_token).value
            else:
                raise SparqlSyntaxError(
                    "expected datatype IRI after '^^'", datatype_token.position
                )
        return Literal(lexical, datatype=datatype)

    # -- filter expressions ------------------------------------------------------

    def _parse_filter_constraint(self):
        if self._peek().kind == "LPAREN":
            self._advance()
            expression = self._parse_expression()
            self._expect("RPAREN")
            return expression
        return self._parse_builtin_or_primary()

    def _parse_expression(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self._peek().kind == "OR":
            self._advance()
            left = ast.Or(left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_relational()
        while self._peek().kind == "AND":
            self._advance()
            left = ast.And(left, self._parse_relational())
        return left

    _COMPARISON_KINDS = {
        "EQ": "=",
        "NEQ": "!=",
        "LT": "<",
        "GT": ">",
        "LE": "<=",
        "GE": ">=",
    }

    def _parse_relational(self):
        left = self._parse_unary()
        token = self._peek()
        if token.kind in self._COMPARISON_KINDS:
            operator = self._COMPARISON_KINDS[token.kind]
            self._advance()
            right = self._parse_unary()
            return ast.Comparison(operator, left, right)
        return left

    def _parse_unary(self):
        token = self._peek()
        if token.kind == "BANG":
            self._advance()
            return ast.Not(self._parse_unary())
        if token.kind == "LPAREN":
            self._advance()
            expression = self._parse_expression()
            self._expect("RPAREN")
            return expression
        return self._parse_builtin_or_primary()

    def _parse_builtin_or_primary(self):
        token = self._peek()
        if self._at_keyword("BOUND"):
            self._advance()
            self._expect("LPAREN")
            variable = Variable(self._expect("VAR").value)
            self._expect("RPAREN")
            return ast.Bound(variable)
        if self._at_keyword("REGEX"):
            self._advance()
            self._expect("LPAREN")
            text = self._parse_expression()
            self._expect("COMMA")
            pattern = self._parse_expression()
            flags = None
            if self._peek().kind == "COMMA":
                self._advance()
                flags = self._parse_expression()
            self._expect("RPAREN")
            return ast.Regex(text, pattern, flags)
        if token.kind == "VAR":
            self._advance()
            return ast.TermExpression(Variable(token.value))
        if token.kind == "IRI":
            self._advance()
            return ast.TermExpression(_iri(token))
        if token.kind == "QNAME":
            self._advance()
            return ast.TermExpression(self._expand_qname(token))
        if token.kind == "STRING":
            return ast.TermExpression(self._parse_literal())
        if token.kind == "NUMBER":
            self._advance()
            return ast.TermExpression(_number_literal(token))
        if token.kind == "KEYWORD" and token.upper() in ("TRUE", "FALSE"):
            self._advance()
            return ast.TermExpression(Literal(token.upper() == "TRUE"))
        raise SparqlSyntaxError(
            f"unexpected token {token.value!r} in expression", token.position
        )


def _number_literal(token):
    if "." in token.value:
        return Literal(float(token.value))
    return Literal(_integer(token))


def _integer(token):
    """An integer token's value; one longer than ``int()`` parses (4 300
    digits by default) is a syntax error."""
    try:
        return int(token.value)
    except ValueError:
        raise SparqlSyntaxError(f"integer of {len(token.value)} characters is too long",
                                token.position) from None


def _iri(token):
    """The IRI an IRI token spells.  ``<>`` would be the base IRI, and the
    fragment has none: a syntax error, not an empty URIRef."""
    if token.value == "<>":
        raise SparqlSyntaxError("empty IRI <> is not supported", token.position)
    return URIRef(token.value[1:-1])


_STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "'": "'"}

#: One escape sequence of a string body: a backslash and ``uXXXX``,
#: ``UXXXXXXXX`` or any other character.
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)


def _unescape_string(text, position):
    """Decode the escapes of a string body.  A ``u``/``U`` escape not
    followed by 4/8 hex digits, or naming no Unicode scalar value, is a
    syntax error; an unknown escape stays as written."""
    def decode(match):
        digits = match.group(1) or match.group(2)
        if digits is None:
            escape = match.group(3)
            if escape in "uU":
                raise SparqlSyntaxError(f"malformed \\{escape} escape in string",
                                        position)
            return _STRING_ESCAPES.get(escape, match.group())
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise SparqlSyntaxError(
                f"escape {match.group()!r} names no Unicode character", position)
        return chr(code)

    return _ESCAPE.sub(decode, text)
