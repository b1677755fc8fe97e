"""W3C SPARQL-results serializers: JSON, XML, CSV, and TSV.

Implements the result exchange formats a serving frontend speaks:

* ``json`` — SPARQL 1.1 Query Results JSON Format (``application/
  sparql-results+json``): a ``head.vars`` list plus one term object per
  binding (``{"type": "uri"|"literal"|"bnode", "value": ...}`` with optional
  ``datatype`` / ``xml:lang``); ASK answers become ``{"boolean": ...}``.
* ``xml`` — SPARQL Query Results XML Format (``application/
  sparql-results+xml``): ``<sparql>`` with a ``<head>`` of variables and a
  ``<results>`` of ``<result>``/``<binding>`` elements (``<uri>``,
  ``<bnode>``, ``<literal>`` with ``xml:lang`` / ``datatype``); ASK answers
  become a ``<boolean>`` element.
* ``csv`` — SPARQL 1.1 Query Results CSV: bare variable names in the header,
  plain lexical values (IRIs unbracketed, blank nodes as ``_:label``),
  RFC 4180 quoting and CRLF line endings.
* ``tsv`` — SPARQL 1.1 Query Results TSV: ``?var`` headers and terms in
  their SPARQL (N-Triples) surface syntax, one solution per line.

Every ``write_*`` function streams: it consumes the solution iterable
exactly once, a chunk of at most ``BLOCK_ROWS`` rows at a time, so
serializing a cursor never materializes the result — the serialization
path has the same time-to-first-byte as the cursor has time-to-first-row.
A chunk is encoded a column at a time: each projected column maps its
cells through one per-result memo of finished fragments (an id is decoded
and encoded once), and the writer lays the columns between its format's
separators by slice assignment and joins them once.  :func:`serialize`
collects the pieces in a list and joins them once.  CSV/TSV have no
W3C-defined ASK form; a single ``true``/``false`` line is emitted, matching
common endpoint practice.
"""

from __future__ import annotations

import json
import re
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter, itemgetter, methodcaller
from types import SimpleNamespace
from xml.sax.saxutils import escape, quoteattr

from ..rdf.terms import BNode, Literal, URIRef
from .bindings import variable_name
from .kernels import BLOCK_ROWS

#: Formats understood by :func:`serialize` / :func:`write` (and the CLI).
FORMATS = ("json", "xml", "csv", "tsv")

#: Canonical media type of each format — what the SPARQL Protocol server
#: sends as Content-Type (keys are the :data:`FORMATS` entries).
CONTENT_TYPES = {
    "json": "application/sparql-results+json",
    "xml": "application/sparql-results+xml",
    "csv": "text/csv; charset=utf-8",
    "tsv": "text/tab-separated-values; charset=utf-8",
}

#: XML namespace of the SPARQL Query Results XML Format.
SPARQL_RESULTS_NS = "http://www.w3.org/2005/sparql-results#"

_shape_of = attrgetter("_shape")
_row_of = attrgetter("_row")
_n3 = methodcaller("n3")


def _json_cell(name):
    """``term -> '"name": {...}'``: the member ``json.dumps`` would emit."""
    head = _json_string(name) + ': {"type": '
    uri = head + '"uri", "value": '
    bnode = head + '"bnode", "value": '
    literal = head + '"literal", "value": '

    def encode(term):
        if isinstance(term, Literal):
            if term.language is not None:
                tail = ', "xml:lang": ' + _json_string(term.language) + "}"
            elif term.datatype is not None:
                tail = ', "datatype": ' + _json_string(term.datatype) + "}"
            else:
                tail = "}"
            return literal + _json_string(term.lexical) + tail
        if isinstance(term, URIRef):
            return uri + _json_string(term.value) + "}"
        if isinstance(term, BNode):
            return bnode + _json_string(term.label) + "}"
        raise TypeError(f"cannot serialize term {term!r}")

    return encode


def _xml_cell(name):
    """``term -> '<binding name="name">...</binding>'``."""
    head = f"<binding name={quoteattr(name)}>"

    def encode(term):
        if isinstance(term, Literal):
            if term.language is not None:
                attribute = f" xml:lang={quoteattr(term.language)}"
            elif term.datatype is not None:
                attribute = f" datatype={quoteattr(term.datatype)}"
            else:
                attribute = ""
            inner = f"<literal{attribute}>{escape(term.lexical)}</literal>"
        elif isinstance(term, URIRef):
            inner = f"<uri>{escape(term.value)}</uri>"
        elif isinstance(term, BNode):
            inner = f"<bnode>{escape(term.label)}</bnode>"
        else:
            raise TypeError(f"cannot serialize term {term!r}")
        return f"{head}{inner}</binding>"

    return encode


#: Characters that make a CSV field quoted (RFC 4180, as ``csv.writer``
#: quotes with its defaults): the delimiter, the quote, a line break.
_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_field(text):
    if _CSV_QUOTED.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cell(_name):
    """``term -> plain lexical value`` (IRIs unbracketed, ``_:label``), as
    a finished CSV field."""

    def encode(term):
        if isinstance(term, Literal):
            return _csv_field(term.lexical)
        if isinstance(term, URIRef):
            return _csv_field(term.value)
        if isinstance(term, BNode):
            return _csv_field(f"_:{term.label}")
        raise TypeError(f"cannot serialize term {term!r}")

    return encode


def _tsv_cell(_name):
    """``term -> its N-Triples surface syntax``."""
    return _n3


class _Fragments(dict):
    """``cell -> finished fragment`` for one column of one result.

    A cell of a lazy row is a dictionary id — decoded and encoded here
    once, however many rows repeat it — a computed term (aggregates), or
    ``None`` (unbound: the ``unbound`` fragment).
    """

    __slots__ = ("_term", "_encode")

    def __init__(self, term, encode, unbound):
        self[None] = unbound
        self._term = term
        self._encode = encode

    def __missing__(self, cell):
        fragment = self[cell] = self._encode(self._term(cell))
        return fragment


def _encoded_chunks(names, bindings, encoders, unbound=""):
    """The one loop behind all four writers.

    Yields, per chunk of at most ``BLOCK_ROWS`` solutions (the cursor's
    batch size), ``(count, columns)``: the chunk's row count and one list of
    finished fragments per projected column (``unbound`` where unbound) — a
    writer only joins strings, and a cursor is consumed chunk by chunk,
    never materialized.  Rows that are still id tuples (``binding._shape``
    is the layout their result shares) are projected by slot and encoded
    through one :class:`_Fragments` memo per column, kept for the life of
    the result; eager rows hand over terms, which are encoded directly.
    """
    shape = memos = None
    bindings = iter(bindings)
    while True:
        chunk = list(islice(bindings, BLOCK_ROWS))
        if not chunk:
            return
        columns = [[] for _name in names]
        for row_shape, run in groupby(chunk, _shape_of):
            if row_shape is None:
                terms = zip(*[binding.row(names) for binding in run])
                for column, encode, cells in zip(columns, encoders, terms):
                    column.extend([unbound if term is None else encode(term)
                                   for term in cells])
                continue
            if row_shape is not shape:
                shape = row_shape
                memos = [(shape.slot(name), _Fragments(shape.term, encode, unbound))
                         for name, encode in zip(names, encoders)]
            id_rows = list(map(_row_of, run))
            for column, (slot, memo) in zip(columns, memos):
                column.extend([unbound] * len(id_rows) if slot is None else
                              map(memo.__getitem__, map(itemgetter(slot), id_rows)))
        yield len(chunk), columns


def _joined(count, columns, first, between, separator, last):
    """One chunk's text from its columns: ``first``, then each row's
    fragments joined by ``separator`` with ``between`` between rows, then
    ``last`` — one flat list filled by C-level slice assignment, one
    ``join``."""
    if len(columns) == 1:
        return first + between.join(columns[0]) + last
    stride = max(2 * len(columns), 1)
    parts = [separator] * (stride * count)
    parts[::stride] = [between] * count
    parts[0] = first
    for index, column in enumerate(columns):
        parts[2 * index + 1::stride] = column
    parts.append(last)
    return "".join(parts)


def write_json(fp, variables, bindings):
    """Stream a SELECT solution sequence as SPARQL-results JSON."""
    names = [variable_name(v) for v in variables]
    fp.write('{"head": {"vars": [%s]}, "results": {"bindings": ['
             % ", ".join(map(_json_string, names)))
    count = 0
    for rows, columns in _encoded_chunks(names, bindings, list(map(_json_cell, names))):
        if count:
            fp.write(", ")
        if all(map(all, columns)):
            fp.write(_joined(rows, columns, "{", "}, {", ", ", "}"))
        else:
            # An unbound cell (an empty fragment) is a member left out: the
            # chunk's rows are joined one by one.
            fp.write(", ".join(["{%s}" % ", ".join(filter(None, row))
                                for row in zip(*columns)]))
        count += rows
    fp.write("]}}")
    return count


def _write_xml_prologue(fp, variables):
    fp.write('<?xml version="1.0"?>\n')
    fp.write(f'<sparql xmlns="{SPARQL_RESULTS_NS}">')
    fp.write("<head>")
    for name in variables:
        fp.write(f"<variable name={quoteattr(name)}/>")
    fp.write("</head>")


def write_xml(fp, variables, bindings):
    """Stream a SELECT solution sequence as SPARQL-results XML."""
    names = [variable_name(v) for v in variables]
    _write_xml_prologue(fp, names)
    fp.write("<results>")
    count = 0
    for rows, columns in _encoded_chunks(names, bindings, list(map(_xml_cell, names))):
        fp.write(_joined(rows, columns, "<result>", "</result><result>", "", "</result>"))
        count += rows
    fp.write("</results></sparql>")
    return count


def write_csv(fp, variables, bindings):
    """Stream a SELECT solution sequence as SPARQL-results CSV."""
    names = [variable_name(v) for v in variables]
    encoders = list(map(_csv_cell, names))
    unbound = ""
    if len(names) == 1:
        # A row of one empty field is quoted, or it would read as no field.
        (encode,) = encoders
        encoders, unbound = [lambda term: encode(term) or '""'], '""'
    fp.write(",".join(map(_csv_field, names)) + "\r\n")
    count = 0
    for rows, columns in _encoded_chunks(names, bindings, encoders, unbound):
        fp.write(_joined(rows, columns, "", "\r\n", ",", "\r\n"))
        count += rows
    return count


def write_tsv(fp, variables, bindings):
    """Stream a SELECT solution sequence as SPARQL-results TSV."""
    names = [variable_name(v) for v in variables]
    fp.write("\t".join("?" + name for name in names) + "\n")
    count = 0
    for rows, columns in _encoded_chunks(names, bindings, list(map(_tsv_cell, names))):
        fp.write(_joined(rows, columns, "", "\n", "\t", "\n"))
        count += rows
    return count


def write_ask_json(fp, value):
    fp.write(json.dumps({"head": {}, "boolean": bool(value)}))
    return 1


def write_ask_xml(fp, value):
    _write_xml_prologue(fp, ())
    fp.write(f"<boolean>{'true' if value else 'false'}</boolean></sparql>")
    return 1


def write_ask_csv(fp, value):
    fp.write("true\r\n" if value else "false\r\n")
    return 1


def write_ask_tsv(fp, value):
    fp.write("true\n" if value else "false\n")
    return 1


_SELECT_WRITERS = {
    "json": write_json, "xml": write_xml, "csv": write_csv, "tsv": write_tsv,
}
_ASK_WRITERS = {
    "json": write_ask_json, "xml": write_ask_xml,
    "csv": write_ask_csv, "tsv": write_ask_tsv,
}


def write(fp, variables, result, format="json"):
    """Stream-serialize a result (cursor or eager container) to ``fp``.

    ``result`` is either an iterable of solution bindings (SELECT) or an
    ASK-formed object exposing a boolean ``value``.  Returns the number of
    rows written.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown result format {format!r} (expected one of {FORMATS})")
    if getattr(result, "form", None) == "ASK":
        return _ASK_WRITERS[format](fp, bool(result))
    return _SELECT_WRITERS[format](fp, variables, result)


def serialize(variables, result, format="json"):
    """Serialize a result into one string; see :func:`write`.  The writer's
    pieces are collected in a list and joined once."""
    pieces = []
    write(SimpleNamespace(write=pieces.append), variables, result, format)
    return "".join(pieces)
