"""Versioned binary snapshots of triple stores (the persistent-store model).

SP2Bench separates document generation and loading from query time, and the
paper reports loading times per engine precisely because native engines
(Sesame-native, Virtuoso) amortize the expensive physical build into a
reusable on-disk database (Section V).  This module is that on-disk database
for the reproduction: a store is serialized once — term dictionary and
id-triple list — and later runs rebuild a store from those sections without
parsing or dictionary encoding (an ``IndexedStore`` sorts its four permutations
from the id triples).  Both families write the same payload and load any
snapshot, with the ids unchanged.

File layout (all integers little-endian)::

    magic    8s   b"SP2BSNAP"
    version  u16  FORMAT_VERSION
    kind     u8   reserved (0)
    flags    u8   reserved (0)
    meta_len u32  length of the metadata JSON that follows the header
    data_len u64  length of the payload that follows the metadata
    crc32    u32  CRC-32 of metadata + payload
    metadata      JSON object (generator config, statistics, free-form)
    payload       dictionary and triples sections (see _pack)

The version is bumped whenever the payload layout changes; readers reject
every other version (callers such as the dataset cache then rebuild).  The
CRC guards against truncated or bit-rotted cache entries; a CRC-valid payload
is still checked for trailing bytes and for ids outside the dictionary.
"""

from __future__ import annotations

import gc
import json
import os
import struct
import sys
import zlib
from array import array
from itertools import chain

from ..rdf.terms import BNode, Literal, URIRef
from .dictionary import TermDictionary

MAGIC = b"SP2BSNAP"

#: Bump on any payload layout change; this build reads no other version
#: (docs/snapshot-format.md lists what each version changed).
FORMAT_VERSION = 6

_HEADER = struct.Struct("<8sHBBIQI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Term kind tags in the dictionary section.
_TERM_URI = 0
_TERM_BNODE = 1
_TERM_LITERAL = 2


class SnapshotError(Exception):
    """Base class for snapshot read/write failures."""


class SnapshotFormatError(SnapshotError):
    """The file is not an SP2Bench snapshot (or its structure is malformed)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible format version."""


class SnapshotCorruptError(SnapshotError):
    """The snapshot is truncated or fails its integrity check."""


# -- public API --------------------------------------------------------------


def save_snapshot(store, path, metadata=None):
    """Serialize ``store`` to a snapshot file at ``path`` (atomically).

    ``metadata`` is an optional JSON-serializable dict stored alongside the
    payload; :func:`read_snapshot_metadata` retrieves it without loading the
    store.  Returns ``path``.
    """
    out = []
    _pack(out, store)
    payload = b"".join(out)
    meta = dict(metadata or {})
    meta.setdefault("triples", len(store))
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    crc = zlib.crc32(payload, zlib.crc32(meta_bytes))
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, 0, 0, len(meta_bytes), len(payload), crc
    )
    # Write-then-rename keeps concurrent readers (and interrupted writers)
    # from ever observing a half-written snapshot; a failed write must not
    # leak its temp file into the cache directory.
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(header)
            handle.write(meta_bytes)
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def load_snapshot(path, family=None):
    """Load a snapshot file as a store of ``family`` (an ``IndexedStore``
    unless given; ``MemoryStore`` loads the same files).

    Raises :class:`SnapshotFormatError` / :class:`SnapshotVersionError` /
    :class:`SnapshotCorruptError` on invalid input — callers holding a cache
    treat any :class:`SnapshotError` as a miss and rebuild.
    """
    if family is None:
        # Imported here: the store modules import this module from load().
        from .indexed_store import IndexedStore as family
    with open(path, "rb") as handle:
        data = handle.read()
    payload = _split(path, data)
    # Rebuilding a store allocates hundreds of thousands of tracked
    # containers at once; pausing the generational collector for the burst
    # shaves ~30% off load time (nothing allocated here can be cyclic
    # garbage — every object ends up reachable from the returned store).
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        dictionary, flat = _unpack(path, payload)
        store = family._from_snapshot(dictionary, flat)
    finally:
        if was_enabled:
            gc.enable()
    if len(store) != len(flat) // 3:
        raise SnapshotCorruptError(f"{path}: duplicate triples in snapshot")
    return store


def read_snapshot_metadata(path):
    """Return the metadata dict of a snapshot without loading its payload."""
    with open(path, "rb") as handle:
        head = handle.read(_HEADER.size)
        meta_len = _check_header(path, head)[4]
        meta_bytes = handle.read(meta_len)
    if len(meta_bytes) != meta_len:
        raise SnapshotCorruptError(f"{path}: truncated snapshot metadata")
    try:
        return json.loads(meta_bytes.decode("utf-8"))
    except ValueError as error:
        raise SnapshotCorruptError(f"{path}: unreadable snapshot metadata") from error


# -- container framing -------------------------------------------------------


def _check_header(path, head):
    """Validate the fixed header and return its unpacked fields."""
    if len(head) < _HEADER.size or head[:8] != MAGIC:
        raise SnapshotFormatError(f"{path}: not an SP2Bench snapshot")
    fields = _HEADER.unpack(head[: _HEADER.size])
    if fields[1] != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{path}: snapshot format version {fields[1]}, this build reads "
            f"version {FORMAT_VERSION}"
        )
    if fields[2] or fields[3]:
        raise SnapshotFormatError(f"{path}: reserved header bytes are set")
    return fields


def _split(path, data):
    """The CRC-checked payload of a whole snapshot file."""
    _magic, _version, _kind, _flags, meta_len, data_len, crc = _check_header(path, data)
    data_start = _HEADER.size + meta_len
    if len(data) < data_start + data_len:
        raise SnapshotCorruptError(f"{path}: truncated snapshot")
    if len(data) > data_start + data_len:
        raise SnapshotCorruptError(f"{path}: trailing data after the snapshot")
    payload = data[data_start:]
    if zlib.crc32(payload, zlib.crc32(data[_HEADER.size:data_start])) != crc:
        raise SnapshotCorruptError(f"{path}: snapshot integrity check failed")
    return payload


# -- low-level helpers -------------------------------------------------------


def _u32_array(values):
    """Pack an iterable of ints as a little-endian u32 array."""
    packed = array("I", values)
    if packed.itemsize != 4:
        # Exotic platform where C unsigned int is not 32-bit: repack exactly.
        return struct.pack(f"<{len(packed)}I", *packed)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


class _Reader:
    """Sequential reader over a payload bytes object."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data):
        self._data = data
        self._pos = 0

    def _unpack(self, fmt):
        try:
            value = fmt.unpack_from(self._data, self._pos)[0]
        except struct.error as error:
            raise SnapshotCorruptError("snapshot payload ends prematurely") from error
        self._pos += fmt.size
        return value

    def u32(self):
        return self._unpack(_U32)

    def u64(self):
        return self._unpack(_U64)

    def raw(self, length):
        end = self._pos + length
        if end > len(self._data):
            raise SnapshotCorruptError("snapshot payload ends prematurely")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def u32_array(self, count):
        chunk = self.raw(4 * count)
        values = array("I")
        if values.itemsize != 4:
            return array("Q", struct.unpack(f"<{count}I", chunk))
        values.frombytes(chunk)
        if sys.byteorder == "big":
            values.byteswap()
        return values

    def string(self):
        return self.raw(self.u32()).decode("utf-8")


def _append_string(out, text):
    encoded = text.encode("utf-8")
    out.append(_U32.pack(len(encoded)))
    out.append(encoded)


# -- payload ------------------------------------------------------------------
#
# Two sections, whichever family saved the store:
#   dictionary   term kinds + datatype/language tables + one shared text blob
#   triples      the id-triple list as a flat u32 array (SPO order for an
#                IndexedStore, scan order for a MemoryStore)


def _pack(out, store):
    _pack_dictionary(out, store.dictionary)
    # An IndexedStore yields its triples in SPO order, so its file is
    # deterministic and a load's sort finds them sorted; a MemoryStore's
    # triples are its scan order, kept.
    flat = array("I", chain.from_iterable(store.triples_ids()))
    out.append(_U32.pack(len(flat) // 3))
    out.append(_u32_array(flat))


def _unpack(path, payload):
    """``(dictionary, flat)`` of a CRC-checked payload, where ``flat`` is an
    ``array('I')`` of the triples' subject, predicate and object ids."""
    reader = _Reader(payload)
    try:
        terms = _unpack_dictionary(reader)
        flat = reader.u32_array(3 * reader.u32())
        if reader._pos != len(payload):
            raise SnapshotCorruptError(
                f"payload has {len(payload) - reader._pos} byte(s) after its last section")
        # A CRC-valid file can still be crafted: an id past the dictionary
        # would load and then fail the first query that decodes it.
        limit = len(terms)
        if flat and max(flat) >= limit:
            raise SnapshotCorruptError(f"a term id is not in the {limit}-term dictionary")
        dictionary = TermDictionary.from_terms(terms)
        if len(dictionary._term_to_id) != limit:
            raise SnapshotCorruptError("duplicate terms in the dictionary")
    except SnapshotError as error:
        raise type(error)(f"{path}: {error}") from None
    except UnicodeDecodeError as error:
        raise SnapshotCorruptError(f"{path}: unreadable term text: {error}") from None
    except IndexError:
        raise SnapshotCorruptError(
            f"{path}: a literal names a datatype or language the tables lack"
        ) from None
    return dictionary, flat


def _pack_dictionary(out, dictionary):
    terms = dictionary._id_to_term
    kinds = bytearray()
    datatype_table = {}
    language_table = {}
    datatype_refs = []
    language_refs = []
    parts = []
    offsets = [0]
    total_chars = 0
    for term in terms:
        if isinstance(term, URIRef):
            kinds.append(_TERM_URI)
            text = term.value
            datatype_refs.append(0)
            language_refs.append(0)
        elif isinstance(term, BNode):
            kinds.append(_TERM_BNODE)
            text = term.label
            datatype_refs.append(0)
            language_refs.append(0)
        elif isinstance(term, Literal):
            kinds.append(_TERM_LITERAL)
            text = term.lexical
            datatype_refs.append(
                0 if term.datatype is None
                else datatype_table.setdefault(term.datatype, len(datatype_table)) + 1
            )
            language_refs.append(
                0 if term.language is None
                else language_table.setdefault(term.language, len(language_table)) + 1
            )
        else:
            raise SnapshotFormatError(f"cannot serialize term {term!r}")
        parts.append(text)
        total_chars += len(text)
        offsets.append(total_chars)
    out.append(_U32.pack(len(terms)))
    out.append(bytes(kinds))
    for table in (datatype_table, language_table):
        out.append(_U32.pack(len(table)))
        for value in table:  # insertion order == index order
            _append_string(out, value)
    out.append(_u32_array(datatype_refs))
    out.append(_u32_array(language_refs))
    out.append(_u32_array(offsets))
    blob = "".join(parts).encode("utf-8")
    out.append(_U64.pack(len(blob)))
    out.append(blob)


def _unpack_dictionary(reader):
    count = reader.u32()
    kinds = reader.raw(count)
    datatype_table = [reader.string() for _ in range(reader.u32())]
    language_table = [reader.string() for _ in range(reader.u32())]
    datatype_refs = reader.u32_array(count)
    language_refs = reader.u32_array(count)
    offsets = reader.u32_array(count + 1)  # writer always emits count+1
    blob = reader.raw(reader.u64()).decode("utf-8")
    # Rebuilding ~10k+ term objects is on the load hot path; construct them
    # directly (the CRC already vouches for the payload, and the format only
    # ever stores terms that passed validation when first created).
    terms = []
    append = terms.append
    new = object.__new__
    set_field = object.__setattr__
    for index in range(count):
        text = blob[offsets[index]:offsets[index + 1]]
        kind = kinds[index]
        if kind == _TERM_URI:
            term = new(URIRef)
            set_field(term, "value", text)
        elif kind == _TERM_BNODE:
            term = new(BNode)
            set_field(term, "label", text)
        elif kind == _TERM_LITERAL:
            term = new(Literal)
            set_field(term, "lexical", text)
            datatype_ref = datatype_refs[index]
            language_ref = language_refs[index]
            set_field(
                term, "datatype",
                datatype_table[datatype_ref - 1] if datatype_ref else None,
            )
            set_field(
                term, "language",
                language_table[language_ref - 1] if language_ref else None,
            )
        else:
            raise SnapshotFormatError(f"unknown term kind tag {kind}")
        append(term)
    return terms
