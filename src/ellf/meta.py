"""The five lifting oracles as one record, plus the `.ellf` byte codec.

The binary layout (little-endian where fixed width):

  bytes 0-3   magic "ELLF"
  byte  4     version, always 3
  then five tables in order, ids 1..5, each:
      1 byte table id, uvarint record count, then per record a uvarint key
      field and a body. The key field is the key's delta from the previous
      record's key (from 0 for the first); in the pointer and text tables it
      is ``delta << 2 | kind``, a field of up to 66 bits.

  table             key              kind                  body
  instructions (1)  region start     -                     uvarint instruction count
  pointers     (2)  pointer key      0 = operand           uvarint operand index
                                     1 = data pointer      nothing
                                     2 = data diff         svarint subtrahend - key
                                     (3 is reserved)
  text         (3)  address          0 = basic block,      nothing
                                     1 = function start,
                                     2 = function end
  stack        (4)  function entry   -                     uvarint offset count, then
                                                           the offsets as uvarint deltas
                                                           from the previous (from 0)
  data         (5)  address          -                     uvarint size

A record names a position; the binary holds its value, which
``validate_metadata`` reads, so no stored target can disagree with it. A
diff's cell holds minuend - subtrahend, so the record keeps the subtrahend.
What the decode of the instruction regions decides is not stored: validation
derives an operand pointer for every RIP-relative operand, and a basic block
at every direct ``jmp``/``jcc`` target and every in-text pointer value or
diff minuend that is a decoded instruction start. A record at such a site is
redundant but accepted. Versions 1 (which stored every target) and 2 (which
stored the implied records and a kind byte per record) raise
UnsupportedVersion.

`check_invariants` is the single rule for canonical metadata: sorted
duplicate-free tables, positive counts and sizes, non-overlapping data, and
every address and every varint-held field within 64 bits. The encoder refuses
metadata that breaks it. The decoder only parses structure (magic, version,
table ids, record kinds, minimal varints, no trailing bytes) and then applies
the same rule, so it accepts exactly the canonical image of encoding:
encode(decode(b)) == b, and decode(encode(m)) == m whenever encode succeeds.

The JSON interchange (`ellf inject --meta`, `ellf extract --json`) is written
down once, as data: per table its record types (a pointer's "kind" picks one),
per record type its fields in constructor order, per field a kind with its
JSON Schema, reader and writer. `metadata_from_json`, `metadata_to_json` and
`METADATA_SCHEMA` derive from it, so the reader accepts exactly the documents
the schema accepts. A document needs its version and all five tables, and
then `check_invariants`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple

from . import varint
from .elfio import load_image, section_kind
from .errors import (
    BadMagic,
    Diagnostic,
    InvariantViolation,
    IsaError,
    LiftError,
    NonCanonical,
    TruncatedTable,
    UnsupportedVersion,
    VarintOverflow,
    quoted,
    value_type,
)
from .isa import (CONDITIONAL_JUMP, JUMP, U64, Immediate, MemRef, PcRel, decode_region,
                  instruction_class, label_imm_width, rip_target)

MAGIC = b"ELLF"
VERSION = 3
POINTER_WIDTH = 8  # bytes in a pointer or diff cell

# text record kinds (wire values)
BASIC_BLOCK = "basic_block"
FUNCTION_START = "function_start"
FUNCTION_END = "function_end"

_TEXT_KIND_WIRE = {BASIC_BLOCK: 0, FUNCTION_START: 1, FUNCTION_END: 2}
_TEXT_KIND_NAME = {v: k for k, v in _TEXT_KIND_WIRE.items()}


@value_type
class InstructionRegion(NamedTuple):
    start: int
    count: int


@value_type
class OperandPointer(NamedTuple):
    instr_addr: int
    operand_index: int

    @property
    def key(self):
        return self.instr_addr


@value_type
class DataPointer(NamedTuple):
    addr: int

    @property
    def key(self):
        return self.addr


@value_type
class DataDiff(NamedTuple):
    addr: int
    subtrahend: int

    @property
    def key(self):
        return self.addr


PointerRecord = OperandPointer | DataPointer | DataDiff

_POINTER_KIND = {OperandPointer: 0, DataPointer: 1, DataDiff: 2}


@value_type
class TextRecord(NamedTuple):
    addr: int
    kind: str  # BASIC_BLOCK | FUNCTION_START | FUNCTION_END


@value_type
class StackRecord(NamedTuple):
    function_entry: int
    offsets: tuple[int, ...]  # strictly increasing, all > 0


@value_type
class DataRecord(NamedTuple):
    addr: int
    size: int


@value_type
class EllfMetadata(NamedTuple):
    version: int = VERSION
    instruction_regions: tuple[InstructionRegion, ...] = ()
    pointers: tuple[PointerRecord, ...] = ()
    text: tuple[TextRecord, ...] = ()
    stack: tuple[StackRecord, ...] = ()
    data: tuple[DataRecord, ...] = ()


def _pointer_sort_key(rec: PointerRecord):
    kind = _POINTER_KIND[type(rec)]
    idx = rec.operand_index if isinstance(rec, OperandPointer) else 0
    return (rec.key, kind, idx)


def _text_sort_key(rec: TextRecord):
    return (rec.addr, _TEXT_KIND_WIRE[rec.kind])


def _check_u64(value, what):
    if not 0 <= value <= U64:
        raise InvariantViolation(f"{what} 0x{value:x} outside the 64-bit address space")


def check_invariants(meta: EllfMetadata) -> None:
    """Raise InvariantViolation unless ``meta`` is canonical `.ellf` metadata.

    This is the one definition of canonical: the encoder, the decoder, the
    JSON reader and ``metadata_from_layout`` (through which the assembler
    builds metadata) all apply it.
    """
    if meta.version != VERSION:
        raise InvariantViolation(f"unsupported metadata version {meta.version}")

    prev = None
    for region in meta.instruction_regions:
        _check_u64(region.start, "region start")
        if not 1 <= region.count <= U64:
            raise InvariantViolation(f"region at 0x{region.start:x} has count {region.count}")
        if prev is not None and region.start <= prev:
            raise InvariantViolation(f"instruction regions unsorted at 0x{region.start:x}")
        prev = region.start

    prev_key = None
    for rec in meta.pointers:
        _check_u64(rec.key, "pointer key")
        if isinstance(rec, OperandPointer):
            if not 0 <= rec.operand_index <= U64:
                raise InvariantViolation(f"operand index {rec.operand_index} at "
                                         f"0x{rec.key:x} does not fit in 64 bits")
        elif isinstance(rec, DataDiff):
            _check_u64(rec.subtrahend, "diff subtrahend")
        key = _pointer_sort_key(rec)
        if prev_key is not None and key <= prev_key:
            raise InvariantViolation(f"pointer records unsorted or duplicated at 0x{rec.key:x}")
        prev_key = key

    prev_key = None
    for trec in meta.text:
        _check_u64(trec.addr, "text record address")
        if trec.kind not in _TEXT_KIND_WIRE:
            raise InvariantViolation(f"unknown text record kind {trec.kind!r}")
        key = _text_sort_key(trec)
        if prev_key is not None and key <= prev_key:
            raise InvariantViolation(f"text records unsorted or duplicated at 0x{trec.addr:x}")
        prev_key = key

    prev = None
    for srec in meta.stack:
        _check_u64(srec.function_entry, "stack record function entry")
        if prev is not None and srec.function_entry <= prev:
            raise InvariantViolation(
                f"stack records unsorted or duplicated at 0x{srec.function_entry:x}")
        prev = srec.function_entry
        last = 0
        for off in srec.offsets:
            if off <= last:
                raise InvariantViolation(
                    f"stack offsets of 0x{srec.function_entry:x} not strictly increasing")
            last = off
        if last > U64:
            raise InvariantViolation(
                f"stack offset {quoted(last)} of 0x{srec.function_entry:x} does not "
                f"fit in 64 bits")

    prev_end = None
    for drec in meta.data:
        _check_u64(drec.addr, "data record address")
        if not 1 <= drec.size <= U64:
            raise InvariantViolation(f"data record at 0x{drec.addr:x} has size {drec.size}")
        _check_u64(drec.addr + drec.size - 1, "data record end")
        if prev_end is not None and drec.addr < prev_end:
            raise InvariantViolation(f"data records overlap at 0x{drec.addr:x}")
        prev_end = drec.addr + drec.size


# --- binary codec ---
#
# Each table is written and read by one loop over its records (_write_table,
# _read_table); a table contributes only how to find a record's key and kind
# and how to write and read the rest of the record. A reader gets the kind
# the key field holds, 0 in a table without kinds.

_KIND_BITS = 2  # the low bits of a key field that hold the kind, where there is one


def _write_region(out, region):
    out += varint.encode_unsigned(region.count)


def _read_region(rd, start, _kind):
    return InstructionRegion(start, rd.uvarint("region instruction count"))


def _write_pointer(out, rec):
    if isinstance(rec, OperandPointer):
        out += varint.encode_unsigned(rec.operand_index)
    elif isinstance(rec, DataDiff):
        out += varint.encode_signed(rec.subtrahend - rec.key)


def _read_pointer(rd, key, kind):
    if kind == 0:
        return OperandPointer(key, rd.uvarint("operand index"))
    if kind == 1:
        return DataPointer(key)
    if kind == 2:
        return DataDiff(key, key + rd.svarint("diff subtrahend"))
    raise NonCanonical(f"unknown pointer record kind {kind}")


def _write_text(out, trec):
    """A text record is its key field alone."""


def _read_text(rd, addr, kind):
    if kind not in _TEXT_KIND_NAME:
        raise NonCanonical(f"unknown text record kind {kind}")
    return TextRecord(addr, _TEXT_KIND_NAME[kind])


def _write_stack(out, srec):
    out += varint.encode_unsigned(len(srec.offsets))
    last = 0
    for off in srec.offsets:
        out += varint.encode_unsigned(off - last)
        last = off


def _read_stack(rd, entry, _kind):
    offsets = []
    off = 0
    for _ in range(rd.uvarint("stack offset count")):
        off += rd.uvarint("stack offset")
        offsets.append(off)
    return StackRecord(entry, tuple(offsets))


def _write_data(out, drec):
    out += varint.encode_unsigned(drec.size)


def _read_data(rd, addr, _kind):
    return DataRecord(addr, rd.uvarint("data record size"))


# --- JSON field kinds ---
#
# A reader's messages start with the name it is given. A list reads its items
# as "" and puts "name[i]" before an item's message: names cost only faults.

@value_type
class _Field(NamedTuple):
    schema: dict
    read: Callable                 # (JSON value, name) -> value
    write: Callable | None = None  # value -> JSON value; None writes it as it is


@value_type
class _Record(NamedTuple):
    cls: type
    fields: dict            # JSON name -> _Field, in the constructor's order
    tag: str | None = None  # the "kind" that picks this record in its table


_HEX_ADDR = {"type": "string", "pattern": "^0x[0-9a-fA-F]+$"}
# JSON Schema reads a pattern as ECMA-262 does, where "$" matches only at the
# end of the string; Python's "$" also matches before a final "\n" (so
# Python's jsonschema accepts "0x10\n"). A full match reads it as ECMA-262.
_hex_match = re.compile(_HEX_ADDR["pattern"]).fullmatch


def _json_addr(value, name):
    if type(value) is str and _hex_match(value):
        return int(value, 16)
    raise InvariantViolation(f"{name} must be a hex string, got {value!r}")


_ADDR = _Field(_HEX_ADDR, _json_addr, "0x{:x}".format)


def _integer(minimum):
    """An integer from ``minimum`` to 2**64 - 1, the range a uvarint holds."""
    def read(value, name):
        if type(value) is float and value.is_integer():
            value = int(value)  # JSON has one number type: 2.0 is the integer 2
        if type(value) is not int:  # 2.5, "2" and true are no integers
            raise InvariantViolation(f"{name} must be an integer, got {value!r}")
        if not minimum <= value <= U64:
            raise InvariantViolation(
                f"{name} must be from {minimum} to {U64}, got {quoted(value)}")
        return value
    return _Field({"type": "integer", "minimum": minimum, "maximum": U64}, read)


_COUNT = _integer(1)  # counts, sizes and offsets


def _enum(noun, values):
    def read(value, name):
        if type(value) is str and value in values:
            return value
        raise InvariantViolation(f"{name}: unknown {noun} {value!r}")
    return _Field({"enum": list(values)}, read)


def _list(item):
    read_item, write_item = item.read, item.write

    def read(value, name):
        if not isinstance(value, list):
            raise InvariantViolation(f"{name} must be a list, got {type(value).__name__}")
        out = []
        try:
            for v in value:
                out.append(read_item(v, ""))
        except InvariantViolation as exc:
            raise InvariantViolation(f"{name}[{len(out)}]{exc}") from None
        return tuple(out)

    write = list if write_item is None else lambda values: [write_item(v) for v in values]
    return _Field({"type": "array", "items": item.schema}, read, write)


def _read_object(obj, record, what, prefix):
    """``obj`` read as ``record``, or InvariantViolation for its first fault.

    ``what`` names the object and ``prefix`` goes before its field names. The
    faults are looked for in order: no object, a key that is no field (the
    first in document order), then field by field a missing or bad field.
    """
    if not isinstance(obj, dict):
        raise InvariantViolation(f"{what} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in record.fields and (key != "kind" or record.tag is None):
            raise InvariantViolation(f"{what} has unknown field {key!r}")
    values = []
    for name, field in record.fields.items():
        if name not in obj:
            raise InvariantViolation(f"{prefix}{name} is missing")
        values.append(field.read(obj[name], prefix + name))
    return record.cls(*values)


def _object(record):
    """The field kind of a JSON object read as ``record``."""
    cls, names = record.cls, tuple(record.fields)
    reads = tuple(field.read for field in record.fields.values())
    size = len(names) + (record.tag is not None)
    # Built out per arity, as each record of a table is read here.
    if len(names) == 2:
        (k0, k1), (r0, r1) = names, reads

        def build(obj):
            return cls(r0(obj[k0], k0), r1(obj[k1], k1))
    else:
        def build(obj):
            return cls(*[read(obj[k], k) for k, read in zip(names, reads)])

    def read(value, name):
        # An object with exactly the record's keys and no fault is built
        # directly; any other value is read again to name its fault.
        try:
            if len(value) == size:
                return build(value)
        except (KeyError, TypeError, InvariantViolation):
            pass
        return _read_object(value, record, name, name + ".")

    tag = {} if record.tag is None else {"kind": record.tag}
    writes = [(name, attr, field.write) for (name, field), attr
              in zip(record.fields.items(), cls._fields)]

    def write(value):
        obj = dict(tag)
        for name, attr, write_field in writes:
            v = getattr(value, attr)
            obj[name] = v if write_field is None else write_field(v)
        return obj

    properties = {**{key: {"const": value} for key, value in tag.items()},
                  **{name: field.schema for name, field in record.fields.items()}}
    return _Field({"type": "object", "additionalProperties": False,
                   "properties": properties, "required": [*tag, *names]}, read, write)


def _one_of(noun, *records):
    """The field kind of a JSON object read as the one of ``records`` its "kind" picks."""
    kinds = {record.tag: _object(record) for record in records}
    writers = {record.cls: kinds[record.tag].write for record in records}

    def read(value, name):
        try:
            kind = kinds[value["kind"]]
        except (KeyError, TypeError):  # no object, or no kind it names
            if isinstance(value, dict):
                raise InvariantViolation(
                    f"{name}.kind: unknown {noun} {value['kind']!r}" if "kind" in value
                    else f"{name}.kind is missing") from None
            return _read_object(value, records[0], name, "")  # raises: no object
        return kind.read(value, name)

    return _Field({"oneOf": [kind.schema for kind in kinds.values()]}, read,
                  lambda value: writers[type(value)](value))


@value_type
class _Table(NamedTuple):
    table_id: int
    name: str        # the table's name in encoded_table_sizes
    field: str       # the EllfMetadata attribute holding its records, and its JSON name
    count_what: str  # field names for codec errors
    key_what: str
    key: Callable
    kind: Callable | None  # a record's wire kind, in a table whose key field holds one
    write: Callable
    read: Callable
    json: _Field     # the table in the JSON interchange


_TABLES = (
    _Table(1, "instructions", "instruction_regions", "region count", "region start",
           attrgetter("start"), None, _write_region, _read_region,
           _list(_object(_Record(InstructionRegion, {"start": _ADDR, "count": _COUNT})))),
    _Table(2, "pointers", "pointers", "pointer count", "pointer key",
           attrgetter("key"), lambda rec: _POINTER_KIND[type(rec)],
           _write_pointer, _read_pointer,
           _list(_one_of(
               "pointer kind",
               _Record(OperandPointer, {"instr_addr": _ADDR, "operand_index": _integer(0)},
                       tag="operand"),
               _Record(DataPointer, {"addr": _ADDR}, tag="data"),
               _Record(DataDiff, {"addr": _ADDR, "subtrahend": _ADDR}, tag="diff")))),
    _Table(3, "text", "text", "text record count", "text record address",
           attrgetter("addr"), lambda trec: _TEXT_KIND_WIRE[trec.kind],
           _write_text, _read_text,
           _list(_object(_Record(TextRecord, {
               "addr": _ADDR, "kind": _enum("text record kind", tuple(_TEXT_KIND_WIRE))})))),
    _Table(4, "stack", "stack", "stack record count", "stack function entry",
           attrgetter("function_entry"), None, _write_stack, _read_stack,
           _list(_object(_Record(StackRecord, {"function_entry": _ADDR,
                                               "offsets": _list(_COUNT)})))),
    _Table(5, "data", "data", "data record count", "data record address",
           attrgetter("addr"), None, _write_data, _read_data,
           _list(_object(_Record(DataRecord, {"addr": _ADDR, "size": _COUNT})))),
)


def _write_table(out, table, records):
    out.append(table.table_id)
    out += varint.encode_unsigned(len(records))
    prev = 0
    key_of, kind_of, write = table.key, table.kind, table.write
    for rec in records:
        key = key_of(rec)
        delta = key - prev
        out += varint.encode_unsigned(
            delta if kind_of is None else delta << _KIND_BITS | kind_of(rec))
        write(out, rec)
        prev = key


def encode_metadata(meta: EllfMetadata) -> bytes:
    """The `.ellf` bytes of ``meta``, which ``check_invariants`` must accept."""
    check_invariants(meta)
    return encode_canonical(meta)


def encode_canonical(meta: EllfMetadata) -> bytes:
    """The `.ellf` bytes of ``meta``, already held to ``check_invariants``
    (as ``metadata_from_layout``'s result is); ``encode_metadata`` checks."""
    out = bytearray(MAGIC)
    out.append(VERSION)
    for table in _TABLES:
        _write_table(out, table, getattr(meta, table.field))
    return bytes(out)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def u8(self, what):
        if self.pos >= len(self.data):
            raise TruncatedTable(f"unexpected end of input reading {what}")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def uvarint(self, what, max_bits=64):
        data, pos = self.data, self.pos
        if pos < len(data) and data[pos] < 0x80:  # one byte: always minimal
            self.pos = pos + 1
            return data[pos]
        return self._varint(varint.decode_unsigned, what, max_bits)

    def svarint(self, what):
        return self._varint(varint.decode_signed, what)

    def _varint(self, decode, what, *bits):
        try:
            value, self.pos = decode(self.data, self.pos, *bits)
        except (TruncatedTable, NonCanonical, VarintOverflow) as exc:
            raise type(exc)(f"{what}: {exc}") from None
        return value


def _read_table(rd, table):
    got = rd.u8(f"table {table.table_id} id")
    if got != table.table_id:
        raise NonCanonical(f"expected table id {table.table_id}, found {got}")
    bits = 0 if table.kind is None else _KIND_BITS
    mask, read = (1 << bits) - 1, table.read
    records = []
    key = 0
    for _ in range(rd.uvarint(table.count_what)):
        field = rd.uvarint(table.key_what, 64 + bits)
        key += field >> bits
        records.append(read(rd, key, field & mask))
    return tuple(records)


def decode_metadata(data) -> EllfMetadata:
    """Parse a `.ellf` payload, then hold it to ``check_invariants``.

    A payload that parses but is not canonical raises NonCanonical with the
    message of the InvariantViolation it breaks.
    """
    rd = _Reader(bytes(data))
    if rd.data[:4] != MAGIC:
        raise BadMagic("input does not start with the ELLF magic")
    rd.pos = 4
    version = rd.u8("version")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version} is not supported")
    tables = {table.field: _read_table(rd, table) for table in _TABLES}
    if rd.pos != len(rd.data):
        raise NonCanonical(f"{len(rd.data) - rd.pos} trailing bytes after the data table")
    meta = EllfMetadata(version=version, **tables)
    try:
        check_invariants(meta)
    except InvariantViolation as exc:
        raise NonCanonical(str(exc)) from None
    return meta


def encoded_table_sizes(meta: EllfMetadata) -> dict[str, tuple[int, int]]:
    """Per-table (record count, encoded byte size incl. id and count) from the wire form."""
    check_invariants(meta)
    sizes = {}
    for table in _TABLES:
        records = getattr(meta, table.field)
        out = bytearray()
        _write_table(out, table, records)
        sizes[table.name] = (len(records), len(out))
    return sizes


# --- JSON interchange ---

_METADATA = _Record(EllfMetadata, {
    "version": _Field({"type": "integer", "const": VERSION}, _COUNT.read),
    **{table.field: table.json for table in _TABLES}})
_METADATA_KIND = _object(_METADATA)

METADATA_SCHEMA = {"$schema": "https://json-schema.org/draft/2020-12/schema",
                   **_METADATA_KIND.schema}


def metadata_to_json(meta: EllfMetadata) -> dict:
    """The JSON interchange form of ``meta``, which ``ellf extract --json`` prints."""
    return _METADATA_KIND.write(meta)


def metadata_from_json(obj: dict) -> EllfMetadata:
    """Read the JSON interchange form (see METADATA_SCHEMA) into metadata.

    The reader and METADATA_SCHEMA derive from one description, so a
    document loads exactly when the schema accepts it (its patterns read as
    ECMA-262 reads them, so "0x10\\n" is no address) and it meets
    check_invariants; anything else raises InvariantViolation. The version
    and all five tables are required. The first fault is named by table,
    record index and field, as in "stack[2].offsets[0] must be an integer,
    got '8'" or "pointers[0] has unknown field 'addres'".
    """
    meta = _read_object(obj, _METADATA, "metadata JSON", "")
    check_invariants(meta)
    return meta


# --- metadata from a layout ---

def metadata_from_layout(regions, functions, blocks, pointers, variables, locals
                         ) -> EllfMetadata:
    """Canonical metadata from the assembler's layout.

    The one place where layout becomes records. Regions are (start, count),
    functions (entry, last instruction) and locals (entry, offsets) pairs.
    Entries get FUNCTION_START, last instructions FUNCTION_END and other block
    starts BASIC_BLOCK. The tables are sorted canonically and held to
    ``check_invariants``, which refuses overlapping variables and offsets that
    are not positive.
    """
    entries = {entry for entry, _ in functions}
    text = {TextRecord(entry, FUNCTION_START) for entry in entries}
    text.update(TextRecord(last, FUNCTION_END) for _, last in functions)
    text.update(TextRecord(addr, BASIC_BLOCK) for addr in blocks if addr not in entries)

    meta = EllfMetadata(
        instruction_regions=tuple(InstructionRegion(start, count)
                                  for start, count in sorted(regions)),
        pointers=tuple(sorted(pointers, key=_pointer_sort_key)),
        text=tuple(sorted(text, key=_text_sort_key)),
        stack=tuple(StackRecord(entry, tuple(sorted(set(offsets))))
                    for entry, offsets in sorted(locals, key=itemgetter(0)) if offsets),
        data=tuple(sorted(variables, key=attrgetter("addr"))),
    )
    check_invariants(meta)
    return meta


# --- validation against an ELF image ---

def validate_metadata(meta: EllfMetadata, image, decoded: dict | None = None,
                      values: dict | None = None, blocks: set | None = None
                      ) -> list[Diagnostic]:
    """Cross-check metadata against the sections and bytes of an ElfImage.

    Raises OverlapError, whatever the metadata holds, if two alloc sections
    of the image overlap. Otherwise returns an empty list iff every check
    below passes, and else a diagnostic per problem, in the order of the
    checks:

    - each instruction region starts in an executable section, decodes, and
      does not leave executable sections; none begins inside the decoded
      extent of the region before it (kind ``overlap``);
    - each pointer record has a value (below) inside some section, a diff's
      minuend and subtrahend both;
    - no data pointer or diff cell starts inside the last cell kept before
      it, or has a data record starting strictly inside its 8 bytes (kind
      ``straddle``);
    - each text record sits on a decoded instruction start. Without regions
      nothing is decoded, so every text record is reported;
    - each stack record's entry is a function start, when there are text
      records;
    - each data record lies inside one data section;
    - each decoded direct ``call``, ``jmp`` or ``jcc`` targets some section,
      and so does each RIP-relative operand that no pointer record names;
    - each other decoded direct ``jmp`` or ``jcc`` at or after the first
      function start targets a decoded instruction start (kind ``cfg``);
    - each alloc section is code or data, and zero-fill or not, as the
      assembly dialect reads its name (kind ``section``). A write flag alone
      may differ, as ``.eh_frame``'s may: the reassembled bytes are the same.

    A record names a position and the binary holds its value:

    - an operand pointer, on a decoded instruction: the target of a
      RIP-relative operand, or an immediate whose field has the width the
      assembler gives a label there (``isa.label_imm_width``: 64 bits on
      ``mov r64``, 32 elsewhere), so that a label there reassembles alike;
    - a data pointer: its 8-byte cell, wholly inside one progbits data
      section;
    - a diff, on such a cell: its minuend, the cell plus the subtrahend.

    The decode implies records that the metadata need not hold: an operand
    pointer on every RIP-relative operand, and a basic block at every direct
    ``jmp`` or ``jcc`` target and every pointer value or diff minuend that
    is a decoded instruction start. A record at such a site is accepted.

    Each diagnostic carries the record it is about as ``record``, but for
    the branch, RIP-relative, ``cfg`` and ``section`` ones, which carry
    none; a record without a value gets one. ``decoded`` is filled with the
    instructions decoded, by address, ``values`` with the value of each
    pointer record that has one, recorded or implied, and ``blocks`` with
    the implied block starts. The image is loaded once.
    """
    return _validate(meta, image, load_image(image), {}, decoded, values, blocks)


def _validate(meta, image, byte_map, regions, decoded, values, blocks):
    """``validate_metadata`` over the ImageView ``byte_map`` of ``image``,
    taking each region's decode from ``regions`` (region -> what
    ``_decode_region`` returns), where it is put the first time."""
    diags: list[Diagnostic] = []

    def check_in_any(addr, what, rec=None, at=None):
        """Report ``addr`` if it lies in no section, at ``at`` if given;
        True if it was reported."""
        if image.section_at(addr) is not None:
            return False
        diags.append(Diagnostic("range", f"{what} 0x{addr:x} is not inside any section",
                                addr if at is None else at, record=rec))
        return True

    if decoded is None:
        decoded = {}  # instruction start -> instruction
    extent = None  # (start, end) of the region decoded last
    for region in meta.instruction_regions:
        sec = image.section_at(region.start)
        if sec is None or not sec.exec:
            diags.append(Diagnostic("range", f"instruction region start 0x{region.start:x} "
                                             f"is not inside an executable section",
                                    region.start, record=region))
            continue
        if extent is not None and region.start < extent[1]:
            diags.append(Diagnostic("overlap", f"region at 0x{region.start:x} begins "
                                               f"inside the decoded extent of the "
                                               f"region at 0x{extent[0]:x}",
                                    region.start, record=region))
        found = regions.get(region)
        if found is None:
            found = regions[region] = _decode_region(byte_map, region)
        instructions, end, error = found
        decoded.update(instructions)
        if error is not None:  # undecodable region: report, skip alignment checks
            diags.append(Diagnostic("range", f"instruction region at 0x{region.start:x} "
                                             f"does not decode: {error}", region.start,
                                  record=region))
        else:
            _check_region_in_code(image, region, sec, end, decoded, diags)
        extent = (region.start, end)

    if values is None:
        values = {}
    cells = []  # data pointers and diffs with a value, in address order
    for rec in meta.pointers:
        if isinstance(rec, OperandPointer):
            value = _operand_value(rec, decoded, diags)
        else:
            value = _cell_value(rec, image, diags)
        if value is None:
            continue
        values[rec] = value
        if isinstance(rec, DataDiff):
            check_in_any(value, "diff minuend", rec)
            check_in_any(rec.subtrahend, "diff subtrahend", rec)
        else:
            check_in_any(value, "pointer target", rec)
        if not isinstance(rec, OperandPointer):
            cells.append(rec)

    data_starts = [drec.addr for drec in meta.data]
    kept_end = 0  # where the last cell kept ends
    for rec in cells:
        i = bisect_right(data_starts, rec.addr)  # the first data record after the cell start
        if rec.addr < kept_end:
            message = (f"pointer payload at 0x{rec.addr:x} overlaps the pointer payload "
                       f"ending at 0x{kept_end:x}")
        elif i < len(data_starts) and data_starts[i] < rec.addr + POINTER_WIDTH:
            message = (f"pointer payload at 0x{rec.addr:x} crosses the data object "
                       f"boundary at 0x{data_starts[i]:x}")
        else:
            kept_end = rec.addr + POINTER_WIDTH
            continue
        diags.append(Diagnostic("straddle", message, rec.addr, record=rec))

    for trec in meta.text:
        if trec.addr not in decoded:
            diags.append(Diagnostic("range", f"text record at 0x{trec.addr:x} ({trec.kind}) "
                                             f"is not a decoded instruction start",
                                    trec.addr, record=trec))

    starts = {t.addr for t in meta.text if t.kind == FUNCTION_START}
    for srec in meta.stack:
        if meta.text and srec.function_entry not in starts:
            diags.append(Diagnostic(
                "function-start",
                f"stack record entry 0x{srec.function_entry:x} is not a function start",
                srec.function_entry, record=srec))

    for drec in meta.data:
        sec = image.section_at(drec.addr)
        if sec is None or sec.exec:
            diags.append(Diagnostic("range", f"data record at 0x{drec.addr:x} is not "
                                             f"inside a data section", drec.addr,
                                    record=drec))
        elif drec.addr + drec.size > sec.vaddr + sec.size:
            diags.append(Diagnostic("range", f"data record at 0x{drec.addr:x} extends "
                                             f"past the end of {sec.name}", drec.addr,
                                    record=drec))

    if blocks is None:
        blocks = set()
    first = min(starts, default=None)
    for addr, ins in decoded.items():
        ops = ins.operands
        if ops and isinstance(ops[0], PcRel):  # a direct branch, its only operand
            klass = instruction_class(ins)
            if check_in_any(klass.target, "branch target", at=addr):
                continue
            if klass.kind in (JUMP, CONDITIONAL_JUMP):
                if klass.target in decoded:
                    blocks.add(klass.target)
                elif first is not None and addr >= first:
                    diags.append(Diagnostic("cfg", f"branch target 0x{klass.target:x} is "
                                                   f"not a decoded instruction start", addr))
        for i, op in enumerate(ops):  # a recorded one has its value checked above
            if isinstance(op, MemRef) and op.rip_relative:
                rec = OperandPointer(addr, i)
                if rec not in values:
                    values[rec] = target = rip_target(ins, op)
                    check_in_any(target, "RIP-relative target", at=addr)
    blocks.update(value for value in values.values() if value in decoded)

    for sec in image.sections:
        actual, named = (sec.exec, sec.kind == "nobits"), section_kind(sec.name)
        if sec.alloc and actual != named:
            diags.append(Diagnostic("section", f"section {sec.name} is {_kind_name(*actual)} "
                                               f"but the assembly dialect reads its name as "
                                               f"{_kind_name(*named)}", sec.vaddr))

    return diags


def repair_metadata(meta: EllfMetadata, image, decoded: dict | None = None,
                    values: dict | None = None, blocks: set | None = None
                    ) -> tuple[EllfMetadata, list[Diagnostic]]:
    """``meta`` repaired until ``validate_metadata`` reports nothing, and the
    problems reported on the way, each once, from the first round on.

    A round validates. If a problem names a record, every record a problem
    names is dropped. Any problem that names no record (``range``,
    ``section``, or a ``cfg`` jump whose target is no decoded instruction
    start) raises LiftError with validation's message. Each region is
    decoded once, the first round that holds it: a drop changes no decode.
    ``decoded``, ``values`` and ``blocks`` are filled as ``validate_metadata``
    fills them, from the last round.
    """
    byte_map = load_image(image)  # raises OverlapError, as validation would
    regions: dict = {}
    if decoded is None:
        decoded = {}
    if values is None:
        values = {}
    if blocks is None:
        blocks = set()
    diagnostics: list[Diagnostic] = []
    seen: set[Diagnostic] = set()
    while True:
        decoded.clear()
        values.clear()
        blocks.clear()
        problems = _validate(meta, image, byte_map, regions, decoded, values, blocks)
        diagnostics += [p for p in problems if p not in seen]
        seen.update(problems)
        flagged = {p.record for p in problems if p.record is not None}
        if not flagged:
            if problems:
                raise LiftError("metadata fails validation: " + "; ".join(map(str, problems)))
            return meta, diagnostics
        meta = meta._replace(**{table.field: tuple(
            rec for rec in getattr(meta, table.field) if rec not in flagged)
            for table in _TABLES})


def _kind_name(execable, nobits):
    return ("zero-fill " if nobits else "") + ("code" if execable else "data")


def _operand_value(rec, decoded, diags):
    """The address the operand that ``rec`` names holds, or None after a
    diagnostic saying why it holds none."""
    ins = decoded.get(rec.instr_addr)
    kind = "pointer"
    if ins is None:
        kind = "alignment"
        message = f"operand pointer address 0x{rec.instr_addr:x} is not an instruction start"
    elif rec.operand_index >= len(ins.operands):
        message = (f"operand index {rec.operand_index} out of range for the instruction "
                   f"at 0x{rec.instr_addr:x}")
    else:
        op = ins.operands[rec.operand_index]
        if isinstance(op, MemRef) and op.rip_relative:
            return rip_target(ins, op)
        width = label_imm_width(ins)
        if isinstance(op, Immediate) and op.width == width:
            return op.value & U64
        message = f"operand {rec.operand_index} of the instruction at 0x{rec.instr_addr:x} "
        if isinstance(op, Immediate):
            message += (f"is {'an' if op.width == 8 else 'a'} {op.width}-bit immediate, "
                        f"but a label there takes {width} bits")
        else:
            message += "has no immediate or displacement field"
    diags.append(Diagnostic(kind, message, rec.instr_addr, record=rec))
    return None


def _cell_value(rec, image, diags):
    """The value of the data pointer or diff ``rec`` from its cell, or None
    after a diagnostic if the cell is not wholly inside progbits data."""
    sec = image.section_at(rec.addr)
    if (sec is None or sec.exec or sec.kind != "progbits"
            or rec.addr + POINTER_WIDTH > sec.vaddr + sec.size):
        diags.append(Diagnostic("range", f"pointer cell at 0x{rec.addr:x} is not wholly "
                                         f"inside progbits data", rec.addr, record=rec))
        return None
    at = sec.file_offset + rec.addr - sec.vaddr  # read_elf keeps progbits in the file
    cell = int.from_bytes(image.raw_file[at:at + POINTER_WIDTH], "little")
    return cell if isinstance(rec, DataPointer) else (cell + rec.subtrahend) & U64


def _decode_region(byte_map, region):
    """(instructions by address, end, error) of ``region``: the instructions
    decoded up to its end, or up to the first that does not decode, whose
    IsaError is then ``error``, and the address after the last decoded."""
    instructions = {}
    addr = region.start
    try:
        for ins in decode_region(byte_map, addr, region.count):
            instructions[addr] = ins
            addr += ins.length
    except IsaError as exc:
        return instructions, addr, exc
    return instructions, addr, None


def _check_region_in_code(image, region, sec, end, decoded, diags):
    """Report ``region`` if its decoded extent, from its start in the
    executable section ``sec`` up to ``end``, leaves executable sections,
    naming the first instruction that crosses out."""
    edge = sec.vaddr + sec.size
    while edge < end:
        sec = image.section_at(edge)
        if sec is None or not sec.exec:
            break
        edge = sec.vaddr + sec.size
    if edge >= end:
        return
    addr = region.start
    while addr + decoded[addr].length <= edge:
        addr += decoded[addr].length
    diags.append(Diagnostic("range", f"instruction region at 0x{region.start:x} "
                                     f"leaves executable sections at 0x{edge:x}, "
                                     f"inside the instruction at 0x{addr:x}", addr,
                            record=region))
