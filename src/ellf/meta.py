"""The five lifting oracles as one record, plus the `.ellf` byte codec.

The binary layout (little-endian where fixed width):

  bytes 0-3   magic "ELLF"
  byte  4     version, always 1
  then five tables in order, ids 1..5:
      1 byte table id, uvarint entry count, entries

  instructions (1): uvarint start delta (first entry absolute), uvarint count
  pointers     (2): uvarint key delta (first absolute), 1 byte kind,
                    kind 0 = operand: uvarint operand index, svarint target-key
                    kind 1 = data pointer: svarint target-key
                    kind 2 = data diff: svarint minuend-key, svarint subtrahend-key
  text         (3): uvarint addr delta (first absolute), 1 byte kind
                    (0 = basic block, 1 = function start, 2 = function end)
  stack        (4): uvarint entry delta (first absolute), uvarint offset count,
                    offsets as uvarints, first absolute then ascending deltas
  data         (5): uvarint addr delta (first absolute), uvarint size

Decoding accepts exactly the canonical image of encoding: minimal varints,
sorted duplicate-free tables, no trailing bytes. encode(decode(b)) == b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import varint
from .errors import (
    BadMagic,
    Diagnostic,
    InconsistentFacts,
    InvariantViolation,
    NonCanonical,
    TruncatedTable,
    UnsupportedVersion,
    VarintOverflow,
    WARNING,
)

MAGIC = b"ELLF"
VERSION = 1
U64 = (1 << 64) - 1

# text record kinds (wire values)
BASIC_BLOCK = "basic_block"
FUNCTION_START = "function_start"
FUNCTION_END = "function_end"

_TEXT_KIND_WIRE = {BASIC_BLOCK: 0, FUNCTION_START: 1, FUNCTION_END: 2}
_TEXT_KIND_NAME = {v: k for k, v in _TEXT_KIND_WIRE.items()}


@dataclass(frozen=True)
class InstructionRegion:
    start: int
    count: int


@dataclass(frozen=True)
class OperandPointer:
    instr_addr: int
    operand_index: int
    target: int

    @property
    def key(self):
        return self.instr_addr


@dataclass(frozen=True)
class DataPointer:
    addr: int
    target: int

    @property
    def key(self):
        return self.addr


@dataclass(frozen=True)
class DataDiff:
    addr: int
    minuend: int
    subtrahend: int

    @property
    def key(self):
        return self.addr


PointerRecord = OperandPointer | DataPointer | DataDiff

_POINTER_KIND = {OperandPointer: 0, DataPointer: 1, DataDiff: 2}


@dataclass(frozen=True)
class TextRecord:
    addr: int
    kind: str  # BASIC_BLOCK | FUNCTION_START | FUNCTION_END


@dataclass(frozen=True)
class StackRecord:
    function_entry: int
    offsets: tuple[int, ...]  # strictly increasing, all > 0


@dataclass(frozen=True)
class DataRecord:
    addr: int
    size: int


@dataclass(frozen=True)
class EllfMetadata:
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
    """Raise InvariantViolation unless every table is sorted and well formed."""
    if meta.version != VERSION:
        raise InvariantViolation(f"unsupported metadata version {meta.version}")

    prev = None
    for region in meta.instruction_regions:
        _check_u64(region.start, "region start")
        if region.count < 1:
            raise InvariantViolation(f"region at 0x{region.start:x} has count {region.count}")
        if prev is not None and region.start <= prev:
            raise InvariantViolation(f"instruction regions unsorted at 0x{region.start:x}")
        prev = region.start

    prev_key = None
    for rec in meta.pointers:
        _check_u64(rec.key, "pointer key")
        if isinstance(rec, OperandPointer):
            if rec.operand_index < 0:
                raise InvariantViolation("negative operand index")
            _check_u64(rec.target, "pointer target")
        elif isinstance(rec, DataPointer):
            _check_u64(rec.target, "pointer target")
        else:
            _check_u64(rec.minuend, "diff minuend")
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

    prev_end = None
    for drec in meta.data:
        _check_u64(drec.addr, "data record address")
        if drec.size < 1:
            raise InvariantViolation(f"data record at 0x{drec.addr:x} has size {drec.size}")
        _check_u64(drec.addr + drec.size - 1, "data record end")
        if prev_end is not None and drec.addr < prev_end:
            raise InvariantViolation(f"data records overlap at 0x{drec.addr:x}")
        prev_end = drec.addr + drec.size


# --- binary codec ---

def encode_metadata(meta: EllfMetadata) -> bytes:
    check_invariants(meta)
    out = bytearray(MAGIC)
    out.append(VERSION)

    out.append(1)
    out += varint.encode_unsigned(len(meta.instruction_regions))
    prev = 0
    first = True
    for region in meta.instruction_regions:
        out += varint.encode_unsigned(region.start if first else region.start - prev)
        out += varint.encode_unsigned(region.count)
        prev = region.start
        first = False

    out.append(2)
    out += varint.encode_unsigned(len(meta.pointers))
    prev = 0
    first = True
    for rec in meta.pointers:
        out += varint.encode_unsigned(rec.key if first else rec.key - prev)
        out.append(_POINTER_KIND[type(rec)])
        if isinstance(rec, OperandPointer):
            out += varint.encode_unsigned(rec.operand_index)
            out += varint.encode_signed(rec.target - rec.key)
        elif isinstance(rec, DataPointer):
            out += varint.encode_signed(rec.target - rec.key)
        else:
            out += varint.encode_signed(rec.minuend - rec.key)
            out += varint.encode_signed(rec.subtrahend - rec.key)
        prev = rec.key
        first = False

    out.append(3)
    out += varint.encode_unsigned(len(meta.text))
    prev = 0
    first = True
    for trec in meta.text:
        out += varint.encode_unsigned(trec.addr if first else trec.addr - prev)
        out.append(_TEXT_KIND_WIRE[trec.kind])
        prev = trec.addr
        first = False

    out.append(4)
    out += varint.encode_unsigned(len(meta.stack))
    prev = 0
    first = True
    for srec in meta.stack:
        out += varint.encode_unsigned(srec.function_entry if first else
                                      srec.function_entry - prev)
        out += varint.encode_unsigned(len(srec.offsets))
        last = 0
        off_first = True
        for off in srec.offsets:
            out += varint.encode_unsigned(off if off_first else off - last)
            last = off
            off_first = False
        prev = srec.function_entry
        first = False

    out.append(5)
    out += varint.encode_unsigned(len(meta.data))
    prev = 0
    first = True
    for drec in meta.data:
        out += varint.encode_unsigned(drec.addr if first else drec.addr - prev)
        out += varint.encode_unsigned(drec.size)
        prev = drec.addr
        first = False

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

    def uvarint(self, what):
        return self._varint(varint.decode_unsigned, what)

    def svarint(self, what):
        return self._varint(varint.decode_signed, what)

    def _varint(self, decode, what):
        try:
            value, self.pos = decode(self.data, self.pos)
        except (TruncatedTable, NonCanonical, VarintOverflow) as exc:
            raise type(exc)(f"{what}: {exc}") from None
        return value


def _rebase(key, delta, what):
    value = key + delta
    if not 0 <= value <= U64:
        raise NonCanonical(f"{what} 0x{key:x}{delta:+x} outside the address space")
    return value


def decode_metadata(data) -> EllfMetadata:
    rd = _Reader(bytes(data))
    if len(rd.data) < 4 or rd.data[:4] != MAGIC:
        raise BadMagic("input does not start with the ELLF magic")
    rd.pos = 4
    version = rd.u8("version")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version} is not supported")

    regions = []
    _expect_table_id(rd, 1)
    count = rd.uvarint("region count")
    addr = 0
    for i in range(count):
        delta = rd.uvarint("region start")
        if i == 0:
            addr = delta
        else:
            if delta == 0:
                raise NonCanonical("instruction regions not strictly ascending")
            addr = _rebase(addr, delta, "region start")
        n = rd.uvarint("region instruction count")
        if n < 1:
            raise NonCanonical(f"region at 0x{addr:x} has zero instructions")
        regions.append(InstructionRegion(addr, n))

    pointers = []
    _expect_table_id(rd, 2)
    count = rd.uvarint("pointer count")
    key = 0
    prev_sort = None
    for i in range(count):
        delta = rd.uvarint("pointer key")
        key = delta if i == 0 else _rebase(key, delta, "pointer key")
        kind = rd.u8("pointer kind")
        if kind == 0:
            idx = rd.uvarint("operand index")
            target = _rebase(key, rd.svarint("pointer target"), "pointer target")
            rec = OperandPointer(key, idx, target)
        elif kind == 1:
            target = _rebase(key, rd.svarint("pointer target"), "pointer target")
            rec = DataPointer(key, target)
        elif kind == 2:
            minuend = _rebase(key, rd.svarint("diff minuend"), "diff minuend")
            subtrahend = _rebase(key, rd.svarint("diff subtrahend"), "diff subtrahend")
            rec = DataDiff(key, minuend, subtrahend)
        else:
            raise NonCanonical(f"unknown pointer record kind {kind}")
        sort = _pointer_sort_key(rec)
        if prev_sort is not None and sort <= prev_sort:
            raise NonCanonical(f"pointer records unsorted or duplicated at 0x{key:x}")
        prev_sort = sort
        pointers.append(rec)

    text = []
    _expect_table_id(rd, 3)
    count = rd.uvarint("text record count")
    addr = 0
    prev_sort = None
    for i in range(count):
        delta = rd.uvarint("text record address")
        addr = delta if i == 0 else _rebase(addr, delta, "text record address")
        kind = rd.u8("text record kind")
        if kind not in _TEXT_KIND_NAME:
            raise NonCanonical(f"unknown text record kind {kind}")
        rec = TextRecord(addr, _TEXT_KIND_NAME[kind])
        sort = _text_sort_key(rec)
        if prev_sort is not None and sort <= prev_sort:
            raise NonCanonical(f"text records unsorted or duplicated at 0x{addr:x}")
        prev_sort = sort
        text.append(rec)

    stack = []
    _expect_table_id(rd, 4)
    count = rd.uvarint("stack record count")
    entry = 0
    for i in range(count):
        delta = rd.uvarint("stack function entry")
        if i == 0:
            entry = delta
        else:
            if delta == 0:
                raise NonCanonical("stack records not strictly ascending")
            entry = _rebase(entry, delta, "stack function entry")
        noffsets = rd.uvarint("stack offset count")
        offsets = []
        off = 0
        for j in range(noffsets):
            d = rd.uvarint("stack offset")
            if d == 0:
                raise NonCanonical(f"stack offsets of 0x{entry:x} not strictly ascending")
            off = off + d if j else d
            if off > U64:
                raise NonCanonical(f"stack offset of 0x{entry:x} overflows")
            offsets.append(off)
        stack.append(StackRecord(entry, tuple(offsets)))

    data_records = []
    _expect_table_id(rd, 5)
    count = rd.uvarint("data record count")
    addr = 0
    prev_end = None
    for i in range(count):
        delta = rd.uvarint("data record address")
        addr = delta if i == 0 else _rebase(addr, delta, "data record address")
        size = rd.uvarint("data record size")
        if size < 1:
            raise NonCanonical(f"data record at 0x{addr:x} has zero size")
        if addr + size - 1 > U64:
            raise NonCanonical(f"data record at 0x{addr:x} overflows the address space")
        if prev_end is not None and addr < prev_end:
            raise NonCanonical(f"data records overlap at 0x{addr:x}")
        prev_end = addr + size
        data_records.append(DataRecord(addr, size))

    if rd.pos != len(rd.data):
        raise NonCanonical(f"{len(rd.data) - rd.pos} trailing bytes after the data table")

    return EllfMetadata(
        version=VERSION,
        instruction_regions=tuple(regions),
        pointers=tuple(pointers),
        text=tuple(text),
        stack=tuple(stack),
        data=tuple(data_records),
    )


def _expect_table_id(rd, table_id):
    got = rd.u8(f"table {table_id} id")
    if got != table_id:
        raise NonCanonical(f"expected table id {table_id}, found {got}")


def encoded_table_sizes(meta: EllfMetadata) -> dict[str, tuple[int, int]]:
    """Per-table (record count, encoded byte size incl. header) from the wire form."""
    counts = {
        "instructions": len(meta.instruction_regions),
        "pointers": len(meta.pointers),
        "text": len(meta.text),
        "stack": len(meta.stack),
        "data": len(meta.data),
    }
    table_bytes = {}
    for name, only in [
        ("instructions", EllfMetadata(instruction_regions=meta.instruction_regions)),
        ("pointers", EllfMetadata(pointers=meta.pointers)),
        ("text", EllfMetadata(text=meta.text)),
        ("stack", EllfMetadata(stack=meta.stack)),
        ("data", EllfMetadata(data=meta.data)),
    ]:
        # `only` differs from the empty encoding by this table's entries plus
        # any extra count-varint bytes; adding back the 2-byte empty header
        # gives the table's full encoded size.
        diff = len(encode_metadata(only)) - len(encode_metadata(EllfMetadata()))
        table_bytes[name] = (counts[name], diff + 2)
    return table_bytes


# --- JSON interchange ---

def _hex(value):
    return f"0x{value:x}"


def _unhex(value, what):
    if not isinstance(value, str) or not value.startswith("0x"):
        raise InvariantViolation(f"{what} must be a hex string, got {value!r}")
    return int(value, 16)


def metadata_to_json(meta: EllfMetadata) -> dict:
    pointers = []
    for rec in meta.pointers:
        if isinstance(rec, OperandPointer):
            pointers.append({"kind": "operand", "instr_addr": _hex(rec.instr_addr),
                             "operand_index": rec.operand_index, "target": _hex(rec.target)})
        elif isinstance(rec, DataPointer):
            pointers.append({"kind": "data", "addr": _hex(rec.addr),
                             "target": _hex(rec.target)})
        else:
            pointers.append({"kind": "diff", "addr": _hex(rec.addr),
                             "minuend": _hex(rec.minuend),
                             "subtrahend": _hex(rec.subtrahend)})
    return {
        "version": meta.version,
        "instruction_regions": [{"start": _hex(r.start), "count": r.count}
                                for r in meta.instruction_regions],
        "pointers": pointers,
        "text": [{"addr": _hex(r.addr), "kind": r.kind} for r in meta.text],
        "stack": [{"function_entry": _hex(r.function_entry), "offsets": list(r.offsets)}
                  for r in meta.stack],
        "data": [{"addr": _hex(r.addr), "size": r.size} for r in meta.data],
    }


def metadata_from_json(obj: dict) -> EllfMetadata:
    pointers = []
    for p in obj.get("pointers", ()):
        kind = p.get("kind")
        if kind == "operand":
            pointers.append(OperandPointer(_unhex(p["instr_addr"], "instr_addr"),
                                           int(p["operand_index"]),
                                           _unhex(p["target"], "target")))
        elif kind == "data":
            pointers.append(DataPointer(_unhex(p["addr"], "addr"),
                                        _unhex(p["target"], "target")))
        elif kind == "diff":
            pointers.append(DataDiff(_unhex(p["addr"], "addr"),
                                     _unhex(p["minuend"], "minuend"),
                                     _unhex(p["subtrahend"], "subtrahend")))
        else:
            raise InvariantViolation(f"unknown pointer kind {kind!r}")
    meta = EllfMetadata(
        version=int(obj.get("version", VERSION)),
        instruction_regions=tuple(
            InstructionRegion(_unhex(r["start"], "start"), int(r["count"]))
            for r in obj.get("instruction_regions", ())),
        pointers=tuple(pointers),
        text=tuple(TextRecord(_unhex(r["addr"], "addr"), r["kind"])
                   for r in obj.get("text", ())),
        stack=tuple(StackRecord(_unhex(r["function_entry"], "function_entry"),
                                tuple(int(o) for o in r["offsets"]))
                    for r in obj.get("stack", ())),
        data=tuple(DataRecord(_unhex(r["addr"], "addr"), int(r["size"]))
                   for r in obj.get("data", ())),
    )
    check_invariants(meta)
    return meta


_HEX_ADDR = {"type": "string", "pattern": "^0x[0-9a-fA-F]+$"}

METADATA_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "instruction_regions", "pointers", "text", "stack", "data"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "integer", "const": 1},
        "instruction_regions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["start", "count"],
                "additionalProperties": False,
                "properties": {"start": _HEX_ADDR, "count": {"type": "integer", "minimum": 1}},
            },
        },
        "pointers": {
            "type": "array",
            "items": {
                "oneOf": [
                    {
                        "type": "object",
                        "required": ["kind", "instr_addr", "operand_index", "target"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"const": "operand"},
                            "instr_addr": _HEX_ADDR,
                            "operand_index": {"type": "integer", "minimum": 0},
                            "target": _HEX_ADDR,
                        },
                    },
                    {
                        "type": "object",
                        "required": ["kind", "addr", "target"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"const": "data"},
                            "addr": _HEX_ADDR,
                            "target": _HEX_ADDR,
                        },
                    },
                    {
                        "type": "object",
                        "required": ["kind", "addr", "minuend", "subtrahend"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"const": "diff"},
                            "addr": _HEX_ADDR,
                            "minuend": _HEX_ADDR,
                            "subtrahend": _HEX_ADDR,
                        },
                    },
                ],
            },
        },
        "text": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["addr", "kind"],
                "additionalProperties": False,
                "properties": {
                    "addr": _HEX_ADDR,
                    "kind": {"enum": [BASIC_BLOCK, FUNCTION_START, FUNCTION_END]},
                },
            },
        },
        "stack": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["function_entry", "offsets"],
                "additionalProperties": False,
                "properties": {
                    "function_entry": _HEX_ADDR,
                    "offsets": {"type": "array",
                                "items": {"type": "integer", "minimum": 1}},
                },
            },
        },
        "data": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["addr", "size"],
                "additionalProperties": False,
                "properties": {"addr": _HEX_ADDR, "size": {"type": "integer", "minimum": 1}},
            },
        },
    },
}

BUILD_FACTS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "basic_blocks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["function_addr", "block_offsets", "block_sizes"],
                "additionalProperties": False,
                "properties": {
                    "function_addr": _HEX_ADDR,
                    "block_offsets": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "block_sizes": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                },
            },
        },
        "relocations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["addr", "kind", "target_addr"],
                "additionalProperties": False,
                "properties": {
                    "addr": _HEX_ADDR,
                    "kind": {"enum": ["abs64", "pc32", "diff32"]},
                    "target_addr": _HEX_ADDR,
                    "subtrahend_addr": _HEX_ADDR,
                },
            },
        },
        "variables": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["addr", "size"],
                "additionalProperties": False,
                "properties": {"addr": _HEX_ADDR, "size": {"type": "integer", "minimum": 1}},
            },
        },
        "locals": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["function_addr", "offsets"],
                "additionalProperties": False,
                "properties": {
                    "function_addr": _HEX_ADDR,
                    "offsets": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                },
            },
        },
        "jump_tables": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["table_addr", "entry_count", "entry_size"],
                "additionalProperties": False,
                "properties": {
                    "table_addr": _HEX_ADDR,
                    "entry_count": {"type": "integer", "minimum": 1},
                    "entry_size": {"type": "integer", "minimum": 1},
                },
            },
        },
    },
}


# --- build facts ingestion ---

@dataclass(frozen=True)
class BlockFacts:
    function_addr: int
    block_offsets: tuple[int, ...]
    block_sizes: tuple[int, ...]


@dataclass(frozen=True)
class RelocationFact:
    addr: int
    kind: str  # "abs64" | "pc32" | "diff32"
    target_addr: int
    subtrahend_addr: int | None = None


@dataclass(frozen=True)
class JumpTableFact:
    table_addr: int
    entry_count: int
    entry_size: int


@dataclass(frozen=True)
class BuildFacts:
    basic_blocks: tuple[BlockFacts, ...] = ()
    relocations: tuple[RelocationFact, ...] = ()
    variables: tuple[DataRecord, ...] = ()
    locals: tuple[StackRecord, ...] = ()
    jump_tables: tuple[JumpTableFact, ...] = ()


def build_facts_from_json(obj: dict) -> BuildFacts:
    return BuildFacts(
        basic_blocks=tuple(
            BlockFacts(_unhex(b["function_addr"], "function_addr"),
                       tuple(int(o) for o in b["block_offsets"]),
                       tuple(int(s) for s in b["block_sizes"]))
            for b in obj.get("basic_blocks", ())),
        relocations=tuple(
            RelocationFact(_unhex(r["addr"], "addr"), r["kind"],
                           _unhex(r["target_addr"], "target_addr"),
                           _unhex(r["subtrahend_addr"], "subtrahend_addr")
                           if "subtrahend_addr" in r else None)
            for r in obj.get("relocations", ())),
        variables=tuple(
            DataRecord(_unhex(v["addr"], "addr"), int(v["size"]))
            for v in obj.get("variables", ())),
        locals=tuple(
            StackRecord(_unhex(l["function_addr"], "function_addr"),
                        tuple(int(o) for o in l["offsets"]))
            for l in obj.get("locals", ())),
        jump_tables=tuple(
            JumpTableFact(_unhex(t["table_addr"], "table_addr"),
                          int(t["entry_count"]), int(t["entry_size"]))
            for t in obj.get("jump_tables", ())),
    )


def from_build_facts(facts: BuildFacts, image) -> tuple[EllfMetadata, list[Diagnostic]]:
    """Turn linker-time facts into oracle metadata.

    ``image`` is the loadable image from ``elfio.load_image`` (any mapping from
    virtual address to byte will do); instruction counts, operand positions
    and function-end addresses all need the decoder, so it is a required
    input.
    """
    from .isa import decode_one  # local import keeps the codec importable standalone

    diagnostics: list[Diagnostic] = []

    # Coalesce block byte extents into maximal contiguous runs.
    extents = []
    for blocks in facts.basic_blocks:
        if len(blocks.block_offsets) != len(blocks.block_sizes):
            raise InconsistentFacts(
                f"function 0x{blocks.function_addr:x}: offset/size lists differ in length")
        for off, size in zip(blocks.block_offsets, blocks.block_sizes):
            extents.append((blocks.function_addr + off, blocks.function_addr + off + size))
    extents.sort()
    runs = []
    for start, end in extents:
        if runs and start < runs[-1][1]:
            raise InconsistentFacts(f"basic blocks overlap at 0x{start:x}")
        if runs and start == runs[-1][1]:
            runs[-1][1] = end
        else:
            runs.append([start, end])

    # Decode each run to count instructions and learn instruction starts.
    regions = []
    instr_starts = set()
    instr_extent = {}  # start -> length
    for start, end in runs:
        addr = start
        count = 0
        while addr < end:
            ins = decode_one(image, addr)
            instr_starts.add(addr)
            instr_extent[addr] = ins.length
            addr += ins.length
            count += 1
        if addr != end:
            raise InconsistentFacts(
                f"instructions decoded from 0x{start:x} overrun the block end 0x{end:x}")
        regions.append(InstructionRegion(start, count))

    def region_of(addr):
        for start, end in runs:
            if start <= addr < end:
                return start, end
        return None

    # Text records: first block of a function starts it, the last instruction
    # of its last block ends it.
    text = set()
    for blocks in facts.basic_blocks:
        if not blocks.block_offsets:
            continue
        order = sorted(zip(blocks.block_offsets, blocks.block_sizes))
        entry = blocks.function_addr + order[0][0]
        text.add(TextRecord(entry, FUNCTION_START))
        for off, _ in order[1:]:
            text.add(TextRecord(blocks.function_addr + off, BASIC_BLOCK))
        last_off, last_size = order[-1]
        last_end = blocks.function_addr + last_off + last_size
        last_instr = max(a for a in instr_starts
                         if blocks.function_addr + last_off <= a < last_end)
        text.add(TextRecord(last_instr, FUNCTION_END))

    # Pointer records from relocations.
    tables = {t.table_addr: t for t in facts.jump_tables}
    pointers = []
    for reloc in facts.relocations:
        if reloc.kind == "diff32":
            sub = None
            for table in facts.jump_tables:
                span = table.entry_count * table.entry_size
                if table.table_addr <= reloc.addr < table.table_addr + span:
                    if table.entry_size != 8:
                        raise InconsistentFacts(
                            f"jump table at 0x{table.table_addr:x} has entry size "
                            f"{table.entry_size}; only pointer-width entries are supported")
                    sub = table.table_addr
                    break
            if sub is None:
                sub = reloc.subtrahend_addr
            if sub is None:
                raise InconsistentFacts(
                    f"diff relocation at 0x{reloc.addr:x} has no subtrahend and "
                    f"is not inside any declared jump table")
            pointers.append(DataDiff(reloc.addr, reloc.target_addr, sub))
            continue
        inside = region_of(reloc.addr)
        if inside is None:
            if reloc.kind == "pc32":
                raise InconsistentFacts(
                    f"pc-relative relocation at 0x{reloc.addr:x} falls outside every "
                    f"instruction region; 4-byte pointer cells are not representable")
            pointers.append(DataPointer(reloc.addr, reloc.target_addr))
            continue
        # Inside a region: locate the containing instruction and the operand
        # whose immediate or displacement field sits exactly at the reloc.
        instr_addr = max(a for a in instr_starts if a <= reloc.addr)
        ins = decode_one(image, instr_addr)
        operand_index = None
        for fld in ins.fields:
            if instr_addr + fld.offset == reloc.addr:
                operand_index = fld.operand
                break
        if operand_index is None:
            raise InconsistentFacts(
                f"relocation at 0x{reloc.addr:x} is inside an instruction region but "
                f"not at an operand immediate/displacement position")
        pointers.append(OperandPointer(instr_addr, operand_index, reloc.target_addr))

    # Data records with the drop-later overlap rule.
    data_records = []
    kept_end = None
    for var in sorted(facts.variables, key=lambda v: (v.addr, -v.size)):
        if kept_end is not None and var.addr < kept_end:
            diagnostics.append(Diagnostic(
                kind="overlap-dropped",
                message=f"variable at 0x{var.addr:x} (size {var.size}) overlaps the "
                        f"previous variable and was dropped",
                addr=var.addr, severity=WARNING))
            continue
        data_records.append(DataRecord(var.addr, var.size))
        kept_end = var.addr + var.size

    # Stack records, merged per function.
    per_function: dict[int, set[int]] = {}
    for rec in facts.locals:
        for off in rec.offsets:
            if off <= 0:
                raise InconsistentFacts(
                    f"local offset {off} of function 0x{rec.function_entry:x} "
                    f"is not positive")
        per_function.setdefault(rec.function_entry, set()).update(rec.offsets)
    stack = [StackRecord(entry, tuple(sorted(offs)))
             for entry, offs in sorted(per_function.items()) if offs]

    meta = EllfMetadata(
        instruction_regions=tuple(sorted(regions, key=lambda r: r.start)),
        pointers=tuple(sorted(pointers, key=_pointer_sort_key)),
        text=tuple(sorted(text, key=_text_sort_key)),
        stack=tuple(stack),
        data=tuple(data_records),
    )
    check_invariants(meta)
    return meta, diagnostics


# --- validation against an ELF image ---

def validate_metadata(meta: EllfMetadata, image) -> list[Diagnostic]:
    """Cross-check metadata against the sections of an ElfImage.

    Returns an empty list iff region starts and text records sit in executable
    sections, pointer targets and diff operands sit in some section, data
    records stay inside one data section, stack entries name function starts,
    and operand pointers land on decoded instruction starts.
    """
    from .isa import decode_one

    diags: list[Diagnostic] = []

    def check_in_exec(addr, what):
        sec = image.section_at(addr)
        if sec is None or not sec.exec:
            diags.append(Diagnostic("range", f"{what} 0x{addr:x} is not inside an "
                                             f"executable section", addr))
            return False
        return True

    def check_in_any(addr, what):
        if image.section_at(addr) is None:
            diags.append(Diagnostic("range", f"{what} 0x{addr:x} is not inside any "
                                             f"section", addr))

    byte_map = None
    instr_starts = set()
    for region in meta.instruction_regions:
        if not check_in_exec(region.start, "instruction region start"):
            continue
        if byte_map is None:
            from .elfio import load_image
            byte_map = load_image(image)
        addr = region.start
        try:
            for _ in range(region.count):
                ins = decode_one(byte_map, addr)
                instr_starts.add(addr)
                addr += ins.length
        except Exception as exc:  # undecodable region: report, skip alignment checks
            diags.append(Diagnostic("range", f"instruction region at 0x{region.start:x} "
                                             f"does not decode: {exc}", region.start))

    for rec in meta.pointers:
        if isinstance(rec, OperandPointer):
            check_in_any(rec.target, "pointer target")
            if meta.instruction_regions and rec.instr_addr not in instr_starts:
                diags.append(Diagnostic(
                    "alignment",
                    f"operand pointer address 0x{rec.instr_addr:x} is not an "
                    f"instruction start", rec.instr_addr))
        elif isinstance(rec, DataPointer):
            check_in_any(rec.target, "pointer target")
        else:
            check_in_any(rec.minuend, "diff minuend")
            check_in_any(rec.subtrahend, "diff subtrahend")

    for trec in meta.text:
        check_in_exec(trec.addr, "text record address")

    starts = {t.addr for t in meta.text if t.kind == FUNCTION_START}
    for srec in meta.stack:
        if meta.text and srec.function_entry not in starts:
            diags.append(Diagnostic(
                "function-start",
                f"stack record entry 0x{srec.function_entry:x} is not a function start",
                srec.function_entry))

    for drec in meta.data:
        sec = image.section_at(drec.addr)
        if sec is None or sec.exec:
            diags.append(Diagnostic("range", f"data record at 0x{drec.addr:x} is not "
                                             f"inside a data section", drec.addr))
        elif drec.addr + drec.size > sec.vaddr + sec.size:
            diags.append(Diagnostic("range", f"data record at 0x{drec.addr:x} extends "
                                             f"past the end of {sec.name}", drec.addr))

    return diags
