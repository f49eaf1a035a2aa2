"""Binary codec: frozen byte vectors, an independent reference encoder, a
reference decoder for differential fuzzing, round-trip and canonicality
properties, and structured-error fuzzing."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ellf.errors import (
    BadMagic,
    EllfError,
    InvariantViolation,
    NonCanonical,
    TruncatedTable,
    UnsupportedVersion,
    VarintOverflow,
)
from ellf.meta import (
    BASIC_BLOCK,
    DataDiff,
    DataPointer,
    DataRecord,
    EllfMetadata,
    FUNCTION_END,
    FUNCTION_START,
    InstructionRegion,
    OperandPointer,
    StackRecord,
    TextRecord,
    _Reader,
    _pointer_sort_key,
    _text_sort_key,
    decode_metadata,
    encode_metadata,
    metadata_from_layout,
)

from conftest import SPARSE_DEMO_META
from helpers_gen import U64, random_metadata


# --- reference encoder: a deliberately naive, straight-line rewrite of the
# --- wire format used as an independent oracle for the byte vectors.

def ref_uv(v):
    out = b""
    while True:
        byte = v & 0x7F
        v >>= 7
        if v:
            out += bytes([byte | 0x80])
        else:
            out += bytes([byte])
            return out


def ref_sv(v):
    return ref_uv(v * 2 if v >= 0 else -v * 2 - 1)


def ref_encode(meta):
    out = b"ELLF" + b"\x03"
    out += b"\x01" + ref_uv(len(meta.instruction_regions))
    prev = 0
    for i, r in enumerate(meta.instruction_regions):
        out += ref_uv(r.start if i == 0 else r.start - prev) + ref_uv(r.count)
        prev = r.start
    out += b"\x02" + ref_uv(len(meta.pointers))
    prev = 0
    for i, p in enumerate(meta.pointers):
        delta = p.key if i == 0 else p.key - prev
        if isinstance(p, OperandPointer):
            out += ref_uv(delta * 4 + 0) + ref_uv(p.operand_index)
        elif isinstance(p, DataPointer):
            out += ref_uv(delta * 4 + 1)
        else:
            out += ref_uv(delta * 4 + 2) + ref_sv(p.subtrahend - p.key)
        prev = p.key
    out += b"\x03" + ref_uv(len(meta.text))
    prev = 0
    kind_code = {BASIC_BLOCK: 0, FUNCTION_START: 1, FUNCTION_END: 2}
    for i, t in enumerate(meta.text):
        out += ref_uv((t.addr if i == 0 else t.addr - prev) * 4 + kind_code[t.kind])
        prev = t.addr
    out += b"\x04" + ref_uv(len(meta.stack))
    prev = 0
    for i, s in enumerate(meta.stack):
        out += ref_uv(s.function_entry if i == 0 else s.function_entry - prev)
        out += ref_uv(len(s.offsets))
        last = 0
        for j, off in enumerate(s.offsets):
            out += ref_uv(off if j == 0 else off - last)
            last = off
        prev = s.function_entry
    out += b"\x05" + ref_uv(len(meta.data))
    prev = 0
    for i, d in enumerate(meta.data):
        out += ref_uv(d.addr if i == 0 else d.addr - prev) + ref_uv(d.size)
        prev = d.addr
    return out


# --- reference decoder: an earlier decoder that checked canonical form inline,
# --- record by record, instead of parsing first and then applying
# --- check_invariants. The current decoder must accept exactly what it
# --- accepts and decode it to the same metadata.

def _ref_rebase(key, delta, what):
    value = key + delta
    if not 0 <= value <= U64:
        raise NonCanonical(f"{what} 0x{key:x}{delta:+x} outside the address space")
    return value


def _ref_table_id(rd, table_id):
    got = rd.u8(f"table {table_id} id")
    if got != table_id:
        raise NonCanonical(f"expected table id {table_id}, found {got}")


def ref_decode(data):
    rd = _Reader(bytes(data))
    if len(rd.data) < 4 or rd.data[:4] != b"ELLF":
        raise BadMagic("input does not start with the ELLF magic")
    rd.pos = 4
    version = rd.u8("version")
    if version != 3:
        raise UnsupportedVersion(f"version {version} is not supported")

    regions = []
    _ref_table_id(rd, 1)
    addr = 0
    for i in range(rd.uvarint("region count")):
        delta = rd.uvarint("region start")
        if i == 0:
            addr = delta
        else:
            if delta == 0:
                raise NonCanonical("instruction regions not strictly ascending")
            addr = _ref_rebase(addr, delta, "region start")
        n = rd.uvarint("region instruction count")
        if n < 1:
            raise NonCanonical(f"region at 0x{addr:x} has zero instructions")
        regions.append(InstructionRegion(addr, n))

    pointers = []
    _ref_table_id(rd, 2)
    key = 0
    prev_sort = None
    for i in range(rd.uvarint("pointer count")):
        field = rd.uvarint("pointer key", 66)
        delta, kind = field >> 2, field & 3
        key = _ref_rebase(key, delta, "pointer key")
        if kind == 0:
            rec = OperandPointer(key, rd.uvarint("operand index"))
        elif kind == 1:
            rec = DataPointer(key)
        elif kind == 2:
            subtrahend = _ref_rebase(key, rd.svarint("diff subtrahend"), "diff subtrahend")
            rec = DataDiff(key, subtrahend)
        else:
            raise NonCanonical(f"unknown pointer record kind {kind}")
        sort = _pointer_sort_key(rec)
        if prev_sort is not None and sort <= prev_sort:
            raise NonCanonical(f"pointer records unsorted or duplicated at 0x{key:x}")
        prev_sort = sort
        pointers.append(rec)

    text = []
    _ref_table_id(rd, 3)
    addr = 0
    prev_sort = None
    kind_names = {0: BASIC_BLOCK, 1: FUNCTION_START, 2: FUNCTION_END}
    for i in range(rd.uvarint("text record count")):
        field = rd.uvarint("text record address", 66)
        delta, kind = field >> 2, field & 3
        addr = _ref_rebase(addr, delta, "text record address")
        if kind not in kind_names:
            raise NonCanonical(f"unknown text record kind {kind}")
        rec = TextRecord(addr, kind_names[kind])
        sort = _text_sort_key(rec)
        if prev_sort is not None and sort <= prev_sort:
            raise NonCanonical(f"text records unsorted or duplicated at 0x{addr:x}")
        prev_sort = sort
        text.append(rec)

    stack = []
    _ref_table_id(rd, 4)
    entry = 0
    for i in range(rd.uvarint("stack record count")):
        delta = rd.uvarint("stack function entry")
        if i == 0:
            entry = delta
        else:
            if delta == 0:
                raise NonCanonical("stack records not strictly ascending")
            entry = _ref_rebase(entry, delta, "stack function entry")
        offsets = []
        off = 0
        for j in range(rd.uvarint("stack offset count")):
            d = rd.uvarint("stack offset")
            if d == 0:
                raise NonCanonical(f"stack offsets of 0x{entry:x} not strictly ascending")
            off = off + d if j else d
            if off > U64:
                raise NonCanonical(f"stack offset of 0x{entry:x} overflows")
            offsets.append(off)
        stack.append(StackRecord(entry, tuple(offsets)))

    data_records = []
    _ref_table_id(rd, 5)
    addr = 0
    prev_end = None
    for i in range(rd.uvarint("data record count")):
        delta = rd.uvarint("data record address")
        addr = delta if i == 0 else _ref_rebase(addr, delta, "data record address")
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
    return EllfMetadata(instruction_regions=tuple(regions), pointers=tuple(pointers),
                        text=tuple(text), stack=tuple(stack), data=tuple(data_records))


def test_empty_metadata_exact_bytes():
    # magic + version + five (id, zero-count) table headers: 15 bytes total.
    encoded = encode_metadata(EllfMetadata())
    assert encoded == bytes.fromhex("454c4c46 03 0100 0200 0300 0400 0500".replace(" ", ""))
    assert len(encoded) == 15
    assert decode_metadata(encoded) == EllfMetadata()


def test_sparse_demo_frozen_vector():
    # Hand-computed against the wire format before the main implementation,
    # and cross-checked by the reference encoder above.
    # A key field of the pointer and text tables is delta << 2 | kind.
    expected = bytes.fromhex(
        "454c4c46"      # magic
        "03"            # version
        "0101" "808001" "0a"                        # one region: 0x4000 x10
        "0203"                                      # three pointer records
        "908004" "01"                               # operand ptr @0x4004, operand 1
        "8201" "00"                                 # diff @0x4024: subtrahend +0
        "22" "0f"                                   # diff @0x402c: subtrahend -8
        "0303" "818004" "50" "3e"                   # text: start, block, end
        "0400"                                      # no stack records
        "0502" "a48001" "08" "08" "08"              # data: 0x4024/8, 0x402c/8
    )
    assert ref_encode(SPARSE_DEMO_META) == expected
    assert encode_metadata(SPARSE_DEMO_META) == expected
    assert decode_metadata(expected) == SPARSE_DEMO_META


def test_minimal_region_roundtrip():
    meta = EllfMetadata(instruction_regions=(InstructionRegion(0, 1),))
    assert decode_metadata(encode_metadata(meta)) == meta


def test_magic_only_is_truncated():
    with pytest.raises(TruncatedTable):
        decode_metadata(b"\x45\x4c\x4c\x46")


def test_bad_magic():
    with pytest.raises(BadMagic):
        decode_metadata(b"ELF\x00plus")
    with pytest.raises(BadMagic):
        decode_metadata(b"")


# The sparse demo as version 1 wrote it, with a target in every pointer record.
VERSION_1_DEMO = bytes.fromhex(
    "454c4c46" "01" "0101" "808001" "0a" "0203"
    "848001" "00" "01" "40" "20" "02" "1f" "00" "08" "02" "1f" "0f"  # target, minuend
    "0303" "808001" "01" "14" "00" "0f" "02" "0400" "0502" "a48001" "08" "08" "08")


# The sparse demo as version 2 wrote it, with a kind byte after each pointer
# and text key delta.
VERSION_2_DEMO = bytes.fromhex(
    "454c4c46" "02" "0101" "808001" "0a" "0203" "848001" "00" "01" "20" "02" "00"
    "08" "02" "0f" "0303" "808001" "01" "14" "00" "0f" "02" "0400" "0502" "a48001"
    "08" "08" "08")


def test_unsupported_version():
    for version in (1, 2, 4):
        with pytest.raises(UnsupportedVersion, match=f"version {version} is not supported"):
            decode_metadata(b"ELLF" + bytes([version])
                            + b"\x01\x00\x02\x00\x03\x00\x04\x00\x05\x00")
    for payload in (VERSION_1_DEMO, VERSION_2_DEMO):
        with pytest.raises(UnsupportedVersion):
            decode_metadata(payload)


def _records(table_id, *records):
    """A version-3 payload whose table ``table_id`` holds the encoded ``records``."""
    tables = b"".join(bytes([i]) + (ref_uv(len(records)) + b"".join(records)
                                    if i == table_id else b"\x00") for i in range(1, 6))
    return b"ELLF\x03" + tables


@pytest.mark.parametrize("table_id", [2, 3], ids=["pointer", "text"])
def test_kind_3_is_not_canonical(table_id):
    # Kind 3 of the pointer table is kept for a later record type.
    noun = "pointer" if table_id == 2 else "text"
    with pytest.raises(NonCanonical, match=f"unknown {noun} record kind 3"):
        decode_metadata(_records(table_id, b"\x43"))  # key 0x10, kind 3


@pytest.mark.parametrize("meta", [
    EllfMetadata(pointers=(DataPointer(U64),)),
    EllfMetadata(pointers=(OperandPointer(U64 - 1, 0), DataDiff(U64, 0))),
    EllfMetadata(text=(TextRecord(U64, FUNCTION_END),)),
    EllfMetadata(text=(TextRecord(0, BASIC_BLOCK), TextRecord(U64, FUNCTION_START))),
], ids=["pointer", "two_pointers", "text", "text_delta"])
def test_keys_at_the_top_of_the_address_space_fill_the_66_bit_key_field(meta):
    encoded = encode_metadata(meta)
    assert decode_metadata(encoded) == meta
    assert ref_encode(meta) == encoded


def test_a_key_past_the_address_space_or_a_key_field_past_66_bits_is_refused():
    top = ref_uv(U64 << 2 | 1)  # the largest delta, kind 1: a data pointer or function start
    with pytest.raises(NonCanonical, match="pointer key 0x10000000000000000 outside"):
        decode_metadata(_records(2, top, ref_uv(1 << 2 | 1)))
    with pytest.raises(NonCanonical, match="text record address 0x10000000000000000 outside"):
        decode_metadata(_records(3, top, ref_uv(1 << 2 | 1)))
    for table_id in (2, 3):
        with pytest.raises(VarintOverflow, match="exceeds 66 bits"):
            decode_metadata(_records(table_id, ref_uv(1 << 66)))
    # A table without kinds keeps a 64-bit key field.
    with pytest.raises(VarintOverflow, match="data record address: .* exceeds 64 bits"):
        decode_metadata(_records(5, ref_uv(1 << 64) + b"\x01"))


def test_duplicate_text_records_rejected():
    # Same (address, kind) twice: the second delta is zero with an equal kind.
    raw = (b"ELLF\x03" + b"\x01\x00" + b"\x02\x00"
           + b"\x03\x02" + b"\x40" + b"\x00"
           + b"\x04\x00" + b"\x05\x00")
    with pytest.raises(NonCanonical):
        decode_metadata(raw)


def test_unsorted_regions_rejected_on_encode():
    meta = EllfMetadata(instruction_regions=(
        InstructionRegion(0x20, 1), InstructionRegion(0x10, 1)))
    with pytest.raises(InvariantViolation):
        encode_metadata(meta)


def test_overlapping_data_rejected_both_ways():
    meta = EllfMetadata(data=(DataRecord(0x10, 8), DataRecord(0x14, 8)))
    with pytest.raises(InvariantViolation):
        encode_metadata(meta)
    raw = (b"ELLF\x03" + b"\x01\x00" + b"\x02\x00" + b"\x03\x00" + b"\x04\x00"
           + b"\x05\x02" + b"\x10\x08" + b"\x04\x08")
    with pytest.raises(NonCanonical):
        decode_metadata(raw)


def test_trailing_bytes_rejected():
    with pytest.raises(NonCanonical):
        decode_metadata(encode_metadata(EllfMetadata()) + b"\x00")


@st.composite
def metadata_instances(draw):
    seed = draw(st.integers(0, 2 ** 32))
    return random_metadata(random.Random(seed))


@settings(max_examples=300, deadline=None)
@given(metadata_instances())
def test_roundtrip_property(meta):
    encoded = encode_metadata(meta)
    assert decode_metadata(encoded) == meta
    # canonical: re-encoding the decoded value reproduces the bytes
    assert encode_metadata(decode_metadata(encoded)) == encoded
    # the reference encoder agrees byte for byte
    assert ref_encode(meta) == encoded


@settings(max_examples=200, deadline=None)
@given(metadata_instances(), st.integers(0, 2 ** 32))
def test_monotone_size(meta, seed):
    rng = random.Random(seed)
    base = len(encode_metadata(meta))
    last_end = meta.data[-1].addr + meta.data[-1].size if meta.data else 0
    grown = EllfMetadata(
        version=meta.version,
        instruction_regions=meta.instruction_regions,
        pointers=meta.pointers,
        text=meta.text,
        stack=meta.stack,
        data=meta.data + (DataRecord(last_end + rng.randint(0, 1 << 20),
                                     rng.randint(1, 1 << 12)),),
    )
    assert len(encode_metadata(grown)) >= base


def test_fuzz_decode_never_crashes():
    rng = random.Random(0xE11F)
    valid = encode_metadata(SPARSE_DEMO_META)
    for i in range(10_000):
        if i % 3 == 0 and i:
            blob = bytearray(valid)
            for _ in range(rng.randint(1, 6)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            data = bytes(blob)
        else:
            data = rng.randbytes(rng.randint(0, 64))
        try:
            decode_metadata(data)
        except EllfError:
            pass  # structured failure is the contract


def test_truncated_payload_errors_name_the_field():
    meta = EllfMetadata(
        instruction_regions=SPARSE_DEMO_META.instruction_regions,
        pointers=SPARSE_DEMO_META.pointers + (DataPointer(0x4034),),
        text=SPARSE_DEMO_META.text,
        stack=(StackRecord(0x4000, (8, 16)),),
        data=SPARSE_DEMO_META.data,
    )
    payload = encode_metadata(meta)
    named = set()
    for length in range(4, len(payload)):
        with pytest.raises(TruncatedTable) as info:
            decode_metadata(payload[:length])
        message = str(info.value)
        varint = re.fullmatch(r"(.+): varint runs past end of input at offset (\d+)",
                              message)
        if varint:
            named.add(varint.group(1))
            assert int(varint.group(2)) <= length
        else:
            named.add(re.fullmatch(r"unexpected end of input reading (.+)",
                                   message).group(1))
    assert named == {
        "version", "table 1 id", "region count", "region start",
        "region instruction count", "table 2 id", "pointer count", "pointer key",
        "operand index", "diff subtrahend", "table 3 id", "text record count",
        "text record address", "table 4 id", "stack record count",
        "stack function entry", "stack offset count", "stack offset", "table 5 id",
        "data record count", "data record address", "data record size"}


@pytest.mark.parametrize("meta", [
    EllfMetadata(instruction_regions=(InstructionRegion(0, 1 << 64),)),
    EllfMetadata(pointers=(OperandPointer(0, 1 << 64),)),
    EllfMetadata(stack=(StackRecord(0, (1 << 64,)),)),
    # each delta fits in 64 bits, their sum does not
    EllfMetadata(stack=(StackRecord(0, (1 << 63, (1 << 64) + (1 << 62))),)),
    EllfMetadata(data=(DataRecord(0, 1 << 64),)),
], ids=["region count", "operand index", "stack offset", "stack offset sum", "data size"])
def test_fields_past_64_bits_rejected_on_encode(meta):
    with pytest.raises(InvariantViolation):
        encode_metadata(meta)


# metadata_from_layout(regions, functions, blocks, pointers, variables, locals)
@pytest.mark.parametrize("layout, message", [
    (([], [], [], [], [DataRecord(0x5000, 12), DataRecord(0x5006, 6)], []),
     "data records overlap at 0x5006"),
    (([], [], [], [], [], [(0x4000, [0, 8])]),
     "stack offsets of 0x4000 not strictly increasing"),
], ids=["overlapping_variables", "slot_offset_zero"])
def test_the_record_builder_refuses_a_layout_that_breaks_an_invariant(layout, message):
    with pytest.raises(InvariantViolation) as info:
        metadata_from_layout(*layout)
    assert str(info.value) == message


# Field values near 0, around 2**64 and anywhere up to 2**65.
_WIDE = st.one_of(st.integers(0, 64), st.integers(U64 - 64, U64 + 64),
                  st.integers(0, 1 << 65))


@st.composite
def wide_metadata(draw):
    """Sorted tables whose fields reach up to 2**65, so encoding may refuse them."""
    def keys():
        return sorted(draw(st.sets(_WIDE, max_size=2)))

    def pointer(key):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return OperandPointer(key, draw(_WIDE))
        if kind == 1:
            return DataPointer(key)
        return DataDiff(key, draw(_WIDE))

    data = []
    end = 0
    for _ in range(draw(st.integers(0, 2))):
        data.append(DataRecord(end + draw(_WIDE), draw(_WIDE)))
        end = data[-1].addr + data[-1].size
    return EllfMetadata(
        instruction_regions=tuple(InstructionRegion(key, draw(_WIDE)) for key in keys()),
        pointers=tuple(pointer(key) for key in keys()),
        text=tuple(TextRecord(key, draw(st.sampled_from(
            [BASIC_BLOCK, FUNCTION_START, FUNCTION_END]))) for key in keys()),
        stack=tuple(StackRecord(key, tuple(sorted(draw(st.sets(_WIDE, max_size=2)))))
                    for key in keys()),
        data=tuple(data))


@settings(max_examples=300, deadline=None)
@given(wide_metadata())
def test_whatever_encodes_decodes_to_itself(meta):
    try:
        encoded = encode_metadata(meta)
    except InvariantViolation:
        return
    assert decode_metadata(encoded) == meta


def _differential_payloads(rng, count):
    """Random tails after the header, and valid encodings with bytes flipped,
    deleted or inserted."""
    valid = [encode_metadata(SPARSE_DEMO_META)]
    valid += [encode_metadata(random_metadata(random.Random(seed))) for seed in range(40)]
    for i in range(count):
        if i % 4 == 0:
            yield b"ELLF\x03" + rng.randbytes(rng.randint(0, 48))
            continue
        blob = bytearray(rng.choice(valid))
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(5, len(blob) + 1)
            edit = rng.randrange(3)
            if edit == 0 and pos < len(blob):
                blob[pos] = rng.randrange(256)
            elif edit == 1 and pos < len(blob):
                del blob[pos]
            else:
                blob.insert(pos, rng.randrange(256))
        yield bytes(blob)


def _outcome(decode, payload):
    try:
        return decode(payload)
    except EllfError as exc:
        return exc


def test_decoder_matches_the_reference_decoder():
    """Parse-then-check accepts exactly what the inline-checking reference
    accepts, to equal metadata. Rejections keep their class, except that a
    payload the reference stops at as NonCanonical may instead fail to parse
    further on (TruncatedTable, VarintOverflow), before the check runs."""
    accepted = 0
    for payload in _differential_payloads(random.Random(0xD1FF), 20_000):
        expected, got = _outcome(ref_decode, payload), _outcome(decode_metadata, payload)
        if isinstance(expected, EllfMetadata):
            assert got == expected, payload.hex()
            accepted += 1
        elif type(got) is not type(expected):
            assert type(expected) is NonCanonical, payload.hex()
            assert type(got) in (TruncatedTable, VarintOverflow), payload.hex()
    assert accepted >= 1_000  # not only rejections are compared
