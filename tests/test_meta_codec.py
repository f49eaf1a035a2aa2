"""Binary codec: frozen byte vectors, an independent reference encoder,
round-trip and canonicality properties, and structured-error fuzzing."""

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
    decode_metadata,
    encode_metadata,
)

from conftest import SPARSE_DEMO_META
from helpers_gen import random_metadata


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
    out = b"ELLF" + b"\x01"
    out += b"\x01" + ref_uv(len(meta.instruction_regions))
    prev = 0
    for i, r in enumerate(meta.instruction_regions):
        out += ref_uv(r.start if i == 0 else r.start - prev) + ref_uv(r.count)
        prev = r.start
    out += b"\x02" + ref_uv(len(meta.pointers))
    prev = 0
    for i, p in enumerate(meta.pointers):
        out += ref_uv(p.key if i == 0 else p.key - prev)
        if isinstance(p, OperandPointer):
            out += b"\x00" + ref_uv(p.operand_index) + ref_sv(p.target - p.key)
        elif isinstance(p, DataPointer):
            out += b"\x01" + ref_sv(p.target - p.key)
        else:
            out += b"\x02" + ref_sv(p.minuend - p.key) + ref_sv(p.subtrahend - p.key)
        prev = p.key
    out += b"\x03" + ref_uv(len(meta.text))
    prev = 0
    kind_code = {BASIC_BLOCK: 0, FUNCTION_START: 1, FUNCTION_END: 2}
    for i, t in enumerate(meta.text):
        out += ref_uv(t.addr if i == 0 else t.addr - prev)
        out += bytes([kind_code[t.kind]])
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


def test_empty_metadata_exact_bytes():
    # magic + version + five (id, zero-count) table headers: 15 bytes total.
    encoded = encode_metadata(EllfMetadata())
    assert encoded == bytes.fromhex("454c4c46 01 0100 0200 0300 0400 0500".replace(" ", ""))
    assert len(encoded) == 15
    assert decode_metadata(encoded) == EllfMetadata()


def test_sparse_demo_frozen_vector():
    # Hand-computed against the wire format before the main implementation,
    # and cross-checked by the reference encoder above.
    expected = bytes.fromhex(
        "454c4c46"      # magic
        "01"            # version
        "0101" "808001" "0a"                        # one region: 0x4000 x10
        "0203"                                      # three pointer records
        "848001" "00" "01" "40"                     # operand ptr @0x4004 -> +0x20
        "20" "02" "1f" "00"                         # diff @0x4024: -16, +0
        "08" "02" "1f" "0f"                         # diff @0x402c: -16, -8
        "0303" "808001" "01" "14" "00" "0f" "02"    # text: start, block, end
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


def test_unsupported_version():
    with pytest.raises(UnsupportedVersion):
        decode_metadata(b"ELLF\x02" + b"\x01\x00\x02\x00\x03\x00\x04\x00\x05\x00")


def test_duplicate_text_records_rejected():
    # Same (address, kind) twice: the second delta is zero with an equal kind.
    raw = (b"ELLF\x01" + b"\x01\x00" + b"\x02\x00"
           + b"\x03\x02" + b"\x10\x00" + b"\x00\x00"
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
    raw = (b"ELLF\x01" + b"\x01\x00" + b"\x02\x00" + b"\x03\x00" + b"\x04\x00"
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
        pointers=SPARSE_DEMO_META.pointers + (DataPointer(0x4034, 0x4000),),
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
        "pointer kind", "operand index", "pointer target", "diff minuend",
        "diff subtrahend", "table 3 id", "text record count", "text record address",
        "text record kind", "table 4 id", "stack record count",
        "stack function entry", "stack offset count", "stack offset", "table 5 id",
        "data record count", "data record address", "data record size"}
