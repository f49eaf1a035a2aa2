import hashlib
import json
import random

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from test_frozen_outputs import PROGRAMS

from ellf.asm import assemble_image, parse_assembly
from ellf.errors import InvariantViolation
from ellf.meta import (
    METADATA_SCHEMA,
    DataDiff,
    DataPointer,
    DataRecord,
    EllfMetadata,
    InstructionRegion,
    OperandPointer,
    StackRecord,
    TextRecord,
    check_invariants,
    metadata_from_json,
    metadata_to_json,
)

from conftest import SPARSE_DEMO_META
from helpers_gen import random_metadata


def test_json_roundtrip_demo():
    obj = metadata_to_json(SPARSE_DEMO_META)
    assert obj["instruction_regions"] == [{"start": "0x4000", "count": 10}]
    assert obj["version"] == 3
    assert obj["pointers"] == [
        {"kind": "operand", "instr_addr": "0x4004", "operand_index": 1},
        {"kind": "diff", "addr": "0x4024", "subtrahend": "0x4024"},
        {"kind": "diff", "addr": "0x402c", "subtrahend": "0x4024"}]
    assert metadata_from_json(obj) == SPARSE_DEMO_META
    # survives an actual serialization pass
    assert metadata_from_json(json.loads(json.dumps(obj))) == SPARSE_DEMO_META


def test_json_schema_validates_demo():
    jsonschema.validate(metadata_to_json(SPARSE_DEMO_META), METADATA_SCHEMA)
    jsonschema.validate(metadata_to_json(EllfMetadata()), METADATA_SCHEMA)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_json_roundtrip_property(seed):
    meta = random_metadata(random.Random(seed))
    obj = metadata_to_json(meta)
    jsonschema.validate(obj, METADATA_SCHEMA)
    assert metadata_from_json(obj) == meta


def test_json_rejects_bad_addresses():
    obj = metadata_to_json(SPARSE_DEMO_META)
    obj["data"][0]["addr"] = "4024"  # not a hex string
    with pytest.raises(InvariantViolation):
        metadata_from_json(obj)


def test_json_rejects_invariant_violations():
    obj = metadata_to_json(SPARSE_DEMO_META)
    obj["data"] = [{"addr": "0x10", "size": 8}, {"addr": "0x14", "size": 8}]
    with pytest.raises(InvariantViolation):
        metadata_from_json(obj)


def test_metadata_schema_is_valid_schema():
    jsonschema.Draft202012Validator.check_schema(METADATA_SCHEMA)


def test_json_integral_floats_load_as_the_schema_allows():
    obj = metadata_to_json(SPARSE_DEMO_META)
    obj["instruction_regions"][0]["count"] = 10.0
    obj["data"][0]["size"] = 8.0
    jsonschema.validate(obj, METADATA_SCHEMA)
    assert metadata_from_json(obj) == SPARSE_DEMO_META


@pytest.mark.parametrize("count", [True, 2.5, "10", 0, 1 << 64])
def test_json_counts_the_schema_rejects_do_not_load(count):
    obj = metadata_to_json(SPARSE_DEMO_META)
    obj["instruction_regions"][0]["count"] = count
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(obj, METADATA_SCHEMA)
    with pytest.raises(InvariantViolation):
        metadata_from_json(obj)


# `ellf extract --json` prints json.dumps(metadata_to_json(meta), indent=2), so
# its text (key order included) and the schema are frozen here: over the
# metadata of every bundled program and of random_metadata seeds 0-199.
EXTRACT_JSON_DIGEST = "8ae894e5ae43a935e607b1c388997def609fdc72afed0aff906da2a37a25b9e0"
METADATA_SCHEMA_DIGEST = "573a9c88099f4d6cd4966fcb66a0aa48976bab67ba5e0ca6086fa734567fc809"


def test_extract_json_matches_the_frozen_digest():
    metas = [assemble_image(parse_assembly(PROGRAMS[name]))[1] for name in sorted(PROGRAMS)]
    metas += [random_metadata(random.Random(seed)) for seed in range(200)]
    digest = hashlib.sha256()
    for meta in metas:
        digest.update(json.dumps(metadata_to_json(meta), indent=2).encode() + b"\n")
    assert digest.hexdigest() == EXTRACT_JSON_DIGEST


def test_metadata_schema_matches_the_frozen_digest():
    text = json.dumps(METADATA_SCHEMA, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == METADATA_SCHEMA_DIGEST


# --- the reader accepts exactly what the schema accepts ---

METADATA_RECORDS = {"instruction_regions": InstructionRegion, "text": TextRecord,
                    "stack": StackRecord, "data": DataRecord}
POINTER_RECORDS = {"operand": OperandPointer, "data": DataPointer, "diff": DataDiff}


def plain(value):
    """A schema-valid JSON value as the records hold it."""
    if isinstance(value, str) and value.startswith("0x"):
        return int(value, 16)
    if isinstance(value, list):
        return tuple(plain(v) for v in value)
    return int(value) if isinstance(value, float) else value


def record(cls, obj, tagged=False):
    """``obj`` as a ``cls``; in a tagged table, "kind" picks the class and is no field."""
    return cls(*[plain(v) for k, v in obj.items() if not (tagged and k == "kind")])


def expected_metadata(doc):
    tables = {name: tuple(record(POINTER_RECORDS[r["kind"]], r, tagged=True)
                          if name == "pointers" else record(METADATA_RECORDS[name], r)
                          for r in records)
              for name, records in doc.items() if name != "version"}
    return EllfMetadata(version=plain(doc["version"]), **tables)


def sites(node):
    """(container, key) of every value inside the JSON value ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in list(items):
        yield node, key
        yield from sites(value)


def mutate(doc, data):
    """Drop, rename or add a table or a field, retype a value or push an integer out."""
    every = list(sites(doc))
    fields = [(obj, key) for obj, key in every if isinstance(obj, dict)]
    integers = [(obj, key) for obj, key in every if type(obj[key]) is int]
    how = data.draw(st.sampled_from(["add"] + ["drop", "rename", "retype"] * bool(fields)
                                    + ["integer"] * bool(integers)))
    if how == "add":
        objects = [doc] + [obj[key] for obj, key in every if isinstance(obj[key], dict)]
        data.draw(st.sampled_from(objects))["bogus"] = 1
        return
    obj, key = data.draw(st.sampled_from(integers if how == "integer" else
                                         fields if how != "retype" else every))
    if how == "drop":
        del obj[key]
    elif how == "rename":  # in place, as "pointers" -> "pointer"
        items = list(obj.items())
        obj.clear()
        obj.update((k[:-1] if k == key else k, v) for k, v in items)
    elif how == "retype":
        obj[key] = data.draw(st.sampled_from(["2", True, 2.0, 2.5, []]))
    else:
        obj[key] = data.draw(st.sampled_from([0, -1, 2 ** 64]))


METADATA_VALIDATOR = jsonschema.Draft202012Validator(METADATA_SCHEMA)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_readers_accept_exactly_the_documents_their_schema_accepts(data):
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    doc = metadata_to_json(random_metadata(random.Random(seed)))
    mutate(doc, data)
    if not METADATA_VALIDATOR.is_valid(doc):
        with pytest.raises(InvariantViolation):
            metadata_from_json(doc)
        return
    want = expected_metadata(doc)
    try:
        check_invariants(want)
    except InvariantViolation:  # say, an operand index now shared at one address
        with pytest.raises(InvariantViolation):
            metadata_from_json(doc)
        return
    assert metadata_from_json(doc) == want


def u64_range(low):
    return f"from {low} to {2 ** 64 - 1}"


def renamed(doc, old, new):
    return {new if key == old else key: value for key, value in doc.items()}


def demo_with(table, field, value):
    """The JSON of SPARSE_DEMO_META with ``table[0].field`` set to ``value``."""
    doc = metadata_to_json(SPARSE_DEMO_META)
    doc[table][0][field] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    (renamed(metadata_to_json(SPARSE_DEMO_META), "pointers", "pointer"),
     "metadata JSON has unknown field 'pointer'"),
    ({}, "version is missing"),
    ({**metadata_to_json(SPARSE_DEMO_META),
      "data": [{"addr": "0x10", "size": 8, "zz": 1, "aa": 2}]},
     "data[0] has unknown field 'zz'"),
    (demo_with("text", "kind", "loop"), "text[0].kind: unknown text record kind 'loop'"),
    (demo_with("instruction_regions", "count", 0),
     f"instruction_regions[0].count must be {u64_range(1)}, got 0"),
    (demo_with("pointers", "operand_index", -1),
     f"pointers[0].operand_index must be {u64_range(0)}, got -1"),
], ids=["misspelled_table", "no_version_no_tables", "unknown_fields", "unknown_text_kind",
        "zero_region_count", "negative_operand_index"])
def test_documents_the_schema_rejects_name_their_first_fault(doc, message):
    assert not METADATA_VALIDATOR.is_valid(doc)
    with pytest.raises(InvariantViolation) as info:
        metadata_from_json(doc)
    assert str(info.value) == message


# JSON Schema reads a "pattern" as ECMA-262 does, where "$" matches only at the
# end of the string. Python's "$" also matches before a final "\n", so Python's
# jsonschema accepts "0x10\n" as an address; the reader refuses it.
@pytest.mark.parametrize("doc, message", [
    ({**metadata_to_json(SPARSE_DEMO_META), "data": [{"addr": "0x10\n", "size": 8}]},
     "data[0].addr must be a hex string, got '0x10\\n'"),
    (demo_with("pointers", "instr_addr", "0x10\n"),
     "pointers[0].instr_addr must be a hex string, got '0x10\\n'"),
], ids=["metadata", "pointer_address"])
def test_a_hex_address_with_a_trailing_newline_is_refused(doc, message):
    with pytest.raises(InvariantViolation) as info:
        metadata_from_json(doc)
    assert str(info.value) == message
