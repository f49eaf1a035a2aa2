import json
import random

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ellf.errors import InvariantViolation
from ellf.meta import (
    BUILD_FACTS_SCHEMA,
    METADATA_SCHEMA,
    EllfMetadata,
    metadata_from_json,
    metadata_to_json,
)

from conftest import SPARSE_DEMO_META
from helpers_gen import random_metadata


def test_json_roundtrip_demo():
    obj = metadata_to_json(SPARSE_DEMO_META)
    assert obj["instruction_regions"] == [{"start": "0x4000", "count": 10}]
    assert obj["pointers"][0] == {"kind": "operand", "instr_addr": "0x4004",
                                  "operand_index": 1, "target": "0x4024"}
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


def test_build_facts_schema_is_valid_schema():
    jsonschema.Draft202012Validator.check_schema(METADATA_SCHEMA)
    jsonschema.Draft202012Validator.check_schema(BUILD_FACTS_SCHEMA)


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
