"""The record contract: every NamedTuple class of the package is a value of
its own type, as a frozen dataclass was.

A record equals only a record of exactly its class with equal fields, hashes
as its field tuple, and refuses assignment. ``Diagnostic.record`` and
``Data.run_text`` ride along outside equality, hash and repr.
"""

import importlib
import pkgutil

import pytest

import ellf
from ellf import elfio
from ellf.asm import Data
from ellf.errors import Diagnostic
from ellf.isa import MemRef
from ellf.meta import DataDiff, OperandPointer

MODULES = [importlib.import_module(f"ellf.{info.name}")
           for info in pkgutil.iter_modules(ellf.__path__)]
RECORDS = sorted({value for module in MODULES for value in vars(module).values()
                  if isinstance(value, type) and issubclass(value, tuple)
                  and hasattr(value, "_fields") and value.__module__.startswith("ellf.")},
                 key=lambda cls: (cls.__module__, cls.__name__))

# The field each class keeps outside equality, hash and repr.
ASIDE = {Diagnostic: "record", Data: "run_text"}


def compared(record):
    """The fields of ``record`` that take part in its equality, as a tuple."""
    return tuple(record)[:-1] if type(record) in ASIDE else tuple(record)


def sample(cls, first=1):
    """An instance of ``cls`` whose fields hold first, first + 1, ..."""
    return cls(*range(first, first + len(cls._fields)))


def test_every_record_class_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert names >= {"Diagnostic", "Instruction", "MemRef", "OperandPointer", "DataDiff",
                     "EllfMetadata", "Section", "NewSection", "Variable", "Cfg",
                     "LiftedProgram", "Instr", "Data", "AsmSection", "AsmProgram"}


def test_records_of_two_types_with_equal_fields_differ():
    a, b = OperandPointer(0x10, 1), DataDiff(0x10, 1)
    assert a != b and not a == b
    assert hash(a) == hash(b) and len({a, b}) == 2


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_record_contract(cls):
    record = sample(cls)
    assert record == sample(cls) and not record != sample(cls)
    assert record != sample(cls, first=2)
    # A record is no plain tuple, whichever side the comparison starts from.
    assert record != tuple(record) and tuple(record) != record
    assert not record == tuple(record) and not tuple(record) == record
    for other in RECORDS:
        if other is not cls and len(other._fields) == len(cls._fields):
            assert record != sample(other), other.__name__

    assert hash(record) == hash(compared(record))
    assert record in {sample(cls)} and tuple(record) not in {record}

    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


@pytest.mark.parametrize("cls, values", [
    (Diagnostic, ("range", "message", 0x10, "error")),
    (Data, ("byte", b"\x01", 3)),
])
def test_the_aside_field_is_left_out_of_equality_hash_and_repr(cls, values):
    a, b = cls(*values, "one"), cls(*values, "two")
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == repr(b) == repr(cls(*values))
    assert ASIDE[cls] not in repr(a) and getattr(a, ASIDE[cls]) == "one"


def test_repr_names_every_field_as_a_dataclass_did():
    assert repr(MemRef(base="rax", disp=-8)) == (
        "MemRef(base='rax', index=None, scale=1, disp=-8, rip_relative=False, "
        "label=None, label_offset=0)")
    assert repr(Diagnostic("pointer", "bad", 0x10)) == (
        "Diagnostic(kind='pointer', message='bad', addr=16, severity='error')")


def test_an_image_is_immutable_and_equal_by_its_three_fields():
    section = elfio.Section(".a", 0x1000, 0, 8, elfio.SHT_PROGBITS, elfio.SHF_ALLOC)
    img = elfio.ElfImage(entry_point=0x1000, sections=(section,), raw_file=b"\0" * 8)
    same = elfio.ElfImage(0x1000, (section,), b"\0" * 8)
    assert img == same and hash(img) == hash(same)
    assert img != elfio.ElfImage(0x1000, (section,)) and img != (0x1000, (section,), b"\0" * 8)
    assert img.section_at(0x1004) == section
    for name in ("entry_point", "sections", "raw_file", "_alloc_index"):
        with pytest.raises(AttributeError):
            setattr(img, name, None)
    assert repr(img) == (f"ElfImage(entry_point=4096, sections=({section!r},), "
                         f"raw_file=b'\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00')")
