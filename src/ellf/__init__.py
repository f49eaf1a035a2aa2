"""Oracle-backed binary lifting toolkit.

Five kinds of build-time metadata (instruction regions, pointer records,
text records, stack records, data records) travel inside ELF binaries as a
compact `.ellf` section and make lifting to recompilable assembly a
deterministic table lookup instead of a heuristic search. A bundled
mini assembler closes the loop so lift-then-reassemble correctness is an
executable property.
"""

from .errors import Diagnostic, EllfError
from .meta import (
    DataDiff,
    DataPointer,
    DataRecord,
    EllfMetadata,
    InstructionRegion,
    OperandPointer,
    StackRecord,
    TextRecord,
    decode_metadata,
    encode_metadata,
    metadata_from_json,
    metadata_to_json,
    validate_metadata,
)
from .elfio import ElfImage, Section, extract_section, inject_section, load_image, read_elf
from .isa import Instruction, decode_one, encode_one, instruction_class
from .lifter import LiftedProgram, emit_assembly, lift
from .asm import AsmProgram, assemble, parse_assembly, roundtrip_check

__version__ = "0.1.0"

__all__ = [
    "AsmProgram", "DataDiff", "DataPointer", "DataRecord", "Diagnostic",
    "ElfImage", "EllfError", "EllfMetadata", "Instruction", "InstructionRegion",
    "LiftedProgram", "OperandPointer", "Section", "StackRecord", "TextRecord",
    "assemble", "decode_metadata", "decode_one", "emit_assembly",
    "encode_metadata", "encode_one", "extract_section", "inject_section",
    "instruction_class", "lift", "load_image", "metadata_from_json",
    "metadata_to_json", "parse_assembly", "read_elf", "roundtrip_check",
    "validate_metadata",
]
