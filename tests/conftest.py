import pytest

from ellf import elfio
from ellf.asm import assemble, parse_assembly
from ellf.meta import (
    DataDiff,
    DataRecord,
    EllfMetadata,
    FUNCTION_END,
    FUNCTION_START,
    BASIC_BLOCK,
    InstructionRegion,
    OperandPointer,
    TextRecord,
)

# A small dispatch-through-a-difference-table program laid out at fixed
# addresses; several tests pin exact addresses against it.
TABLE_DEMO = """\
.section .text base=0x4000
.func F_4000
    push rbp
    mov rbp, rsp
    lea rcx, [D_4024]
    movsxd rdx, [rcx + rbp*4]
    add rdx, rcx
    jmp rdx
.Lb1:
    xor rax, rax
    jmp .Lb3
.Lb2:
    mov rax, 42
.Lb3:
    ret
.endfunc
.section .rodata base=0x4024
D_4024:
    .quad .Lb1 - D_4024
D_402C:
    .quad .Lb2 - D_4024
"""

# The same program's oracle content written with a deliberately sparse text
# table (block records only where the coarse tables name them); used by the
# codec and label tests.
SPARSE_DEMO_META = EllfMetadata(
    instruction_regions=(InstructionRegion(0x4000, 10),),
    pointers=(
        OperandPointer(0x4004, 1),
        DataDiff(0x4024, 0x4024),
        DataDiff(0x402C, 0x4024),
    ),
    text=(
        TextRecord(0x4000, FUNCTION_START),
        TextRecord(0x4014, BASIC_BLOCK),
        TextRecord(0x4023, FUNCTION_END),
    ),
    data=(DataRecord(0x4024, 8), DataRecord(0x402C, 8)),
)


@pytest.fixture(scope="session")
def table_demo():
    """(elf_bytes, metadata, image) for the fixed-address dispatch program."""
    elf, meta = assemble(parse_assembly(TABLE_DEMO))
    return elf, meta, elfio.read_elf(elf)
