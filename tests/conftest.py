import pytest

from ellf import elfio
from ellf.asm import assemble, parse_assembly
from ellf.isa import MemRef, PcRel, Register, encode_one
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


# ``main`` of a one-function .text at 0x1000, then a reference to 0x101000,
# which lies in no section, then ``ret``. The assembler refuses to write
# such a reference, so these images are built from the instructions' bytes.
FAR_TARGET = (".section .text base=0x1000\n.func main\n    {}\n    ret\n.endfunc\n"
              ".set far, main + 0x100000\n")
# (source line, the assembler's noun for the target, its encoding, validation's noun)
FAR_REFERENCES = [
    ("call far", "call target", ("call", (PcRel(0x101000),)), "branch target"),
    ("lea rax, [far]", "pointer target",
     ("lea", (Register("rax"), MemRef(rip_relative=True, disp=0x101000 - 0x1007))),
     "RIP-relative target"),
]


def far_target_image(mnemonic, operands):
    """(image, metadata) of ``mnemonic operands`` at 0x1000 and a ``ret``,
    one function, with no pointer record."""
    code = encode_one(mnemonic, operands, 0x1000)
    code += encode_one("ret", (), 0x1000 + len(code))
    img = elfio.read_elf(elfio.build_elf([elfio.NewSection(
        ".text", 0x1000, code, sh_flags=elfio.SHF_ALLOC | elfio.SHF_EXECINSTR)]))
    return img, EllfMetadata(instruction_regions=(InstructionRegion(0x1000, 2),),
                             text=(TextRecord(0x1000, FUNCTION_START),
                                   TextRecord(0x1000 + len(code) - 1, FUNCTION_END)))
