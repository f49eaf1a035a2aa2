"""One-walk assembler for the emitted dialect, and the round-trip oracle.

The dialect (one statement per line, ``#`` comments; a line ends at ``\\n``,
``\\r\\n`` or ``\\r`` and nowhere else, so a form feed or U+2028 is a character
of its line):

    .section NAME base=0xADDR      sections; flags follow the name (.text*
                                   executable, .bss* zero-fill, .rodata*
                                   read-only, anything else writable data)
    .func NAME / .endfunc          function extent; .func also defines NAME
    .slot FUNC, NAME, OFFSET       stack-slot constant, usable in brackets
    .set NAME, LABEL [+|- N]       define NAME at another label plus offset
    NAME:                          label (also allowed before a statement)
    mnemonic ops                   one instruction, e.g. mov rax, [rcx + rbp*4]
    movabs r64, N                  a mov that keeps its 10-byte imm64 form
    .byte/.long/.quad/.zero/.asciz data; .quad accepts LABEL, LABEL+N and
                                   LABEL - LABEL difference expressions

A ``#`` starts a comment unless it lies inside a double-quoted string, where
it is text. The ``.asciz`` escapes are ``\\n \\t \\r \\0 \\\\ \\" \\xHH`` (exactly
two hex digits); any other character stands for itself and must be at most
U+00FF, since ``.asciz`` holds bytes up to 0xFF. Arguments are separated by
commas. A ``.byte`` value is a Python integer literal in 0..255: decimal or
with a ``0x``/``0o``/``0b`` base prefix, optionally signed, with underscores
allowed between digits (``0x_ff``, ``1_0``). Consecutive plain ``.byte`` lines
(nothing but spaces, tabs, ``.byte`` and values: no label, comment or other
character) form one data item; the bytes, and any error and its line, are
those of the lines parsed one by one. A run spelled as the lifter's
``_byte_text`` writes it (lines of ``.byte 0xab, 0xcd``: one space after
``.byte``, each value ``0x`` and two lower-case hex digits, ``", "`` between
values) decodes in one pass, however its values are split into lines; any
other spelling is read value by value, with the same bytes, errors and
lines. A memory operand's terms are separated by ``+`` and ``-`` and none
may be empty: a sign may lead the operand, but two signs in a row or a
trailing sign is an error. Symbolic operands and ``.quad`` cells
(``LABEL + N``, ``[LABEL + N]``, ``A - B``) parse to ``SymbolRef``, a
labelled ``MemRef`` and ``SymbolDiff``, the same values
``lifter.emit_assembly`` renders.

Assembling walks the items once, laying each out at the next address of its
section. An instruction is laid out as its layout form: the mnemonic and the
operands layout encodes, with each bracketed slot constant resolved against
the enclosing function's slot table, so the same line text may encode
differently in two functions. An item that names a label is laid out with a
placeholder in a field whose width does not depend on the label's value:

    jmp/call/jcc LABEL             rel32
    mov r64, LABEL                 imm64 (movabs)
    any other LABEL immediate      imm32; a value outside it is an error
    [LABEL]                        RIP-relative disp32
    .quad LABEL, .quad A - B       one 8-byte cell each

A branch placeholder is encoded at address 0, where its bytes are those it
has at any address. No other form the dialect spells depends on the address,
so each distinct layout form goes through the canonical instruction encoder
once per call and its bytes serve every item of that form. Once every label
is placed, only the items that name one are encoded again, in place, once
each. A final encoding whose length differs from the laid-out one is an
AsmSyntaxError naming the line, so layout and bytes cannot disagree.

The result is an ELF image (with the encoded metadata injected as `.ellf`)
and the ground-truth metadata of the same layout. The walk gathers the runs
of consecutive instructions, each function's entry and last instruction, the
labels on instructions, a pointer record for every label-valued immediate and
data cell, a variable from each data label to the next, and the slot tables;
``meta.metadata_from_layout`` turns them into records. A pointer record names
where the label's value sits and never the value, which the encoded bytes
hold: an operand's instruction and index, or a cell's address, and for a
``.quad A - B`` cell the value of B. Records that validation derives from
the decode are left out: no operand pointer for a ``[LABEL]`` operand, which
is RIP-relative, and no block record at a label on an instruction that a
``jmp`` or ``jcc`` targets or that a pointer value or diff minuend names.
Instructions go only in executable sections and a function starts with one,
so every text record sits at an instruction start. A ``.quad`` that names a
label goes only in a non-executable section: validation reads pointer cells
in progbits data alone, so one in code would fail it. Every value a label
reference gives (a branch target, an operand's or a cell's value, a diff's
minuend and subtrahend) must lie inside a laid-out section, and a direct
``jmp`` or ``jcc`` at or after the first function entry must land on a
function entry or on a label on an instruction, as validation requires;
either fault is an AsmSyntaxError naming the line.
"""

from __future__ import annotations

import re
from binascii import unhexlify
from bisect import bisect_right
from itertools import islice, repeat
from typing import NamedTuple

from . import elfio
from .errors import (
    AsmSyntaxError,
    DuplicateLabel,
    RangeOverflow,
    SectionOverlap,
    UndefinedLabel,
    UnknownDirective,
    EllfError,
    quoted,
    value_type,
    value_type_but_last,
)
from .isa import (
    Immediate,
    MemRef,
    PcRel,
    Register,
    SymbolDiff,
    SymbolRef,
    JCC_MNEMONICS,
    SUBSET_MNEMONICS,
    U64,
    _REG_INFO,
    _REGISTERS,
    encode_one,
    label_imm_width,
)
from .meta import (
    DataDiff,
    DataPointer,
    DataRecord,
    EllfMetadata,
    OperandPointer,
    decode_metadata,
    encode_canonical,
    metadata_from_layout,
)

_JUMP_MNEMONICS = frozenset(("jmp",) + JCC_MNEMONICS)
_BRANCH_MNEMONICS = _JUMP_MNEMONICS | {"call"}
_IDENT = r"[A-Za-z_.$][A-Za-z0-9_.$]*"
_LABEL_RE = re.compile(rf"^({_IDENT})\s*:\s*(.*)$")
_SECTION_RE = re.compile(rf"^\.section\s+({_IDENT})(?:\s+base\s*=\s*(\S+))?$")
# A line's code: everything before the first '#' outside a double-quoted
# string; inside a string a backslash escapes the next character.
_CODE_RE = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*"?)*')
# A run of plain .byte lines: no label, comment or other character. One
# blank after ".byte" (the rest may hold more) keeps a failed match linear.
_BYTE_RUN_RE = re.compile(r"^(?:[ \t]*\.byte[ \t][0-9A-Za-z_+\-, \t]*(?:\n|\Z))+", re.M)
# LABEL [+|- N], and the .quad form LABEL [+ N] [- LABEL [+ N]].
_LABEL_EXPR_RE = re.compile(rf"({_IDENT})\s*(?:([+-])\s*(\w+))?")
_QUAD_EXPR_RE = re.compile(
    rf"({_IDENT})\s*(?:\+\s*(\w+))?\s*(?:-\s*({_IDENT})\s*(?:\+\s*(\w+))?)?")


# --- program representation ---

@value_type
class Label(NamedTuple):
    name: str
    line: int


@value_type
class FuncBegin(NamedTuple):
    name: str
    line: int


@value_type
class FuncEnd(NamedTuple):
    line: int


@value_type
class SlotDef(NamedTuple):
    function: str
    name: str
    offset: int
    line: int


@value_type
class SetLabel(NamedTuple):
    name: str
    base: str
    offset: int
    line: int


@value_type_but_last
class Data(NamedTuple):
    directive: str  # "byte" | "long" | "quad" | "zero" | "asciz"
    payload: object
    line: int
    # A run of .byte lines keeps its source text, which says on what line
    # each byte stands; empty for any other item.
    run_text: str = ""


@value_type
class Instr(NamedTuple):
    mnemonic: str
    operands: tuple
    line: int


@value_type
class AsmSection(NamedTuple):
    name: str
    base: int | None
    items: list  # the parser appends to it


@value_type
class AsmProgram(NamedTuple):
    sections: list[AsmSection]


# --- parsing ---

def parse_assembly(text: str) -> AsmProgram:
    sections: list[AsmSection] = []
    defined: set[str] = set()
    open_func = None  # line of the .func not yet closed
    # Instruction text -> (mnemonic, operands), once it parsed; operands are
    # values, so the items of a repeated text share them.
    instrs: dict[str, tuple[str, tuple]] = {}

    def current_section(line):
        if not sections:
            raise AsmSyntaxError("statement before any .section", line)
        return sections[-1]

    def define(name, line):
        if name in defined:
            raise DuplicateLabel(f"label {name!r} already defined", line)
        defined.add(name)

    text = text.replace("\r\n", "\n").replace("\r", "\n")
    runs = {}  # first line number -> text of a run of plain .byte lines
    lineno, pos = 1, 0
    for m in _BYTE_RUN_RE.finditer(text):
        lineno += text.count("\n", pos, m.start())
        pos = m.start()
        runs[lineno] = m.group()

    numbered = enumerate(text.split("\n"), start=1)
    for lineno, raw in numbered:
        # _CODE_RE cuts only at a '#', and a label needs a ':'.
        line = (_CODE_RE.match(raw).group() if "#" in raw else raw).strip()
        while ":" in line:
            m = _LABEL_RE.match(line)
            if m and m.group(1) not in _DIRECTIVES:
                define(m.group(1), lineno)
                current_section(lineno).items.append(Label(m.group(1), lineno))
                line = m.group(2).strip()
                continue
            break
        if not line:
            continue

        if line.startswith("."):
            word = line.split(None, 1)[0]
            rest = line[len(word):].strip()
            if word == ".section":
                m = _SECTION_RE.match(line)
                if not m:
                    raise AsmSyntaxError(f"malformed .section line: {line!r}", lineno)
                base = _parse_int(m.group(2), lineno) if m.group(2) else None
                if base is not None and not 0 <= base <= U64:
                    raise AsmSyntaxError(f"section base {m.group(2)} is outside "
                                         f"the 64-bit address space", lineno)
                sections.append(AsmSection(m.group(1), base, []))
            elif word == ".func":
                if open_func is not None:
                    raise AsmSyntaxError("nested .func", lineno)
                _check_ident(rest, ".func name", lineno)
                define(rest, lineno)
                current_section(lineno).items.append(FuncBegin(rest, lineno))
                open_func = lineno
            elif word == ".endfunc":
                if rest:
                    raise AsmSyntaxError(".endfunc takes no arguments", lineno)
                if open_func is None:
                    raise AsmSyntaxError(".endfunc without .func", lineno)
                current_section(lineno).items.append(FuncEnd(lineno))
                open_func = None
            elif word == ".slot":
                parts = _split_args(rest)
                if len(parts) != 3:
                    raise AsmSyntaxError(".slot takes FUNC, NAME, OFFSET", lineno)
                _check_ident(parts[0], ".slot function", lineno)
                _check_ident(parts[1], ".slot name", lineno)
                offset = _parse_int(parts[2], lineno)
                if offset <= 0:
                    raise AsmSyntaxError(
                        f"slot offset must be positive: {quoted(offset)}", lineno)
                current_section(lineno).items.append(
                    SlotDef(parts[0], parts[1], offset, lineno))
            elif word == ".set":
                parts = _split_args(rest)
                if len(parts) != 2:
                    raise AsmSyntaxError(".set takes NAME, LABEL[+N]", lineno)
                _check_ident(parts[0], ".set name", lineno)
                base, offset = _parse_label_expr(parts[1], lineno)
                define(parts[0], lineno)
                current_section(lineno).items.append(
                    SetLabel(parts[0], base, offset, lineno))
            elif lineno in runs and (item := _byte_run(runs[lineno], lineno)):
                current_section(lineno).items.append(item)
                skip = item.run_text.count("\n", 0, -1)  # the run's other lines
                next(islice(numbered, skip, skip), None)
            elif word in (".byte", ".long", ".quad", ".zero", ".asciz"):
                current_section(lineno).items.append(
                    _parse_data(word[1:], rest, lineno))
            else:
                raise UnknownDirective(f"unknown directive {word!r}", lineno)
            continue

        parsed = instrs.get(line)
        if parsed is None:
            mnemonic, _, operand_text = line.partition(" ")
            mnemonic = mnemonic.lower()
            if mnemonic not in SUBSET_MNEMONICS and mnemonic != "movabs":
                raise AsmSyntaxError(f"unknown mnemonic {mnemonic!r}", lineno)
            operands = tuple(_parse_operand(tok, lineno)
                             for tok in _split_args(operand_text))
            if mnemonic == "movabs":
                mnemonic, operands = _movabs(operands, lineno)
            parsed = instrs[line] = mnemonic, operands
        current_section(lineno).items.append(Instr(*parsed, lineno))

    if open_func is not None:
        raise AsmSyntaxError(".func without closing .endfunc", open_func)
    return AsmProgram(sections)


_DIRECTIVES = {".section", ".func", ".endfunc", ".slot", ".set",
               ".byte", ".long", ".quad", ".zero", ".asciz"}


def _movabs(operands, line):
    """``movabs r64, N`` as the mov it is, its immediate fixed at 64 bits."""
    if (len(operands) != 2 or not isinstance(operands[0], Register)
            or operands[0].size != 64 or not isinstance(operands[1], Immediate)):
        raise AsmSyntaxError("movabs takes a 64-bit register and a number", line)
    return "mov", (operands[0], Immediate(operands[1].value, 64))


def _check_ident(text: str, what: str, line: int) -> None:
    if not re.fullmatch(_IDENT, text):
        raise AsmSyntaxError(f"malformed {what}: {text!r}", line)


def _split_args(text: str) -> list[str]:
    return [part.strip() for part in text.split(",")] if text.strip() else []


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text.strip(), 0)
    except (ValueError, TypeError):
        raise AsmSyntaxError(f"expected a number, got {text!r}", line) from None


def _parse_label_expr(text: str, line: int) -> tuple[str, int]:
    m = _LABEL_EXPR_RE.fullmatch(text.strip())
    if not m:
        raise AsmSyntaxError(f"expected LABEL or LABEL+N, got {text!r}", line)
    return _label_expr(m, line)


def _label_expr(m, line: int) -> tuple[str, int]:
    offset = 0
    if m.group(2):
        offset = _parse_int(m.group(3), line)
        if m.group(2) == "-":
            offset = -offset
    return m.group(1), offset


def _parse_data(directive, rest, line):
    if directive == "zero":
        n = _parse_int(rest, line)
        if n <= 0:
            raise AsmSyntaxError(f".zero needs a positive size, got {quoted(n)}", line)
        if n > U64:
            raise AsmSyntaxError(f".zero size {quoted(n)} does not fit in 64 bits", line)
        return Data("zero", n, line)
    if directive == "asciz":
        return Data("asciz", _parse_string(rest, line) + b"\0", line)
    args = _split_args(rest)
    if not args:
        raise AsmSyntaxError(f".{directive} needs at least one value", line)
    if directive in _CELLS:
        low, high, size = _CELLS[directive]
        values = [_parse_int(a, line) for a in args]
        for v in values:
            if not low <= v <= high:
                raise AsmSyntaxError(f"{directive} value {quoted(v)} out of range", line)
        return Data(directive, b"".join(v.to_bytes(size, "little", signed=v < 0)
                                        for v in values), line)
    # .quad: integers, label references, or label differences
    exprs = [_parse_quad_expr(a, line) for a in args]
    for e in exprs:
        if isinstance(e, int) and not -(1 << 63) <= e < (1 << 64):
            raise AsmSyntaxError(f"quad value {quoted(e)} out of range", line)
    return Data("quad", exprs, line)


# The value range and cell size of each integer directive but .quad.
_CELLS = {"byte": (0, 0xFF, 1), "long": (-(1 << 31), (1 << 32) - 1, 4)}


def _byte_run(run, line):
    """The one Data item of a run of plain ``.byte`` lines, or None if a value
    is bad; the line path then names the first fault."""
    # A run spelled as lifter._byte_text writes it ("    .byte 0xab, 0xcd",
    # with any number of values a line): with each ".byte 0x" and ", 0x" a
    # \0, it is blanks and units of a \0 and two hex digits. A run holds no
    # \0 or \1 of its own, so each value between the commas and ".byte"
    # words is then " 0xHH" plus blanks.
    body = run.encode().replace(b".byte 0x", b"\0").replace(b", 0x", b"\0")
    if not body.translate(_HEX_DIGITS).replace(b"\0\1\1", b"").strip():
        return Data("byte", unhexlify(body.translate(None, b"\0 \t\n")), line, run)
    # Any other spelling: a value holds no '.', so the ".byte" words and the
    # commas separate them.
    try:
        payload = bytes(map(int, run.replace(".byte", ",").split(",")[1:], repeat(0)))
    except ValueError:
        return None
    return Data("byte", payload, line, run)


# Each lower-case hex digit to \1, for _byte_run's check of a run's spelling.
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", b"\1" * 16)


def _parse_string(text, line):
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AsmSyntaxError(f".asciz needs a quoted string, got {text!r}", line)

    def unescape(m):
        esc = m.group(1)
        if esc in _ESCAPES:
            return _ESCAPES[esc]
        if not esc:
            raise AsmSyntaxError("dangling escape in string", line)
        if esc[0] != "x":
            raise AsmSyntaxError(f"unknown escape \\{esc}", line)
        if not _HEX2.fullmatch(esc[1:]):
            raise AsmSyntaxError(f"\\x needs two hex digits, got {esc[1:]!r}", line)
        return chr(int(esc[1:], 16))

    body = _ESCAPE_RE.sub(unescape, text[1:-1])
    try:
        return body.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise AsmSyntaxError(f"{body[exc.start]!r} is not a byte: .asciz holds "
                             f"characters up to \\xff", line) from None


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"'}
_ESCAPE_RE = re.compile(r"\\(x.{0,2}|.|$)")
_HEX2 = re.compile(r"[0-9A-Fa-f]{2}")


def _parse_quad_expr(text, line):
    """An ``int``, ``SymbolRef`` or ``SymbolDiff``; ``text`` is stripped. No
    integer literal matches the label forms, so they are matched first and a
    label raises nothing on its way."""
    m = _QUAD_EXPR_RE.fullmatch(text)
    if not m:
        try:
            return int(text, 0)
        except ValueError:
            raise AsmSyntaxError(f"malformed .quad expression {text!r}", line) from None
    a, aoff, b, boff = m.groups()
    minuend = SymbolRef(a, _parse_int(aoff, line) if aoff else 0)
    if b is None:
        return minuend
    return SymbolDiff(minuend, SymbolRef(b, _parse_int(boff, line) if boff else 0))


def _parse_operand(text, line):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise AsmSyntaxError(f"unterminated memory operand {text!r}", line)
        return _parse_mem(text[1:-1].strip(), line)
    reg = _REGISTERS.get(text.lower())
    if reg is not None:
        return reg
    m = _LABEL_EXPR_RE.fullmatch(text)  # no integer literal matches it
    if m:
        return SymbolRef(*_label_expr(m, line))
    try:
        return Immediate(int(text, 0))
    except ValueError:
        raise AsmSyntaxError(f"expected LABEL or LABEL+N, got {text!r}", line) from None


@value_type
class _MemAst(NamedTuple):
    base: str | None
    index: str | None
    scale: int
    const_terms: tuple[tuple[int, object], ...]  # (sign, int | slot-name)


def _parse_mem(body, line):
    base = index = None
    scale = 1
    consts: list[tuple[int, object]] = []
    names = []  # (sign, identifier) of the terms that are no register
    for sign, term in _split_terms(body, line):
        if isinstance(term, int):
            consts.append((sign, term))
            continue
        if "*" in term:
            reg, _, factor = term.partition("*")
            reg = reg.strip().lower()
            if reg not in _REG_INFO:
                raise AsmSyntaxError(f"bad index register {reg!r}", line)
            if sign < 0:
                raise AsmSyntaxError("index term cannot be negated", line)
            if index is not None:
                raise AsmSyntaxError("two index terms in one operand", line)
            index = reg
            scale = _parse_int(factor, line)
            continue
        if term in _REG_INFO:
            if sign < 0:
                raise AsmSyntaxError("register term cannot be negated", line)
            if base is None:
                base = term
            elif index is None:
                index, scale = term, 1
            else:
                raise AsmSyntaxError("too many registers in memory operand", line)
            continue
        names.append((sign, term))
        consts.append((sign, term))  # slot constant, resolved during assembly

    # A lone identifier beside no register is a RIP-relative label reference.
    if names and base is None and index is None:
        if len(names) != 1:
            raise AsmSyntaxError(f"memory operand has several labels: {body!r}", line)
        sign, name = names[0]
        if sign < 0:
            raise AsmSyntaxError("label reference cannot be negated", line)
        return MemRef(rip_relative=True, label=name,
                      label_offset=sum(s * t for s, t in consts if isinstance(t, int)))
    return _MemAst(base, index, scale, tuple(consts))


def _split_terms(body, line):
    """Split 'rbp + rcx*4 - 8 + s32' into signed terms; ``body`` is stripped."""
    if not body:
        raise AsmSyntaxError("empty memory operand", line)
    pieces = _SIGN_RE.split(body)
    if pieces[0]:
        pieces.insert(0, "+")
    else:
        del pieces[0]  # a leading sign
    terms = []
    for sign, text in zip(pieces[0::2], pieces[1::2]):
        sign = 1 if sign == "+" else -1
        text = text.strip()
        if not text:
            raise AsmSyntaxError("empty term in memory operand", line)
        try:
            terms.append((sign, int(text, 0)))
        except ValueError:
            if text.lower() in _REG_INFO or "*" in text:
                terms.append((sign, text.lower()))
            else:
                terms.append((sign, text))  # slot constant or label
    return terms


_SIGN_RE = re.compile(r"([+-])")


# --- assembly ---

class _FunctionInfo:
    """A function as laid out so far: its last instruction grows with it."""

    def __init__(self, name: str, entry: int):
        self.name = name
        self.entry = entry
        self.last_instr: int | None = None


def assemble(prog: AsmProgram, bases: dict[str, int] | None = None
             ) -> tuple[bytes, EllfMetadata]:
    """Assemble to an ELF with the `.ellf` metadata section injected."""
    raw, meta = assemble_image(prog, bases)  # whose metadata meets check_invariants
    return elfio.inject_section(elfio.read_elf(raw), ".ellf",
                                encode_canonical(meta)), meta


def assemble_image(prog: AsmProgram, bases: dict[str, int] | None = None
                   ) -> tuple[bytes, EllfMetadata]:
    """Assemble to a plain ELF plus the layout-derived metadata.

    ``bases`` places sections that declare no base; ``prog`` is not modified.
    """
    bases = bases or {}
    labels: dict[str, int] = {}
    slots: dict[str, dict[str, int]] = {}
    slot_lines: dict[str, int] = {}  # function -> line of its first .slot

    sections = []
    for section in prog.sections:
        if section.base is None:
            if section.name not in bases:
                raise AsmSyntaxError(f"section {section.name} has no base address")
            section = section._replace(base=bases[section.name])
        sections.append(section)
        for item in section.items:
            if isinstance(item, SlotDef):
                table = slots.setdefault(item.function, {})
                if item.name in table and table[item.name] != item.offset:
                    raise AsmSyntaxError(
                        f"slot {item.name!r} redefined with a different offset",
                        item.line)
                table[item.name] = item.offset
                slot_lines.setdefault(item.function, item.line)

    # The walk: lay out each item once, and encode each distinct layout form
    # once. Label operands and label cells hold placeholders of their final
    # width until the fixups below.
    laid_out = []  # (section, kind, bytes, size, names of the labels it defines)
    functions: list[_FunctionInfo] = []
    set_labels: list[SetLabel] = []
    forms: dict[tuple, bytes] = {}  # (mnemonic, layout operands) -> their bytes
    # (item, addr, length, layout operands and label indices of an Instr,
    # section bytes, offset)
    fixups = []
    runs: list[list[int]] = []  # [start, count] of consecutive instructions
    instr_starts: set[int] = set()
    for section in sections:
        blob = bytearray()
        names = []
        addr = section.base
        current_func = None
        func_slots = {}
        run = None
        execable, nobits = kind = elfio.section_kind(section.name)
        for item in section.items:
            if isinstance(item, (Label, FuncBegin, SetLabel)):
                names.append(item.name)
                if isinstance(item, SetLabel):
                    set_labels.append(item)
                    continue
                labels[item.name] = addr
                if isinstance(item, FuncBegin):
                    current_func = _FunctionInfo(item.name, addr)
                    functions.append(current_func)
                    func_slots = slots.get(item.name, {})
            elif isinstance(item, FuncEnd):
                if current_func is not None and current_func.last_instr is None:
                    raise AsmSyntaxError(
                        f"function {current_func.name} has no instructions", item.line)
                current_func = None
                func_slots = {}
            elif isinstance(item, Data):
                if current_func is not None and current_func.last_instr is None:
                    raise AsmSyntaxError(f"function {current_func.name} must start with "
                                         f"an instruction", item.line)
                if nobits:
                    if item.directive != "zero":
                        raise AsmSyntaxError(
                            f".{item.directive} not allowed in the zero-fill section "
                            f"{section.name}", item.line)
                    addr += item.payload
                else:
                    run = None
                    encoded, _ = _encode_data(item, addr)
                    if item.directive == "quad" and _uses_labels(item.payload):
                        if execable:
                            raise AsmSyntaxError(f"label-valued .quad not allowed in the "
                                                 f"executable section {section.name}",
                                                 item.line)
                        fixups.append((item, addr, len(encoded), None, blob,
                                       addr - section.base))
                    blob += encoded
                    addr += len(encoded)
            elif isinstance(item, Instr):
                if not execable:
                    raise AsmSyntaxError(
                        f"instructions not allowed in the "
                        f"{'zero-fill' if nobits else 'non-executable'} section "
                        f"{section.name}", item.line)
                ops, refs = _layout_form(item, func_slots)
                form = item.mnemonic, ops
                encoded = forms.get(form)
                if encoded is None:
                    encoded = forms[form] = _encode_instr(item.mnemonic, ops, 0, item.line)
                if refs:
                    fixups.append((item, addr, len(encoded), (ops, refs), blob,
                                   addr - section.base))
                if run is None:
                    run = [addr, 0]
                    runs.append(run)
                run[1] += 1
                instr_starts.add(addr)
                if current_func is not None:
                    current_func.last_instr = addr
                blob += encoded
                addr += len(encoded)
            if addr > 1 << 64:
                line = item.line
                if isinstance(item, Data) and item.run_text:
                    line = _run_line(item, len(item.payload) - (addr - (1 << 64)))
                raise AsmSyntaxError(f"section {section.name} runs past the end of the "
                                     f"64-bit address space", line)
        laid_out.append((section, kind, blob, addr - section.base, names))

    # The .sets are placed in line order, each after a pending .set its base names.
    pending = {item.name: item for item in set_labels}
    for item in sorted(set_labels, key=lambda s: s.line):
        chain = {}  # pending .sets from item on, each the base of the one before
        link = pending.get(item.name)
        while link is not None:
            if link.name in chain:
                raise AsmSyntaxError(f".set {link.name} is defined in terms of itself",
                                     link.line)
            chain[link.name] = link
            link = pending.get(link.base)
        for link in reversed(chain.values()):
            if link.base not in labels:
                raise UndefinedLabel(f"label {link.base!r} is not defined", link.line)
            labels[link.name] = labels[link.base] + link.offset
            del pending[link.name]

    spans = [(s.base, s.base + max(size, 1), s.name) for s, _, _, size, _ in laid_out]
    for i, (start_a, end_a, name_a) in enumerate(spans):
        for start_b, end_b, name_b in spans[i + 1:]:
            if start_a < end_b and start_b < end_a:
                raise SectionOverlap(f"sections {name_a} and {name_b} overlap")
    spans = sorted((s.base, s.base + size) for s, _, _, size, _ in laid_out if size)
    span_starts = [start for start, _ in spans]
    pointed = set()  # the values at which validation derives a block, if on an instruction

    def value(name, offset, what, line):
        """The value of ``name + offset`` in 64 bits, which must lie in a
        laid-out section, as validation requires of ``what``."""
        if name not in labels:
            raise UndefinedLabel(f"label {name!r} is not defined", line)
        target = (labels[name] + offset) & U64
        i = bisect_right(span_starts, target) - 1
        if i < 0 or target >= spans[i][1]:
            raise AsmSyntaxError(f"{what} 0x{target:x} is not inside any section", line)
        if what in _IMPLYING_BLOCKS:
            pointed.add(target)
        return target

    # Fixups: re-encode each label-dependent item in place, at its laid-out length.
    pointers: list = []
    jumps = []  # (address, target, line) of each direct jump
    for item, addr, length, layout, blob, offset in fixups:
        if layout is not None:
            ops, records = _label_operands(item, *layout, addr, length, value)
            encoded = _encode_instr(item.mnemonic, ops, addr, item.line)
            if item.mnemonic in _JUMP_MNEMONICS and isinstance(ops[0], PcRel):
                jumps.append((addr, ops[0].target, item.line))
        else:
            encoded, records = _encode_data(item, addr, value)
        if len(encoded) != length:
            raise AsmSyntaxError(f"encodes to {len(encoded)} bytes once its labels "
                                 f"are known, but was laid out in {length}", item.line)
        blob[offset:offset + length] = encoded
        pointers.extend(records)

    # Block starts are labels on instructions; the variables of a data
    # section run from each of its labels to the next.
    blocks, variables = [], []
    for section, (execable, _), _, size, names in laid_out:
        sites = {labels[name] for name in names}
        if execable:
            blocks.extend(sites & instr_starts)
            continue
        end = section.base + size
        sites = sorted(s for s in sites if section.base <= s < end)
        variables.extend(DataRecord(site, limit - site)
                         for site, limit in zip(sites, sites[1:] + [end]))

    func_names = {fn.name for fn in functions}
    for func_name in slots:
        if func_name not in func_names:
            raise UndefinedLabel(f"slot defined for unknown function {func_name!r}",
                                 slot_lines[func_name])
    meta = metadata_from_layout(
        runs, [(fn.entry, fn.last_instr) for fn in functions],
        set(blocks).difference(pointed), pointers, variables,
        [(labels[name], table.values()) for name, table in slots.items()])

    entries = {fn.entry for fn in functions}
    starts = entries.union(blocks)
    first = min(entries, default=None)
    for addr, target, line in jumps:
        if first is not None and addr >= first and target not in starts:
            raise AsmSyntaxError(f"jump target 0x{target:x} is not a function entry or a "
                                 f"label on an instruction", line)

    new_sections = []
    for section, (execable, nobits), blob, size, _ in laid_out:
        flags = elfio.SHF_ALLOC
        if execable:
            flags |= elfio.SHF_EXECINSTR
        elif not section.name.startswith(".rodata"):
            flags |= elfio.SHF_WRITE
        sh_type = elfio.SHT_NOBITS if nobits else elfio.SHT_PROGBITS
        new_sections.append(elfio.NewSection(
            name=section.name, vaddr=section.base, data=bytes(blob),
            sh_type=sh_type, sh_flags=flags, size=size))
    entry = next((sec.vaddr for sec in new_sections if sec.sh_flags & elfio.SHF_EXECINSTR), 0)
    return elfio.build_elf(new_sections, entry_point=entry), meta


def _run_line(item: Data, offset: int) -> int:
    """The line of a ``.byte`` run that holds byte ``offset`` of its payload."""
    for i, line_text in enumerate(item.run_text.split("\n")):
        offset -= line_text.count(",") + 1
        if offset < 0:
            return item.line + i


def _uses_labels(cells) -> bool:
    """Whether a ``.quad`` item's cells name a label."""
    return any(isinstance(c, (SymbolRef, SymbolDiff)) for c in cells)


def _layout_form(item: Instr, func_slots) -> tuple[tuple, tuple[int, ...]]:
    """The operands layout encodes for ``item``, and the indices of those that
    name a label, from one walk over its operands.

    ``func_slots`` is the enclosing function's slot table, empty outside one.
    A label operand becomes a placeholder that does not depend on the label or
    the address: rel32 ``PcRel(0)`` for a branch, which is meant to be encoded
    at address 0, a zero RIP-relative disp32, or a zero immediate.
    """
    ops = []
    refs = []
    for i, op in enumerate(item.operands):
        if isinstance(op, (Register, Immediate)):
            ops.append(op)
        elif isinstance(op, _MemAst):
            ops.append(_resolve_mem(op, func_slots, item.line))
        elif isinstance(op, MemRef):  # a parsed MemRef is [LABEL + N]
            ops.append(_RIP_PLACEHOLDER)
            refs.append(i)
        else:  # a SymbolRef
            ops.append(_BRANCH_PLACEHOLDER if item.mnemonic in _BRANCH_MNEMONICS
                       else Immediate(0, width=label_imm_width(item)))
            refs.append(i)
    return tuple(ops), tuple(refs)


_RIP_PLACEHOLDER = MemRef(rip_relative=True)
_BRANCH_PLACEHOLDER = PcRel(0)


def _resolve_mem(ast: _MemAst, func_slots, line):
    """``func_slots``: the enclosing function's slot table, empty outside one."""
    disp = 0
    for sign, term in ast.const_terms:
        if isinstance(term, int):
            disp += sign * term
        elif term in func_slots:
            disp += sign * func_slots[term]
        else:
            raise UndefinedLabel(
                f"{term!r} is not a slot of the enclosing function", line)
    return MemRef(base=ast.base, index=ast.index, scale=ast.scale, disp=disp)


def _label_operands(item: Instr, ops, refs, addr, length, value):
    """``item``'s layout operands ``ops`` with each label operand at ``refs``
    given its ``value``, and the operand-pointer records of the immediates
    that hold one; validation derives those of RIP-relative operands.

    ``length`` is the laid-out length, from whose end a RIP-relative
    displacement counts.
    """
    ops = list(ops)
    records = []
    for i in refs:
        op = item.operands[i]
        if isinstance(op, MemRef):
            target = value(op.label, op.label_offset, "pointer target", item.line)
            rel = target - (addr + length)
            if not -(1 << 31) <= rel < (1 << 31):
                raise RangeOverflow(
                    f"RIP-relative target 0x{target:x} out of range", item.line)
            ops[i] = MemRef(rip_relative=True, disp=rel)
        elif isinstance(ops[i], PcRel):
            ops[i] = PcRel(value(op.label, op.offset, "call target" if item.mnemonic == "call"
                                 else "jump target", item.line))
        else:
            ops[i] = Immediate(value(op.label, op.offset, "pointer target", item.line),
                               width=ops[i].width)
            records.append(OperandPointer(addr, i))
    return ops, records


def _encode_instr(mnemonic, ops, addr, line):
    """The bytes of one instruction form at ``addr``; an encoder error names
    ``line``.

    An assemble calls this once per distinct layout form, and once more per
    item that names a label, at its fixup.
    """
    try:
        return encode_one(mnemonic, ops, addr)
    except RangeOverflow as exc:
        raise RangeOverflow(str(exc), line) from exc
    except EllfError as exc:
        raise AsmSyntaxError(str(exc), line) from exc


# The label values at which validation derives a block where they are an
# instruction start; ``assemble_image``'s ``value`` names each reference.
_IMPLYING_BLOCKS = frozenset(("jump target", "pointer target", "diff minuend"))


def _encode_data(item: Data, addr, value=None):
    """Bytes and pointer records of a data item; label cells are zero
    without ``value``, which gives a label's value as ``assemble_image``'s
    does."""
    if item.directive in ("byte", "long", "asciz"):
        return item.payload, []
    if item.directive == "zero":
        try:
            return bytes(item.payload), []
        except (OverflowError, MemoryError):
            raise AsmSyntaxError(f".zero size {item.payload:#x} is too large to hold in "
                                 f"memory", item.line) from None
    out = bytearray()
    records = []
    for i, expr in enumerate(item.payload):
        cell = addr + 8 * i
        if isinstance(expr, int):
            cell_value = expr & U64
        elif value is None:
            cell_value = 0
        elif isinstance(expr, SymbolRef):
            cell_value = value(expr.label, expr.offset, "pointer target", item.line)
            records.append(DataPointer(cell))
        else:
            minuend = value(expr.minuend.label, expr.minuend.offset, "diff minuend",
                            item.line)
            subtrahend = value(expr.subtrahend.label, expr.subtrahend.offset,
                               "diff subtrahend", item.line)
            cell_value = (minuend - subtrahend) & U64
            records.append(DataDiff(cell, subtrahend))
        out += cell_value.to_bytes(8, "little")
    return bytes(out), records


# --- round-trip oracle ---

class RoundtripReport:
    """What ``roundtrip_check`` found; each check fails until it passes."""
    bytes_identical = False
    metadata_fixpoint = False
    text_fixpoint = False
    error: str | None = None

    @property
    def ok(self):
        return (self.bytes_identical and self.metadata_fixpoint
                and self.text_fixpoint and self.error is None)

    def lines(self):
        def mark(flag):
            return "PASS" if flag else "FAIL"
        out = [
            f"byte identity:      {mark(self.bytes_identical)}",
            f"metadata fixpoint:  {mark(self.metadata_fixpoint)}",
            f"text fixpoint:      {mark(self.text_fixpoint)}",
        ]
        if self.error:
            out.append(f"error: {self.error}")
        return out


def roundtrip_check(source_text: str) -> RoundtripReport:
    """Assemble, lift, re-emit, re-assemble; compare bytes, metadata, text.

    Each lift reads its metadata back from the ELF's ``.ellf`` section, so the
    check covers encode, inject, extract and decode. The metadata fixpoint
    holds only if, on both sides, that equals what the assembler produced.
    """
    from .lifter import emit_assembly, lift

    report = RoundtripReport()
    try:
        prog = parse_assembly(source_text)
        elf1, meta1 = assemble(prog)
        img1 = elfio.read_elf(elf1)
        stored1 = decode_metadata(elfio.extract_section(img1, ".ellf"))
        text1 = emit_assembly(lift(img1, stored1, mode="strict"))
        elf2, meta2 = assemble(parse_assembly(text1))
        img2 = elfio.read_elf(elf2)
        stored2 = decode_metadata(elfio.extract_section(img2, ".ellf"))

        report.bytes_identical = elfio.load_image(img1) == elfio.load_image(img2)
        report.metadata_fixpoint = meta1 == stored1 == meta2 == stored2
        text2 = emit_assembly(lift(img2, stored2, mode="strict"))
        report.text_fixpoint = text1 == text2
    except EllfError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    return report
