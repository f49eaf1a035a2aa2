"""Metadata-driven lifting: decode, symbolize, recover CFGs, emit assembly.

The pipeline decodes exactly the instruction regions, replaces pointer
operands and pointer-holding data cells with labels, rewrites stack-frame
accesses through named slot constants, partitions data sections into
variables, and renders deterministic text that the bundled assembler accepts
back. Whether metadata lifts is decided in step I, by ``validate_metadata``
alone or, in a lenient lift, by ``repair_metadata``; the passes after it
run only over metadata that validates clean and raise nothing: every text
record they see is on a decoded instruction, every jump from the first
function on targets a decoded instruction start, which is a block, and
every pointer value and branch target is in a section. The passes read the
records that validation derives from the decode (an operand pointer on each
RIP-relative operand, a block at each jump target and each pointer value
that is an instruction start) as they read recorded ones. Function and
block structure stays in the ``LabelMap``; only ``emit_assembly`` decides
where its label lines go. The text, stack and data passes write to disjoint
state, so any order of them gives the same text, CFGs, variables and
diagnostics. The order decides only the order of the diagnostics.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import NamedTuple

from .elfio import ElfImage, ImageView, load_image
from .errors import Diagnostic, LiftError, PointerStraddle, WARNING, value_type
from .isa import (
    CONDITIONAL_JUMP,
    HALT,
    INDIRECT_JUMP,
    JCC_MNEMONICS,
    JUMP,
    RETURN,
    Immediate,
    Instruction,
    MemRef,
    PcRel,
    Register,
    SymbolDiff,
    SymbolRef,
    instruction_class,
    label_imm_width,
)
from .meta import (
    BASIC_BLOCK,
    DataDiff,
    EllfMetadata,
    FUNCTION_END,
    FUNCTION_START,
    OperandPointer,
    POINTER_WIDTH,
    repair_metadata,
    validate_metadata,
)


STRICT = "strict"
LENIENT = "lenient"


# --- stack-slot operands (render through named assembler constants) ---

@value_type
class SlotMemRef(NamedTuple):
    """A stack access expressed against a frame slot: the displacement is
    bias - slot_offset + interior."""
    base: str
    slot_name: str
    slot_offset: int
    bias: int
    interior: int
    index: str | None = None
    scale: int = 1


# --- data variables ---

@value_type
class Zeroes(NamedTuple):
    size: int


@value_type
class Variable(NamedTuple):
    address: int
    size: int
    label: str | None
    payload: tuple  # of bytes, Zeroes, and SymbolRef and SymbolDiff cells as asm parses them


# --- control flow graphs ---

@value_type
class CfgBlock(NamedTuple):
    start: int
    end: int  # address of the block's last instruction
    successors: tuple[int, ...]


@value_type
class Cfg(NamedTuple):
    function_entry: int
    blocks: tuple[CfgBlock, ...]


# --- label map ---

def _section_label(name: str) -> str:
    return "S_" + "".join(ch if ch.isalnum() else "_" for ch in name).strip("_")


class LabelMap:
    """Address-derived names, written only by ``generate_labels``.

    ``lookup`` answers from a sorted index per namespace that it builds on
    first use, so the name tables must not change after ``generate_labels``
    returns; ``used`` is outside the index and may grow. Every table starts
    empty.
    """

    def __init__(self):
        self.functions: dict[int, str] = {}
        self.blocks: dict[int, str] = {}
        self.bb_backed: set[int] = set()
        self.function_ends: set[int] = set()
        self.data_labels: dict[int, str] = {}
        self.text_floors: dict[int, str] = {}
        self.data_floors: dict[int, str] = {}
        self.slots: dict[int, tuple[tuple[int, str], ...]] = {}
        self.used: set[str] = set()
        self._index: dict[str, tuple[list[int], list[str]]] = {}

    def lookup(self, addr: int, namespace: str) -> tuple[str, int] | None:
        """Greatest entry at or below ``addr``, with the non-negative offset.

        At a shared address a function wins over a block over a text floor,
        and a data label over a data floor.
        """
        index = self._index.get(namespace)
        if index is None:
            if namespace == "text":
                merged = {**self.text_floors, **self.blocks, **self.functions}
            else:
                merged = {**self.data_floors, **self.data_labels}
            ordered = sorted(merged.items())
            index = self._index[namespace] = ([a for a, _ in ordered],
                                              [name for _, name in ordered])
        addrs, names = index
        i = bisect_right(addrs, addr) - 1
        if i < 0:
            return None
        return names[i], addr - addrs[i]

    def all_names(self):
        for mapping in (self.functions, self.blocks, self.data_labels,
                        self.text_floors, self.data_floors):
            yield from mapping.values()


def generate_labels(meta: EllfMetadata, image: ElfImage, values: dict,
                    blocks: set) -> LabelMap:
    """Deterministic, address-derived names for every oracle entry.

    ``values`` holds the value of each pointer record, recorded or implied
    (a diff's minuend), and ``blocks`` the implied block starts, as
    ``validate_metadata`` derives them; an implied block is backed as a
    ``BASIC_BLOCK`` record is.

    Block labels are also minted at in-text addresses that a pointer value
    or a diff subtrahend names and no block starts at, so every code pointer
    resolves to an exact label; such extra labels are emitted only when
    referenced. When a table is absent, section-start labels keep every
    lookup resolvable at section granularity.
    """
    lm = LabelMap()

    block_candidates = set(blocks)
    lm.bb_backed.update(blocks)
    for rec in meta.text:
        if rec.kind == FUNCTION_START:
            lm.functions[rec.addr] = f"F_{rec.addr:x}"
        elif rec.kind == BASIC_BLOCK:
            block_candidates.add(rec.addr)
            lm.bb_backed.add(rec.addr)
        elif rec.kind == FUNCTION_END:
            block_candidates.add(rec.addr)
            lm.function_ends.add(rec.addr)

    data_candidates = set()

    def classify(addr):  # validation put every value in a section
        (block_candidates if image.section_at(addr).exec else data_candidates).add(addr)

    for rec, value in values.items():
        classify(value)
        if isinstance(rec, DataDiff):
            classify(rec.subtrahend)

    block_candidates -= set(lm.functions)
    for k, addr in enumerate(sorted(block_candidates), start=1):
        lm.blocks[addr] = f".Lb{k}"

    for rec in meta.data:
        lm.data_labels[rec.addr] = f"D_{rec.addr:x}"
    # Interiors, each from one past its start: a label there could not be
    # placed, so an address inside is rendered as label + offset.
    interiors = [(r.addr + 1, r.addr + r.size) for r in meta.data]
    interiors += [(r.addr + 1, r.addr + POINTER_WIDTH) for r in meta.pointers
                  if not isinstance(r, OperandPointer)]
    interiors.sort()
    interior_starts = [start for start, _ in interiors]
    reach = list(accumulate((end for _, end in interiors), max))  # furthest end so far
    for addr in sorted(data_candidates):
        if addr in lm.data_labels:
            continue
        i = bisect_right(interior_starts, addr)
        if i and reach[i - 1] > addr:
            continue  # inside a data record or a pointer cell
        lm.data_labels[addr] = f"D_{addr:x}"

    for sec in image.sections:
        if not sec.alloc:
            continue
        floor = (lm.text_floors if sec.exec else lm.data_floors)
        floor[sec.vaddr] = _section_label(sec.name)

    for rec in meta.stack:
        lm.slots[rec.function_entry] = tuple((off, f"s{off}") for off in rec.offsets)

    return lm


# --- step I: validation, which decodes by the instruction oracle ---

def lift_unsymbolized(image: ElfImage, meta: EllfMetadata, mode: str
                      ) -> tuple[EllfMetadata, dict[int, Instruction], dict, set,
                                 list[Diagnostic]]:
    """Validate ``meta`` against ``image``: the one step a lift's mode changes.

    A strict lift raises on any problem ``validate_metadata`` reports:
    PointerStraddle if one is a straddle, else LiftError. A lenient lift
    runs on what ``repair_metadata`` returns. Returns the metadata, which
    validates clean, the instructions validation decoded by address, the
    value of each pointer record, recorded or implied, the implied block
    starts, and the diagnostics.
    """
    if mode not in (STRICT, LENIENT):
        raise ValueError(f"mode must be {STRICT!r} or {LENIENT!r}, got {mode!r}")
    decoded, values, blocks = {}, {}, set()
    if mode == LENIENT:
        meta, diagnostics = repair_metadata(meta, image, decoded, values, blocks)
        return meta, decoded, values, blocks, diagnostics
    problems = validate_metadata(meta, image, decoded, values, blocks)
    if problems:
        error = PointerStraddle if any(p.kind == "straddle" for p in problems) else LiftError
        raise error("metadata fails validation: " + "; ".join(map(str, problems)))
    return meta, decoded, values, blocks, []


# --- shared lifting state ---

class _LiftState:
    """What the passes of one lift share.

    ``decoded`` holds the instructions as decoded, which no pass writes, and
    ``values`` the value of each pointer record, recorded or implied, as
    validation derived it.
    ``set_operand`` writes an operand into ``operands``, which holds the
    operand list of each instruction symbolized so far; ``operands_of``
    reads an instruction's operands as symbolized so far, and
    ``instructions`` builds each changed instruction once, at the end.
    """

    def __init__(self, image, byte_map, meta, labels, decoded, values, diagnostics):
        self.image: ElfImage = image
        self.byte_map: ImageView = byte_map
        self.meta: EllfMetadata = meta
        self.labels: LabelMap = labels
        self.decoded: dict[int, Instruction] = decoded
        self.values: dict = values
        self.instr_addrs: list[int] = sorted(decoded)
        self.operands: dict[int, list] = {}
        self.diagnostics: list[Diagnostic] = diagnostics
        self.variables: list[Variable] = []

    def operands_of(self, addr):
        """The operands of the instruction at ``addr``, as symbolized so far."""
        ops = self.operands.get(addr)
        return self.decoded[addr].operands if ops is None else ops

    def set_operand(self, addr, index, op):
        """Write operand ``index`` of the instruction at ``addr``."""
        ops = self.operands.get(addr)
        if ops is None:
            ops = self.operands[addr] = list(self.decoded[addr].operands)
        ops[index] = op

    def instructions(self) -> dict[int, Instruction]:
        """The symbolized instructions, in address order."""
        out = {}
        for addr in self.instr_addrs:
            ins = self.decoded[addr]
            ops = self.operands.get(addr)
            out[addr] = ins if ops is None else Instruction(
                ins.address, ins.length, ins.mnemonic, tuple(ops), ins.fields)
        return out

    def warn(self, kind, message, addr=None):
        self.diagnostics.append(Diagnostic(kind, message, addr, WARNING))


def _symbol_for(state, addr):
    """The label for ``addr``, which validation put in a section."""
    sec = state.image.section_at(addr)
    name, offset = state.labels.lookup(addr, "text" if sec.exec else "data")
    state.labels.used.add(name)
    return SymbolRef(name, offset)


def _labelled(mem, sym):
    """The RIP-relative ``mem`` with ``sym`` standing in for its target."""
    return MemRef(mem.base, mem.index, mem.scale, mem.disp, True, sym.label, sym.offset)


# --- step II: coarse symbolization ---

def coarse_symbolize(state: _LiftState) -> None:
    """Replace the operand of each operand pointer, recorded or implied (so
    every RIP-relative operand), with a label.

    Validation placed each operand pointer on an immediate or a RIP-relative
    displacement of a decoded instruction, and its value in a section.
    """
    for rec, value in state.values.items():
        if isinstance(rec, OperandPointer):
            op = state.decoded[rec.instr_addr].operands[rec.operand_index]
            sym = _symbol_for(state, value)
            state.set_operand(rec.instr_addr, rec.operand_index,
                              _labelled(op, sym) if isinstance(op, MemRef) else sym)


# --- function extents (shared by the fine-grained steps) ---

def _function_ranges(state) -> list[tuple[int, int]]:
    """(entry, end_exclusive) per function, bounded by the next function."""
    starts = sorted(state.labels.functions)
    return list(zip(starts, starts[1:] + [1 << 64]))


def _function_instrs(state, entry, end):
    addrs = state.instr_addrs
    return addrs[bisect_left(addrs, entry):bisect_left(addrs, end)]


# --- step III: text symbolization ---

def text_symbolize(state: _LiftState) -> None:
    for addr in state.instr_addrs:
        for i, op in enumerate(state.decoded[addr].operands):
            if isinstance(op, PcRel):
                state.set_operand(addr, i, _symbol_for(state, op.target))


# --- step IV: stack symbolization ---

def stack_symbolize(state: _LiftState) -> None:
    for entry, end in _function_ranges(state):
        names = dict(state.labels.slots.get(entry, ()))
        if not names:
            continue
        sp_delta: int | None = 0
        rbp_delta: int | None = None
        for addr in _function_instrs(state, entry, end):
            ins = state.decoded[addr]
            _rewrite_stack_operands(state, ins, names, sp_delta, rbp_delta)
            # As symbolized: a pointer record on ``sub rsp, imm`` untracks the frame.
            sp_delta, rbp_delta = _apply_sp_effect(ins, sp_delta, rbp_delta,
                                                   state.operands_of(addr))


def _rewrite_stack_operands(state, ins, names, sp_delta, rbp_delta):
    """``names`` maps each of the function's slot offsets to its slot name."""
    for i, op in enumerate(ins.operands):
        if not isinstance(op, MemRef) or op.rip_relative:
            continue
        if op.base == "rbp":
            anchor = rbp_delta
        elif op.base == "rsp":
            anchor = sp_delta
        else:
            continue
        if anchor is None:
            state.warn("stack", f"stack access at 0x{ins.address:x} has an "
                                f"untracked frame anchor", ins.address)
            continue
        depth = -(anchor + op.disp)
        if depth <= 0:
            continue  # at or above the entry stack pointer: not a local slot
        slot = min((off for off in names if off >= depth), default=None)
        if slot is None:
            state.warn("stack", f"stack access at 0x{ins.address:x} (depth {depth}) "
                                f"is outside every frame slot", ins.address)
            continue
        state.set_operand(ins.address, i, SlotMemRef(
            base=op.base, slot_name=names[slot], slot_offset=slot, bias=-anchor,
            interior=slot - depth, index=op.index, scale=op.scale))


# Mnemonics that write their first operand.
_WRITES_FIRST = frozenset(("mov", "pop", "lea", "movsxd", "add", "sub", "inc", "dec",
                           "imul", "xor", "and", "or"))
# The anchor that a write to each register changes. A 32-bit write
# zero-extends into the whole register, so it leaves the anchor unknown.
_ANCHOR_OF = {"rsp": "rsp", "rbp": "rbp", "esp": "rsp", "ebp": "rbp"}


def _apply_sp_effect(ins, sp_delta, rbp_delta, ops):
    """The (rsp, rbp) anchors after ``ins``: offsets from the stack pointer
    at function entry, None when untracked. ``ops`` are the operands to read.

    push, pop, leave, mov rbp, rsp, mov rsp, rbp and add/sub rsp, imm move
    the anchors. Any other write whose first operand is rsp or rbp drops
    that anchor, as does any write to esp or ebp.
    """
    m = ins.mnemonic
    if m == "leave":  # mov rsp, rbp; pop rbp
        return (None if rbp_delta is None else rbp_delta + 8), None
    if m in ("push", "pop") and sp_delta is not None:
        sp_delta += 8 if m == "pop" else -8
    dst = ops[0].name if ops and isinstance(ops[0], Register) else None
    if m in _WRITES_FIRST and dst in _ANCHOR_OF:
        src = ops[-1]
        if (m == "mov" and isinstance(src, Register)
                and (dst, src.name) in (("rbp", "rsp"), ("rsp", "rbp"))):
            if dst == "rbp":
                rbp_delta = sp_delta
            else:
                sp_delta = rbp_delta
        elif (m in ("add", "sub") and dst == "rsp" and isinstance(src, Immediate)
              and sp_delta is not None):
            sp_delta += src.value if m == "add" else -src.value
        elif _ANCHOR_OF[dst] == "rsp":
            sp_delta = None
        else:
            rbp_delta = None
    return sp_delta, rbp_delta


# --- step V: data symbolization ---

def data_symbolize(state: _LiftState) -> None:
    """Partition each data section into variables, one at each data record
    and one before the first if the section does not start with one.

    Validation put each data record inside one data section, and each
    pointer cell inside progbits data, so a section's records are a slice
    of the address-sorted table and its cells follow one cursor. The raw
    parts of a progbits section are slices of one view of its body.
    """
    variables: list[Variable] = []
    cells = sorted((rec for rec in state.meta.pointers if not isinstance(rec, OperandPointer)),
                   key=lambda rec: rec.addr)
    marks = [rec.addr for rec in cells]
    data_starts = [rec.addr for rec in state.meta.data]
    data_labels = state.labels.data_labels
    for sec in state.image.sections:
        if not sec.alloc or sec.exec or sec.size == 0:
            continue
        sec_end = sec.vaddr + sec.size
        starts = data_starts[bisect_left(data_starts, sec.vaddr):
                             bisect_left(data_starts, sec_end)]
        labels = [data_labels[addr] for addr in starts]
        if not starts or starts[0] > sec.vaddr:
            starts.insert(0, sec.vaddr)
            labels.insert(0, None)
        nobits = sec.kind == "nobits"
        body = None if nobits else state.byte_map.read_run(sec.vaddr, sec.size)
        k = bisect_left(marks, sec.vaddr)  # the first cell not yet placed
        for start, end, label in zip(starts, starts[1:] + [sec_end], labels):
            first = k
            while k < len(marks) and marks[k] < end:
                k += 1
            payload = ((Zeroes(end - start),) if nobits else
                       _build_payload(state, body, sec.vaddr, start, end, cells[first:k]))
            variables.append(Variable(start, end - start, label, payload))
    state.variables = variables


def _build_payload(state, body, base, start, end, cells):
    """The payload of the progbits variable at [start, end); ``body`` holds
    the bytes of its section, which starts at ``base``, and ``cells`` are
    the pointer records of the cells inside it, in address order.
    Validation placed each pointer cell apart from every other cell and
    from every data record start."""
    parts = []
    pos = start
    for rec in cells:
        if rec.addr > pos:
            parts.append(bytes(body[pos - base:rec.addr - base]))
        parts.append(_pointer_part(state, rec))
        pos = rec.addr + POINTER_WIDTH
    if pos < end:
        parts.append(bytes(body[pos - base:end - base]))
    return tuple(parts)


def _pointer_part(state, rec):
    """A ``SymbolRef`` or ``SymbolDiff`` for the cell ``rec`` records.
    Validation put its values in sections, and each has a floor label."""
    sym = _symbol_for(state, state.values[rec])
    if isinstance(rec, DataDiff):
        return SymbolDiff(sym, _symbol_for(state, rec.subtrahend))
    return sym


# --- control flow graphs ---

def build_cfg(state: _LiftState) -> tuple[Cfg, ...]:
    # A function reaches a jump table when it references the label that sits
    # exactly at the table's subtrahend.
    tables: dict[int, list[int]] = {}
    for rec in state.meta.pointers:
        if isinstance(rec, DataDiff):
            tables.setdefault(rec.subtrahend, []).append(state.values[rec])
    table_minuends: dict[str, list[int]] = {}
    for sub_addr, minuends in tables.items():
        found = state.labels.lookup(sub_addr, "data")
        if found and found[1] == 0:
            table_minuends.setdefault(found[0], []).extend(minuends)

    block_addrs = sorted(state.labels.bb_backed)
    decoded = state.decoded
    cfgs = []
    for entry, limit in _function_ranges(state):
        addrs = _function_instrs(state, entry, limit)  # the entry is decoded
        # Blocks start at the entry, at each backed block, and at each
        # decoded instruction after one that ends a block.
        starts = {entry, *block_addrs[bisect_right(block_addrs, entry):
                                      bisect_left(block_addrs, limit)]}
        for addr in addrs:
            ins = decoded[addr]
            if ins.mnemonic in _ENDS_BLOCK:
                after = addr + ins.length
                if after < limit and after in decoded:
                    starts.add(after)
        starts = sorted(starts)
        reachable_minuends: set[int] = set()
        for name in _referenced_labels(state, addrs):
            reachable_minuends.update(table_minuends.get(name, ()))

        blocks = []
        for bi, bstart in enumerate(starts):
            bend_limit = starts[bi + 1] if bi + 1 < len(starts) else limit
            last = addrs[bisect_left(addrs, bend_limit) - 1]  # bstart is decoded
            successors = _successors(state, state.decoded[last], starts,
                                     reachable_minuends)
            blocks.append(CfgBlock(start=bstart, end=last,
                                   successors=tuple(sorted(successors))))
        cfgs.append(Cfg(function_entry=entry, blocks=tuple(blocks)))
    return tuple(cfgs)


# The mnemonics of the instructions that end a block: a direct or indirect
# jump, a conditional one, a return and a halt.
_ENDS_BLOCK = frozenset(("jmp", *JCC_MNEMONICS, "ret", "hlt"))


def _referenced_labels(state, addrs) -> set[str]:
    names = set()
    for addr in addrs:
        for op in state.operands_of(addr):
            if isinstance(op, SymbolRef):
                names.add(op.label)
            elif isinstance(op, MemRef) and op.label:
                names.add(op.label)
    return names


def _successors(state, ins, starts, reachable_minuends):
    """The successors of the block that decoded ``ins`` ends, among the
    function's sorted block ``starts``."""
    if ins.address in state.labels.function_ends:
        return []
    klass = instruction_class(ins)
    i = bisect_right(starts, ins.address)
    next_start = starts[i] if i < len(starts) else None

    # A direct target outside ``starts`` leaves the function: validation
    # made every jump target a decoded instruction start, so a block.
    if klass.kind == JUMP:
        return [klass.target] if klass.target in starts else []
    if klass.kind == CONDITIONAL_JUMP:
        succ = [klass.target] if klass.target in starts else []
        if next_start is not None:
            succ = sorted(set(succ) | {next_start})
        return succ
    if klass.kind == INDIRECT_JUMP:
        inside = [m for m in reachable_minuends if m in starts]
        if inside:
            return inside
        state.warn("cfg", f"indirect jump at 0x{ins.address:x} has no reachable jump "
                          f"table; assuming all blocks", ins.address)
        return list(starts)
    if klass.kind in (RETURN, HALT):
        return []
    # calls and plain fallthrough continue at the next block
    if next_start is not None:
        return [next_start]
    return []


# --- lifted program and emission ---

@value_type
class LiftedProgram(NamedTuple):
    sections: tuple
    instructions: dict[int, Instruction]
    padding: tuple[tuple[int, bytes], ...]
    variables: tuple[Variable, ...]
    labels: LabelMap
    cfgs: tuple[Cfg, ...]
    diagnostics: tuple[Diagnostic, ...]


def lift(image: ElfImage, meta: EllfMetadata, mode: str = STRICT) -> LiftedProgram:
    """Run the full pipeline.

    Step I, ``lift_unsymbolized``, validates the metadata. The passes after
    it run over the metadata it returns, read each instruction as
    validation decoded it, once, and each pointer record's value as
    validation derived it.
    """
    meta, decoded, values, blocks, diagnostics = lift_unsymbolized(image, meta, mode)
    byte_map = load_image(image)
    labels = generate_labels(meta, image, values, blocks)
    state = _LiftState(image, byte_map, meta, labels, decoded, values, diagnostics)

    coarse_symbolize(state)
    text_symbolize(state)
    stack_symbolize(state)
    data_symbolize(state)
    cfgs = build_cfg(state)

    return LiftedProgram(
        sections=tuple(sec for sec in image.sections if sec.alloc),
        instructions=state.instructions(),
        padding=_collect_padding(state),
        variables=tuple(state.variables),
        labels=state.labels,
        cfgs=cfgs,
        diagnostics=tuple(state.diagnostics),
    )


def _collect_padding(state) -> tuple[tuple[int, bytes], ...]:
    """Executable-section bytes outside every decoded instruction."""
    addrs = state.instr_addrs  # decoded instructions are disjoint
    runs = []
    for sec in state.image.sections:
        if not (sec.alloc and sec.exec) or sec.size == 0:
            continue
        end = sec.vaddr + sec.size
        first = bisect_left(addrs, sec.vaddr)
        pos = sec.vaddr
        if first:  # an instruction may run on from the section before
            prev = addrs[first - 1]
            pos = max(pos, prev + state.decoded[prev].length)
        for addr in addrs[first:bisect_left(addrs, end)]:
            if addr > pos:
                runs.append((pos, state.byte_map.read(pos, addr)))
            pos = max(pos, addr + state.decoded[addr].length)
        if pos < end:
            runs.append((pos, state.byte_map.read(pos, end)))
    return tuple(runs)


# --- rendering ---

def render_operand(op) -> str:
    if isinstance(op, Register):
        return op.name
    if isinstance(op, Immediate):
        return str(op.value)
    if isinstance(op, SymbolRef):
        return _ref(op.label, op.offset)
    if isinstance(op, SlotMemRef):
        interior = f" + {op.interior}" if op.interior else ""
        return f"[{_address(op.base, op.index, op.scale, op.bias)} - {op.slot_name}{interior}]"
    if isinstance(op, MemRef):
        if op.label is not None:
            return f"[{_ref(op.label, op.label_offset)}]"
        if op.rip_relative:
            raise LiftError(f"unsymbolized RIP-relative operand {op!r}")
        return f"[{_address(op.base, op.index, op.scale, op.disp)}]"
    if isinstance(op, PcRel):
        raise LiftError(f"unsymbolized PC-relative operand {op!r}")
    raise LiftError(f"cannot render operand {op!r}")


def _address(base, index, scale, disp) -> str:
    """``base + index*scale + disp`` with the absent terms left out."""
    parts = [base] if base else []
    if index:
        parts.append(f"{index}*{scale}")
    if not parts:
        return str(disp)
    expr = " + ".join(parts)
    if disp:
        expr += f" + {disp}" if disp > 0 else f" - {-disp}"
    return expr


def render_instruction(ins: Instruction) -> str:
    if not ins.operands:
        return ins.mnemonic
    return _mnemonic(ins) + " " + ", ".join(render_operand(op) for op in ins.operands)


def _mnemonic(ins: Instruction) -> str:
    """``movabs`` for a 64-bit mov whose 10-byte imm64 holds a value that
    ``mov`` would encode in the 7-byte sign-extended imm32 form, else the
    instruction's own mnemonic."""
    src = ins.operands[-1]
    if (isinstance(src, Immediate) and src.width == label_imm_width(ins) == 64
            and -(1 << 31) <= src.value < (1 << 31)):
        return "movabs"
    return ins.mnemonic


def _byte_text(data) -> str:
    """The ``.byte`` lines for ``data``, joined by newlines: 8 values a line
    (fewer on the last), each ``0xHH`` in lower-case hex, separated by
    ``", "``; empty for no bytes. ``hex`` writes the values 3 characters
    apart, so every 24th character is a line break."""
    if not data:
        return ""
    text = bytearray(data.hex(" "), "ascii")
    text[23::24] = b"\n" * (len(text) // 24)
    return "    .byte 0x" + text.decode().replace(" ", ", 0x").replace("\n", "\n    .byte 0x")


def emit_assembly(lp: LiftedProgram) -> str:
    """Render ``lp`` as text the bundled assembler accepts.

    This is the one place that decides where label lines go. A section is its
    ``.section`` line, then its items in address order: instructions and
    padding runs in code, variable parts in data. ``_label_lines`` maps
    addresses to label lines; an address's lines print once, before the first
    item there (right after ``.section`` for the section base), and raw bytes
    and ``.zero`` runs are cut at every mapped address inside them. Each piece
    of raw bytes renders in one ``_byte_text`` call, as ``.byte`` lines of 8
    values; a run that no address cuts renders whole, with no copy. An
    address inside an instruction or a pointer cell gets no lines. The map
    holds:

    - a used section floor at the section base;
    - ``.func NAME`` and its ``.slot`` lines at a function entry;
    - a block label at a backed block (a ``BASIC_BLOCK`` record or a block
      validation implies), or wherever used;
    - a data label where a variable starts with it, or wherever used.

    At a shared address the order is floor, function, then block or data
    label. ``.endfunc`` follows the instruction at a ``FUNCTION_END``
    record. Validation put every text record on an instruction, so each of
    these lines lands before one. Every ``.func`` is closed exactly once:
    ``.endfunc`` prints only while a function is open, a ``.func`` line
    first closes the function still open, and a function still open at the
    end of its section is closed there.
    """
    sections = [(sec, _items(lp, sec)) for sec in lp.sections]
    marks = _label_lines(lp)
    cuts = sorted(marks)
    lines: list[str] = []
    in_func = False

    def put(label_lines):
        nonlocal in_func
        for line in label_lines:
            if line.startswith(".func "):
                if in_func:
                    lines.append(".endfunc")
                in_func = True
            lines.append(line)

    for sec, items in sections:
        lines.append(f".section {sec.name} base=0x{sec.vaddr:x}")
        put(marks.pop(sec.vaddr, ()))
        for addr, size, item in items:
            put(marks.pop(addr, ()))
            if isinstance(item, Instruction):
                lines.append("    " + render_instruction(item))
                if in_func and addr in lp.labels.function_ends:
                    lines.append(".endfunc")
                    in_func = False
            elif isinstance(item, (SymbolRef, SymbolDiff)):
                lines.append(_part_line(item))
            else:  # raw bytes or a .zero run, cut at each mapped address inside
                pos = 0
                for cut in cuts[bisect_right(cuts, addr):bisect_left(cuts, addr + size)]:
                    lines.append(_raw_text(item, pos, cut - addr))
                    put(marks.pop(cut, ()))
                    pos = cut - addr
                lines.append(_raw_text(item, pos, size))
        if in_func:
            lines.append(".endfunc")
            in_func = False
    return "\n".join(lines) + "\n"


def _raw_text(item, lo, hi):
    """The lines for offsets ``lo`` to ``hi`` of raw bytes or a ``.zero``
    run; a whole run of bytes renders as it is, with no copy."""
    if isinstance(item, Zeroes):
        return f"    .zero {hi - lo}"
    return _byte_text(item if hi - lo == len(item) else memoryview(item)[lo:hi])


def _items(lp, sec):
    """(address, size, item) in address order: instructions and padding runs
    in code, variable parts in data; raw bytes are ``bytes``."""
    lo, hi = sec.vaddr, sec.vaddr + sec.size
    if sec.exec:
        items = [(addr, ins.length, ins) for addr, ins in lp.instructions.items()
                 if lo <= addr < hi]
        items += [(addr, len(blob), blob) for addr, blob in lp.padding if lo <= addr < hi]
        items.sort(key=lambda item: item[0])
        return items
    items = []
    for var in lp.variables:
        if lo <= var.address < hi:
            addr = var.address
            for part in var.payload:
                size = (part.size if isinstance(part, Zeroes) else
                        len(part) if isinstance(part, bytes) else POINTER_WIDTH)
                items.append((addr, size, part))
                addr += size
    return items


def _label_lines(lp) -> dict[int, list[str]]:
    """Address -> its label lines in order."""
    lm = lp.labels
    marks: dict[int, list[str]] = {}
    for addr, name in {**lm.text_floors, **lm.data_floors}.items():
        if name in lm.used:
            marks.setdefault(addr, []).append(f"{name}:")
    for addr, name in lm.functions.items():
        marks.setdefault(addr, []).extend(
            [f".func {name}"] + [f".slot {name}, {slot}, {off}"
                                 for off, slot in lm.slots.get(addr, ())])
    for addr, name in lm.blocks.items():
        if name in lm.used or addr in lm.bb_backed:
            marks.setdefault(addr, []).append(f"{name}:")
    var_labels = {var.label for var in lp.variables}
    for addr, name in lm.data_labels.items():
        if name in var_labels or name in lm.used:
            marks.setdefault(addr, []).append(f"{name}:")
    return marks


def _part_line(part) -> str:
    """The line for a pointer or difference cell."""
    if isinstance(part, SymbolRef):
        return f"    .quad {_ref(part.label, part.offset)}"
    a, b = part.minuend, part.subtrahend
    return f"    .quad {_ref(a.label, a.offset)} - {_ref(b.label, b.offset)}"


def _ref(label, offset):
    return label + (f" + {offset}" if offset else "")
