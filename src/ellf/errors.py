"""Exception hierarchy, diagnostics and the value-type helpers shared by all
ellf modules."""

from typing import NamedTuple


class EllfError(Exception):
    """Base class for all errors raised by this package."""


def quoted(value, conv=str) -> str:
    """``conv(value)`` for a message; past Python's 4300-digit limit on
    writing an int in decimal, the int in hex or the object's type name."""
    try:
        return conv(value)
    except ValueError:
        return hex(value) if isinstance(value, int) else type(value).__name__


# --- metadata codec ---

class InvariantViolation(EllfError):
    pass


class BadMagic(EllfError):
    pass


class UnsupportedVersion(EllfError):
    pass


class TruncatedTable(EllfError):
    pass


class NonCanonical(EllfError):
    pass


class VarintOverflow(EllfError):
    pass


# --- ELF container ---

class ElfError(EllfError):
    pass


class NotElf(ElfError):
    pass


class UnsupportedClass(ElfError):
    pass


class UnsupportedEndianness(ElfError):
    pass


class MalformedHeader(ElfError):
    pass


class OverlapError(ElfError):
    pass


class DuplicateSection(ElfError):
    pass


class SectionNotFound(ElfError):
    pass


# --- instruction set ---

class IsaError(EllfError):
    pass


class UnknownOpcode(IsaError):
    pass


class TruncatedInstruction(IsaError):
    pass


class UnsupportedForm(IsaError):
    pass


# --- lifter ---

class LiftError(EllfError):
    pass


class PointerStraddle(LiftError):
    """What a strict lift raises when validation reports a straddle: a
    pointer cell that overlaps another or crosses a data-object boundary (the
    merged-suffix hazard)."""


# --- assembler ---

class AsmError(EllfError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class AsmSyntaxError(AsmError):
    pass


class DuplicateLabel(AsmError):
    pass


class UnknownDirective(AsmError):
    pass


class UndefinedLabel(AsmError):
    pass


class RangeOverflow(AsmError):
    pass


class SectionOverlap(AsmError):
    pass


# --- value types ---
#
# Every value class of the package is a NamedTuple: building one allocates
# one tuple. Defining one compiles code at import: on Python 3.11,
# ``collections.namedtuple`` compiles each class's generated ``__new__`` with
# ``eval`` (39 classes), and ``typing.NamedTuple`` compiles a ``ForwardRef``
# for each string annotation (124 in all). A plain tuple compares by its
# items alone, so these helpers make each record a value of its own type, as
# a frozen dataclass is: equal only to an instance of exactly its class with
# equal fields, and hashed as its field tuple. Without them
# OperandPointer(0x10, 1, 0x20) would equal DataDiff(0x10, 1, 0x20), and a
# record would equal a plain tuple.

def _eq(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def value_type(cls):
    """Give the NamedTuple class ``cls`` type-aware equality and the hash of
    its field tuple."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, tuple.__hash__
    return cls


def value_type_but_last(cls):
    """``value_type``, with the last field, which has a default, left out of
    equality, hash and repr: it rides along with the value."""
    shown = cls._fields[:-1]
    n = len(shown)

    def __eq__(self, other):
        return type(self) is type(other) and self[:n] == other[:n]

    def __ne__(self, other):
        return not __eq__(self, other)

    def __hash__(self):
        return hash(self[:n])

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(shown, self))
        return f"{type(self).__name__}({fields})"

    cls.__eq__, cls.__ne__, cls.__hash__, cls.__repr__ = __eq__, __ne__, __hash__, __repr__
    return cls


# --- diagnostics (non-fatal findings, returned rather than raised) ---

WARNING = "warning"
ERROR = "error"


@value_type_but_last
class Diagnostic(NamedTuple):
    kind: str          # "range" | "alignment" | "function-start" | "pointer" | ...
    message: str
    addr: int | None = None
    severity: str = ERROR
    # The metadata record at fault, if the finding is about one record.
    record: object = None

    def __str__(self):
        loc = f" at 0x{self.addr:x}" if self.addr is not None else ""
        return f"[{self.severity}] {self.kind}{loc}: {self.message}"
