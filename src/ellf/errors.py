"""Exception hierarchy and diagnostics shared by all ellf modules."""

from dataclasses import dataclass, field


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


class RegionDecodeError(LiftError):
    pass


class RegionOverlap(LiftError):
    pass


class NotAPointerPosition(LiftError):
    pass


class MetadataMismatch(LiftError):
    """Metadata and decoded instruction bytes disagree (strict mode only)."""


class DanglingTextRecord(LiftError):
    pass


class PointerStraddle(LiftError):
    """A pointer payload crosses a data-object boundary (merged-suffix hazard)."""


class TargetOutsideFunction(LiftError):
    pass


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


# --- diagnostics (non-fatal findings, returned rather than raised) ---

WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    kind: str          # "range" | "alignment" | "function-start" | "pointer" | ...
    message: str
    addr: int | None = None
    severity: str = ERROR
    # The metadata record at fault, if the finding is about one record.
    record: object = field(default=None, compare=False, repr=False)

    def __str__(self):
        loc = f" at 0x{self.addr:x}" if self.addr is not None else ""
        return f"[{self.severity}] {self.kind}{loc}: {self.message}"
