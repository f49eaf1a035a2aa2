"""Command-line front door: inject, extract, lift, asm, roundtrip, stats.

Exit codes: 0 success, 1 domain failure (bad metadata, lifting or assembly
errors), 2 I/O or usage failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import elfio
from .asm import assemble, parse_assembly, roundtrip_check
from .errors import AsmSyntaxError, EllfError
from .isa import U64
from .lifter import emit_assembly, lift
from .meta import (
    decode_metadata,
    encode_metadata,
    encoded_table_sizes,
    metadata_from_json,
    metadata_to_json,
    validate_metadata,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _read_file(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _IoFailure(f"cannot read {path}: {exc.strerror}") from exc


def _write_file(path, data):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _IoFailure(f"cannot write {path}: {exc.strerror}") from exc


def _read_source(path):
    data = _read_file(path)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise AsmSyntaxError(f"{path} is not UTF-8 text: byte 0x{data[exc.start]:02x} "
                             f"at offset {exc.start}",
                             data.count(b"\n", 0, exc.start) + 1) from None


class _IoFailure(Exception):
    pass


def cmd_inject(args) -> int:
    meta_text = _read_file(args.meta)
    try:
        meta_json = json.loads(meta_text)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        print(f"error: {args.meta} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    meta = metadata_from_json(meta_json)
    img = elfio.read_elf(_read_file(args.input))
    problems = validate_metadata(meta, img)
    if problems:
        for diag in problems:
            print(str(diag), file=sys.stderr)
        return EXIT_DOMAIN
    payload = encode_metadata(meta)
    _write_file(args.output, elfio.inject_section(img, ".ellf", payload))
    print(f"injected .ellf: {len(payload)} bytes")
    return EXIT_OK


def cmd_extract(args) -> int:
    img = elfio.read_elf(_read_file(args.input))
    meta = decode_metadata(elfio.extract_section(img, ".ellf"))
    if args.json:
        print(json.dumps(metadata_to_json(meta), indent=2))
    else:
        for name, (count, size) in encoded_table_sizes(meta).items():
            print(f"{name:13s} {count:6d} records  {size:6d} bytes")
    return EXIT_OK


def cmd_lift(args) -> int:
    img = elfio.read_elf(_read_file(args.input))
    meta = decode_metadata(elfio.extract_section(img, ".ellf"))
    mode = "strict" if args.strict else "lenient"
    lp = lift(img, meta, mode=mode)
    _write_file(args.output, emit_assembly(lp).encode())
    counts: dict[str, int] = {}
    for diag in lp.diagnostics:
        counts[diag.kind] = counts.get(diag.kind, 0) + 1
    for kind in sorted(counts):
        print(f"diagnostics [{kind}]: {counts[kind]}")
    print(f"lifted {len(lp.instructions)} instructions, "
          f"{len(lp.variables)} variables to {args.output}")
    return EXIT_OK


def cmd_asm(args) -> int:
    source = _read_source(args.input)
    bases = {}
    if args.base_text is not None:
        bases[".text"] = args.base_text
    if args.base_data is not None:
        bases[".data"] = args.base_data
    prog = parse_assembly(source)
    elf, meta = assemble(prog, bases)
    _write_file(args.output, elf)
    print(f"assembled {args.input} -> {args.output} "
          f"({len(encode_metadata(meta))} metadata bytes)")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    source = _read_source(args.input)
    report = roundtrip_check(source)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_stats(args) -> int:
    img = elfio.read_elf(_read_file(args.input))
    payload = elfio.extract_section(img, ".ellf")
    meta = decode_metadata(payload)
    alloc = sum(sec.size for sec in img.sections if sec.alloc)
    print(f"alloc bytes:  {alloc}")
    print(f".ellf bytes:  {len(payload)}")
    ratio = len(payload) / alloc if alloc else float("inf")
    print(f"ratio:        {ratio:.4f}")
    for name, (count, size) in encoded_table_sizes(meta).items():
        print(f"table {name:13s} {count:6d} records  {size:6d} bytes")
    return EXIT_OK


def _hex_int(text):
    value = int(text, 0)
    if not 0 <= value <= U64:
        raise argparse.ArgumentTypeError(
            f"{text} is outside the 64-bit address space")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellf",
        description="Metadata-backed binary lifting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="inject metadata JSON into an ELF as .ellf")
    p.add_argument("input", help="input ELF file")
    p.add_argument("--meta", required=True, help="metadata JSON file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("extract", help="print the .ellf metadata of a binary")
    p.add_argument("input")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON interchange form")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("lift", help="lift an ELLF binary to assembly")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("asm", help="assemble dialect source to an ELLF binary")
    p.add_argument("input")
    p.add_argument("--base-text", type=_hex_int, default=None)
    p.add_argument("--base-data", type=_hex_int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("roundtrip", help="assemble, lift, reassemble and compare")
    p.add_argument("input")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("stats", help="size overhead of the .ellf section")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EllfError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
