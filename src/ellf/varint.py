"""Base-128 varints (LEB128) and zigzag signed encoding.

Unsigned values are encoded little-endian, 7 data bits per byte, high bit
set on continuation bytes. Decoding requires the minimal-length form:
a trailing 0x00 continuation group is rejected. Signed values go through
zigzag so small magnitudes stay short.
"""

from .errors import NonCanonical, TruncatedTable, VarintOverflow


def encode_unsigned(value: int) -> bytes:
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_unsigned(data, offset: int, max_bits: int = 64) -> tuple[int, int]:
    """Decode one uvarint at ``offset``; returns (value, new_offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise TruncatedTable(f"varint runs past end of input at offset {offset}")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            if byte == 0 and pos - offset > 1:
                raise NonCanonical(f"non-minimal varint at offset {offset}")
            break
        if shift > max_bits:
            raise VarintOverflow(f"varint at offset {offset} exceeds {max_bits} bits")
    if result >> max_bits:
        raise VarintOverflow(f"varint at offset {offset} exceeds {max_bits} bits")
    return result, pos


def encode_signed(value: int) -> bytes:
    return encode_unsigned(_zigzag(value))


def decode_signed(data, offset: int) -> tuple[int, int]:
    # 65 bits of zigzag range covers any difference of two u64 addresses.
    raw, pos = decode_unsigned(data, offset, max_bits=65)
    return _unzigzag(raw), pos


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(raw: int) -> int:
    return (raw >> 1) ^ -(raw & 1)
