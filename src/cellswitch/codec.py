"""Cell format, checksum, and relative-address routing.

Every unit crossing a link is a fixed 264-byte frame: a 2-byte line
header, a 1-byte hop counter pair, five 1-byte route selectors, and a
256-byte payload.  The rule that cuts a packet into cells lives with
the sources that emit them (``traffic``).

Routing is relative: a selector names an egress port by its position
among the ports of the ingress switch excluding the ingress port
itself.  Each switch consumes the leading selector, shifts the route
left, and writes the selector of the reverse hop into the vacated
slot, so a delivered cell carries the route back to its source.

``Cell`` is the wire format only.  The routing functions read and
rewrite just its ``L2Header``, and the star engine never serializes a
cell: it carries the plain record documented in ``traffic`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto

from .errors import ProtocolError

CELL_PAYLOAD_BYTES = 256
HEADER_BYTES = 8
FRAME_BYTES = CELL_PAYLOAD_BYTES + HEADER_BYTES
ROUTE_SLOTS = 5
BROADCAST_SELECTOR = 255
# Unicast selectors 0..n-2 must stay below the broadcast selector.
MAX_SWITCH_PORTS = BROADCAST_SELECTOR + 1
# The line header stores the frame sequence modulo this; retransmission
# windows are far shorter, so 7 bits disambiguate every in-flight frame.
SEQ_MODULUS = 128

CRC12_POLY = 0x80F  # x^12 + x^11 + x^3 + x^2 + x + 1
CRC12_INIT = 0x000


def _build_crc12_table(poly: int) -> list[int]:
    table = []
    for byte in range(256):
        reg = byte << 4
        for _ in range(8):
            if reg & 0x800:
                reg = ((reg << 1) ^ poly) & 0xFFF
            else:
                reg = (reg << 1) & 0xFFF
        table.append(reg)
    return table


_CRC12_TABLE = _build_crc12_table(CRC12_POLY)


def crc12(data: bytes) -> int:
    """12-bit CRC over ``data``, MSB first, no reflection, no final xor."""
    reg = CRC12_INIT
    for byte in data:
        reg = (_CRC12_TABLE[((reg >> 4) ^ byte) & 0xFF] ^ (reg << 8)) & 0xFFF
    return reg


def verify_frame(data: bytes, checksum: int) -> bool:
    """True iff ``checksum`` matches the CRC of the frame bytes."""
    return crc12(data) == checksum


@dataclass(slots=True)
class L1Meta:
    """Line-level metadata carried in the 2-byte frame header.

    The checksum rides alongside the frame rather than being bit-packed
    into the header word; ``encode_cell`` gives the serialized layout.
    """

    valid_bytes: int = CELL_PAYLOAD_BYTES
    eop: bool = False
    seq: int = 0
    checksum: int = 0


@dataclass(slots=True)
class L2Header:
    """Hop counters plus the five-slot relative route."""

    total_hops: int
    remain_hops: int
    dst_ports: list[int] = field(default_factory=lambda: [0] * ROUTE_SLOTS)


@dataclass(slots=True)
class Cell:
    """One 264-byte frame: line metadata, route header and payload."""

    l1: L1Meta
    l2: L2Header
    payload: bytes


class RouteKind(Enum):
    UNICAST = auto()
    BROADCAST = auto()
    DELIVER = auto()


@dataclass(slots=True)
class RouteDecision:
    kind: RouteKind
    egress: int | None = None


def _check_header_ranges(cell: Cell) -> None:
    l1, l2 = cell.l1, cell.l2
    if not 1 <= l1.valid_bytes <= CELL_PAYLOAD_BYTES:
        raise ProtocolError(f"valid_bytes out of range: {l1.valid_bytes}")
    if not 0 <= l2.total_hops <= 15 or not 0 <= l2.remain_hops <= 15:
        raise ProtocolError(
            f"hop counters exceed 4 bits: {l2.total_hops}/{l2.remain_hops}")
    if l2.remain_hops > l2.total_hops:
        raise ProtocolError("remain_hops exceeds total_hops")
    if len(l2.dst_ports) != ROUTE_SLOTS:
        raise ProtocolError(f"route must have {ROUTE_SLOTS} slots")
    for sel in l2.dst_ports:
        if not 0 <= sel <= 255:
            raise ProtocolError(f"route selector out of range: {sel}")
    if len(cell.payload) != CELL_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload must be exactly {CELL_PAYLOAD_BYTES} bytes")


def encode_cell(cell: Cell) -> bytes:
    """Serialize to the fixed 264-byte frame layout.

    Bytes 0-1 hold eop, valid_bytes - 1, and seq mod 128 as a
    big-endian word; byte 2 packs total_hops (high nibble) and
    remain_hops (low nibble); bytes 3-7 are the route selectors;
    bytes 8-263 are the payload.
    """
    _check_header_ranges(cell)
    l1, l2 = cell.l1, cell.l2
    word = (int(l1.eop) << 15) | ((l1.valid_bytes - 1) << 7) | (l1.seq % SEQ_MODULUS)
    head = bytes((
        word >> 8, word & 0xFF,
        (l2.total_hops << 4) | l2.remain_hops,
        *l2.dst_ports,
    ))
    return head + cell.payload


def decode_cell(data: bytes) -> Cell:
    """Parse a 264-byte frame.  The checksum field is recomputed from
    the frame bytes, matching how :func:`stamp_checksum` seals cells."""
    if len(data) != FRAME_BYTES:
        raise ProtocolError(f"frame must be {FRAME_BYTES} bytes, got {len(data)}")
    word = (data[0] << 8) | data[1]
    l1 = L1Meta(
        valid_bytes=((word >> 7) & 0xFF) + 1,
        eop=bool(word >> 15),
        seq=word & (SEQ_MODULUS - 1),
        checksum=crc12(data),
    )
    l2 = L2Header(
        total_hops=data[2] >> 4,
        remain_hops=data[2] & 0xF,
        dst_ports=list(data[3:8]),
    )
    return Cell(l1=l1, l2=l2, payload=data[8:])


def stamp_checksum(cell: Cell) -> Cell:
    """Set l1.checksum to the CRC of the serialized frame."""
    cell.l1.checksum = crc12(encode_cell(cell))
    return cell


def verify_cell(cell: Cell) -> bool:
    return verify_frame(encode_cell(cell), cell.l1.checksum)


def _check_port_count(n_ports: int) -> None:
    if not 2 <= n_ports <= MAX_SWITCH_PORTS:
        raise ProtocolError(
            f"a switch has 2..{MAX_SWITCH_PORTS} ports, not {n_ports}")


def route_lookup(ingress: int, header: L2Header, n_ports: int) -> RouteDecision:
    """Resolve the leading route selector at an ingress port.

    The selector addresses egress ports relative to the ingress: values
    below the ingress index map directly, values at or above it skip
    the ingress port.  255 means broadcast to every other port, and a
    spent route (remain_hops == 0) means the cell is for this device.
    ``n_ports`` must be 2..MAX_SWITCH_PORTS.
    """
    _check_port_count(n_ports)
    if not 0 <= ingress < n_ports:
        raise ProtocolError(f"ingress {ingress} out of range for {n_ports} ports")
    if header.remain_hops == 0:
        return RouteDecision(RouteKind.DELIVER)
    sel = header.dst_ports[0]
    if sel == BROADCAST_SELECTOR:
        return RouteDecision(RouteKind.BROADCAST)
    if sel < ingress:
        return RouteDecision(RouteKind.UNICAST, egress=sel)
    if sel < n_ports - 1:
        return RouteDecision(RouteKind.UNICAST, egress=sel + 1)
    raise ProtocolError(
        f"selector {sel} invalid at ingress {ingress} with {n_ports} ports")


def selector_for(ingress: int, egress: int, n_ports: int) -> int:
    """Inverse of route_lookup: the selector that sends an ingress-port
    arrival out through ``egress``.  Loopback has no selector, and
    ``n_ports`` must be 2..MAX_SWITCH_PORTS."""
    _check_port_count(n_ports)
    if ingress == egress:
        raise ProtocolError("loopback routes are not addressable")
    if not 0 <= egress < n_ports:
        raise ProtocolError(f"egress {egress} out of range for {n_ports} ports")
    return egress if egress < ingress else egress - 1


def rotate_header(header: L2Header, ingress: int, egress: int,
                  n_ports: int) -> L2Header:
    """Consume one hop as the cell enters the fabric.

    Decrements remain_hops and shifts the route left one slot.  The
    vacated last slot receives the reverse selector: looked up at the
    egress switch port, it names this ingress port, so after the final
    hop the tail of the route spells the way back to the source.
    """
    if header.remain_hops == 0:
        raise ProtocolError("cannot rotate a spent route")
    header.remain_hops -= 1
    header.dst_ports = header.dst_ports[1:] + [
        selector_for(egress, ingress, n_ports)]
    return header


def source_address(header: L2Header) -> list[int]:
    """Route back to the source of a delivered cell.

    Reads the last total_hops selectors in reverse order; each was
    written by one traversed switch as the cell passed through.
    """
    if header.remain_hops != 0:
        raise ProtocolError("source address is defined only after delivery")
    if header.total_hops == 0:
        return []
    return list(reversed(header.dst_ports[ROUTE_SLOTS - header.total_hops:]))
