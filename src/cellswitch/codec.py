"""Frame layout, checksum, and relative-address routing.

Every unit crossing a link is a fixed 264-byte frame.  The paper's
abstract gives only its size; the byte layout below is this package's
assumption:

* bytes 0-1: one big-endian word holding eop (bit 15),
  valid_bytes - 1 (bits 7-14) and a 7-bit sequence number (bits 0-6);
* byte 2: total_hops (high nibble) and remain_hops (low nibble);
* bytes 3-7: the five route selectors;
* bytes 8-263: the payload.

The 12-bit CRC covers all 264 bytes and travels beside the frame.
The simulator never serializes a frame: the link model carries its
own ``link.Frame`` and the star engine the tuple record documented in
``traffic``, so this module keeps only the layout's sizes, the CRC and
the routing layer.  The rule that cuts a packet into cells lives with
the sources that emit them (``traffic``).

Routing is relative: a selector names an egress port by its position
among the ports of the ingress switch excluding the ingress port
itself.  Each switch consumes the leading selector, shifts the route
left, and writes the selector of the reverse hop into the vacated
slot, so a delivered cell carries the route back to its source.
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
# The line header stores the frame sequence modulo this, which bounds
# the link's one-way delay (``link.MAX_ONE_WAY_DELAY``).
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


@dataclass(slots=True)
class L2Header:
    """Hop counters plus the five-slot relative route."""

    total_hops: int
    remain_hops: int
    dst_ports: list[int] = field(default_factory=lambda: [0] * ROUTE_SLOTS)


class RouteKind(Enum):
    UNICAST = auto()
    BROADCAST = auto()
    DELIVER = auto()


@dataclass(slots=True)
class RouteDecision:
    kind: RouteKind
    egress: int | None = None


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
