"""Frame layout and relative-address routing.

Every unit crossing a link is a fixed 264-byte frame.  The paper's
abstract gives only its size; the byte layout below is this package's
assumption:

* bytes 0-1: one big-endian word holding eop (bit 15),
  valid_bytes - 1 (bits 7-14) and a 7-bit sequence number (bits 0-6);
* byte 2: total_hops (high nibble) and remain_hops (low nibble);
* bytes 3-7: the five route selectors;
* bytes 8-263: the payload.

The model carries no CRC or other checksum: ``link`` draws corruption
once per frame, and every corrupted frame is detected.  The simulator
never serializes a frame: the link model carries the frame tuple
documented in ``link`` and the star engine the cell record documented
in ``traffic``, so this module keeps only the layout's sizes and the
routing layer.  The rule that cuts a packet into cells lives with the
sources that emit them (``traffic``).

Routing is relative: a selector names an egress port by its position
among the ports of the ingress switch excluding the ingress port
itself.  One switch hop is one call, ``forward``: it reads the leading
selector and returns each copy the switch sends, with the route
shifted left and the selector of the reverse hop written into the
vacated slot, so a delivered cell carries the route back to its
source.  A spent route yields no copies: the cell is for this device.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ProtocolError

CELL_PAYLOAD_BYTES = 256
HEADER_BYTES = 8
FRAME_BYTES = CELL_PAYLOAD_BYTES + HEADER_BYTES
ROUTE_SLOTS = 5
BROADCAST_SELECTOR = 255
# Unicast selectors 0..n-2 must stay below the broadcast selector.
MAX_SWITCH_PORTS = BROADCAST_SELECTOR + 1
# The line header stores the frame sequence modulo this.  A link of
# one-way delay D needs 2 * (2D + 2) distinct seqs (``link``'s module
# docstring), so D is at most 31.
SEQ_MODULUS = 128
MAX_ONE_WAY_DELAY = SEQ_MODULUS // 4 - 1


@dataclass(slots=True)
class L2Header:
    """Hop counters plus the five-slot relative route."""

    total_hops: int
    remain_hops: int
    dst_ports: list[int]


def _check_port_count(n_ports: int) -> None:
    if not 2 <= n_ports <= MAX_SWITCH_PORTS:
        raise ProtocolError(
            f"a switch has 2..{MAX_SWITCH_PORTS} ports, not {n_ports}")


def selector_for(ingress: int, egress: int, n_ports: int) -> int:
    """Inverse of forward's unicast lookup: the selector that sends an
    ingress-port arrival out through ``egress``.  Loopback has no
    selector, and ``n_ports`` must be 2..MAX_SWITCH_PORTS."""
    _check_port_count(n_ports)
    if ingress == egress:
        raise ProtocolError("loopback routes are not addressable")
    if not 0 <= egress < n_ports:
        raise ProtocolError(f"egress {egress} out of range for {n_ports} ports")
    return egress if egress < ingress else egress - 1


def forward(header: L2Header, ingress: int,
            n_ports: int) -> list[tuple[int, L2Header]]:
    """One switch hop: the egress port and new header of each copy sent.

    The leading selector addresses egress ports relative to the
    ingress: values below the ingress index map directly, values at or
    above it skip the ingress port.  255 sends a copy to every other
    port, in port order.  Each new header has one hop fewer, its route
    shifted left, and in the vacated last slot the reverse selector,
    which names this ingress when looked up at the copy's egress port.
    A spent route (remain_hops == 0) yields no copies.  ``header`` is
    not changed, and ``n_ports`` must be 2..MAX_SWITCH_PORTS.
    """
    _check_port_count(n_ports)
    if not 0 <= ingress < n_ports:
        raise ProtocolError(f"ingress {ingress} out of range for {n_ports} ports")
    if header.remain_hops == 0:
        return []
    sel = header.dst_ports[0]
    if sel == BROADCAST_SELECTOR:
        egresses = [port for port in range(n_ports) if port != ingress]
    elif sel < n_ports - 1:
        egresses = [sel if sel < ingress else sel + 1]
    else:
        raise ProtocolError(
            f"selector {sel} invalid at ingress {ingress} with {n_ports} ports")
    tail = header.dst_ports[1:]
    return [(egress, L2Header(header.total_hops, header.remain_hops - 1,
                              tail + [selector_for(egress, ingress, n_ports)]))
            for egress in egresses]


def source_address(header: L2Header) -> list[int]:
    """Route back to the source of a delivered cell.

    Reads the last total_hops selectors in reverse order; each was
    written by one traversed switch as the cell passed through.
    """
    if header.remain_hops != 0:
        raise ProtocolError("source address is defined only after delivery")
    return list(reversed(header.dst_ports[ROUTE_SLOTS - header.total_hops:]))
