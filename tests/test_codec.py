"""Codec tests: frame layout and relative routing."""

from pathlib import Path

import pytest

from cellswitch.codec import (
    BROADCAST_SELECTOR,
    CELL_PAYLOAD_BYTES,
    FRAME_BYTES,
    HEADER_BYTES,
    MAX_SWITCH_PORTS,
    ROUTE_SLOTS,
    SEQ_MODULUS,
    L2Header,
    forward,
    selector_for,
    source_address,
)
from cellswitch.errors import ProtocolError

GOLDEN = Path(__file__).parent / "data" / "frame_golden.txt"


class TestLayout:
    def test_header_is_exactly_eight_bytes(self):
        """The documented header fills bytes 0-7: a 16-bit line word,
        one byte of hop nibbles, then one byte per route selector."""
        assert HEADER_BYTES == 2 + 1 + ROUTE_SLOTS == 8
        assert FRAME_BYTES == HEADER_BYTES + CELL_PAYLOAD_BYTES == 264
        # 7 sequence bits + 8 bits of valid_bytes - 1 + 1 eop bit
        assert SEQ_MODULUS == 2 ** 7
        assert (CELL_PAYLOAD_BYTES - 1).bit_length() == 8
        # every golden frame is a whole frame whose header decodes to
        # in-range fields
        records = [line.split() for line in GOLDEN.read_text().splitlines()
                   if line and not line.startswith("#")]
        assert len(records) == 5
        for label, frame_hex in records:
            frame = bytes.fromhex(frame_hex)
            assert len(frame) == FRAME_BYTES, label
            word = int.from_bytes(frame[:2], "big")
            valid_bytes = ((word >> 7) & 0xFF) + 1
            total, remain = frame[2] >> 4, frame[2] & 0xF
            assert 1 <= valid_bytes <= CELL_PAYLOAD_BYTES, label
            assert remain <= total <= ROUTE_SLOTS, label
            assert len(frame[3:HEADER_BYTES]) == ROUTE_SLOTS, label


def egresses(copies):
    return [egress for egress, _ in copies]


class TestRouteLookup:
    def header(self, sel, remain=1, total=1):
        return L2Header(total, remain, [sel, 0, 0, 0, 0])

    def test_selector_below_ingress_maps_directly(self):
        assert egresses(forward(self.header(2), 3, 32)) == [2]

    def test_selector_at_or_above_ingress_skips_it(self):
        assert egresses(forward(self.header(5), 2, 8)) == [6]

    def test_broadcast_selector(self):
        copies = forward(self.header(BROADCAST_SELECTOR), 0, 4)
        assert egresses(copies) == [1, 2, 3]

    def test_spent_route_is_local_delivery(self):
        assert forward(self.header(9, remain=0), 5, 16) == []

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_unicast_bijection(self, n):
        # For each ingress the selectors 0..n-2 cover every other port once.
        for ingress in range(n):
            seen = set()
            for sel in range(n - 1):
                [(egress, _)] = forward(self.header(sel), ingress, n)
                assert egress != ingress
                seen.add(egress)
            assert seen == set(range(n)) - {ingress}

    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_out_of_range_selectors_rejected(self, n):
        for sel in (n - 1, n, 150, 254):
            with pytest.raises(ProtocolError):
                forward(self.header(sel), 0, n)

    def test_selector_for_inverts_lookup(self):
        for n in (2, 4, 8, 16, 32):
            for ingress in range(n):
                for egress in range(n):
                    if ingress == egress:
                        with pytest.raises(ProtocolError):
                            selector_for(ingress, egress, n)
                        continue
                    sel = selector_for(ingress, egress, n)
                    assert egresses(forward(self.header(sel), ingress, n)) \
                        == [egress]

    def test_widest_switch_stops_short_of_broadcast(self):
        n = MAX_SWITCH_PORTS
        assert selector_for(0, n - 1, n) == BROADCAST_SELECTOR - 1
        copies = forward(self.header(BROADCAST_SELECTOR - 1), 0, n)
        assert egresses(copies) == [n - 1]
        copies = forward(self.header(BROADCAST_SELECTOR), 0, n)
        assert egresses(copies) == list(range(1, n))

    @pytest.mark.parametrize("n", [1, MAX_SWITCH_PORTS + 1, 300])
    def test_port_count_bounded_by_selector_width(self, n):
        # At 300 ports egress 256 would need selector 255, the
        # broadcast selector.
        with pytest.raises(ProtocolError):
            selector_for(0, 256, n)
        with pytest.raises(ProtocolError):
            forward(self.header(0), 0, n)


def fresh_header(route, total=None):
    hops = len(route)
    return L2Header(total if total is not None else hops, hops,
                    list(route) + [0] * (ROUTE_SLOTS - hops))


class TestRotation:
    def test_rotate_example(self):
        header = fresh_header([5, 1], total=2)
        [(egress, rotated)] = forward(header, ingress=2, n_ports=8)
        assert egress == 6
        assert rotated.remain_hops == 1
        assert rotated.dst_ports == [1, 0, 0, 0, 2]
        assert header == fresh_header([5, 1], total=2)

    def test_reverse_selector_names_ingress(self):
        # The written selector, looked up at the egress port, must name
        # the port the cell came in on.
        for n in (2, 4, 8, 16, 32):
            for ingress in range(n):
                for egress in range(n):
                    if ingress == egress:
                        continue
                    header = fresh_header([selector_for(ingress, egress, n)])
                    [(_, rotated)] = forward(header, ingress, n)
                    back = rotated.dst_ports[-1]
                    reply = L2Header(1, 1, [back, 0, 0, 0, 0])
                    assert egresses(forward(reply, egress, n)) == [ingress]

    def test_single_hop_source_address(self):
        [(_, header)] = forward(fresh_header([2]), ingress=4, n_ports=8)
        assert header.remain_hops == 0
        assert source_address(header) == [selector_for(2, 4, 8)]

    def test_zero_hop_source_address_is_empty(self):
        # A cell that crossed no switch has no route back to read.
        assert source_address(fresh_header([])) == []

    def test_source_address_requires_delivery(self):
        header = fresh_header([1, 2])
        with pytest.raises(ProtocolError):
            source_address(header)


class TestChainedSwitches:
    """Functional walk across two switches joined by one link."""

    N = 8

    def hop(self, header, ingress):
        """The one copy a unicast hop sends: (egress, new header)."""
        [copy] = forward(header, ingress, self.N)
        return copy

    def test_round_trip_all_port_pairs(self):
        n = self.N
        for link_a in range(n):          # port on switch A toward switch B
            for link_b in range(n):      # port on switch B toward switch A
                for src in range(n):
                    if src == link_a:
                        continue
                    for dst in range(n):
                        if dst == link_b:
                            continue
                        route = [
                            selector_for(src, link_a, n),
                            selector_for(link_b, dst, n),
                        ]
                        port, header = self.hop(fresh_header(route), src)
                        assert port == link_a
                        port, header = self.hop(header, link_b)
                        assert port == dst
                        assert header.remain_hops == 0
                        assert forward(header, dst, n) == []

                        # Walk the advertised return route from the
                        # destination endpoint back through both switches.
                        back = source_address(header)
                        assert len(back) == 2
                        port, reply = self.hop(fresh_header(back), dst)
                        assert port == link_b
                        port, reply = self.hop(reply, link_a)
                        assert port == src

    def test_broadcast_replicas_return_addresses(self):
        n = 4
        ingress = 0
        header = fresh_header([BROADCAST_SELECTOR])
        copies = forward(header, ingress, n)
        assert header == fresh_header([BROADCAST_SELECTOR])
        assert egresses(copies) == [1, 2, 3]
        for egress, copy in copies:
            assert copy.remain_hops == header.remain_hops - 1
            back = source_address(copy)
            assert back == [selector_for(egress, ingress, n)]
            # The reverse selector, looked up at the copy's egress
            # port, names the ingress the broadcast came in on.
            assert egresses(forward(fresh_header(back), egress, n)) \
                == [ingress]
