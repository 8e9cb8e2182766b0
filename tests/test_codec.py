"""Codec tests: frame layout, checksum, relative routing."""

import random
from pathlib import Path

import pytest

from cellswitch.codec import (
    BROADCAST_SELECTOR,
    CELL_PAYLOAD_BYTES,
    FRAME_BYTES,
    MAX_SWITCH_PORTS,
    ROUTE_SLOTS,
    Cell,
    L1Meta,
    L2Header,
    RouteKind,
    crc12,
    decode_cell,
    encode_cell,
    rotate_header,
    route_lookup,
    selector_for,
    source_address,
    stamp_checksum,
    verify_cell,
    verify_frame,
)
from cellswitch.errors import ProtocolError

GOLDEN = Path(__file__).parent / "data" / "frame_golden.txt"


def crc12_reference(data: bytes) -> int:
    """Independent oracle: polynomial long division, bit by bit."""
    n = int.from_bytes(data, "big") << 12 if data else 0
    bits = len(data) * 8 + 12
    poly = 0x180F
    for shift in range(bits - 13, -1, -1):
        if (n >> (shift + 12)) & 1:
            n ^= poly << shift
    return n & 0xFFF


def random_cell(rng: random.Random) -> Cell:
    total = rng.randrange(0, 6)
    cell = Cell(
        l1=L1Meta(
            valid_bytes=rng.randrange(1, 257),
            eop=rng.random() < 0.5,
            seq=rng.randrange(128),
        ),
        l2=L2Header(
            total_hops=total,
            remain_hops=rng.randrange(0, total + 1),
            dst_ports=[rng.randrange(256) for _ in range(ROUTE_SLOTS)],
        ),
        payload=rng.randbytes(CELL_PAYLOAD_BYTES),
    )
    return stamp_checksum(cell)


class TestCrc12:
    def test_pinned_values(self):
        # Frozen from two independent bitwise implementations.
        assert crc12(b"") == 0x000
        assert crc12(b"123456789") == 0xF5B
        assert crc12(b"\xff" * 8) == 0xD97
        assert crc12(bytes(range(256))) == 0x780

    def test_matches_long_division_reference(self):
        rng = random.Random(0xC12)
        for _ in range(200):
            data = rng.randbytes(rng.randrange(0, 64))
            assert crc12(data) == crc12_reference(data)

    def test_single_bit_flip_always_detected(self):
        rng = random.Random(0xBEEF)
        for _ in range(10_000):
            frame = bytearray(rng.randbytes(FRAME_BYTES))
            checksum = crc12(bytes(frame))
            pos = rng.randrange(FRAME_BYTES * 8)
            frame[pos // 8] ^= 1 << (pos % 8)
            assert not verify_frame(bytes(frame), checksum)

    def test_verify_accepts_unmodified(self):
        rng = random.Random(7)
        for _ in range(100):
            cell = random_cell(rng)
            assert verify_cell(cell)

    def test_frame_blind_spots(self):
        """The CRC has zero init and no final xor, so it is linear: an
        error pattern goes undetected exactly when its own CRC is 0,
        and that CRC is the xor of its bits' single-bit syndromes."""
        bits = FRAME_BYTES * 8

        def error(*positions):  # bit positions in wire order, MSB first
            frame = bytearray(FRAME_BYTES)
            for pos in positions:
                frame[pos // 8] ^= 0x80 >> (pos % 8)
            return bytes(frame)

        rng = random.Random(0x12C)
        frame = rng.randbytes(FRAME_BYTES)
        flips = error(*rng.sample(range(bits), 5))
        assert crc12(bytes(a ^ b for a, b in zip(frame, flips))) == \
            crc12(frame) ^ crc12(flips)

        syndromes = [crc12(error(pos)) for pos in range(bits)]
        assert bits == 2112
        assert all(syndromes)
        # The generator (x+1)(x^11+x^2+1) has period 2047 < 2112 bits.
        assert len(set(syndromes)) == 2047
        first_seen = {}
        blind_pairs = []
        for pos, syndrome in enumerate(syndromes):
            if syndrome in first_seen:
                blind_pairs.append((first_seen[syndrome], pos))
            else:
                first_seen[syndrome] = pos
        assert len(blind_pairs) == 65
        assert all(b - a == 2047 for a, b in blind_pairs)
        a, b = blind_pairs[0]
        assert crc12(error(a, b)) == 0
        # (x+1) divides the generator, so every syndrome has odd weight
        # and an odd number of flipped bits can never cancel out.
        assert all(bin(syndrome).count("1") % 2 for syndrome in syndromes)


class TestGoldenVectors:
    def test_frames_match_frozen_bytes(self):
        records = [
            line.split() for line in GOLDEN.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(records) == 5
        for label, frame_hex, crc_hex in records:
            frame = bytes.fromhex(frame_hex)
            assert len(frame) == FRAME_BYTES, label
            cell = decode_cell(frame)
            assert encode_cell(cell) == frame, label
            assert crc12(frame) == int(crc_hex, 16), label
            assert cell.l1.checksum == int(crc_hex, 16), label


class TestSerialization:
    def test_round_trip_random_cells(self):
        rng = random.Random(42)
        for _ in range(500):
            cell = random_cell(rng)
            back = decode_cell(encode_cell(cell))
            assert back.l1 == cell.l1
            assert back.l2 == cell.l2
            assert back.payload == cell.payload

    def test_header_is_exactly_eight_bytes(self):
        cell = random_cell(random.Random(1))
        frame = encode_cell(cell)
        assert len(frame) == FRAME_BYTES
        assert frame[8:] == cell.payload

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: setattr(c.l1, "valid_bytes", 0),
            lambda c: setattr(c.l1, "valid_bytes", 257),
            lambda c: setattr(c.l2, "total_hops", 16),
            lambda c: setattr(c.l2, "remain_hops", 3),
            lambda c: setattr(c.l2, "dst_ports", [0] * 4),
            lambda c: setattr(c.l2, "dst_ports", [0, 0, 0, 0, 256]),
            lambda c: setattr(c, "payload", b"\x00" * 255),
        ],
    )
    def test_out_of_range_fields_rejected(self, mutate):
        cell = Cell(L1Meta(), L2Header(2, 2, [1, 2, 0, 0, 0]),
                    bytes(CELL_PAYLOAD_BYTES))
        mutate(cell)
        with pytest.raises(ProtocolError):
            encode_cell(cell)

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ProtocolError):
            decode_cell(bytes(263))


class TestRouteLookup:
    def header(self, sel, remain=1, total=1):
        return L2Header(total, remain, [sel, 0, 0, 0, 0])

    def test_selector_below_ingress_maps_directly(self):
        d = route_lookup(3, self.header(2), 32)
        assert d.kind is RouteKind.UNICAST and d.egress == 2

    def test_selector_at_or_above_ingress_skips_it(self):
        d = route_lookup(2, self.header(5), 8)
        assert d.kind is RouteKind.UNICAST and d.egress == 6

    def test_broadcast_selector(self):
        d = route_lookup(0, self.header(BROADCAST_SELECTOR), 4)
        assert d.kind is RouteKind.BROADCAST

    def test_spent_route_is_local_delivery(self):
        d = route_lookup(5, self.header(9, remain=0), 16)
        assert d.kind is RouteKind.DELIVER

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_unicast_bijection(self, n):
        # For each ingress the selectors 0..n-2 cover every other port once.
        for ingress in range(n):
            seen = set()
            for sel in range(n - 1):
                d = route_lookup(ingress, self.header(sel), n)
                assert d.kind is RouteKind.UNICAST
                assert d.egress != ingress
                seen.add(d.egress)
            assert seen == set(range(n)) - {ingress}

    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_out_of_range_selectors_rejected(self, n):
        for sel in (n - 1, n, 150, 254):
            with pytest.raises(ProtocolError):
                route_lookup(0, self.header(sel), n)

    def test_selector_for_inverts_lookup(self):
        for n in (2, 4, 8, 16, 32):
            for ingress in range(n):
                for egress in range(n):
                    if ingress == egress:
                        with pytest.raises(ProtocolError):
                            selector_for(ingress, egress, n)
                        continue
                    sel = selector_for(ingress, egress, n)
                    d = route_lookup(ingress, self.header(sel), n)
                    assert d.egress == egress

    def test_widest_switch_stops_short_of_broadcast(self):
        n = MAX_SWITCH_PORTS
        assert selector_for(0, n - 1, n) == BROADCAST_SELECTOR - 1
        d = route_lookup(0, self.header(BROADCAST_SELECTOR - 1), n)
        assert d.kind is RouteKind.UNICAST and d.egress == n - 1
        assert route_lookup(0, self.header(BROADCAST_SELECTOR), n).kind \
            is RouteKind.BROADCAST

    @pytest.mark.parametrize("n", [1, MAX_SWITCH_PORTS + 1, 300])
    def test_port_count_bounded_by_selector_width(self, n):
        # At 300 ports egress 256 would need selector 255, the
        # broadcast selector.
        with pytest.raises(ProtocolError):
            selector_for(0, 256, n)
        with pytest.raises(ProtocolError):
            route_lookup(0, self.header(0), n)


def fresh_header(route, total=None):
    hops = len(route)
    return L2Header(total if total is not None else hops, hops,
                    list(route) + [0] * (ROUTE_SLOTS - hops))


class TestRotation:
    def test_rotate_example(self):
        header = fresh_header([5, 1], total=2)
        rotate_header(header, ingress=2, egress=6, n_ports=8)
        assert header.remain_hops == 1
        assert header.dst_ports == [1, 0, 0, 0, 2]

    def test_rotate_spent_route_rejected(self):
        header = fresh_header([3])
        header.remain_hops = 0
        with pytest.raises(ProtocolError):
            rotate_header(header, 0, 3, 8)

    def test_reverse_selector_names_ingress(self):
        # The written selector, looked up at the egress port, must name
        # the port the cell came in on.
        for n in (2, 4, 8, 16, 32):
            for ingress in range(n):
                for egress in range(n):
                    if ingress == egress:
                        continue
                    header = fresh_header([selector_for(ingress, egress, n)])
                    rotate_header(header, ingress, egress, n)
                    back = header.dst_ports[-1]
                    d = route_lookup(egress, L2Header(1, 1, [back, 0, 0, 0, 0]), n)
                    assert d.egress == ingress

    def test_single_hop_source_address(self):
        header = fresh_header([2])
        rotate_header(header, ingress=4, egress=2, n_ports=8)
        assert header.remain_hops == 0
        assert source_address(header) == [selector_for(2, 4, 8)]

    def test_source_address_requires_delivery(self):
        header = fresh_header([1, 2])
        with pytest.raises(ProtocolError):
            source_address(header)


class TestChainedSwitches:
    """Functional walk across two switches joined by one link."""

    N = 8

    def hop(self, header, ingress):
        decision = route_lookup(ingress, header, self.N)
        assert decision.kind is RouteKind.UNICAST
        rotate_header(header, ingress, decision.egress, self.N)
        return decision.egress

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
                        header = fresh_header(route)
                        assert self.hop(header, src) == link_a
                        assert self.hop(header, link_b) == dst
                        assert header.remain_hops == 0

                        # Walk the advertised return route from the
                        # destination endpoint back through both switches.
                        back = source_address(header)
                        assert len(back) == 2
                        reply = fresh_header(back)
                        assert self.hop(reply, dst) == link_b
                        assert self.hop(reply, link_a) == src

    def test_broadcast_replicas_return_addresses(self):
        n = 4
        ingress = 0
        for egress in range(1, n):
            header = fresh_header([BROADCAST_SELECTOR])
            assert route_lookup(ingress, header, n).kind is RouteKind.BROADCAST
            rotate_header(header, ingress, egress, n)
            assert source_address(header) == [selector_for(egress, ingress, n)]
