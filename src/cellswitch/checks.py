"""Protocol checks: the paper's two layers exercised on their own.

Two checks cover the relative-address routing layer, each hop one
``codec.forward`` call: the selector algebra of one switch, checked
exhaustively up to ``MAX_PORTS`` ports, and a there-and-back trip
across two chained ``ROUND_TRIP_PORTS``-port switches whose reply is
routed from the delivered header's trail.
Two cover the retransmitting link: the pause and correction times of
one corrupted frame, and lossless in-order recovery from simultaneous
errors in both directions at every phase offset.

Each check takes the link's one-way delay in slots (the routing checks
do not use it), returns a one-line detail on success and raises
``SimInvariantError`` on failure.  ``CHECKS`` maps each check's report
name to its function, in report order.
"""

from __future__ import annotations

from .codec import ROUTE_SLOTS, L2Header, forward, selector_for, source_address
from .errors import SimInvariantError
from .link import REPLAY_KIND, REREQ_KIND, FaultSchedule, run_point_to_point

MAX_PORTS = 16
ROUND_TRIP_PORTS = 8


def _header(route: list[int]) -> L2Header:
    hops = len(route)
    return L2Header(total_hops=hops, remain_hops=hops,
                    dst_ports=route + [0] * (ROUTE_SLOTS - hops))


def _check_selector_algebra(delay: int) -> str:
    """Relative addressing is a bijection and inverts cleanly."""
    for n in range(2, MAX_PORTS + 1):
        for ingress in range(n):
            seen = set()
            for egress in range(n):
                if egress == ingress:
                    continue
                sel = selector_for(ingress, egress, n)
                copies = forward(_header([sel]), ingress, n)
                if [port for port, _ in copies] != [egress]:
                    raise SimInvariantError(
                        f"selector does not invert at n={n} "
                        f"{ingress}->{egress}")
                seen.add(sel)
            if seen != set(range(n - 1)):
                raise SimInvariantError(
                    f"selectors not a bijection at n={n} ingress {ingress}")
    return f"ports 2..{MAX_PORTS} exhaustive"


def _check_round_trip(delay: int) -> str:
    """Two chained switches: there and back again for all port pairs.

    Switch A port ``n-1`` is cabled to switch B port 0.  An endpoint
    on A sends to an endpoint on B through both hops; the delivered
    header's recorded trail must route a reply back to the sender.
    """
    n = ROUND_TRIP_PORTS
    trunk_a, trunk_b = n - 1, 0
    pairs = 0
    for src in range(n - 1):
        for dst in range(1, n):
            there = ((src, trunk_a), (trunk_b, dst))
            back = ((dst, trunk_b), (trunk_a, src))
            header = _header([selector_for(*hop, n) for hop in there])
            for hops in (there, back):
                for ingress, egress in hops:
                    copies = forward(header, ingress, n)
                    if [port for port, _ in copies] != [egress]:
                        raise SimInvariantError(
                            f"{src}->{dst}: switch port {ingress} did not "
                            f"send one copy to {egress}")
                    header = copies[0][1]
                if forward(header, egress, n):
                    raise SimInvariantError("route not spent on delivery")
                header = _header(source_address(header))
            pairs += 1
    return f"{pairs} ordered pairs across two {n}-port switches"


def _check_recovery_timing(delay: int) -> str:
    """One corrupted frame: pause 2.5 RTT, correction 3.5 RTT (+1)."""
    rtt = 2 * delay
    fault = 10 * delay
    result = run_point_to_point(
        delay, slots=30 * delay + 60,
        faults=FaultSchedule(b_to_a=frozenset({fault})),
        record_kinds=True)
    pause = sum(kind == REREQ_KIND for kind in result.kinds_a)
    if not abs(pause - 2.5 * rtt) <= 1:
        raise SimInvariantError(f"pause was {pause} slots, "
                                f"expected about {2.5 * rtt}")
    last_replay = max(i for i, kind in enumerate(result.kinds_b)
                      if kind == REPLAY_KIND)
    correction = last_replay - fault
    if not abs(correction - 3.5 * rtt) <= 1:
        raise SimInvariantError(f"correction took {correction} slots, "
                                f"expected about {3.5 * rtt}")
    return (f"pause {pause} slots, correction {correction} slots "
            f"at {rtt}-cell round trip")


def _check_bidirectional_faults(delay: int) -> str:
    """Simultaneous errors in both directions at every phase offset."""
    fault = 10 * delay
    offsets = range(0, 7 * delay + 2)
    for offset in offsets:
        # run_point_to_point raises on a reorder, a duplicate, or a
        # loss (a frame that left the replay window undelivered).
        run_point_to_point(
            delay, slots=40 * delay + 120,
            faults=FaultSchedule(a_to_b=frozenset({fault + offset}),
                                 b_to_a=frozenset({fault})))
    return f"offsets 0..{offsets[-1]} recovered losslessly"


CHECKS = {
    "selector-algebra": _check_selector_algebra,
    "two-switch-round-trip": _check_round_trip,
    "recovery-timing": _check_recovery_timing,
    "bidirectional-faults": _check_bidirectional_faults,
}
