"""Protocol checks: the paper's two layers exercised on their own.

Two checks cover the relative-address routing layer: the selector
algebra of one switch, checked exhaustively up to ``MAX_PORTS`` ports,
and a there-and-back trip across two chained ``ROUND_TRIP_PORTS``-port
switches whose reply is routed from the delivered header's trail.
Two cover the retransmitting link: the pause and correction times of
one corrupted frame, and lossless in-order recovery from simultaneous
errors in both directions at every phase offset.

Each check takes the link's one-way delay in slots (the routing checks
do not use it), returns a one-line detail on success and raises
``SimInvariantError`` on failure.  ``CHECKS`` maps each check's report
name to its function, in report order.
"""

from __future__ import annotations

from .codec import (
    ROUTE_SLOTS,
    L2Header,
    RouteKind,
    route_lookup,
    rotate_header,
    selector_for,
    source_address,
)
from .errors import SimInvariantError
from .link import FaultSchedule, run_point_to_point

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
                decision = route_lookup(ingress, _header([sel]), n)
                if decision.kind is not RouteKind.UNICAST \
                        or decision.egress != egress:
                    raise SimInvariantError(
                        f"selector does not invert at n={n} "
                        f"{ingress}->{egress}")
                seen.add(sel)
            if seen != set(range(n - 1)):
                raise SimInvariantError(
                    f"selectors not a bijection at n={n} ingress {ingress}")
    return f"ports 2..{MAX_PORTS} exhaustive"


def _route_one_hop(header: L2Header, ingress: int, n_ports: int) -> int:
    decision = route_lookup(ingress, header, n_ports)
    if decision.kind is not RouteKind.UNICAST:
        raise SimInvariantError(f"expected a unicast hop, got {decision}")
    rotate_header(header, ingress, decision.egress, n_ports)
    return decision.egress


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
            header = _header([selector_for(src, trunk_a, n),
                              selector_for(trunk_b, dst, n)])
            if _route_one_hop(header, src, n) != trunk_a:
                raise SimInvariantError("first hop left the trunk port")
            if _route_one_hop(header, trunk_b, n) != dst:
                raise SimInvariantError(f"missed endpoint {dst}")
            if route_lookup(dst, header, n).kind is not RouteKind.DELIVER:
                raise SimInvariantError("route not spent on delivery")
            reply = _header(source_address(header))
            if _route_one_hop(reply, dst, n) != trunk_b:
                raise SimInvariantError("reply missed the trunk port")
            if _route_one_hop(reply, trunk_a, n) != src:
                raise SimInvariantError("reply missed the original sender")
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
    pause = sum(kind == "rereq" for kind in result.kinds_a)
    if not abs(pause - 2.5 * rtt) <= 1:
        raise SimInvariantError(f"pause was {pause} slots, "
                                f"expected about {2.5 * rtt}")
    last_replay = max(i for i, kind in enumerate(result.kinds_b)
                      if kind == "replay")
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
        # run_point_to_point raises on any loss, reorder or duplicate.
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
