"""Self-routing switch fabric: bitonic sort stage feeding a banyan.

The arbiter guarantees at most one cell per output, so the fabric's
only job is to realize an arbitrary partial permutation without
internal collisions.  A bitonic sorting network orders active cells
by destination and packs idle lines to the end; the concentrated,
monotone result then traverses a shuffle-exchange (omega) network
whose 2x2 elements steer by one destination bit per stage, most
significant first.  Each steering stage is the perfect-shuffle wiring
plus one column of 2x2 elements, modelled in one pass: a cell on lane
p enters element ``shuffle[p] // 2`` and exits on its upper or lower
lane by its destination bit.  Sorted-and-concentrated input is exactly
the condition under which that network is collision-free.

A matching is the arbiter's list of ``(input, output)`` pairs, and
every routing method takes it as is.  ``route_structural`` models the
network element by element; ``route_crossbar`` is the behavioral
oracle (output j receives the cell of the input paired with j).  The
per-slot ``route`` only counts slots: every ``CHECK_INTERVAL``-th
routed slot it replays the pairs through the structural model and
fails loudly if the result differs from the oracle's.  On the other
slots the iSLIP arbiter's construction is what keeps each input and
each output in at most one pair (see ``scheduler``).
"""

from __future__ import annotations

from .errors import SimInvariantError

Stage = list[tuple[int, int, bool]]


def _log2_width(n: int) -> tuple[int, int]:
    """(width, k) with width = 2**k the smallest power of two >= n."""
    k = max(1, (n - 1).bit_length())
    return 1 << k, k


def sorter_stages(width: int) -> list[Stage]:
    """Comparator stages (low, high, ascending) of a bitonic sorter.

    width = 2**k gives k*(k+1)//2 stages of width//2 comparators.
    """
    stages: list[Stage] = []
    k = 2
    while k <= width:
        j = k >> 1
        while j >= 1:
            stage: Stage = []
            for i in range(width):
                partner = i ^ j
                if partner > i:
                    stage.append((i, partner, (i & k) == 0))
            stages.append(stage)
            j >>= 1
        k <<= 1
    return stages


def omega_shuffle(width: int) -> list[int]:
    """Perfect-shuffle permutation: position p moves to rotl(p)."""
    _, k = _log2_width(width)
    return [((p << 1) | (p >> (k - 1))) & (width - 1) for p in range(width)]


CHECK_INTERVAL = 256


class SortRouteFabric:
    """Routes one matching per slot across the sort-then-steer net:
    a full structural replay, checked against the crossbar oracle,
    every ``CHECK_INTERVAL`` routed slots.
    """

    def __init__(self, n_ports: int):
        self.n_ports = n_ports
        self.width, self.k = _log2_width(n_ports)
        self.stages = sorter_stages(self.width)
        self.shuffle = omega_shuffle(self.width)
        self.slots_routed = 0
        self.structural_checks = 0

    # -- behavioral oracle -------------------------------------------------

    def route_crossbar(self, pairs) -> list[int | None]:
        """out[j] = the input paired with output j."""
        out: list[int | None] = [None] * self.n_ports
        for i, d in pairs:
            if out[d] is not None:
                raise SimInvariantError(
                    f"inputs {out[d]} and {i} both addressed to output {d}")
            out[d] = i
        if len({i for i, _ in pairs}) != len(pairs):
            raise SimInvariantError("an input is paired with two outputs")
        return out

    # -- structural model --------------------------------------------------

    def route_structural(self, pairs) -> list[int | None]:
        width = self.width
        sentinel = width  # sorts after every real destination
        lanes: list[tuple[int, int]] = [(sentinel, i) for i in range(width)]
        for i, d in pairs:
            lanes[i] = (d, i)
        for stage in self.stages:
            for lo, hi, ascending in stage:
                a, b = lanes[lo], lanes[hi]
                if (a > b) == ascending:
                    lanes[lo], lanes[hi] = b, a
        cells: list[tuple[int, int] | None] = [
            lane if lane[0] != sentinel else None for lane in lanes
        ]
        shuffle = self.shuffle
        for stage_idx in range(self.k):
            bit = self.k - 1 - stage_idx
            nxt: list[tuple[int, int] | None] = [None] * width
            for p, cell in enumerate(cells):
                if cell is None:
                    continue
                exit_pos = (shuffle[p] & ~1) | (cell[0] >> bit & 1)
                if nxt[exit_pos] is not None:
                    raise SimInvariantError(
                        f"element collision at steering stage {stage_idx}, "
                        f"element {shuffle[p] // 2}")
                nxt[exit_pos] = cell
            cells = nxt
        out: list[int | None] = [None] * self.n_ports
        for pos, cell in enumerate(cells):
            if cell is None:
                continue
            d, tag = cell
            if pos != d:
                raise SimInvariantError(
                    f"cell from input {tag} for output {d} exited lane {pos}")
            out[d] = tag
        return out

    # -- per-slot entry point ----------------------------------------------

    def route(self, pairs) -> None:
        self.slots_routed += 1
        if self.slots_routed % CHECK_INTERVAL == 0:
            self.structural_checks += 1
            if self.route_structural(pairs) != self.route_crossbar(pairs):
                raise SimInvariantError(
                    "structural fabric disagrees with crossbar oracle")
