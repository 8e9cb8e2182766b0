"""Self-routing switch fabric: bitonic sort stage feeding a banyan.

The arbiter guarantees at most one cell per output, so the fabric's
only job is to realize an arbitrary partial permutation without
internal collisions.  A bitonic sorting network orders active cells
by destination and packs idle lines to the end; the concentrated,
monotone result then traverses a shuffle-exchange (omega) network
whose 2x2 elements steer by one destination bit per stage, most
significant first.  Sorted-and-concentrated input is exactly the
condition under which that network is collision-free.

``route_structural`` models the network element by element.
``route_crossbar`` is the behavioral oracle (output j receives the
cell addressed to j).  The per-slot ``route`` uses the crossbar
mapping for speed and replays a structural pass at a fixed slot
cadence, failing loudly if the two ever disagree.
"""

from __future__ import annotations

from .errors import ConfigError, SimInvariantError

Stage = list[tuple[int, int, bool]]


def _log2_width(n: int) -> tuple[int, int]:
    """(width, k) with width = 2**k the smallest power of two >= n."""
    k = max(1, (n - 1).bit_length())
    return 1 << k, k


def sorter_stages(width: int) -> list[Stage]:
    """Comparator stages (low, high, ascending) of a bitonic sorter.

    width = 2**k gives k*(k+1)//2 stages of width//2 comparators.
    """
    if width & (width - 1) or width < 2:
        raise ConfigError("sorter width must be a power of two >= 2")
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


class SortRouteFabric:
    """Routes one cell batch per slot across the sort-then-steer net:
    crossbar semantics every slot plus a full structural replay every
    ``check_interval`` routed slots.
    """

    def __init__(self, n_ports: int, check_interval: int = 256):
        if n_ports < 2:
            raise ConfigError("need at least two ports")
        if check_interval < 1:
            raise ConfigError("check interval must be positive")
        self.n_ports = n_ports
        self.check_interval = check_interval
        self.width, self.k = _log2_width(n_ports)
        self.stages = sorter_stages(self.width)
        self.shuffle = omega_shuffle(self.width)
        self.slots_routed = 0
        self.structural_checks = 0

    # -- behavioral oracle -------------------------------------------------

    def route_crossbar(self, dests) -> list[int | None]:
        """out[j] = index of the input whose cell is addressed to j."""
        out: list[int | None] = [None] * self.n_ports
        for i, d in enumerate(dests):
            if d is None:
                continue
            if not 0 <= d < self.n_ports:
                raise ConfigError(f"destination {d} out of range")
            if out[d] is not None:
                raise SimInvariantError(
                    f"inputs {out[d]} and {i} both addressed to output {d}")
            out[d] = i
        return out

    # -- structural model --------------------------------------------------

    def route_structural(self, dests) -> list[int | None]:
        width = self.width
        sentinel = width  # sorts after every real destination
        lanes: list[tuple[int, int]] = [(sentinel, i) for i in range(width)]
        for i, d in enumerate(dests):
            if d is not None:
                if not 0 <= d < self.n_ports:
                    raise ConfigError(f"destination {d} out of range")
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
            shuffled: list[tuple[int, int] | None] = [None] * width
            for p, cell in enumerate(cells):
                if cell is not None:
                    shuffled[shuffle[p]] = cell
            nxt: list[tuple[int, int] | None] = [None] * width
            for p, cell in enumerate(shuffled):
                if cell is None:
                    continue
                exit_pos = (p & ~1) | (cell[0] >> bit & 1)
                if nxt[exit_pos] is not None:
                    raise SimInvariantError(
                        f"element collision at steering stage {stage_idx}, "
                        f"element {p // 2}")
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

    def route(self, dests) -> list[int | None]:
        self.slots_routed += 1
        out = self.route_crossbar(dests)
        if self.slots_routed % self.check_interval == 0:
            self.structural_checks += 1
            if self.route_structural(dests) != out:
                raise SimInvariantError(
                    "structural fabric disagrees with crossbar oracle")
        return out

    def describe(self) -> str:
        n_comp = sum(len(s) for s in self.stages)
        return (
            f"{self.n_ports} ports on a width-{self.width} network: "
            f"{len(self.stages)} sort stages x {self.width // 2} comparators "
            f"({n_comp} total), then {self.k} steering stages"
        )
