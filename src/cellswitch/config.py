"""Run descriptions: ``EngineConfig`` for a star-network run and
``TrafficSpec`` for the traffic its sources offer.  Each states its
defaults and checks its values when built.

This module imports no simulation code, so a process can read the
defaults and build run descriptions without loading the star engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .codec import MAX_SWITCH_PORTS
from .errors import ConfigError

ISLIP = "islip"
SAFC = "safc"

BERNOULLI = "bernoulli"
BURSTY = "bursty"
FIXED = "fixed"
VARIABLE = "variable"


# What each number field's annotation lets it hold, and its name in an
# error; a field annotated tuple[T, ...] holds only what T allows.
_NUMBER_TYPES = {"int": (int, "an int"),
                 "int | None": ((int, type(None)), "an int"),
                 "float": ((int, float), "a float")}


def check_numbers(spec) -> None:
    """Raise ConfigError unless each number field of ``spec``, or each
    element of a tuple of them, holds what its annotation allows.  A run
    built in Python, not from an INI file, can put anything in a field,
    and the range checks that follow must not meet a None or a str."""
    for f in fields(spec):
        many = f.type.startswith("tuple[")
        kinds, what = _NUMBER_TYPES.get(f.type[6:-6] if many else f.type,
                                        (None, None))
        if kinds:
            value = getattr(spec, f.name)
            items = value if many and isinstance(value, tuple) else (value,)
            for item in items:
                if not isinstance(item, kinds):
                    raise ConfigError(f"{f.name} {item!r}: not {what}")


@dataclass(frozen=True)
class EngineConfig:
    """Static description of one star-network run."""

    n_ports: int
    scheduler: str = ISLIP
    seed: int = 1
    # Queue depth at which a channel asks its source to pause, and the
    # depth on which it unpauses.  Both are meant to fit the reference
    # latency distributions of a saturated 32-port switch, but do not
    # yet: Bernoulli iSLIP at 100 % load fails its p90 and p99 verdicts
    # at every seed (item 3 of ROADMAP.md).  The release waits for a
    # three-cell drain so commands are not emitted on every
    # enqueue/dequeue flutter around one level.  The queue capacity
    # follows from the pause point (``voq_capacity``).
    on_threshold: int = 10
    off_threshold: int = 7
    # Per-channel staging depth at each endpoint, in cells; None leaves
    # the staging unbounded.  With a finite depth the host blocks --
    # suspending generation -- once a cell overfills its channel, so
    # endpoints throttle themselves against sustained backpressure.
    # That cell waits in the channel, and the host polls again in the
    # slot after a send brings the channel back to this depth.
    # Unbounded staging instead lets the endpoint queue behind a paused
    # channel and keep the uplink busy with other channels, which is the
    # work-conserving behavior the bandwidth figures assume.
    channel_buffer: int | None = None
    # iSLIP grant/accept rounds per slot, the same at every port
    # count.  At the paper's 32 ports and full load the first round
    # matches about 24 pairs and rounds two and three add about 5 and
    # 1 more, so three all but converge.  Fewer rounds cost less per
    # slot on larger switches, where no shipped run goes; set 1 there.
    islip_iterations: int = 3
    # Link and pipeline depths, in slots.  The switch sits mid-rack, so
    # both directions cost the same; the egress pipeline covers the
    # output port's buffering and serialization stages.
    uplink_delay: int = 7
    downlink_delay: int = 7
    egress_delay: int = 3
    max_slots: int | None = None

    def __post_init__(self):
        check_numbers(self)
        if not 2 <= self.n_ports <= MAX_SWITCH_PORTS:
            raise ConfigError(f"ports must be 2..{MAX_SWITCH_PORTS}")
        if self.scheduler not in (ISLIP, SAFC):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if not 0 <= self.off_threshold < self.on_threshold:
            raise ConfigError("need 0 <= off threshold < on threshold")
        if self.channel_buffer is not None and self.channel_buffer < 1:
            raise ConfigError("channel staging depth must hold a cell")
        if self.islip_iterations < 1:
            raise ConfigError("need at least one grant/accept round")
        if min(self.uplink_delay, self.downlink_delay) < 1:
            raise ConfigError("link delays must be at least one slot")
        if self.egress_delay < 0:
            raise ConfigError("egress delay cannot be negative")
        if self.max_slots is not None and self.max_slots < 1:
            raise ConfigError("max_slots must allow at least one slot")

    def pause_exposure(self) -> int:
        """Worst-case cells that can still reach one queue after its
        pause command fires: everything already on the uplink plus
        everything sent before the command lands at the endpoint."""
        return self.uplink_delay + self.downlink_delay - 1

    def voq_capacity(self) -> int:
        """Per-channel queue depth: exactly the pause headroom.  A
        pause fires on the enqueue that crosses the on threshold, at
        depth on + 1, and ``pause_exposure()`` more cells may still
        land, so no lossless run queues deeper than this."""
        return self.on_threshold + 1 + self.pause_exposure()

    def latency_floor(self) -> int:
        """Slots an uncontended cell needs from uplink transmission to
        sink delivery: both links, one fabric slot, the egress stages."""
        return (self.uplink_delay + 1 + self.egress_delay
                + self.downlink_delay)


@dataclass(frozen=True)
class TrafficSpec:
    mode: str = BERNOULLI
    size_mode: str = FIXED
    load: float = 1.0
    volume_bytes: int | None = None
    min_packet_bytes: int = 64
    max_packet_bytes: int = 2048
    burst_mean_cells: float = 4.0

    def __post_init__(self):
        check_numbers(self)
        if self.mode not in (BERNOULLI, BURSTY):
            raise ConfigError(f"unknown arrival process {self.mode!r}")
        if self.size_mode not in (FIXED, VARIABLE):
            raise ConfigError(f"unknown size mode {self.size_mode!r}")
        if not 0.0 < self.load <= 1.0:
            raise ConfigError(f"load {self.load!r} outside (0, 1]")
        if 1.0 - self.load == 1.0:
            # a Bernoulli gap is drawn as log(u) / log(1 - load)
            raise ConfigError(f"load {self.load!r} is too small: "
                              "1 - load rounds to 1")
        if self.volume_bytes is not None and self.volume_bytes < 1:
            raise ConfigError("per-flow volume must be positive")
        if not 1 <= self.min_packet_bytes <= self.max_packet_bytes:
            raise ConfigError("bad packet size range")
        if not 1.0 <= self.burst_mean_cells < math.inf:
            raise ConfigError("mean burst length must be finite, >= 1 cell")
