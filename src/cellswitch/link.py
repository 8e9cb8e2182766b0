"""Full-duplex link with negative-acknowledgement retransmission.

Every slot each endpoint transmits exactly one frame (idle if it has
nothing to say) and receives the frame its peer sent ``one_way_delay``
slots earlier.  Data frames are the only sequenced frames, and each
is kept in a bounded replay buffer after transmission.  (Flow control
is not carried on this link model: the star engine sends it as
out-of-band control words.)  A receiver that sees a corrupted frame
cannot trust anything about it, so it freezes its own sequenced
transmissions (the corrupted frame may have been the peer's
retransmit request) and asks the peer to replay by sending a request
frame every slot.  The peer answers with a retransmission cycle: a
fixed lead-in of control frames followed by its whole replay buffer
in order, the last frame flagged as the end of the cycle.  Duplicates
are discarded by sequence number, so delivery to the device is
exactly-once in order.

Replay buffer sizing: every frame carries the sender's "requesting"
bit, and a receiver stops admitting new sequenced frames while its
latest clean arrival had that bit set (a corrupted arrival counts as
set, since it could have been anything).  A frame sent at slot t that
arrives corrupted makes its receiver request from t+D onward, so from
t+2D+1 every arrival back at the sender is flagged or corrupted and
admissions stop after at most the 2D+1 frames sent in between.  The
flag holds the freeze for the whole recovery, however long corrupted
retransmissions stretch it, so a window of 2D+2 frames provably still
contains the victim when the replay cycle finally goes out.

Sequence field width: a clean data arrival carries a seq from one
window below the receiver's ``expected`` (the oldest replay) to one
window minus one above it (fresh frames sent while its request is in
flight).  Stored modulo ``codec.SEQ_MODULUS``, these 2 * window seqs
stay distinct only while 2 * window <= SEQ_MODULUS: D <= 31.

Saturated runs skip their clean stretches: ``run_point_to_point`` at
load 1 advances the link over a run of error-free slots in one step
whenever the link is in its steady state (no replay cycle queued,
nothing requested or flagged on either side, and each pipe holding
exactly ``one_way_delay`` fresh data frames whose seqs run from the
receiver's ``expected`` up to the sender's last seq).  In that state
every slot does the same thing: each side sends its next seq and
delivers the peer's oldest in-flight one.  The skip draws the same
corruption coins as ``DuplexLink.step`` in the same order (a to b,
then b to a, each slot; none when the frame error probability is 0)
and stops at the first corrupt draw, at a fault slot, or at the end
of the run.  It is exact because a corrupted frame acts only when it
arrives, ``one_way_delay`` slots after it is drawn: the slot that
drew it still looks clean, so the skip ends by leaving the flag on
the newest pipe entry, and ``step`` takes over from there until the
link is steady again.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import count
from operator import ne

from .codec import FRAME_BYTES, SEQ_MODULUS
from .errors import ConfigError, SimInvariantError

FRAME_BITS = FRAME_BYTES * 8
# The largest D with 2 * (2D + 2) <= SEQ_MODULUS (module docstring).
MAX_ONE_WAY_DELAY = SEQ_MODULUS // 4 - 1

IDLE_KIND = "idle"
DATA_KIND = "data"
REREQ_KIND = "rereq"
CTRL_KIND = "ctrl"
REPLAY_KIND = "replay"  # a data frame sent again in a cycle


@dataclass(slots=True)
class Frame:
    kind: str
    seq: int | None = None
    payload: object = None
    cycle_end: bool = False


_IDLE = Frame(IDLE_KIND)


def frame_error_probability(ber: float, frame_bits: int = FRAME_BITS) -> float:
    """Chance at least one of the frame's bits flips in transit."""
    if not 0.0 <= ber < 1.0:
        raise ConfigError("bit error rate must be in [0, 1)")
    # 1 - (1 - ber) ** n, without the cancellation that costs it
    # about five significant digits at ber 1e-12.
    return -math.expm1(frame_bits * math.log1p(-ber))


def check_link(one_way_delay: int, slots: int = 1,
               load: float = 1.0) -> None:
    """Raise ConfigError unless ``run_point_to_point`` accepts these."""
    if not 1 <= one_way_delay <= MAX_ONE_WAY_DELAY:
        raise ConfigError(f"one-way delay must be 1..{MAX_ONE_WAY_DELAY} "
                          f"slots ({SEQ_MODULUS}-value sequence field)")
    if not 0.0 <= load <= 1.0:
        raise ConfigError("load must be in [0, 1]")
    if slots < 1:
        raise ConfigError("need at least one slot")


class LinkEndpoint:
    """One side of the link: framing, replay, request/retransmit."""

    def __init__(self, one_way_delay: int):
        check_link(one_way_delay)
        self.delay = one_way_delay
        self.window = 2 * one_way_delay + 2
        self.cycle_lead_in = 3 * one_way_delay - 2
        # transmit side
        self.next_seq = 0
        self.replay: deque[Frame] = deque(maxlen=self.window)
        self.cycle_queue: deque[Frame] = deque()
        self.last_kind = IDLE_KIND  # of the frame emit just produced
        # receive side
        self.expected = 0
        self.highest_seen = -1
        self.requesting = False
        self.peer_requesting = False
        # counters
        self.replays_emitted = 0
        self.delivered = 0
        self.dups_dropped = 0
        self.cycles_started = 0
        self.corrupted_seen = 0

    # -- transmit ------------------------------------------------------------

    def emit(self, data_provider=None) -> Frame:
        """Produce this slot's outbound frame.

        Priority: finish a retransmission cycle, else keep requesting
        a replay, else pull one payload from the device, else idle.
        New sequence numbers are only assigned on the data path, so
        the replay buffer is frozen for as long as either side is
        recovering.  ``last_kind`` records the kind sent.
        """
        if self.cycle_queue:
            frame = self.cycle_queue.popleft()
            if frame.kind == CTRL_KIND:
                self.last_kind = CTRL_KIND
            else:
                self.last_kind = REPLAY_KIND
                self.replays_emitted += 1
            return frame
        if self.requesting:
            self.last_kind = REREQ_KIND
            return Frame(REREQ_KIND)
        # While the peer is mid-recovery, hold all new sequence numbers
        # so nothing it may still need falls out of the window.
        payload = None
        if not self.peer_requesting and data_provider is not None:
            payload = data_provider()
        if payload is None:
            self.last_kind = IDLE_KIND
            return _IDLE
        frame = Frame(DATA_KIND, seq=self.next_seq, payload=payload)
        self.next_seq += 1
        self.replay.append(frame)
        self.last_kind = DATA_KIND
        return frame

    def _start_cycle(self) -> None:
        queue: deque[Frame] = deque(
            Frame(CTRL_KIND) for _ in range(self.cycle_lead_in))
        queue.extend(self.replay)
        tail = queue.pop()
        queue.append(replace(tail, cycle_end=True))
        self.cycle_queue = queue
        self.cycles_started += 1

    # -- receive -------------------------------------------------------------

    def receive(self, frame: Frame, corrupted: bool,
                peer_flag: bool = False) -> list:
        """Process one arriving frame; return payloads delivered in order."""
        if corrupted:
            self.corrupted_seen += 1
            self.requesting = True
            self.peer_requesting = True
            return []
        self.peer_requesting = peer_flag
        kind = frame.kind
        delivered = []
        if kind == REREQ_KIND:
            if not self.cycle_queue:
                self._start_cycle()
        elif kind == DATA_KIND:
            seq = frame.seq
            if seq == self.expected:
                self.expected += 1
                self.highest_seen = max(self.highest_seen, seq)
                # Anything else outstanding is behind this frame in the
                # same replay train, so the request volley can stop.
                self.requesting = False
                self.delivered += 1
                delivered.append(frame.payload)
            elif seq > self.expected:
                # Deliverable gap: keep (or start) requesting.
                self.highest_seen = max(self.highest_seen, seq)
                self.requesting = True
            else:
                self.dups_dropped += 1
        if frame.cycle_end and self.highest_seen < self.expected:
            # A full cycle went by with no sign of anything missing:
            # the corruption that started the volley hit an
            # unsequenced frame, so there is nothing to wait for.
            self.requesting = False
        return delivered


@dataclass(slots=True)
class FaultSchedule:
    """Slots at which the frame entering each direction is corrupted."""

    a_to_b: frozenset = field(default_factory=frozenset)
    b_to_a: frozenset = field(default_factory=frozenset)


class DuplexLink:
    """Two endpoints joined by symmetric fixed-delay pipes.

    Corruption is drawn per frame at transmit time with probability
    ``frame_error_probability(ber)``, plus any slots forced by the
    fault schedule.  ``step`` performs one slot: both sides emit from
    their pre-arrival state, then both process the frame emitted
    ``one_way_delay`` slots ago by the peer.
    """

    def __init__(self, one_way_delay: int, ber: float = 0.0,
                 seed: int = 0, faults: FaultSchedule | None = None):
        self.a = LinkEndpoint(one_way_delay)
        self.b = LinkEndpoint(one_way_delay)
        self.p_frame = frame_error_probability(ber)
        self.rng = random.Random(seed)
        self.faults = faults or FaultSchedule()
        self.slot = 0
        idle = (_IDLE, False, False)
        self._pipe_ab = deque([idle] * one_way_delay)
        self._pipe_ba = deque([idle] * one_way_delay)

    def _corrupt(self, forced) -> bool:
        if self.slot in forced:
            return True
        return self.p_frame > 0.0 and self.rng.random() < self.p_frame

    def step(self, provide_a=None, provide_b=None) -> tuple[list, list]:
        frame_ab = self.a.emit(provide_a)
        frame_ba = self.b.emit(provide_b)
        self._pipe_ab.append((frame_ab, self._corrupt(self.faults.a_to_b),
                              self.a.requesting))
        self._pipe_ba.append((frame_ba, self._corrupt(self.faults.b_to_a),
                              self.b.requesting))
        arrive_b = self._pipe_ab.popleft()
        arrive_a = self._pipe_ba.popleft()
        self.slot += 1
        to_b = self.b.receive(*arrive_b)
        to_a = self.a.receive(*arrive_a)
        return to_a, to_b


@dataclass(slots=True)
class PointToPointResult:
    slots: int
    sent_a: int
    sent_b: int
    delivered_at_b: list
    delivered_at_a: list
    kinds_a: list[str]
    kinds_b: list[str]
    cycles_a: int
    cycles_b: int

    def goodput(self) -> float:
        """Payloads delivered a to b per slot."""
        return len(self.delivered_at_b) / self.slots

    def verify(self) -> None:
        """Raise SimInvariantError unless each side delivered exactly
        the payloads 0..k-1 in order, with k no more than its peer sent."""
        for delivered, sent in ((self.delivered_at_b, self.sent_a),
                                (self.delivered_at_a, self.sent_b)):
            if any(map(ne, delivered, count())):
                raise SimInvariantError(
                    "link delivery was not exactly-once in order")
            if len(delivered) > sent:
                raise SimInvariantError("delivered more than was sent")


def _steady(link: DuplexLink) -> bool:
    """True when the link is in the clean saturated steady state that
    ``_skip_clean`` can advance (see the module docstring)."""
    a, b = link.a, link.b
    if (a.cycle_queue or b.cycle_queue or a.requesting or b.requesting
            or a.peer_requesting or b.peer_requesting):
        return False
    for pipe, sender, receiver in ((link._pipe_ab, a, b),
                                   (link._pipe_ba, b, a)):
        seq = receiver.expected
        if sender.next_seq - seq != len(pipe):
            return False
        for frame, corrupted, flag in pipe:
            if (corrupted or flag or frame.cycle_end
                    or frame.kind != DATA_KIND or frame.seq != seq):
                return False
            seq += 1
    return True


def _skip_clean(link: DuplexLink, end: int, got_a: list, got_b: list) -> int:
    """If the link is steady, advance it over its clean stretch: up to
    and including the first slot that draws a corrupt frame, stopping
    before any fault slot and at slot ``end``.  Payloads are taken to
    equal their seqs, as the saturated counters of
    ``run_point_to_point`` make them.  Return the number of slots
    covered (0 if none)."""
    if not _steady(link):
        return 0
    start = link.slot
    faults = link.faults
    stop = min((f for f in (*faults.a_to_b, *faults.b_to_a) if f >= start),
               default=end)
    limit = min(end, stop) - start
    if limit <= 0:
        return 0
    corrupt_ab = corrupt_ba = False
    n = limit
    p = link.p_frame
    if p > 0.0:
        rand = link.rng.random
        for n in range(1, limit + 1):
            corrupt_ab = rand() < p
            corrupt_ba = rand() < p
            if corrupt_ab or corrupt_ba:
                break
    link.slot = start + n
    delay = link.a.delay
    for pipe, sender, receiver, got, corrupt in (
            (link._pipe_ab, link.a, link.b, got_b, corrupt_ab),
            (link._pipe_ba, link.b, link.a, got_a, corrupt_ba)):
        top = sender.next_seq + n
        frames = [Frame(DATA_KIND, seq=seq, payload=seq) for seq in
                  range(max(sender.next_seq, top - sender.window), top)]
        sender.replay.extend(frames)
        sender.next_seq = top
        pipe.extend((frame, False, False) for frame in frames[-delay:])
        while len(pipe) > delay:
            pipe.popleft()
        pipe[-1] = (pipe[-1][0], corrupt, False)
        expected = receiver.expected + n
        got.extend(range(receiver.expected, expected))
        receiver.expected = expected
        receiver.highest_seen = max(receiver.highest_seen, expected - 1)
        receiver.delivered += n
    return n


def run_point_to_point(one_way_delay: int, slots: int, ber: float = 0.0,
                       load: float = 1.0, seed: int = 0,
                       faults: FaultSchedule | None = None,
                       record_kinds: bool = False) -> PointToPointResult:
    """Drive both directions with integer payload tokens for ``slots``.

    load < 1 models each endpoint's device as a Bernoulli arrival
    process into a queue, so payloads deferred by a recovery episode
    are sent later rather than lost; at 1.0 the sources are
    saturated.  Returned kind timelines (one entry per slot, replays
    marked "replay") support exact timing analysis of recoveries.  The
    result is verified lossless before it is returned.

    At load 1 the payload of each frame is its seq, so whenever the
    link is steady (no replay cycle queued, neither side requesting
    or flagged by its peer, and each pipe holding ``one_way_delay``
    fresh data frames from the receiver's ``expected`` to the
    sender's last seq) the run covers the clean stretch ahead in one
    step instead of one ``DuplexLink.step`` per slot.  The results
    are identical: the stretch draws the same corruption coins in the
    same order, and a corrupt draw acts only ``one_way_delay`` slots
    later, when ``step`` has taken over again.
    """
    check_link(one_way_delay, slots, load)
    link = DuplexLink(one_way_delay, ber=ber, seed=seed, faults=faults)
    src_rng = random.Random(seed ^ 0x5CE11)
    counters = [0, 0]   # payloads sent by a and by b
    backlog = [0, 0]

    def provider(side):
        def pull():
            if load < 1.0:
                if backlog[side] == 0:
                    return None
                backlog[side] -= 1
            counters[side] += 1
            return counters[side] - 1
        return pull

    pull_a, pull_b = provider(0), provider(1)
    got_a: list = []
    got_b: list = []
    kinds_a: list[str] = []
    kinds_b: list[str] = []

    # A steady link delivers on both sides every slot, so only such
    # slots are checked; at worst a clean stretch starts a slot late.
    delivering = False
    while link.slot < slots:
        if load < 1.0:
            backlog[0] += src_rng.random() < load
            backlog[1] += src_rng.random() < load
        elif delivering and (n := _skip_clean(link, slots, got_a, got_b)):
            counters[0] += n
            counters[1] += n
            if record_kinds:
                kinds_a.extend([DATA_KIND] * n)
                kinds_b.extend([DATA_KIND] * n)
            continue
        to_a, to_b = link.step(pull_a, pull_b)
        got_a.extend(to_a)
        got_b.extend(to_b)
        delivering = to_a and to_b
        if record_kinds:
            kinds_a.append(link.a.last_kind)
            kinds_b.append(link.b.last_kind)
    result = PointToPointResult(
        slots=slots, sent_a=counters[0], sent_b=counters[1],
        delivered_at_b=got_b, delivered_at_a=got_a,
        kinds_a=kinds_a, kinds_b=kinds_b,
        cycles_a=link.a.cycles_started, cycles_b=link.b.cycles_started,
    )
    result.verify()
    return result
