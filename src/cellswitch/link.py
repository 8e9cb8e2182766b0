"""Full-duplex link with negative-acknowledgement retransmission.

Every slot each endpoint transmits exactly one frame (idle if it has
nothing to say) and receives the frame its peer sent ``one_way_delay``
slots earlier.  A frame is a plain tuple, the kind-only ones shared:

    (kind, seq, cycle_end)

``kind`` is a ``*_KIND`` name, ``seq`` a data frame's sequence number
(None on other kinds) and ``cycle_end`` marks a cycle's last frame.
Data frames, the only sequenced ones, are ``DATA_KIND`` when fresh and
``REPLAY_KIND`` when a cycle sends them again.  An endpoint's device
is one count, ``offered``: the payloads it has handed over so far
(``math.inf`` when saturated).  A payload is its sequence number: the
k-th, from 0, is data frame k.  (Flow control is not carried on this
link model: the star engine sends it as out-of-band control words.)
A receiver that sees a corrupted frame cannot trust anything about
it, so it freezes its own sequenced transmissions (the corrupted frame
may have been the peer's retransmit request) and asks the peer to
replay by sending a request frame every slot.  The peer answers with a
retransmission cycle: a fixed lead-in of control frames followed by
its whole replay buffer in order, the last frame flagged as the end
of the cycle.  Duplicates are discarded by sequence number, so
delivery to the device is exactly-once in order: ``receive`` hands
over at most one payload, as a 0- or 1-tuple, and its ``delivered``
count is the next seq it expects.  ``run_point_to_point`` checks each
as it arrives (the k-th payload delivered on a side must be k) and so
reports each side's deliveries as ``range(k)``.

Replay buffer and cycle: the replay buffer is the last ``window`` seqs
sent, so it is not stored.  ``emit`` serves a queued cycle first, so
no seq is assigned while one is queued, and the cycle replays the
``r = min(window, next_seq)`` seqs below ``next_seq``.  It is a
countdown, ``cycle_left``, from ``cycle_lead_in + r``: the frame with
``left`` more to follow is a control frame while ``left >= r``, else
seq ``next_seq - 1 - left``, and is flagged at ``left == 0``.

Cycle end: at a cycle-end frame that shows no gap, ``receive`` stops
requesting, since the corruption that started the volley hit an
unsequenced frame.  That frame carries the newest seq its sender had
assigned, and frames arrive in send order, so no earlier clean arrival
carried a larger seq: only a gap at it means something is missing.

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
window below the receiver's ``delivered`` (the oldest replay) to one
window minus one above it (fresh frames sent while its request is in
flight).  Stored modulo ``codec.SEQ_MODULUS``, these 2 * window seqs
stay distinct only while 2 * window <= SEQ_MODULUS: D <= 31.

Saturated runs skip their clean stretches: ``run_point_to_point`` at
load 1 advances the link over a run of error-free slots in one step
whenever the link is in its steady state (no replay cycle queued,
nothing requested or flagged on either side, and each pipe holding
exactly ``one_way_delay`` fresh data frames whose seqs run from the
receiver's ``delivered`` up to the sender's last seq).  In that state
every slot does the same thing: each side sends its next seq and
delivers the peer's oldest in-flight one.  The skip draws the same
corruption coins as ``DuplexLink.step`` in the same order (a to b,
then b to a, each slot; none when the frame error probability is 0)
and stops at the first slot with a corrupt draw, at a fault slot, or
at the end of the run.  A slot whose a to b coin hits still draws its
b to a coin, so the stream stays the one ``step`` would draw.  It is
exact because a corrupted frame acts only when it arrives,
``one_way_delay`` slots after it is drawn: the slot that drew it
still looks clean, so the skip ends by leaving the flag on the newest
pipe entry, and ``step`` takes over from there until the link is
steady again.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

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

_IDLE = (IDLE_KIND, None, False)
_REREQ = (REREQ_KIND, None, False)
_CTRL = (CTRL_KIND, None, False)
_CTRL_END = (CTRL_KIND, None, True)  # ends a cycle with nothing to replay


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
    for name, value in (("one_way_delay", one_way_delay), ("slots", slots)):
        if not isinstance(value, int):
            raise ConfigError(f"{name} {value!r}: not an int")
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
        self.offered = 0  # payloads the device has handed over so far
        self.next_seq = 0
        self.cycle_left = 0  # frames of the queued cycle still to send
        self.cycle_replays = 0  # the seqs that cycle replays
        # receive side
        self.delivered = 0  # in order, so it is the next seq expected
        self.requesting = False
        self.peer_requesting = False
        # statistics
        self.replays_emitted = 0
        self.dups_dropped = 0
        self.cycles_started = 0
        self.corrupted_seen = 0

    # -- transmit ------------------------------------------------------------

    def emit(self) -> tuple:
        """Produce this slot's outbound frame.

        Priority: finish a retransmission cycle, else keep requesting
        a replay, else send payload ``next_seq`` if ``offered`` covers
        it, else idle.  Seqs are only assigned on the data path, so the
        replay buffer is frozen while either side is recovering.
        """
        if self.cycle_left:
            left = self.cycle_left = self.cycle_left - 1
            if left >= self.cycle_replays:
                return _CTRL if left else _CTRL_END
            self.replays_emitted += 1
            return (REPLAY_KIND, self.next_seq - 1 - left, not left)
        if self.requesting:
            return _REREQ
        # While the peer is mid-recovery, hold all new sequence numbers
        # so nothing it may still need falls out of the window.
        if self.peer_requesting or self.next_seq >= self.offered:
            return _IDLE
        seq = self.next_seq
        self.next_seq = seq + 1
        return (DATA_KIND, seq, False)

    def _start_cycle(self) -> None:
        self.cycle_replays = min(self.window, self.next_seq)
        self.cycle_left = self.cycle_lead_in + self.cycle_replays
        self.cycles_started += 1

    # -- receive -------------------------------------------------------------

    def receive(self, frame: tuple, corrupted: bool,
                peer_flag: bool = False) -> tuple:
        """Process one arriving frame; return ``(seq,)`` if it
        delivers that payload in order now, else ``()``."""
        if corrupted:
            self.corrupted_seen += 1
            self.requesting = True
            self.peer_requesting = True
            return ()
        self.peer_requesting = peer_flag
        kind, seq, cycle_end = frame
        if seq is not None:  # data, fresh or replayed
            if seq == self.delivered:
                self.delivered = seq + 1
                # Anything else outstanding is behind this frame in the
                # same replay train, so the request volley can stop.
                self.requesting = False
                return (seq,)
            if seq > self.delivered:
                # A gap: keep (or start) requesting, even at a cycle end.
                self.requesting = True
                return ()
            self.dups_dropped += 1
        elif kind == REREQ_KIND and not self.cycle_left:
            self._start_cycle()
        if cycle_end:
            # A cycle went by and showed no gap (module docstring).
            self.requesting = False
        return ()


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

    def step(self) -> tuple[tuple, tuple]:
        """Run one slot, each side sending from what its device has
        ``offered``; return the payloads delivered at a and at b, each
        as ``receive`` returns them."""
        a, b = self.a, self.b
        pipe_ab, pipe_ba = self._pipe_ab, self._pipe_ba
        slot, p, faults = self.slot, self.p_frame, self.faults
        frame_ab = a.emit()
        frame_ba = b.emit()
        # A forced slot is corrupt without a draw; else a coin is drawn
        # for a to b, then for b to a.
        pipe_ab.append((frame_ab, slot in faults.a_to_b
                        or (p > 0.0 and self.rng.random() < p), a.requesting))
        pipe_ba.append((frame_ba, slot in faults.b_to_a
                        or (p > 0.0 and self.rng.random() < p), b.requesting))
        frame_ab, corrupt_ab, flag_ab = pipe_ab.popleft()
        frame_ba, corrupt_ba, flag_ba = pipe_ba.popleft()
        self.slot = slot + 1
        # Positional, not receive(*entry): CPython 3.11 compiles a star
        # call to CALL_FUNCTION_EX, which it neither specializes nor
        # inlines, so each slot would pay for two more C-level frames.
        to_b = b.receive(frame_ab, corrupt_ab, flag_ab)
        to_a = a.receive(frame_ba, corrupt_ba, flag_ba)
        return to_a, to_b


@dataclass(slots=True)
class PointToPointResult:
    """What ``run_point_to_point`` saw.  Each delivered field is the
    ``range(k)`` of payloads its side delivered, since the run checks
    on arrival that they came exactly once and in order."""

    slots: int
    sent_a: int
    sent_b: int
    delivered_at_b: range
    delivered_at_a: range
    kinds_a: list[str]
    kinds_b: list[str]
    cycles_a: int
    cycles_b: int

    def goodput(self) -> float:
        """Payloads delivered a to b per slot."""
        return len(self.delivered_at_b) / self.slots

    def verify(self) -> None:
        """Raise SimInvariantError if a side delivered more payloads
        than its peer sent."""
        if (len(self.delivered_at_b) > self.sent_a
                or len(self.delivered_at_a) > self.sent_b):
            raise SimInvariantError("delivered more than was sent")


def _steady(link: DuplexLink) -> bool:
    """True when the link is in the clean saturated steady state that
    ``_skip_clean`` can advance (see the module docstring).  A replay
    in a pipe fails it, and so does its cycle's flagged last frame,
    which is always behind it in the same pipe."""
    a, b = link.a, link.b
    if (a.cycle_left or b.cycle_left or a.requesting or b.requesting
            or a.peer_requesting or b.peer_requesting):
        return False
    for pipe, sender, receiver in ((link._pipe_ab, a, b),
                                   (link._pipe_ba, b, a)):
        seq = receiver.delivered
        if sender.next_seq - seq != len(pipe):
            return False
        for frame, corrupted, flag in pipe:
            if corrupted or flag or frame != (DATA_KIND, seq, False):
                return False
            seq += 1
    return True


def _skip_clean(link: DuplexLink, end: int) -> int:
    """If the link is steady, advance it over its clean stretch: up to
    and including the first slot that draws a corrupt frame, stopping
    before any fault slot and at slot ``end``.  Both sides must be
    saturated.  Return the number of slots covered (0 if none); each
    side has sent and delivered that many more."""
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
        # An a to b hit still draws its b to a coin, as ``step`` would.
        for n in range(1, limit + 1):
            if rand() < p:
                corrupt_ab = True
                corrupt_ba = rand() < p
                break
            if rand() < p:
                corrupt_ba = True
                break
    link.slot = start + n
    delay = link.a.delay
    for pipe, sender, receiver, corrupt in (
            (link._pipe_ab, link.a, link.b, corrupt_ab),
            (link._pipe_ba, link.b, link.a, corrupt_ba)):
        # The pipe: the last ``delay`` seqs, a corrupt draw only on the newest.
        top = sender.next_seq = sender.next_seq + n
        pipe.clear()
        pipe.extend(((DATA_KIND, seq, False), False, False)
                    for seq in range(top - delay, top - 1))
        pipe.append(((DATA_KIND, top - 1, False), corrupt, False))
        receiver.delivered += n
    return n


def run_point_to_point(one_way_delay: int, slots: int, ber: float = 0.0,
                       load: float = 1.0, seed: int = 0,
                       faults: FaultSchedule | None = None,
                       record_kinds: bool = False) -> PointToPointResult:
    """Drive both directions for ``slots``.

    load < 1 models each endpoint's device as a Bernoulli arrival
    process: each slot adds one payload to a side's ``offered`` with
    probability ``load``, so payloads deferred by a recovery episode
    are sent later rather than lost.  At 1.0 both sides offer
    ``math.inf``, and clean steady stretches are skipped (module
    docstring).  Returned kind timelines, the kind of each frame a side
    sent, slot by slot, support exact timing analysis of recoveries.
    Raise SimInvariantError at the first payload that arrives out of
    order or twice, if a frame left its sender's replay buffer before
    the peer delivered it, or if the result is not lossless.
    """
    check_link(one_way_delay, slots, load)
    link = DuplexLink(one_way_delay, ber=ber, seed=seed, faults=faults)
    a, b = link.a, link.b
    src_rng = random.Random(seed ^ 0x5CE11)
    if load == 1.0:
        a.offered = b.offered = math.inf
    delivered_a = delivered_b = 0
    kinds_a: list[str] = []
    kinds_b: list[str] = []

    # A steady link delivers on both sides every slot, so only such
    # slots are checked; at worst a clean stretch starts a slot late.
    delivering = False
    while link.slot < slots:
        if load < 1.0:
            a.offered += src_rng.random() < load
            b.offered += src_rng.random() < load
        elif delivering and (n := _skip_clean(link, slots)):
            delivered_a += n
            delivered_b += n
            if record_kinds:
                kinds_a.extend([DATA_KIND] * n)
                kinds_b.extend([DATA_KIND] * n)
            continue
        to_a, to_b = link.step()
        # Each side's next payload must be the count it has delivered.
        if ((to_a and to_a != (delivered_a,))
                or (to_b and to_b != (delivered_b,))):
            raise SimInvariantError(
                "link delivery was not exactly-once in order")
        delivered_a += len(to_a)
        delivered_b += len(to_b)
        delivering = to_a and to_b
        if record_kinds:  # the newest pipe entries: the frames just sent
            kinds_a.append(link._pipe_ab[-1][0][0])
            kinds_b.append(link._pipe_ba[-1][0][0])
    # A frame older than the sender's last ``window`` (its replay
    # buffer) can never be replayed: undelivered, it is lost.
    if (a.next_seq - b.delivered > a.window
            or b.next_seq - a.delivered > b.window):
        raise SimInvariantError("a frame left the replay window undelivered")
    result = PointToPointResult(
        slots=slots, sent_a=a.next_seq, sent_b=b.next_seq,
        delivered_at_b=range(delivered_b), delivered_at_a=range(delivered_a),
        kinds_a=kinds_a, kinds_b=kinds_b,
        cycles_a=a.cycles_started, cycles_b=b.cycles_started,
    )
    result.verify()
    return result
