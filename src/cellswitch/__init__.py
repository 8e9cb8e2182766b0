"""Deterministic cell-time simulator of a lossless intra-rack network.

The package models the layer that moves fixed 264-byte cells between
endpoints through input-queued switches: the frame layout and the
relative routing header, a NAK-based retransmission link, virtual
output queues with on/off flow control, the iSLIP and SAFC schedulers
(SAFC: one round-robin arbiter per output, its pointer moving past
every input it serves), a sort-then-route fabric, traffic generators,
and the slotted engine that ties them together.  The experiment runner
(``cli``) writes each seed's rows as a CSV beside a JSON run record.
"""

__version__ = "0.1.0"
