"""Deterministic cell-time simulator of a lossless intra-rack network.

The package models the layer that moves fixed 264-byte cells between
endpoints through input-queued switches: the frame layout, its CRC and
the relative routing header, a NAK-based retransmission link, virtual
output queues with on/off flow control, iSLIP and static round-robin
schedulers, a sort-then-route fabric, traffic generators, and the
slotted engine that ties them together.
"""

__version__ = "0.1.0"
