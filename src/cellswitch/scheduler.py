"""Per-slot arbiters that pick which queued cells cross the switch.

Two arbiters share one calling convention: ``match(out_requests)``
takes, for every output port, the bitmask of input ports holding at
least one cell for it, and returns the (input, output) pairs to serve
this slot.  The pairs are a set listed in no promised order: callers
must not read anything into their order.

``IslipScheduler`` produces a conflict-free partial matching (each
input and each output at most once) via iterative round-robin
grant/accept with the classic pointer-update rule, each input
accepting while the grants arrive in ascending output order, so it
can drive a self-routing fabric.  It runs the number of rounds it is
given (``EngineConfig.islip_iterations``) at every port count: there
is no automatic round count.  ``SafcScheduler`` models a switch
whose outputs pull independently: one round-robin arbiter per
output, no input contention, pointer always advancing.
"""

from __future__ import annotations

from itertools import compress


class IslipScheduler:
    """Iterative round-robin matching with pointer desynchronization.

    Each output holds a grant pointer, each input an accept pointer.
    Per iteration every unmatched output grants to the first
    requesting unmatched input at or after its pointer, and every
    granted input accepts the first granting output at or after its
    pointer, else the lowest granting output.  Pointers advance one
    past the partner only for accepts made in the first iteration
    (McKeown, IEEE/ACM ToN 7(2), 1999), which drives persistently
    loaded pointers apart until they take turns without colliding.

    The accept step is folded into the grant pass: outputs grant in
    ascending order, so an input holding output ``prev`` switches to a
    later granting output ``j`` exactly when ``prev < pointer <= j``.
    Every grant pass also collects the next pass's state: the inputs
    that accept for the first time, and the outputs that granted and
    were refused, the only ones that can still grant, so a pass that
    refuses nothing is the last.  The last pass collects it too, so
    every pass runs one body.  Each iteration's accept table is
    returned as it stands, so the pairs are a set with no promised
    order.
    """

    def __init__(self, n_ports: int, iterations: int):
        self.n_ports = n_ports
        self.iterations = iterations
        self.grant_ptr = [0] * n_ports
        self.accept_ptr = [0] * n_ports
        self._full = (1 << n_ports) - 1
        self._ports = range(n_ports)
        self._succ = [*range(1, n_ports), 0]   # (k + 1) % n_ports

    def match(self, out_requests) -> list[tuple[int, int]]:
        # The round-robin picks are inlined: this runs once per slot
        # and dominates the simulation's per-slot cost at high load.
        grant_ptr = self.grant_ptr
        accept_ptr = self.accept_ptr
        succ = self._succ
        last = self.iterations - 1
        unmatched_in = self._full
        outs = compress(self._ports, out_requests)  # walked once
        pairs: list[tuple[int, int]] = []
        for iteration in range(last + 1):
            accepts = {}  # granted input -> output it accepts so far
            accepted = accepts.get
            taken = 0      # inputs that accept for the first time
            rejected = []  # outputs that granted and were refused
            for j in outs:
                req = out_requests[j] & unmatched_in
                if req:
                    start = grant_ptr[j]
                    if req >> start & 1:  # the input at the pointer
                        i = start
                    elif hi := req >> start:
                        i = start + (hi & -hi).bit_length() - 1
                    else:
                        i = (req & -req).bit_length() - 1
                    prev = accepted(i)
                    if prev is None:
                        accepts[i] = j
                        taken |= 1 << i
                    elif prev < accept_ptr[i] <= j:
                        accepts[i] = j
                        rejected.append(prev)
                    else:
                        rejected.append(j)
            matched = accepts.items()
            pairs += matched
            if not iteration:
                for i, j in matched:
                    grant_ptr[j] = succ[i]
                    accept_ptr[i] = succ[j]
            if iteration == last or not rejected:
                break
            # Only a refused output can still grant: every other output
            # is matched or has no unmatched requester left.
            unmatched_in ^= taken
            rejected.sort()
            outs = rejected
        return pairs


class SafcScheduler:
    """One independent round-robin arbiter per output.

    Every output holding requests is served every slot, several
    possibly pulling from the same input at once, so there are no
    fabric conflicts to resolve and the arbiter pointer advances one
    past the chosen input unconditionally.
    """

    def __init__(self, n_ports: int):
        self.n_ports = n_ports
        self.pointer = [0] * n_ports
        self._succ = [*range(1, n_ports), 0]   # (k + 1) % n_ports

    def match(self, out_requests) -> list[tuple[int, int]]:
        pointer = self.pointer
        succ = self._succ
        pairs: list[tuple[int, int]] = []
        for j in compress(range(self.n_ports), out_requests):
            req = out_requests[j]
            start = pointer[j]
            hi = req >> start
            if hi:
                i = start + (hi & -hi).bit_length() - 1
            else:
                i = (req & -req).bit_length() - 1
            pairs.append((i, j))
            pointer[j] = succ[i]
        return pairs
