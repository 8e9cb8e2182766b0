"""The per-slot callables make no star-argument calls.

CPython 3.11 compiles ``f(*args)`` and ``f(**kwargs)`` to
``CALL_FUNCTION_EX``, which it neither specializes nor inlines, so a
star call on a path that runs once per slot pays for an extra C-level
frame every time.  ``StarNetwork.run`` is left out: its one such call
builds the keyword-heavy ``MetricsReport`` once, after the slot loop.
``run_point_to_point`` is in whole: its slot loop runs once per
stepped slot.
"""

import dis

import pytest

from cellswitch.link import (
    DuplexLink,
    LinkEndpoint,
    _skip_clean,
    _steady,
    run_point_to_point,
)
from cellswitch.scheduler import IslipScheduler, SafcScheduler
from cellswitch.traffic import SourceProcess
from cellswitch.voq import VOQBank

PER_SLOT = {
    "DuplexLink.step": DuplexLink.step,
    "LinkEndpoint.emit": LinkEndpoint.emit,
    "LinkEndpoint.receive": LinkEndpoint.receive,
    "_skip_clean": _skip_clean,
    "_steady": _steady,
    "run_point_to_point": run_point_to_point,
    "VOQBank.enqueue": VOQBank.enqueue,
    "VOQBank.dequeue": VOQBank.dequeue,
    "IslipScheduler.match": IslipScheduler.match,
    "SafcScheduler.match": SafcScheduler.match,
    "SourceProcess._bernoulli": SourceProcess._bernoulli,
    "SourceProcess._bursty": SourceProcess._bursty,
}


def code_objects(code):
    """``code`` and every code object nested in it (comprehensions,
    generator expressions, inner functions)."""
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from code_objects(const)


@pytest.mark.parametrize("name", sorted(PER_SLOT))
def test_no_star_argument_call(name):
    star_calls = [
        (code.co_name, instruction.positions.lineno)
        for code in code_objects(PER_SLOT[name].__code__)
        for instruction in dis.get_instructions(code)
        if instruction.opname == "CALL_FUNCTION_EX"]
    assert not star_calls, star_calls
