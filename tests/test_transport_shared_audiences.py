"""Every transport leaves the server's audiences as it found them.

``PartitionedServer.audiences`` hands one set to every row wrapped under
the same key.  In a join-only batch with one-way-function refresh a
joiner's individual key wraps a row per key on its path, and those rows
share the one set ``{joiner}``.  A transport that shrank a set in place
would therefore drop the joiner from its other rows too.  Each transport
here runs on such a payload, lossless and lossy, and through a
retry-and-abandon run, and afterwards every row must hold the same set
object with the same members, shared exactly as before.
``tests/test_transport_protocols.py`` ``TestTransportsLeaveTheirTaskAlone``
holds the transports to the same on audiences inverted from per-receiver
interest, where no two rows share a set.
"""

import pytest

from repro.faults.retry import RetryPolicy
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.server.onetree import OneTreeServer
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.session import TransportExhausted, TransportTask
from repro.transport.wka_bkr import WkaBkrProtocol

RESIDENTS = 60
JOINERS = 6


def joining_batch():
    """A one-keytree server's join-only batch under one-way-function
    refresh, each joiner's individual key wrapping several rows."""
    server = OneTreeServer(degree=3, join_refresh="owf")
    for i in range(RESIDENTS):
        server.join(f"m{i}", at_time=0.0)
    server.rekey(now=0.0)
    joiners = [f"j{i}" for i in range(JOINERS)]
    for member_id in joiners:
        server.join(member_id, at_time=60.0)
    result = server.rekey(now=60.0)
    return result, server.audiences(result), joiners


def shared_rows(audiences):
    """``id(set) -> rows`` for the sets that more than one row holds."""
    rows = {}
    for row, named in audiences.items():
        rows.setdefault(id(named), []).append(row)
    return {key: sorted(found) for key, found in rows.items() if len(found) > 1}


def protocol(name, abandon):
    if abandon and name != "multi-send":
        policy = RetryPolicy(max_rounds=6, base_delay=0.5, abandon_after=3)
        bound = dict(retry=policy)
    else:
        # Multi-send takes no policy: its hopeless receivers exhaust it.
        bound = dict(max_rounds=3 if abandon else 50)
    if name == "wka-bkr":
        return WkaBkrProtocol(keys_per_packet=4, **bound)
    if name == "multi-send":
        return MultiSendProtocol(keys_per_packet=4, replication=1, **bound)
    return ProactiveFecProtocol(
        keys_per_packet=4, block_size=3, proactivity=1.25, **bound
    )


def test_the_payload_shares_one_set_across_a_joiners_rows():
    __, audiences, joiners = joining_batch()
    shared = shared_rows(audiences)
    for member_id in joiners:
        rows = [row for row, named in audiences.items() if named == {member_id}]
        assert len(rows) >= 2, member_id
        assert len({id(audiences[row]) for row in rows}) == 1
        assert rows in shared.values()


@pytest.mark.parametrize("scenario", ["lossless", "lossy", "abandon"])
@pytest.mark.parametrize("name", ["wka-bkr", "multi-send", "proactive-fec"])
def test_transport_leaves_the_shared_sets_alone(name, scenario):
    result, audiences, joiners = joining_batch()
    shared = shared_rows(audiences)
    before = {row: (named, frozenset(named)) for row, named in audiences.items()}
    receivers = set().union(*audiences.values())
    hopeless = set(joiners[:2]) if scenario == "abandon" else set()
    channel = MulticastChannel(seed=17)
    for member_id in sorted(receivers):
        rate = 0.0 if scenario == "lossless" else 0.2
        rate = 0.999 if member_id in hopeless else rate
        channel.subscribe(member_id, BernoulliLoss(rate))
    task = TransportTask(result.encrypted_keys, audiences)
    transport = protocol(name, scenario == "abandon")
    try:
        outcome, pending = transport.run(task, channel), set()
    except TransportExhausted as exhausted:
        outcome, pending = exhausted.result, exhausted.pending
    assert task.audiences is audiences and audiences.keys() == before.keys()
    for row, (named, contents) in before.items():
        assert audiences[row] is named and named == contents, row
    assert shared_rows(audiences) == shared
    if hopeless:
        assert hopeless <= outcome.abandoned | pending
    else:
        assert outcome.satisfied and set(outcome.completed) == receivers
