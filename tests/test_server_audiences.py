"""The server names each payload row's audience off its trees.

``PartitionedServer.audiences`` is the one source of who needs which row:
the transports deliver to it and ``verify`` counts every receiver's keys
against it.  ``tests/test_sim_one_pass.py`` holds it to the order-free
oracle over every scheme; here are its parts: the tree walk it reads, its
refusal once the trees move on, the receivers it leaves out, and the rule
that decides the DEK stitch row of a join-only batch.
"""

import pytest

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import WrapIndex
from repro.keytree.flat import FlatKeyTree, FlatRekeyer
from repro.members.durations import TwoClassDuration
from repro.members.population import LossPopulation
from repro.server.onetree import OneTreeServer
from repro.sim.simulation import GroupRekeyingSimulation, SimulationConfig
from repro.testing import SCHEME_FACTORIES
from repro.transport.wka_bkr import WkaBkrProtocol

from tests.helpers import interest_of


def grown_tree(members=40, degree=3):
    tree = FlatKeyTree(degree=degree, keygen=KeyGenerator(3), name="t")
    FlatRekeyer(tree).rekey_batch(joins=[(f"m{i}", None) for i in range(members)])
    return tree


class TestMembersUnder:
    def test_every_node_against_the_paths(self):
        tree = grown_tree()
        below = {}
        for member_id in tree.members():
            for node in tree.path_of(member_id):
                below.setdefault(node.node_id, set()).add(member_id)
        built = {}
        for node_id, members in below.items():
            under = tree.members_under(node_id, built)
            assert sorted(under) == sorted(members), node_id
        assert tree.members_under("t/nowhere", built) is None

    def test_a_parent_reuses_its_childrens_lists(self):
        tree = grown_tree()
        child = tree.root.children[0]
        inner = [node for node in child.children if not node.is_leaf]
        assert inner
        built = {}
        lists = [tree.members_under(node.node_id, built) for node in inner]
        before = set(built)
        under = tree.members_under(child.node_id, built)
        # Only the child's own list is new: its inner children were not
        # walked again, and their lists are the ones it was built from.
        assert set(built) - before == {child.index}
        assert all(
            tree.members_under(node.node_id, built) is got
            for node, got in zip(inner, lists)
        )
        assert sorted(under) == sorted(
            m for node in child.children for m in tree.members_under(node.node_id, built)
        )


def admitted(server, count, start=0, at=0.0, **attributes):
    for i in range(start, start + count):
        server.join(f"m{i}", at_time=at, **attributes)
    return server.rekey(now=at)


class TestAudiences:
    def test_refused_once_the_server_has_moved_on(self):
        server = OneTreeServer(degree=3)
        first = admitted(server, 12)
        assert server.audiences(first)
        server.leave("m0")
        server.rekey(now=60.0)
        with pytest.raises(ValueError, match="epoch 1 .* epoch 2"):
            server.audiences(first)

    def test_out_of_sync_receivers_are_left_out(self):
        server = OneTreeServer(degree=3)
        admitted(server, 12)
        server.leave("m0")
        result = server.rekey(now=60.0)
        named = set().union(*server.audiences(result).values())
        assert named == {f"m{i}" for i in range(1, 12)}
        server.sync.mark_out_of_sync("m5", result.epoch, 60.0)
        interest = interest_of(server.audiences(result))
        assert set(interest) == named - {"m5"}

    def test_a_one_way_joiner_is_named_in_its_own_rows_only(self):
        # Joins enough to split leaves under fresh joints: a joiner's own
        # key wraps every key above it, so no node row names it again.
        server = OneTreeServer(degree=3, join_refresh="owf")
        admitted(server, 9)
        result = admitted(server, 30, start=9, at=60.0)
        batch = result.encrypted_keys
        for row, named in server.audiences(result).items():
            wrapping = batch.wrapping_ids[row]
            if wrapping.startswith("member:"):
                assert named == {wrapping[len("member:"):]}
            else:
                assert not named & set(result.joined), row
        assert any(not w.startswith("member:") for w in batch.wrapping_ids)


class RecordingTransport:
    """WKA-BKR, keeping each delivery's payload and audiences with every
    receiver's held versions from before the batch was delivered."""

    def __init__(self):
        self.protocol = WkaBkrProtocol(keys_per_packet=8)
        self.name = self.protocol.name
        self.held = {}
        self.deliveries = []

    def watch(self, sim):
        deliver = sim._deliver_batch

        def recording(result, now):
            self.held = {rid: m.held_versions() for rid, m in sim.members.items()}
            deliver(result, now)

        sim._deliver_batch = recording
        return sim

    def run(self, task, channel):
        self.deliveries.append((task.keys, task.audiences, self.held))
        return self.protocol.run(task, channel)


@pytest.mark.parametrize("scheme", ["tt", "pt"])
def test_join_only_stitch_names_residents_under_the_previous_dek(scheme):
    """In a join-only batch every resident is named in the one row under
    the previous DEK (the paper's phase-1 rule) and a root's DEK row names
    that partition's joiners only — although a resident whose keys are in
    another order would open a root row first."""
    transport = RecordingTransport()
    # Long stays: most batches only admit, and trees split above residents.
    config = SimulationConfig(
        arrival_rate=0.2,
        rekey_period=60.0,
        horizon=1200.0,
        duration_model=TwoClassDuration(3000.0, 1e6, 0.5),
        loss_population=LossPopulation.two_point(),
        transport=transport,
        verify=True,
        seed=7,
    )
    sim = GroupRekeyingSimulation(SCHEME_FACTORIES[scheme].factory(), config)
    transport.watch(sim).run()
    dek_id = sim.server.group_key_id
    roots = {p.tree.root.node_id for p in sim.server.partitions}
    stitches = root_first = 0
    for batch, audiences, held in transport.deliveries:
        stitch = [r for r, w in enumerate(batch.wrapping_ids) if w == dek_id]
        if not stitch:
            continue
        stitches += 1
        (row,) = stitch
        residents = {rid for rid, versions in held.items() if dek_id in versions}
        assert audiences.get(row, set()) == residents
        root_rows = {
            r for r, w in enumerate(batch.wrapping_ids)
            if w in roots and batch.payload_ids[r] == dek_id
        }
        assert root_rows
        for r in root_rows:
            assert not audiences.get(r, set()) & residents
        index = WrapIndex(batch)
        root_first += sum(
            bool(root_rows.intersection(index.closure(held[rid]))) for rid in residents
        )
    assert stitches > 0
    # The receiver's own order would have picked a root row for some.
    assert root_first > 0
