"""Unit tests for the discrete-event network simulator."""

import pytest

from repro.hierarchy.topology import build_star, build_tree
from repro.network.failure import FailureModel
from repro.network.medium import MEDIA, Medium
from repro.network.message import Message, MessageKind
from repro.network.simulator import NetworkSimulator, SimulationResult


FAST = Medium("fast", 1e9, 0.0, 1e-9, 1e-9)


def leaf_messages(hierarchy, payload=1000, kind=MessageKind.QUERY):
    return [
        Message(leaf, hierarchy.nodes[leaf].parent, kind, payload)
        for leaf in hierarchy.leaves()
    ]


class TestIndependentScheduling:
    def test_parallel_links_dont_serialize(self):
        h = build_star(4)
        sim = NetworkSimulator(h, FAST)
        result = sim.simulate_independent(leaf_messages(h))
        # STAR: four distinct links, all transfers overlap.
        single = FAST.transfer_time(1000)
        assert result.makespan_s == pytest.approx(single)
        assert result.busy_time_s == pytest.approx(4 * single)

    def test_shared_link_serializes(self):
        h = build_star(2)
        sim = NetworkSimulator(h, FAST)
        leaf = h.leaves()[0]
        messages = [
            Message(leaf, h.root_id, MessageKind.QUERY, 1000),
            Message(leaf, h.root_id, MessageKind.QUERY, 1000),
        ]
        result = sim.simulate_independent(messages)
        assert result.makespan_s == pytest.approx(2 * FAST.transfer_time(1000))

    def test_energy_accumulates(self):
        h = build_star(3)
        sim = NetworkSimulator(h, FAST)
        result = sim.simulate_independent(leaf_messages(h))
        assert result.energy_j == pytest.approx(3 * FAST.transfer_energy(1000))

    def test_bytes_by_kind(self):
        h = build_star(2)
        sim = NetworkSimulator(h, FAST)
        messages = leaf_messages(h, kind=MessageKind.QUERY) + leaf_messages(
            h, payload=500, kind=MessageKind.RESIDUALS
        )
        result = sim.simulate_independent(messages)
        assert result.bytes_by_kind[MessageKind.QUERY] == 2000
        assert result.bytes_by_kind[MessageKind.RESIDUALS] == 1000
        assert result.total_bytes == 3000

    def test_unknown_node_rejected(self):
        h = build_star(2)
        sim = NetworkSimulator(h, FAST)
        with pytest.raises(KeyError):
            sim.simulate_independent(
                [Message(99, h.root_id, MessageKind.QUERY, 10)]
            )

    def test_non_adjacent_nodes_rejected(self):
        h = build_tree(4)
        leaves = h.leaves()
        sim = NetworkSimulator(h, FAST)
        with pytest.raises(ValueError):
            # Leaf to leaf: no link in the hierarchy.
            sim.simulate_independent(
                [Message(leaves[0], leaves[1], MessageKind.QUERY, 10)]
            )

    def test_downward_messages_allowed(self):
        h = build_star(2)
        sim = NetworkSimulator(h, FAST)
        leaf = h.leaves()[0]
        result = sim.simulate_independent(
            [Message(h.root_id, leaf, MessageKind.PREDICTION, 4)]
        )
        assert result.delivered == 1


class TestUpwardPass:
    def test_gateway_waits_for_children(self):
        h = build_tree(4)
        sim = NetworkSimulator(h, FAST)
        messages = []
        for nid in h.postorder():
            node = h.nodes[nid]
            if node.parent is not None:
                messages.append(
                    Message(nid, node.parent, MessageKind.CLASS_MODEL, 1000)
                )
        result = sim.simulate_upward_pass(messages)
        t = FAST.transfer_time(1000)
        # Each leaf has its own link to its gateway, so leaves overlap;
        # gateways then forward after their children's arrivals:
        # makespan = leaf hop + gateway hop = 2 transfer times.
        assert result.makespan_s == pytest.approx(2 * t)

    def test_compute_time_delays_sends(self):
        h = build_star(2)
        sim = NetworkSimulator(h, FAST)
        messages = leaf_messages(h)
        compute = {leaf: 1.0 for leaf in h.leaves()}
        result = sim.simulate_upward_pass(messages, compute_time=compute)
        assert result.makespan_s >= 1.0 + FAST.transfer_time(1000)

    def test_root_compute_extends_makespan(self):
        h = build_star(2)
        sim = NetworkSimulator(h, FAST)
        result = sim.simulate_upward_pass(
            leaf_messages(h), compute_time={h.root_id: 5.0}
        )
        assert result.makespan_s >= 5.0

    def test_no_messages_just_compute(self):
        h = build_star(2)
        sim = NetworkSimulator(h, FAST)
        result = sim.simulate_upward_pass([], compute_time={h.root_id: 2.0})
        assert result.makespan_s == pytest.approx(2.0)
        assert result.delivered == 0


class TestMediaSelection:
    def test_default_medium_above(self):
        """A leaf's link and a gateway's link both use the one medium."""
        h = build_tree(4)
        sim = NetworkSimulator(h, FAST)
        gateway = [n for n in h.internal_nodes() if n != h.root_id][0]
        for message in (
            leaf_messages(h)[0],
            Message(gateway, h.root_id, MessageKind.CLASS_MODEL, 1000),
        ):
            result = sim.simulate_independent([message])
            assert result.makespan_s == pytest.approx(FAST.transfer_time(1000))

    def test_slow_medium_slower_end_to_end(self):
        h = build_tree(4)
        messages = leaf_messages(h)
        fast = NetworkSimulator(h, MEDIA["wired-1gbps"]).simulate_independent(messages)
        slow = NetworkSimulator(h, MEDIA["bluetooth-4.0"]).simulate_independent(messages)
        assert slow.makespan_s > fast.makespan_s


class TestFailures:
    def test_drops_cause_retransmissions(self):
        h = build_star(40)
        sim = NetworkSimulator(
            h, FAST, failure_model=FailureModel(0.5, seed=1), max_retries=20
        )
        result = sim.simulate_independent(leaf_messages(h))
        assert result.retransmissions > 0
        assert result.delivered == 40

    def test_exhausted_retries_drop(self):
        h = build_star(10)
        sim = NetworkSimulator(
            h, FAST, failure_model=FailureModel(0.95, seed=2), max_retries=1
        )
        result = sim.simulate_independent(leaf_messages(h))
        assert result.dropped > 0
        assert result.delivered + result.dropped == 10

    def test_retransmission_charges_time_and_energy(self):
        h = build_star(1)
        clean = NetworkSimulator(h, FAST).simulate_independent(leaf_messages(h))
        lossy = NetworkSimulator(
            h, FAST, failure_model=FailureModel(0.9, seed=3), max_retries=50
        ).simulate_independent(leaf_messages(h))
        assert lossy.busy_time_s > clean.busy_time_s
        assert lossy.energy_j > clean.energy_j

    def test_invalid_retries(self):
        h = build_star(1)
        with pytest.raises(ValueError):
            NetworkSimulator(h, FAST, max_retries=-1)


class TestSimulationResult:
    def test_merge(self):
        a = SimulationResult(1.0, 2.0, 3.0, 100, 1, 0, 0,
                             {MessageKind.QUERY: 100})
        b = SimulationResult(0.5, 1.0, 1.5, 50, 2, 1, 3,
                             {MessageKind.QUERY: 30, MessageKind.RAW_DATA: 20})
        merged = a.merge(b)
        assert merged.makespan_s == 1.5
        assert merged.total_bytes == 150
        assert merged.delivered == 3
        assert merged.dropped == 1
        assert merged.retransmissions == 3
        assert merged.bytes_by_kind[MessageKind.QUERY] == 130
        assert merged.bytes_by_kind[MessageKind.RAW_DATA] == 20


class TestLatencyPercentiles:
    def test_latencies_recorded_per_delivered_message(self):
        h = build_star(4)
        sim = NetworkSimulator(h, FAST)
        result = sim.simulate_independent(leaf_messages(h))
        single = FAST.transfer_time(1000)
        assert len(result.latencies_s) == 4
        for latency in result.latencies_s:
            assert latency == pytest.approx(single)
        pct = result.latency_percentiles()
        assert pct["p50"] == pytest.approx(single * 1e3)
        assert pct["p99"] == pytest.approx(single * 1e3)

    def test_queueing_on_shared_link_raises_tail(self):
        h = build_star(2)
        sim = NetworkSimulator(h, FAST)
        leaf = h.leaves()[0]
        messages = [
            Message(leaf, h.root_id, MessageKind.QUERY, 1000)
            for _ in range(10)
        ]
        result = sim.simulate_independent(messages)
        single = FAST.transfer_time(1000)
        pct = result.latency_percentiles()
        # The first message pays one transfer; the last pays ten.
        assert min(result.latencies_s) == pytest.approx(single)
        assert max(result.latencies_s) == pytest.approx(10 * single)
        assert pct["p99"] > pct["p50"]

    def test_dropped_messages_record_no_latency(self):
        h = build_star(1)
        sim = NetworkSimulator(
            h, FAST, failure_model=FailureModel(1.0, seed=3), max_retries=2
        )
        result = sim.simulate_independent(leaf_messages(h))
        assert result.dropped == 1
        assert result.latencies_s == []
        assert result.latency_percentiles() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0
        }

    def test_merge_concatenates_latencies(self):
        a = SimulationResult(1.0, 1.0, 1.0, 10, 1, 0, 0, latencies_s=[0.1])
        b = SimulationResult(1.0, 1.0, 1.0, 10, 2, 0, 0,
                             latencies_s=[0.2, 0.3])
        merged = a.merge(b)
        assert merged.latencies_s == [0.1, 0.2, 0.3]
        assert merged.latency_percentiles(qs=(50,))["p50"] == pytest.approx(200.0)

    def test_custom_quantiles(self):
        h = build_star(4)
        result = NetworkSimulator(h, FAST).simulate_independent(
            leaf_messages(h)
        )
        pct = result.latency_percentiles(qs=(10, 90))
        assert set(pct) == {"p10", "p90"}
