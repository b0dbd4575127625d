"""Multi-node cluster simulation."""

import hashlib

import pytest

from repro.balancing import Partitioned, SingleQueue
from repro.cluster import Cluster, PodFabric, UniformFabric
from repro.rack import RackRouter
from repro.tracing import TraceConfig
from repro.workloads import SyntheticWorkload


class TestFabric:
    def test_uniform(self):
        fabric = UniformFabric(4, latency_ns=123.0)
        assert fabric.latency_ns(0, 3) == 123.0
        assert fabric.latency_ns(3, 0) == 123.0

    def test_self_loop_rejected(self):
        fabric = UniformFabric(4)
        with pytest.raises(ValueError):
            fabric.latency_ns(1, 1)

    def test_out_of_range(self):
        fabric = UniformFabric(4)
        with pytest.raises(ValueError):
            fabric.latency_ns(0, 4)

    def test_pod_fabric(self):
        fabric = PodFabric(6, pod_size=3, intra_pod_ns=50.0, inter_pod_ns=700.0)
        assert fabric.latency_ns(0, 2) == 50.0  # same pod
        assert fabric.latency_ns(0, 3) == 700.0  # across pods
        assert fabric.pod_of(5) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformFabric(1)
        with pytest.raises(ValueError):
            UniformFabric(4, latency_ns=-1.0)
        with pytest.raises(ValueError):
            PodFabric(4, pod_size=0)


class TestCluster:
    def test_conservation(self):
        cluster = Cluster(num_nodes=3, seed=1)
        result = cluster.run(per_node_mrps=10.0, requests_per_node=2_000)
        assert result.completed == 3 * 2_000
        generated = sum(node.generated for node in cluster.nodes)
        assert generated == 3 * 2_000

    def test_total_throughput_scales_with_nodes(self):
        small = Cluster(num_nodes=2, seed=1).run(10.0, 2_000)
        large = Cluster(num_nodes=4, seed=1).run(10.0, 2_000)
        assert large.total_throughput_mrps == pytest.approx(
            2 * small.total_throughput_mrps, rel=0.1
        )

    def test_balanced_across_nodes(self):
        cluster = Cluster(num_nodes=4, seed=2)
        result = cluster.run(per_node_mrps=15.0, requests_per_node=3_000)
        assert result.imbalance() < 1.2
        assert all(summary.count > 0 for summary in result.per_node)

    def test_single_queue_beats_partitioned_clusterwide(self):
        single = Cluster(num_nodes=3, scheme_factory=SingleQueue, seed=3).run(
            20.0, 3_000
        )
        partitioned = Cluster(
            num_nodes=3, scheme_factory=Partitioned, seed=3
        ).run(20.0, 3_000)
        assert single.p99_ns < partitioned.p99_ns

    def test_fabric_latency_does_not_change_server_latency(self):
        # §5 measures latency from NI reception to replenish post —
        # fabric delay shifts arrival times, not the measured window.
        near = Cluster(
            num_nodes=3, fabric=UniformFabric(3, 50.0), seed=4
        ).run(10.0, 2_000)
        far = Cluster(
            num_nodes=3, fabric=UniformFabric(3, 2_000.0), seed=4
        ).run(10.0, 2_000)
        assert far.aggregate.mean == pytest.approx(near.aggregate.mean, rel=0.1)

    def test_pod_fabric_runs(self):
        cluster = Cluster(
            num_nodes=4,
            fabric=PodFabric(4, pod_size=2, intra_pod_ns=50, inter_pod_ns=800),
            seed=5,
        )
        result = cluster.run(per_node_mrps=8.0, requests_per_node=1_000)
        assert result.completed == 4_000

    def test_custom_workload(self):
        cluster = Cluster(
            num_nodes=2, workload=SyntheticWorkload("gev"), seed=6
        )
        result = cluster.run(per_node_mrps=5.0, requests_per_node=1_500)
        assert result.completed == 3_000

    def test_reproducible(self):
        first = Cluster(num_nodes=3, seed=7).run(10.0, 1_500)
        second = Cluster(num_nodes=3, seed=7).run(10.0, 1_500)
        assert first.p99_ns == second.p99_ns

    def test_validation(self):
        with pytest.raises(ValueError):
            Cluster(num_nodes=1)
        with pytest.raises(ValueError):
            Cluster(num_nodes=3, fabric=UniformFabric(4))
        cluster = Cluster(num_nodes=2)
        with pytest.raises(ValueError):
            cluster.run(per_node_mrps=0.0, requests_per_node=10)
        with pytest.raises(ValueError):
            cluster.run(per_node_mrps=1.0, requests_per_node=0)

    def test_flow_control_under_overload(self):
        # Per-pair slots bound in-flight load; overload stalls senders
        # but conserves every request.
        cluster = Cluster(num_nodes=2, seed=8)
        result = cluster.run(per_node_mrps=40.0, requests_per_node=3_000)
        assert result.completed == 6_000
        assert max(result.stall_fractions) > 0.0


class TestClusterInterference:
    def test_degraded_node_visible_in_per_node_summaries(self):
        from repro.arch import PeriodicStragglers
        from repro.balancing import Partitioned

        def degrade_node_zero(node_id):
            if node_id == 0:
                # All 16 cores of node 0 stall 4µs every 12µs.
                return PeriodicStragglers(
                    list(range(16)), period_ns=12_000.0, pause_ns=4_000.0
                )
            return None

        cluster = Cluster(
            num_nodes=3,
            scheme_factory=Partitioned,
            seed=9,
            interference_factory=degrade_node_zero,
        )
        result = cluster.run(per_node_mrps=18.0, requests_per_node=3_000)
        assert result.completed == 9_000
        # Node 0's mean latency stands out.
        assert result.per_node[0].mean > 1.5 * result.per_node[1].mean
        assert result.imbalance() > 1.5

    def test_rpcvalet_nodes_absorb_partial_degradation(self):
        from repro.arch import PeriodicStragglers

        def degrade_some_cores(node_id):
            if node_id == 0:
                return PeriodicStragglers([0, 1], 12_000.0, 4_000.0)
            return None

        cluster = Cluster(
            num_nodes=3, seed=9, interference_factory=degrade_some_cores
        )
        result = cluster.run(per_node_mrps=18.0, requests_per_node=3_000)
        # Two degraded cores out of 16: single-queue dispatch hides it.
        assert result.imbalance() < 1.25


#: Fault-free DES cluster runs, pinned bit for bit. Each builds a
#: ``Cluster`` and runs it at ``(per_node_mrps, requests_per_node)``.
#: All but the heterogeneous case must keep stalling on credits: a
#: queued send draws its wire ``msg_id`` (and with it the NI backend)
#: when it is sent.
_PIN_SCENARIOS = {
    "stall-16x1": (
        lambda: Cluster(num_nodes=4, scheme_factory=Partitioned, seed=5),
        28.0,
        1_000,
    ),
    # The 3 us fabric outlasts the 2 us broadcast period, so the drain
    # rule (server completions, not client replies) sets the end time.
    "broadcast": (
        lambda: Cluster(
            num_nodes=4,
            seed=6,
            fabric=UniformFabric(4, latency_ns=3_000.0),
            router=RackRouter("jsq2", "broadcast:2000"),
        ),
        20.0,
        1_000,
    ),
    "traced-16x1": (
        lambda: Cluster(
            num_nodes=4,
            scheme_factory=Partitioned,
            seed=7,
            trace=TraceConfig(sample_period=4),
        ),
        28.0,
        1_000,
    ),
    "hetero-telemetry": (
        lambda: Cluster(
            num_nodes=4,
            seed=8,
            core_counts=[16, 16, 8, 8],
            speed_factors=[1, 1, 0.5, 2],
            router=RackRouter("sed", "fresh"),
            telemetry=True,
        ),
        15.0,
        1_000,
    ),
}

CLUSTER_PINS = {'broadcast': (('0x1.27c47e9fbcb08p+9',
                '0x1.120995a6c4077p+10',
                '0x1.8b0fcd6e9e065p+5'),
               [1002, 1021, 1044, 933],
               [883, 868, 880, 867],
               None,
               None),
 'hetero-telemetry': (('0x1.2ca5af8b5949ap+9',
                       '0x1.28f67a5abecbfp+10',
                       '0x1.cf708fcbf0aa2p+5'),
                      [1257, 1263, 208, 1272],
                      [0, 0, 0, 0],
                      None,
                      ['rack.outstanding[node0]',
                       'rack.outstanding[node1]',
                       'rack.outstanding[node2]',
                       'rack.outstanding[node3]',
                       'send_credits[node0]',
                       'send_credits[node1]',
                       'send_credits[node2]',
                       'send_credits[node3]',
                       'shared_cq[node0]',
                       'shared_cq[node1]',
                       'shared_cq[node2]',
                       'shared_cq[node3]']),
 'stall-16x1': (('0x1.3e2ac1a457076p+11',
                 '0x1.0dd8f33dd556cp+13',
                 '0x1.4b4a4dc7c79d2p+6'),
                [1010, 1021, 964, 1005],
                [196, 40, 122, 126],
                None,
                None),
 'traced-16x1': (('0x1.483a9d50849a8p+11',
                  '0x1.036e80398bd0cp+13',
                  '0x1.4cb1168429f18p+6'),
                 [994, 948, 1088, 970],
                 [230, 239, 54, 254],
                 'beb8ca84ba13d5f4',
                 None)}


def _cluster_fingerprint(cluster, result):
    aggregate = result.aggregate
    phases = None
    if result.spans is not None:
        phases = hashlib.sha256(
            repr([trace.phases() for trace in result.spans.traces]).encode()
        ).hexdigest()[:16]
    return (
        (
            aggregate.mean.hex(),
            aggregate.p99.hex(),
            result.total_throughput_mrps.hex(),
        ),
        list(result.per_node_completed),
        [node.stalled for node in cluster.nodes],
        phases,
        sorted(result.telemetry.series) if result.telemetry is not None else None,
    )


class TestFaultFreePins:
    @pytest.mark.parametrize("case", sorted(_PIN_SCENARIOS))
    def test_outputs_pinned(self, case):
        make, mrps, requests = _PIN_SCENARIOS[case]
        cluster = make()
        result = cluster.run(per_node_mrps=mrps, requests_per_node=requests)
        fingerprint = _cluster_fingerprint(cluster, result)
        if case != "hetero-telemetry":
            assert sum(fingerprint[2]) > 0, "scenario no longer stalls"
        assert fingerprint == CLUSTER_PINS[case]
