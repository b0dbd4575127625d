"""Tiered simulation core: engine selection, the fast tier's shared
sequential loop, and the DES <-> fast <-> fluid equivalence bands
documented in EXPERIMENTS.md."""

import hashlib

import numpy as np
import pytest

from repro.fastpath import (
    DEFAULT_FLUID_THRESHOLD,
    ENGINES,
    fast_scheme_sweep,
    fluid_tail_measure,
    resolve_engine,
    simulate_cluster_fluid,
    simulate_rack_fast,
)
from repro.fastpath import fastcluster


class TestEngineSelection:
    def test_known_engines(self):
        assert ENGINES == ("des", "fast", "fluid", "auto")

    def test_explicit_engines_pass_through(self):
        for engine in ("des", "fast", "fluid"):
            assert resolve_engine(engine, 4) == engine
            assert resolve_engine(engine, 10_000) == engine

    def test_auto_switches_at_threshold(self):
        assert resolve_engine("auto", DEFAULT_FLUID_THRESHOLD) == "fast"
        assert resolve_engine("auto", DEFAULT_FLUID_THRESHOLD + 1) == "fluid"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("warp", 4)

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fluid")
        assert resolve_engine("fast", 4) == "fluid"
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError):
            resolve_engine("fast", 4)


class TestFastDeterminism:
    def test_same_seed_bit_identical(self):
        runs = [
            simulate_rack_fast(
                4, policy="jsq2", per_node_mrps=24.0,
                requests_per_node=800, seed=3,
            )
            for _ in range(2)
        ]
        assert runs[0].aggregate.mean == runs[1].aggregate.mean
        assert runs[0].p99_ns == runs[1].p99_ns
        assert runs[0].per_node_completed == runs[1].per_node_completed

    def test_seed_actually_matters(self):
        a = simulate_rack_fast(4, policy="random", requests_per_node=800, seed=0)
        b = simulate_rack_fast(4, policy="random", requests_per_node=800, seed=1)
        assert a.aggregate.mean != b.aggregate.mean

    def test_fast_sweep_worker_count_invariant(self):
        """fast_scheme_sweep seeds per (experiment, label, index), so the
        points are independent of any fan-out — recomputing one point in
        isolation must reproduce the full-sweep value bit-for-bit."""
        from repro.dists import synthetic

        loads = [4.0, 8.0, 12.0]
        full = fast_scheme_sweep(
            "1x16", synthetic("fixed"), loads, 2_000, 0, 700.0, label="one"
        )
        lone = fast_scheme_sweep(
            "1x16", synthetic("fixed"), loads[1:2], 2_000, 0, 700.0, label="one"
        )
        # Index participates in the seed: point 1 recomputed as index 0
        # differs, the full sweep re-run matches.
        again = fast_scheme_sweep(
            "1x16", synthetic("fixed"), loads, 2_000, 0, 700.0, label="one"
        )
        for mine, theirs in zip(full.points, again.points):
            assert mine.summary.p99 == theirs.summary.p99
            assert mine.achieved_throughput == theirs.achieved_throughput
        assert (
            lone.points[0].achieved_throughput
            != full.points[1].achieved_throughput
        )

    @pytest.mark.parametrize(
        "num_nodes, policy, mean_hex, completed",
        [
            (4, "jsq2", "0x1.341d0387e053fp+9", [608, 599, 595, 598]),
            (2, "jsq2", "0x1.394af1f4ed978p+9", [600, 600]),
            (3, "jsq3", "0x1.35d1b22e1b00dp+9", [613, 583, 604]),
        ],
        ids=["4-jsq2", "2-jsq2", "3-jsq3"],
    )
    def test_jsq_path_pinned(self, num_nodes, policy, mean_hex, completed):
        """The fast tier's JSQ(d) route, bit for bit. d reaching the
        peer count (2 nodes at jsq2, 3 at jsq3) takes the whole pool
        without drawing: those two runs once hung."""
        result = simulate_rack_fast(
            num_nodes=num_nodes, policy=policy, signal="piggyback",
            per_node_mrps=24.0, requests_per_node=600, seed=5,
        )
        assert result.aggregate.mean.hex() == mean_hex
        assert result.per_node_completed == completed


class TestSequentialLoop:
    @staticmethod
    def _run(admit, release):
        return fastcluster.run_sequential(
            np.array([10.0, 20.0, 30.0]), np.array([0, 1, 0]),
            np.array([100.0, 100.0, 100.0]), np.random.default_rng(0),
            "1x16", [1, 2], [1.0, 1.0], [5.0, 5.0], [0.0, 0.0], None,
            lambda index, client, now: 1 - client, admit, release,
        )

    def test_blocked_rpc_that_is_never_released_raises(self):
        def never(node, client, when):
            return None

        with pytest.raises(RuntimeError, match="1 RPC"):
            self._run(lambda index, client, dst, entered_at: index != 1, never)

    def test_released_rpc_dispatches_at_the_departure(self):
        held = []

        def admit(index, client, dst, entered_at):
            if index == 1:
                held.append((index, entered_at))
                return False
            return True

        def release(node, client, when):
            return held.pop() if held else None

        dsts, sojourns, departures, dropped = self._run(admit, release)
        # RPC 1 (bound for node 0) is held; RPC 0's departure from node
        # 1 at 10 + 105 releases it onto node 1's freed server, its
        # sojourn clock still running from its arrival at 20.
        assert dsts.tolist() == [1, 1, 1]
        assert departures.tolist() == [115.0, 220.0, 135.0]
        assert sojourns[1] == 220.0 - 20.0
        assert dropped is None


#: Fast-tier outputs pinned bit-for-bit: ``float.hex`` of the aggregate
#: (mean, p50, p99), per-node completions, losses, and per-client stall
#: counts (rack) or JBSQ ToR holds (datacenter); :data:`PER_NODE_PINS`
#: adds every per-node latency summary. Any change to the
#: sequential loop's event order, RNG consumption or fault handling
#: moves at least one of these.
FAST_TIER_PINS = {
    "rack-random-light": (
        ("0x1.229fe41f0d597p+9", "0x1.160e379ad7cd0p+9", "0x1.136c988649623p+10"),
        [504, 485, 500, 511],
        0,
        [0, 0, 0, 0],
    ),
    "rack-random-28": (
        ("0x1.c337ee5d60b41p+10", "0x1.fe26020a748a0p+9", "0x1.e241574b7705cp+11"),
        [859, 470, 373, 298],
        0,
        [0, 269, 199, 204],
    ),
    "rack-jsq2-fresh": (
        ("0x1.26e1897689905p+9", "0x1.1a011dd26bc74p+9", "0x1.15d40e6b3fbf1p+10"),
        [503, 495, 496, 506],
        0,
        [0, 0, 0, 0],
    ),
    "rack-jsq2-piggyback": (
        ("0x1.320d7cfa6a6f7p+9", "0x1.22ef86f55fd48p+9", "0x1.1daebe1d834a6p+10"),
        [499, 494, 498, 509],
        0,
        [0, 0, 0, 0],
    ),
    "rack-jsq2-broadcast": (
        ("0x1.db679c5c225b3p+9", "0x1.9c331e6295b70p+9", "0x1.2f6b108adbceep+11"),
        [502, 510, 473, 515],
        0,
        [0, 0, 0, 0],
    ),
    "rack-sed": (
        ("0x1.26832bd1b96dfp+9", "0x1.188715b08f998p+9", "0x1.15d2753d2180fp+10"),
        [505, 500, 495, 500],
        0,
        [0, 0, 0, 0],
    ),
    "rack-16x1-jsq2": (
        ("0x1.26541a5c52f14p+10", "0x1.d4be337c71fddp+9", "0x1.f7f28a86edc3bp+11"),
        [498, 490, 500, 512],
        0,
        [0, 0, 0, 0],
    ),
    "rack-faults": (
        ("0x1.2ed301318ab04p+9", "0x1.18979e5bf0f00p+9", "0x1.592363833f929p+10"),
        [496, 354, 468, 384, 479, 492],
        327,
        [0, 0, 0, 0, 0, 0],
    ),
    "dc-flat-random": (
        ("0x1.2a78b3835b0fdp+9", "0x1.1d7c82f7c5900p+9", "0x1.137c09f835ed9p+10"),
        [465, 497, 491, 533, 473, 484, 511, 541, 480, 479, 488, 487, 523, 540, 513, 495],
        0,
        0,
    ),
    "dc-racksched": (
        ("0x1.1fd5d98f732afp+9", "0x1.13402dd58aff8p+9", "0x1.091a915123001p+10"),
        [501, 502, 512, 506, 501, 490, 496, 511, 506, 496, 501, 493, 496, 507, 491, 491],
        0,
        0,
    ),
    "dc-jbsq-holds": (
        ("0x1.1e1554144cbdep+15", "0x1.b36965b675d7cp+14", "0x1.8c8b60cac6de7p+16"),
        [862, 863, 852, 835, 497, 490, 485, 484, 360, 363, 352, 356, 300, 301, 295, 305],
        0,
        7936,
    ),
    "dc-nanopu": (
        ("0x1.8affab1b3b6fdp+8", "0x1.71ce29d87fd00p+8", "0x1.b808b1f07ff72p+9"),
        [521, 494, 507, 490, 490, 509, 521, 496, 490, 512, 505, 479, 482, 517, 506, 481],
        0,
        0,
    ),
    "dc-flat-jsq2": (
        ("0x1.2115d2bd8de40p+9", "0x1.1426bc330e28cp+9", "0x1.0a89887332606p+10"),
        [545, 533, 537, 534, 501, 508, 519, 517, 485, 481, 490, 485, 464, 465, 472, 464],
        0,
        0,
    ),
    "dc-flat-sed": (
        ("0x1.207fc0beed388p+9", "0x1.144240bb7bed0p+9", "0x1.0ae3d4553f563p+10"),
        [521, 522, 513, 515, 506, 490, 498, 505, 491, 489, 496, 489, 488, 489, 494, 494],
        0,
        0,
    ),
    "dc-rack-power-loss": (
        ("0x1.20608923cb4b5p+9", "0x1.12f2e10f85960p+9", "0x1.096ca0747483bp+10"),
        [434, 438, 434, 435, 298, 297, 303, 304, 435, 437, 440, 432, 433, 430, 427, 434],
        1589,
        0,
    ),
}
#: :func:`_per_node_digest` of each :data:`FAST_TIER_PINS` case: every
#: per-node ``LatencySummary`` field, bit for bit.
PER_NODE_PINS = {
    "rack-random-light": "48fd4e44235b3279",
    "rack-random-28": "c3add7152a5fc031",
    "rack-jsq2-fresh": "2690eeedf6bd7436",
    "rack-jsq2-piggyback": "758d0e9a2be9531e",
    "rack-jsq2-broadcast": "f5e258e881fb14d9",
    "rack-sed": "a0e9bda04248e012",
    "rack-16x1-jsq2": "cb38fc7bd492fae0",
    "rack-faults": "ee990cc144012899",
    "dc-flat-random": "6c569d3c2779ea89",
    "dc-racksched": "87d5943cc1620d7d",
    "dc-jbsq-holds": "1eede507c7dfd482",
    "dc-nanopu": "62d25eb2adf3bc00",
    "dc-flat-jsq2": "1fb5d4c140ce8f13",
    "dc-flat-sed": "8cefaa947edf5059",
    "dc-rack-power-loss": "05f936bd2404b6a3",
}
_PIN_REQUESTS = 500
_PIN_HORIZON_NS = _PIN_REQUESTS / 20.0 * 1e3


def _rack_pin_kwargs(case):
    from repro.faults import FaultPlan
    from repro.faults.plan import FabricDegradation, NodeCrash, NodeSlowdown

    horizon = _PIN_HORIZON_NS
    plan = FaultPlan(events=(
        NodeCrash(node=1, at_ns=0.2 * horizon, outage_ns=0.3 * horizon),
        NodeSlowdown(node=3, at_ns=0.1 * horizon, duration_ns=0.5 * horizon,
                     factor=0.4),
        FabricDegradation(at_ns=0.4 * horizon, duration_ns=0.3 * horizon,
                          drop_prob=0.05, spike_prob=0.1, spike_ns=1500.0),
    ))
    return {
        "random-light": dict(num_nodes=4, policy="random", per_node_mrps=8.0),
        "random-28": dict(num_nodes=4, policy="random", skew=0.9,
                          per_node_mrps=28.0),
        "jsq2-fresh": dict(num_nodes=4, policy="jsq2", signal="fresh",
                           per_node_mrps=24.0),
        "jsq2-piggyback": dict(num_nodes=4, policy="jsq2", signal="piggyback",
                               per_node_mrps=24.0),
        "jsq2-broadcast": dict(num_nodes=4, policy="jsq2",
                               signal="broadcast:2000", per_node_mrps=24.0),
        "sed": dict(num_nodes=4, policy="sed", skew=0.5, per_node_mrps=24.0),
        "16x1-jsq2": dict(num_nodes=4, policy="jsq2", scheme="16x1",
                          per_node_mrps=20.0),
        "faults": dict(num_nodes=6, policy="jsq2", per_node_mrps=20.0,
                       faults=plan),
    }[case]


def _dc_pin_kwargs(case, topology):
    from repro.datacenter import rack_power_loss

    horizon = _PIN_HORIZON_NS
    return {
        "flat-random": dict(hierarchy="flat", policy="random",
                            per_node_mrps=22.0),
        "racksched": dict(hierarchy="racksched", policy="jsq2", skew=0.5,
                          per_node_mrps=24.0),
        "jbsq-holds": dict(hierarchy="jbsq", policy="random", skew=0.8,
                           jbsq_k=4, per_node_mrps=26.0),
        "nanopu": dict(hierarchy="nanopu", policy="jsq2", per_node_mrps=20.0),
        "flat-jsq2": dict(hierarchy="flat", policy="jsq2", skew=0.6,
                          per_node_mrps=24.0),
        "flat-sed": dict(hierarchy="flat", policy="sed", skew=0.3,
                         per_node_mrps=24.0),
        "rack-power-loss": dict(
            hierarchy="racksched", policy="jsq2", per_node_mrps=20.0,
            faults=rack_power_loss(topology, rack=1, at_ns=0.3 * horizon,
                                   outage_ns=0.4 * horizon),
        ),
    }[case]


def _per_node_digest(result):
    """16 hex digits of sha256 over every per-node ``LatencySummary``:
    node by node, the count and the seven float fields as ``float.hex``."""
    fields = ("mean", "p50", "p90", "p95", "p99", "p999", "max")
    text = ";".join(
        ",".join([str(summary.count)]
                 + [getattr(summary, field).hex() for field in fields])
        for summary in result.per_node
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(result):
    aggregate = result.aggregate
    return (
        (aggregate.mean.hex(), aggregate.p50.hex(), aggregate.p99.hex()),
        list(result.per_node_completed),
        int(result.lost),
    )


class TestFastTierPins:
    @pytest.mark.parametrize(
        "case", [name[5:] for name in FAST_TIER_PINS if name.startswith("rack-")]
    )
    def test_rack_outputs_pinned(self, case):
        result = simulate_rack_fast(
            requests_per_node=_PIN_REQUESTS, seed=3, **_rack_pin_kwargs(case)
        )
        *expected, stalls = FAST_TIER_PINS["rack-" + case]
        assert _fingerprint(result) == tuple(expected)
        assert _per_node_digest(result) == PER_NODE_PINS["rack-" + case]
        assert [
            round(fraction * _PIN_REQUESTS) for fraction in result.stall_fractions
        ] == stalls

    @pytest.mark.parametrize(
        "case", [name[3:] for name in FAST_TIER_PINS if name.startswith("dc-")]
    )
    def test_datacenter_outputs_pinned(self, case):
        from repro.datacenter import DatacenterTopology, simulate_datacenter_fast

        topology = DatacenterTopology(4, 4)
        audit = {}
        result = simulate_datacenter_fast(
            topology, requests_per_node=_PIN_REQUESTS, seed=3, _audit=audit,
            **_dc_pin_kwargs(case, topology),
        )
        *expected, holds = FAST_TIER_PINS["dc-" + case]
        assert _fingerprint(result) == tuple(expected)
        assert _per_node_digest(result) == PER_NODE_PINS["dc-" + case]
        assert audit["holds"] == holds


#: Every DES-anchored fast-tier constant, as ``float.hex`` (seed 0).
CALIBRATION_PINS = {
    "scheme-1x16-16": ("0x1.e8101ba77169ap+7", "0x0.0p+0"),
    "scheme-16x1-16": ("0x1.915146d37e2fap+7", "0x1.e2173128f8750p+5"),
    "scheme-1x16-8": ("0x1.e1d53ab5be266p+7", "0x0.0p+0"),
    "profile-baseline": "0x1.e8101ba77169ap+7",
    "profile-nanopu": "0x1.fd796381650d8p+5",
    "chip-1x16": ("0x1.f3bbe9010199ep+7", "0x0.0p+0"),
    "chip-16x1": ("0x1.b58e3cee6f7cap+7", "0x1.4c8d6ca2c57c0p+5"),
    "service-herd-1x16": "0x1.14dd5a0038259p+9",
}


def _calibration_constants():
    """Every pinned constant, computed through the public names."""
    from repro.datacenter import calibrated_profile_overhead_ns
    from repro.experiments.common import calibrate_mean_service_ns
    from repro.fastpath.fastchip import calibrated_chip_profile

    def hexes(values):
        return tuple(float(value).hex() for value in values)

    scheme = fastcluster.calibrated_scheme_profile
    return {
        "scheme-1x16-16": hexes(scheme("1x16", 16)),
        "scheme-16x1-16": hexes(scheme("16x1", 16)),
        "scheme-1x16-8": hexes(scheme("1x16", 8)),
        "profile-baseline": calibrated_profile_overhead_ns("baseline", 16).hex(),
        "profile-nanopu": calibrated_profile_overhead_ns("nanopu", 16).hex(),
        "chip-1x16": hexes(calibrated_chip_profile("1x16")),
        "chip-16x1": hexes(calibrated_chip_profile("16x1")),
        "service-herd-1x16": calibrate_mean_service_ns("herd", "1x16", 0).hex(),
    }


class TestCalibrationPins:
    def test_constants_pinned(self):
        assert _calibration_constants() == CALIBRATION_PINS


def _clear_calibration_caches():
    from repro.datacenter import calibrated_profile_overhead_ns
    from repro.experiments.common import calibrate_mean_service_ns
    from repro.fastpath import calibrate
    from repro.fastpath.fastchip import calibrated_chip_profile

    for probe in (
        calibrate._cached_profile, calibrated_profile_overhead_ns,
        calibrated_chip_profile, fastcluster.calibrated_scheme_profile,
        calibrate_mean_service_ns,
    ):
        probe.cache_clear()


def _count_des_runs(monkeypatch):
    """Count every DES run (cluster and single chip) from now on."""
    from repro.cluster import Cluster
    from repro.core import RpcValetSystem

    runs = []
    for cls, name in ((Cluster, "run"), (RpcValetSystem, "run_point")):
        original = getattr(cls, name)

        def counted(self, *args, _original=original, **kwargs):
            runs.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return runs


class TestCalibrationRoute:
    def test_one_probe_per_scenario(self, monkeypatch):
        """The datacenter baseline, the rack wrapper and the rack engine
        all ask for the same 2-node 1x16 probe: it runs once."""
        from repro.cache import set_cache
        from repro.datacenter import calibrated_profile_overhead_ns

        set_cache(enabled=False)
        try:
            _clear_calibration_caches()
            runs = _count_des_runs(monkeypatch)
            calibrated_profile_overhead_ns("baseline", 16)
            fastcluster.calibrated_scheme_profile("1x16", 16)
            simulate_rack_fast(4, scheme="1x16", core_counts=[16] * 4,
                               requests_per_node=200)
        finally:
            set_cache()
        assert runs == ["Cluster"]

    def test_warm_result_cache_runs_no_des(self, monkeypatch, tmp_path):
        from repro.cache import set_cache

        set_cache(enabled=True, directory=tmp_path)
        try:
            _clear_calibration_caches()
            cold = _calibration_constants()
            _clear_calibration_caches()
            runs = _count_des_runs(monkeypatch)
            warm = _calibration_constants()
        finally:
            set_cache()
            _clear_calibration_caches()
        assert warm == cold == CALIBRATION_PINS
        assert runs == []


class TestDesFastEquivalence:
    """Tolerance bands from EXPERIMENTS.md ("Engine tiers"): the fast
    tier tracks the DES cluster within 15% on mean and p99 at the
    mid-load operating point the rack sweeps use."""

    @pytest.mark.parametrize("policy", ["random", "jsq2"])
    def test_mid_load_band(self, policy):
        from repro.balancing import SingleQueue
        from repro.cluster import Cluster
        from repro.rack import RackRouter

        cluster = Cluster(
            num_nodes=4,
            scheme_factory=SingleQueue,
            seed=0,
            router=RackRouter(policy, "fresh"),
        )
        des = cluster.run(per_node_mrps=24.0, requests_per_node=1_200)
        fast = simulate_rack_fast(
            4, policy=policy, per_node_mrps=24.0,
            requests_per_node=1_200, seed=0,
        )
        assert fast.aggregate.mean == pytest.approx(
            des.aggregate.mean, rel=0.15
        )
        assert fast.p99_ns == pytest.approx(des.p99_ns, rel=0.15)


class TestFluidTier:
    def test_tail_measure_shape(self):
        s = fluid_tail_measure(12.0, 16, choices=2)
        assert s[0] == 1.0
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all((s >= 0.0) & (s <= 1.0))
        # Flow balance at the fixed point: total drain equals arrivals.
        drain = np.minimum(np.arange(1, s.size), 16)
        assert float((drain * (s[1:] - np.append(s[2:], 0.0))).sum()) == (
            pytest.approx(12.0, rel=1e-3)
        )

    def test_more_choices_thinner_tail(self):
        d1 = fluid_tail_measure(13.0, 16, choices=1)
        d2 = fluid_tail_measure(13.0, 16, choices=2)
        deep = 24  # well past the server count
        assert d2[deep] <= d1[deep]

    def test_unstable_load_rejected(self):
        with pytest.raises(ValueError):
            fluid_tail_measure(16.0, 16, choices=2)
        with pytest.raises(ValueError):
            simulate_cluster_fluid(64, per_node_mrps=50.0, mean_service_ns=400.0)

    def test_random_matches_erlang_c_mean(self):
        """With exponential service the random-policy fluid node is an
        exact M/M/c; its mean sojourn must match the analytic formula."""
        from repro.queueing.analytic import erlang_c

        cores, mean_ns, mrps = 16, 500.0, 24.0
        offered = mrps * 1e-3 * mean_ns
        result = simulate_cluster_fluid(
            64, policy="random", per_node_mrps=mrps, cores=cores,
            mean_service_ns=mean_ns, seed=1,
        )
        wait = erlang_c(cores, offered) * mean_ns / (cores - offered)
        assert result.aggregate.mean == pytest.approx(mean_ns + wait, rel=0.02)

    def test_fluid_tracks_fast_at_overlap(self):
        """Cross-tier band at a size both tiers can run: p99 within 15%
        (measured agreement is ~2% at 64 nodes, see EXPERIMENTS.md)."""
        from repro.workloads import HerdWorkload

        workload = HerdWorkload()
        overhead, _shift = fastcluster.calibrated_scheme_profile("1x16", 16)
        fast = simulate_rack_fast(
            32, policy="jsq2", per_node_mrps=24.0,
            requests_per_node=1_000, seed=0,
        )
        fluid = simulate_cluster_fluid(
            32, policy="jsq2", per_node_mrps=24.0,
            mean_service_ns=workload.mean_processing_ns + overhead,
            seed=0, workload=workload, overhead_ns=overhead,
        )
        assert fluid.p99_ns == pytest.approx(fast.p99_ns, rel=0.15)
        assert fluid.aggregate.mean == pytest.approx(
            fast.aggregate.mean, rel=0.15
        )

    def test_fluid_is_deterministic(self):
        runs = [
            simulate_cluster_fluid(256, policy="jsq2", seed=9)
            for _ in range(2)
        ]
        assert runs[0].aggregate.mean == runs[1].aggregate.mean
        assert runs[0].p99_ns == runs[1].p99_ns


class TestFastChipAchieved:
    def test_stable_load_tracks_offered(self):
        """The DES-mirroring achieved metric must report ~offered load
        for a clearly stable point (this gate drives the headline run's
        sustained-tail filter)."""
        from repro.dists import synthetic

        sweep = fast_scheme_sweep(
            "1x16", synthetic("fixed"), [8.0], 20_000, 0, 600.0, label="s"
        )
        point = sweep.points[0]
        assert point.achieved_throughput == pytest.approx(8.0, rel=0.05)

    def test_saturated_load_capped(self):
        from repro.dists import synthetic

        # Capacity is 16 / 0.6us ~ 26.7 MRPS; offer 40.
        sweep = fast_scheme_sweep(
            "1x16", synthetic("fixed"), [40.0], 20_000, 0, 600.0, label="s"
        )
        point = sweep.points[0]
        assert point.achieved_throughput < 0.9 * 40.0


class TestScaleDriver:
    def test_smoke_run(self):
        from repro.experiments.scale import run_scale

        result = run_scale("smoke", seed=0)
        assert result.data["largest_nodes"] == 1024
        assert result.data["advantage_at_largest"] > 1.0
        for entry in result.data["overlap"].values():
            assert abs(entry["p99_delta"]) < 0.15
        # Every grid size reports a wall clock.
        for row in result.data["points"].values():
            assert row["wall_s"] >= 0.0
