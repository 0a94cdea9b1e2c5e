"""Event-driven simulator integration tests (Section 5.1 semantics)."""

import pytest

from repro.sim import LogNormal, SimulationConfig, run_paired, run_simulation

BASE = SimulationConfig(
    duration_s=20.0,
    connection_rate=300.0,
    n_servers=40,
    horizon_size=4,
    update_rate_per_min=12.0,
    downtime_dist=LogNormal(median=4.0, sigma=0.6),
    seed=7,
)


class TestAccounting:
    def test_flow_conservation(self):
        result = run_simulation(BASE)
        finished = (
            result.flows_completed + result.pcc_violations + result.inevitably_broken
        )
        assert finished <= result.flows_started
        assert result.packets_processed > result.flows_started  # multi-packet flows

    def test_removals_and_additions_counted(self):
        result = run_simulation(BASE)
        assert result.removals > 0
        assert result.additions > 0
        assert result.additions <= result.removals

    def test_sampling_series_lengths_match(self):
        result = run_simulation(BASE)
        assert len(result.tracked_series) == len(result.sample_times)
        assert result.sample_times == sorted(result.sample_times)


class TestPCCBehaviour:
    def test_unbounded_jet_with_ample_horizon_no_violations(self):
        cfg = BASE.with_(horizon_size=10, ct_capacity=None, mode="jet", seed=3)
        result = run_simulation(cfg)
        assert result.surprise_additions == 0
        assert result.pcc_violations == 0

    def test_stateless_lb_breaks_unsafe_flows(self):
        # Enough churn that several additions land mid-flow.
        cfg = BASE.with_(duration_s=40.0, connection_rate=600.0, update_rate_per_min=45.0)
        jet = run_simulation(cfg.with_(mode="jet"))
        stateless = run_simulation(cfg.with_(mode="stateless"))
        assert stateless.pcc_violations > 0
        assert stateless.pcc_violations >= jet.pcc_violations

    def test_tiny_full_ct_worse_than_tiny_jet_ct(self):
        # The Fig. 3 relation, at test scale: with an undersized table,
        # full CT breaks (far) more connections than JET.
        cfg = BASE.with_(duration_s=30, update_rate_per_min=30, ct_capacity=40, seed=11)
        full = run_simulation(cfg.with_(mode="full"))
        jet = run_simulation(cfg.with_(mode="jet"))
        assert full.pcc_violations >= jet.pcc_violations

    def test_inevitably_broken_excluded_from_violations(self):
        result = run_simulation(BASE)
        assert result.inevitably_broken > 0  # removals did break flows
        # Violations counted separately from inevitable breakage.
        assert result.pcc_violations + result.inevitably_broken < result.flows_started


class TestDeterminismAndPairing:
    def test_same_seed_same_outcome(self):
        a = run_simulation(BASE)
        b = run_simulation(BASE)
        assert a.pcc_violations == b.pcc_violations
        assert a.flows_started == b.flows_started
        assert a.tracked_series == b.tracked_series

    def test_different_seed_different_workload(self):
        a = run_simulation(BASE)
        b = run_simulation(BASE.with_(seed=8))
        assert a.flows_started != b.flows_started

    def test_prop41_paired_balance_identical(self):
        results = run_paired(BASE.with_(ct_capacity=None))
        assert (
            results["jet"].oversubscription_series
            == results["full"].oversubscription_series
        )
        assert results["jet"].max_oversubscription == pytest.approx(
            results["full"].max_oversubscription
        )

    def test_jet_tracks_fraction_of_full(self):
        results = run_paired(BASE.with_(ct_capacity=None))
        assert results["jet"].peak_tracked < 0.45 * results["full"].peak_tracked


class TestWarmup:
    def test_warmup_excludes_startup_transient(self):
        no_warmup = run_simulation(BASE.with_(warmup_s=0.0))
        warmed = run_simulation(BASE.with_(warmup_s=10.0))
        assert warmed.max_oversubscription <= no_warmup.max_oversubscription


class TestModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(BASE.with_(mode="quantum"))

    @pytest.mark.parametrize("family", ["hrw", "ring", "table", "anchor"])
    def test_all_ch_families_run(self, family):
        cfg = BASE.with_(
            duration_s=6.0,
            connection_rate=120.0,
            n_servers=20,
            horizon_size=2,
            ch_family=family,
        )
        result = run_simulation(cfg)
        assert result.flows_started > 0
        assert result.pcc_violations == 0

    def test_p2c_mode_runs_and_tracks_more_than_jet(self):
        cfg = BASE.with_(duration_s=10.0, update_rate_per_min=0.0)
        p2c = run_simulation(cfg.with_(mode="jet-p2c"))
        jet = run_simulation(cfg.with_(mode="jet"))
        assert p2c.pcc_violations == 0
        assert p2c.peak_tracked > jet.peak_tracked
