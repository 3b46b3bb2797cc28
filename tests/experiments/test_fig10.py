"""Tests for the Figure 10 fast-rerouting case study (§6.1) on ``ring(3)``."""

from __future__ import annotations

from repro.experiments.fig10 import POLL_S, Fig10Config, run_case

SMALL = Fig10Config(tcp_rate_bps=4e6, udp_rate_bps=0.2e6,
                    flows_per_second=10, duration_s=4.0)


def mean(values):
    return sum(values) / len(values)


class TestFig10CaseStudy:
    def test_dedicated_entry_case(self):
        """Paper: a dedicated entry recovers after about one session."""
        result = run_case(1.0, "dedicated", SMALL)
        assert result["recovery_delay"] is not None
        assert result["recovery_delay"] <= SMALL.dedicated_session_s + POLL_S
        assert result["rerouted_packets"] > 0

    def test_tree_entry_case(self):
        """Paper: a tree entry recovers after about 3 × the zooming speed."""
        result = run_case(1.0, "tree", SMALL)
        assert result["recovery_delay"] is not None
        assert result["recovery_delay"] <= 3 * SMALL.tree_session_s + POLL_S
        assert result["rerouted_packets"] > 0

    def test_one_percent_loss_still_detected(self):
        """Figure 10: even 1 % drop rates trigger rerouting."""
        config = Fig10Config(tcp_rate_bps=6e6, udp_rate_bps=0.5e6,
                             flows_per_second=20, duration_s=5.0)
        result = run_case(0.01, "dedicated", config)
        assert result["recovery_delay"] is not None
        assert result["recovery_delay"] <= config.dedicated_session_s + POLL_S

    def test_goodput_restored_via_backup(self):
        """The blackholed entry's goodput comes back over s0 -> s2 -> s1."""
        result = run_case(1.0, "dedicated", SMALL)
        series = result["series"]
        pre = [bps for t, bps in series
               if 0.5 < t < SMALL.failure_time_s - 0.2]
        late = [bps for t, bps in series
                if t > SMALL.failure_time_s + 1.0]
        assert pre and late
        assert mean(late) > 0.5 * mean(pre)
