import concurrent.futures
import math

import numpy as np
import pytest

from colorwalk import InfeasibleError, build_graph, experiments, gen_gnm
from colorwalk.experiments import (ExperimentConfig, ExperimentReport, mis_bound,
                                   per_round_pool_bound,
                                   pointwise_median_dominance,
                                   run_coupling_experiment,
                                   run_density_experiment, run_mis_experiment,
                                   run_scaling_experiment,
                                   subset_density_check)


class TestMisBound:
    def test_formula_at_hundred(self):
        # (ln 100 - 3 ln ln 100) * n / 100 with n = 1e5
        expected = (math.log(100) - 3 * math.log(math.log(100))) * 1e5 / 100
        assert mis_bound(100, 100_000) == pytest.approx(expected)
        assert expected == pytest.approx(23.6, abs=0.2)

    def test_inactive_at_twenty(self):
        # 3 ln ln 20 = 3 * 1.0972 exceeds ln 20 = 2.9957
        with pytest.raises(InfeasibleError, match="inactive"):
            mis_bound(20, 1000)

    def test_threshold_region(self):
        assert mis_bound(95, 1000) > 0
        with pytest.raises(InfeasibleError):
            mis_bound(90, 1000)


class TestMisExperiment:
    def test_small_run_meets_bound(self):
        cfg = ExperimentConfig(name="mis", n=3000, d=100.0, trials=5, seed=11)
        rep = run_mis_experiment(cfg)
        s = rep.summary_dict()
        assert s["trials"] == 5
        assert s["fraction_meeting_bound"] == 1.0

    def test_edgeless_override(self):
        cfg = ExperimentConfig(name="mis", n=500, d=100.0, trials=2, seed=1, m=0)
        rep = run_mis_experiment(cfg)
        assert all(row[3] == 500 for row in rep.rows)  # mis_size == n
        assert rep.summary_dict()["fraction_meeting_bound"] == 1.0

    def test_determinism_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(name="mis", n=1000, d=100.0, trials=3, seed=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_mis_experiment(cfg).write(str(a))
        run_mis_experiment(cfg).write(str(b))
        assert a.read_bytes() == b.read_bytes()


class TestDensityExperiment:
    def test_k4_violation_fixture(self):
        # s * D / ln(D)^2 over D > 1 never drops below s * e^2 / 4, so a
        # degree parameter under 1 is what forces a cap below K4's 6 edges;
        # the point of the fixture is that the violation is recorded
        k4 = gen_gnm(4, 6, seed=1)
        edges, bound, ok = subset_density_check(k4, [0, 1, 2, 3], 0.5)
        assert edges == 6 and bound < 6 and not ok
        _, _, ok_loose = subset_density_check(k4, [0, 1, 2, 3], 8.0)
        assert ok_loose

    def test_singletons_never_violate(self):
        g = gen_gnm(30, 60, seed=2)
        for v in range(10):
            edges, _, ok = subset_density_check(g, [v], 10.0)
            assert edges == 0 and ok

    def test_small_campaign(self):
        cfg = ExperimentConfig(name="density", n=2000, d=100.0, q=40,
                               trials=2, seed=3, subset_samples=300)
        rep = run_density_experiment(cfg)
        s = rep.summary_dict()
        assert s["subsets_checked"] == 600
        assert s["subset_violations"] == 0
        assert s["fraction_residual_within_l"] == 1.0

    @pytest.mark.parametrize("d", [0.0, -2.0])
    def test_nonpositive_degree_rejected(self, monkeypatch, d):
        monkeypatch.setattr(experiments, "_run_trials", None)  # no trial may run
        cfg = ExperimentConfig(name="density", n=200, d=d, q=3, seed=1)
        with pytest.raises(InfeasibleError, match="^degree too small for the subset size cap$"):
            run_density_experiment(cfg)

    def test_degeneracy_only_mode(self):
        cfg = ExperimentConfig(name="density", n=500, d=20.0, q=10,
                               trials=2, seed=5, subset_samples=0)
        rep = run_density_experiment(cfg)
        assert rep.summary_dict()["subsets_checked"] == 0


class TestCouplingExperiment:
    def test_trajectory_dominates_recurrence(self):
        cfg = ExperimentConfig(name="coupling", n=2000, d=20.0, q=10,
                               trials=4, seed=7)
        rep = run_coupling_experiment(cfg)
        s = rep.summary_dict()
        assert s["dominance_fraction"] == 1.0

    def test_p_zero_identical_curves(self):
        # edgeless planted instances: both series count down by one
        cfg = ExperimentConfig(name="coupling", n=50, d=0.0, q=5,
                               trials=2, seed=1, m=0, l_override=0)
        rep = run_coupling_experiment(cfg)
        s = rep.summary_dict()
        assert s["dominance_fraction"] == 1.0
        assert s["round1_pool_dominance_fraction"] == 1.0
        for row in rep.rows:
            assert row[2] == 51  # trajectory 50..0
            assert row[5] == 51  # recurrence 50..0

    def test_single_trial_deterministic(self, tmp_path):
        cfg = ExperimentConfig(name="coupling", n=300, d=10.0, q=5,
                               trials=1, seed=9)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_coupling_experiment(cfg).write(str(a), "records")
        run_coupling_experiment(cfg).write(str(b), "records")
        assert a.read_bytes() == b.read_bytes()


class TestPointwiseMedian:
    def test_padding_and_fraction(self):
        frac, steps = pointwise_median_dominance([[5, 4, 3]], [[5, 2]])
        assert steps == 3 and frac == 1.0
        frac2, _ = pointwise_median_dominance([[5, 1]], [[5, 4, 3]])
        assert frac2 == pytest.approx(1 / 3)


class TestScalingExperiment:
    def test_single_d_determinism(self, tmp_path):
        cfg = ExperimentConfig(name="scaling", n=2000, d=16.0, trials=1, seed=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_scaling_experiment(cfg).write(str(a))
        run_scaling_experiment(cfg).write(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_reports_ratios_and_trend(self):
        cfg = ExperimentConfig(name="scaling", n=3000, d=16.0, trials=2,
                               seed=3, d_sweep=(16.0, 32.0))
        rep = run_scaling_experiment(cfg)
        s = rep.summary_dict()
        assert "mean_ratio_d_16" in s and "mean_ratio_d_32" in s
        assert "spearman_rho" in s
        for row in rep.rows:
            assert row[7] > 0  # ratio column

    def test_per_round_bound_inactive_at_desk_scale(self):
        # ln 128 = 4.852 < 6 ln ln 128 = 9.48
        raw = math.log(128) - 6 * math.log(math.log(128))
        assert raw < 0
        cfg = ExperimentConfig(name="scaling", n=1000, d=128.0, trials=1, seed=4)
        rep = run_scaling_experiment(cfg)
        assert all(row[9] == "inactive" for row in rep.rows)

    @pytest.mark.parametrize("d, sweep", [(1.0, ()), (0.0, ()), (3.0, (3.0, 1.0)),
                                          (3.0, (0.5, 3.0))])
    def test_degree_at_most_one_rejected_before_any_trial(self, monkeypatch, d, sweep):
        # q = ceil(2d / ln d) divides by ln d
        monkeypatch.setattr(experiments, "_run_trials", None)  # no trial may run
        cfg = ExperimentConfig(name="scaling", n=200, d=d, seed=1, d_sweep=sweep)
        low = min(sweep or (d,))
        with pytest.raises(InfeasibleError, match=f"^average degree must exceed 1, got {low:g}$"):
            run_scaling_experiment(cfg)

    def test_fractional_degrees_draw_their_own_instances(self, monkeypatch):
        # 5.1 and 5.6 share their integer part and q = 7: each must still
        # get its own partition and planted-graph seeds
        seeds = []
        for name in ("balanced_partition", "gen_planted_p"):
            real = getattr(experiments, name)
            monkeypatch.setattr(experiments, name,
                                lambda *a, real=real: seeds.append(a[-1]) or real(*a))
        cfg = ExperimentConfig(name="scaling", n=300, d=6.0, seed=1, d_sweep=(5.1, 5.6))
        rep = run_scaling_experiment(cfg)
        assert [row[2] for row in rep.rows] == [7, 7]
        assert len(seeds) == 4 and len(set(seeds)) == 4

    def test_pool_bound_scaling_interpretation(self):
        assert per_round_pool_bound(100.0, 1e-3, 1000, 100_000) is None  # tiny pool
        active = per_round_pool_bound(100.0, 1e-3, 100_000, 100_000)
        expected = (math.log(100) - 3 * math.log(math.log(100))) / 1e-3
        assert active == pytest.approx(expected)


class TestReportFormats:
    def test_csv_shape(self, tmp_path):
        cfg = ExperimentConfig(name="mis", n=500, d=100.0, trials=2, seed=6)
        rep = run_mis_experiment(cfg)
        out = tmp_path / "r.csv"
        rep.write(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "trial"
        assert len([l for l in lines if l.startswith("summary,")]) == len(rep.summary)

    def test_records_format(self, tmp_path):
        cfg = ExperimentConfig(name="mis", n=500, d=100.0, trials=2, seed=6)
        out = tmp_path / "r.txt"
        run_mis_experiment(cfg).write(str(out), "records")
        text = out.read_text()
        assert "experiment=mis" in text
        assert "trial.0.mis_size=" in text
        assert "summary.fraction_meeting_bound=" in text

    # an int, a float, a bool and an inactive bound, as the experiments write them
    REPORT = ExperimentReport(
        name="demo", schema=["trial", "size", "bound", "met", "per_round_bound"],
        rows=[[0, 7, 2.5, True, "inactive"], [1, 3, 0.1, False, "inactive"]],
        summary=[("trials", 2), ("fraction_met", 0.5)])

    def test_csv_bytes(self, tmp_path):
        out = tmp_path / "r.csv"
        self.REPORT.write(str(out))
        assert out.read_bytes() == (
            b"trial,size,bound,met,per_round_bound\n"
            b"0,7,2.5,1,inactive\n"
            b"1,3,0.1,0,inactive\n"
            b"summary,trials,2\n"
            b"summary,fraction_met,0.5\n")

    def test_records_bytes(self, tmp_path):
        out = tmp_path / "r.txt"
        self.REPORT.write(str(out), "records")
        assert out.read_bytes() == (
            b"experiment=demo\n"
            b"trial.0.size=7\ntrial.0.bound=2.5\ntrial.0.met=1\n"
            b"trial.0.per_round_bound=inactive\n"
            b"trial.1.size=3\ntrial.1.bound=0.1\ntrial.1.met=0\n"
            b"trial.1.per_round_bound=inactive\n"
            b"summary.trials=2\n"
            b"summary.fraction_met=0.5\n")

    def test_jobs_parallel_matches_serial(self):
        cfg1 = ExperimentConfig(name="mis", n=500, d=100.0, trials=3, seed=8, jobs=1)
        cfg2 = ExperimentConfig(name="mis", n=500, d=100.0, trials=3, seed=8, jobs=2)
        assert run_mis_experiment(cfg1).rows == run_mis_experiment(cfg2).rows

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(name="mis", n=10, d=5.0, trials=0, seed=1)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_validated(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ExperimentConfig(name="mis", n=10, d=5.0, trials=2, seed=1, jobs=jobs)

    @pytest.mark.parametrize("jobs,trials,workers", [(64, 2, 2), (3, 5, 3), (2, 1, None)])
    def test_pool_never_outnumbers_trials(self, monkeypatch, jobs, trials, workers):
        started = []

        class SerialPool:  # records the pool size, runs the trials in-process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # _run_trials imports the pool class from concurrent.futures on demand
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(name="mis", n=500, d=100.0, trials=trials, seed=8, jobs=jobs)
        serial = ExperimentConfig(name="mis", n=500, d=100.0, trials=trials, seed=8)
        assert run_mis_experiment(cfg).rows == run_mis_experiment(serial).rows
        assert started == ([] if workers is None else [workers])
