"""Tests for the command-line interface and trace persistence."""

import functools

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.workloads import make_multithreaded
from repro.workloads.trace import Workload
from repro.workloads.suites import find_profile

from tests.conftest import tiny_config


class TestTracePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        workload = make_multithreaded(find_profile("canneal"),
                                      tiny_config(), 300, seed=9)
        path = tmp_path / "trace.npz"
        workload.save(path)
        loaded = Workload.load(path)
        assert loaded.name == workload.name
        assert loaded.n_cores == workload.n_cores
        for a, b in zip(workload.traces, loaded.traces):
            assert a.core == b.core
            assert np.array_equal(a.ops, b.ops)
            assert np.array_equal(a.addresses, b.addresses)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig19" in out and "PARSEC" in out and "freqmine" in out

    def test_every_experiment_registered(self):
        expected = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig17",
                    "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
                    "fig24", "fig25", "fig26", "fig27", "contenders",
                    "energy", "multisocket"}
        assert set(EXPERIMENTS) == expected

    def test_demo(self, capsys):
        assert main(["demo", "--app", "swaptions",
                     "--accesses", "500"]) == 0
        out = capsys.readouterr().out
        assert "0 DEVs" in out and "speedup" in out

    def test_run_figure(self, capsys, monkeypatch):
        monkeypatch.chdir  # keep results/ writes relative to repo root
        assert main(["run", "fig19", "--accesses", "300"]) == 0
        out = capsys.readouterr().out
        assert "ZeroDEV speedup vs baseline" in out
        assert "PARSEC NoDir GEOMEAN" in out

    def test_trace_then_simulate(self, capsys, tmp_path):
        path = str(tmp_path / "t.npz")
        assert main(["trace", "leela", path, "--accesses", "300",
                     "--rate"]) == 0
        assert main(["simulate", path, "--protocol", "zerodev"]) == 0
        out = capsys.readouterr().out
        assert "dev_invalidations" in out

    def test_simulate_baseline(self, capsys, tmp_path):
        path = str(tmp_path / "t.npz")
        main(["trace", "povray", path, "--accesses", "200"])
        assert main(["simulate", path, "--protocol", "baseline",
                     "--ratio", "1.0"]) == 0

    def test_parser_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_command(self, capsys):
        assert main(["verify", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out

    def test_verify_baseline(self, capsys):
        assert main(["verify", "--protocol", "baseline",
                     "--depth", "2"]) == 0

    def test_verify_dls(self, capsys):
        assert main(["verify", "--protocol", "dls",
                     "--depth", "2"]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "--depth", "-1"],
        ["verify", "--depth", "0"],
        ["verify", "--samples", "-5"],
        ["modelcheck", "--depth", "-1"],
        ["modelcheck", "--depth", "three"],
    ])
    def test_invalid_depth_or_samples_rejected(self, argv, capsys):
        # Out-of-range bounds once crashed in itertools.product or
        # "passed" after checking nothing; now a one-line usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}:" in err and "Traceback" not in err

    def test_verify_runs_on_the_modelcheck_frontier(self, capsys,
                                                    monkeypatch):
        from repro.coherence.exhaustive import ExhaustiveExplorer
        from repro.verify import modelcheck

        reports = []
        explore_model = modelcheck.explore_model

        def traced(*args, **kwargs):
            reports.append(explore_model(*args, **kwargs))
            return reports[-1]

        def replay(*_args, **_kwargs):
            raise AssertionError("replay served repro verify")

        monkeypatch.setattr(modelcheck, "explore_model", traced)
        monkeypatch.setattr(ExhaustiveExplorer, "explore", replay)
        assert main(["verify", "--protocol", "baseline",
                     "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert len(reports) == 1
        assert reports[0].symmetry and reports[0].group_size > 1
        assert "explored 144 sequences at depth 2" in out
        assert f"{reports[0].unique_states:,} unique states" in out
        assert "all invariants hold" in out

    def test_verify_capped_frontier_is_not_a_pass(self, capsys,
                                                  monkeypatch):
        from repro.verify import modelcheck
        monkeypatch.setattr(
            modelcheck, "explore_model",
            functools.partial(modelcheck.explore_model, max_states=10))
        assert main(["verify", "--depth", "3"]) == 1
        out = capsys.readouterr().out
        assert "frontier stopped at depth" in out and "(capped)" in out
        assert "all invariants hold" not in out
        assert "explored" not in out

    def test_verify_counterexample_exits_1(self, capsys, monkeypatch):
        from repro.verify import modelcheck
        from repro.verify.checks import DivergenceError

        def no_block_8(_spec):
            def check(system):
                if any(core.probe(8) is not None
                       for core in system.cores):
                    raise DivergenceError("block 8 cached")
            return check

        monkeypatch.setattr(modelcheck, "_spec_check", no_block_8)
        assert main(["verify", "--protocol", "baseline",
                     "--depth", "2"]) == 1
        out = capsys.readouterr().out
        assert "COUNTEREXAMPLE: [c0:R@8] -> block 8 cached" in out
        assert "all invariants hold" not in out

    def test_verify_seed_without_samples_rejected(self, capsys):
        # A silently ignored --seed looked like a varied run; it is now
        # a clean one-line error, never a traceback.
        assert main(["verify", "--seed", "3", "--depth", "2"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--samples" in err

    def test_verify_seed_with_samples_accepted(self, capsys):
        assert main(["verify", "--depth", "2", "--samples", "5",
                     "--seed", "3"]) == 0
        assert "seed 3" in capsys.readouterr().out

    def test_verify_kernel_diff_accepts_seed(self, capsys):
        # CI passes --seed with --kernel-diff; it seeds the campaign.
        assert main(["verify", "--kernel-diff", "--seed", "7",
                     "--budget", "2"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_report_command(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "EXPERIMENTS.md" in out

    def test_fuzz_parser_accepts_campaign_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--resume", "j.jsonl", "--run-timeout", "2.5",
             "--retries", "3"])
        assert args.resume == "j.jsonl"
        assert args.run_timeout == 2.5
        assert args.retries == 3

    def test_fuzz_resume_round_trip(self, capsys, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        argv = ["fuzz", "--seed", "5", "--budget", "2", "--no-shrink",
                "--resume", str(journal)]
        assert main(argv) == 0
        assert main(argv) == 0                 # replay, nothing re-run
        out = capsys.readouterr().out
        assert "runs resumed from journal" in out
        assert main(["report", str(journal)]) == 0
        assert "campaign healthy" in capsys.readouterr().out
