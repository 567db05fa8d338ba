"""Tests for the command-line interface (repro.cli / python -m repro)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.streaming.trace_io import load_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """A small trace produced through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "trace.npz"
    code = main(
        [
            "generate",
            str(path),
            "--nodes", "4000",
            "--packets", "60000",
            "--seed", "3",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.npz"])
        assert args.nodes == 30_000
        assert args.alpha == 2.0

    def test_analyze_quantity_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "t.npz", "--quantities", "bogus"])

    def test_experiments_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "fig9"])


class TestGenerate:
    def test_trace_written_and_loadable(self, trace_file):
        trace = load_trace(trace_file)
        assert trace.n_packets == 60_000
        assert trace.n_valid == 60_000

    def test_invalid_fraction_respected(self, tmp_path):
        path = tmp_path / "t.npz"
        code = main(
            [
                "generate", str(path),
                "--nodes", "2000", "--packets", "20000",
                "--invalid-fraction", "0.25", "--seed", "4",
            ]
        )
        assert code == 0
        trace = load_trace(path)
        assert trace.n_valid == pytest.approx(15_000, rel=0.05)


class TestAnalyze:
    def test_analyze_prints_fits(self, trace_file, capsys):
        code = main(["analyze", str(trace_file), "--nv", "20000", "--quantities", "source_fanout"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table-I aggregates" in out
        assert "source_fanout" in out
        assert "alpha" in out

    def test_analyze_panel_rendering(self, trace_file, capsys):
        code = main(
            ["analyze", str(trace_file), "--nv", "20000", "--quantities", "source_fanout", "--panel"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "█" in out

    def test_analyze_backend_choices_validated(self, trace_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", str(trace_file), "--backend", "gpu"])

    def test_analyze_chunked_prints_engine_banner(self, trace_file, capsys):
        code = main(
            [
                "analyze", str(trace_file),
                "--nv", "20000",
                "--quantities", "source_fanout",
                "--backend", "serial",
                "--chunk-packets", "10000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: backend=serial chunks=" in out
        assert "peak buffered packets=" in out
        assert "v1 .npz archives load whole" in out
        assert "Table-I aggregates" in out

    def test_analyze_v1_note_only_with_chunk_packets(self, trace_file, capsys):
        code = main(["analyze", str(trace_file), "--nv", "20000", "--quantities", "source_fanout"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: backend=serial chunks=" in out
        assert "note:" not in out

    def test_repeated_quantities_deduped(self, trace_file, capsys):
        main(["analyze", str(trace_file), "--nv", "20000", "--quantities", "source_fanout"])
        once = capsys.readouterr().out
        code = main(["analyze", str(trace_file), "--nv", "20000",
                     "--quantities", "source_fanout", "source_fanout"])
        assert code == 0
        assert capsys.readouterr().out == once

    def test_backends_print_identical_fits(self, trace_file, capsys):
        main(["analyze", str(trace_file), "--nv", "20000", "--backend", "serial"])
        serial_out = capsys.readouterr().out
        main(
            [
                "analyze", str(trace_file),
                "--nv", "20000",
                "--backend", "serial",
                "--chunk-packets", "15000",
            ]
        )
        chunked_out = capsys.readouterr().out
        # everything after the engine banner (fits, tables) must agree exactly
        marker = "windows of N_V"
        assert serial_out.split(marker)[1] == chunked_out.split(marker)[1]


class TestGenerateSharded:
    def test_sharded_generate_and_analyze(self, tmp_path, capsys):
        path = tmp_path / "trace-v2"
        code = main(
            [
                "generate", str(path),
                "--nodes", "2000", "--packets", "30000",
                "--seed", "5", "--shard-packets", "8000",
            ]
        )
        assert code == 0
        assert (path / "manifest.json").is_file()
        code = main(
            [
                "analyze", str(path),
                "--nv", "10000",
                "--quantities", "source_fanout",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: backend=serial chunks=4 " in out
        assert "note:" not in out


class TestShmFlagAndNpyLayout:
    @pytest.fixture(scope="class")
    def npy_trace_dir(self, tmp_path_factory):
        """A v2 sharded trace written with the memory-mapped npy layout."""
        path = tmp_path_factory.mktemp("cli-npy") / "trace-v2"
        code = main(
            [
                "generate", str(path),
                "--nodes", "2000", "--packets", "30000",
                "--seed", "6", "--shard-packets", "8000", "--layout", "npy",
            ]
        )
        assert code == 0
        return path

    def test_layout_requires_shard_packets(self, tmp_path, capsys):
        code = main(
            ["generate", str(tmp_path / "t.npz"), "--nodes", "2000",
             "--packets", "20000", "--layout", "npy"]
        )
        assert code == 2
        assert "--shard-packets" in capsys.readouterr().out

    def test_npy_analyze_matches_npz(self, npy_trace_dir, tmp_path, capsys):
        npz_dir = tmp_path / "trace-npz"
        assert main(["generate", str(npz_dir), "--nodes", "2000", "--packets", "30000",
                     "--seed", "6", "--shard-packets", "8000"]) == 0
        capsys.readouterr()
        outputs = []
        for path in (npy_trace_dir, npz_dir):
            code = main(["analyze", str(path), "--nv", "10000", "--quantities", "source_fanout"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert f"reading trace from {npy_trace_dir}" in outputs[0]
        marker = "windows of N_V"
        assert outputs[0].split(marker)[1] == outputs[1].split(marker)[1]

    def test_payload_transport_printed_and_identical(self, npy_trace_dir, capsys):
        outputs = {}
        for transport in ("pickle", "shm"):
            code = main(
                ["analyze", str(npy_trace_dir), "--nv", "10000",
                 "--quantities", "source_fanout", "--backend", "process",
                 "--workers", "2", "--payload-transport", transport]
            )
            assert code == 0
            outputs[transport] = capsys.readouterr().out
            assert f"transport={transport}" in outputs[transport]
        marker = "windows of N_V"
        assert outputs["pickle"].split(marker)[1] == outputs["shm"].split(marker)[1]

    def test_serial_backend_rejects_transport(self, npy_trace_dir, capsys):
        code = main(
            ["analyze", str(npy_trace_dir), "--nv", "10000",
             "--backend", "serial", "--payload-transport", "shm"]
        )
        assert code == 2
        assert "payload_transport" in capsys.readouterr().out

    def test_detect_run_accepts_transport(self, capsys):
        code = main(
            ["detect", "run", "flash-crowd", "--nv", "2000",
             "--backend", "process", "--workers", "2",
             "--payload-transport", "shm"]
        )
        assert code == 0
        assert "transport=shm" in capsys.readouterr().out


class TestFit:
    def test_fit_prints_model_comparison(self, trace_file, capsys):
        code = main(["fit", str(trace_file), "--nv", "20000", "--quantity", "source_fanout"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Zipf-Mandelbrot" in out
        assert "model comparison" in out
        assert "power_law" in out


class TestExperiments:
    def test_experiments_subset_runs(self, capsys):
        code = main(["experiments", "fig4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "log_mse_vs_ZM" in out


class TestScenarios:
    def test_list_prints_catalogue(self, capsys):
        code = main(["scenarios", "list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("stationary", "alpha-drift", "flash-crowd", "generator-mix"):
            assert name in out

    def test_run_chunked_prints_phases_and_drift(self, capsys):
        code = main(
            [
                "scenarios", "run", "alpha-drift",
                "--nv", "5000",
                "--backend", "serial",
                "--chunk-packets", "9000",
                "--quantities", "source_fanout",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=serial" in out
        assert "phase summary — source_fanout" in out
        assert "max adjacent-phase drift" in out

    def test_run_single_phase_reports_no_drift(self, capsys):
        code = main(["scenarios", "run", "stationary", "--nv", "10000",
                     "--quantities", "source_fanout"])
        assert code == 0
        assert "single occupied phase" in capsys.readouterr().out

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        code = main(["scenarios", "run", "does-not-exist"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])


class TestDetect:
    def test_list_prints_catalogue(self, capsys):
        code = main(["detect", "list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("ewma", "cusum", "page-hinkley"):
            assert name in out
        assert "threshold" in out

    def test_run_reports_alarms_and_scores(self, capsys):
        code = main(
            [
                "detect", "run", "alpha-drift",
                "--nv", "2000",
                "--backend", "serial",
                "--chunk-packets", "9000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=serial" in out
        assert "true phase-boundary windows: 15 30" in out
        assert "alarms per detector" in out
        assert "evaluation vs ground truth" in out
        for column in ("precision", "recall", "false/window", "latency"):
            assert column in out

    def test_run_detector_subset_and_quantity(self, capsys):
        code = main(
            [
                "detect", "run", "stationary",
                "--nv", "5000",
                "--detectors", "cusum",
                "--quantity", "link_packets",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "monitoring 'link_packets'" in out
        assert "none (single regime)" in out
        assert "ewma" not in out

    def test_backends_print_identical_reports(self, capsys):
        args = ["detect", "run", "flash-crowd", "--nv", "2000", "--seed", "3"]
        main(args)
        serial_out = capsys.readouterr().out
        main([*args, "--backend", "serial", "--chunk-packets", "7000"])
        chunked_out = capsys.readouterr().out
        marker = "true phase-boundary windows"
        assert serial_out.split(marker)[1] == chunked_out.split(marker)[1]

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect"])

    def test_detector_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "run", "stationary", "--detectors", "bogus"])

    def test_repeated_detector_names_deduped(self, capsys):
        code = main(["detect", "run", "stationary", "--nv", "10000",
                     "--detectors", "cusum", "cusum"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("cusum") == 2  # one alarm-table row + one eval row


class TestFailurePaths:
    """Unknown names and missing stores exit non-zero with a one-line
    actionable message — never a traceback."""

    @staticmethod
    def _assert_clean_error(capsys, code, *needles):
        assert code == 2
        captured = capsys.readouterr()
        out = captured.out + captured.err
        assert "Traceback" not in out
        [error_line] = [line for line in out.splitlines() if line.startswith("error:")]
        for needle in needles:
            assert needle in error_line

    def test_scenarios_run_unknown_scenario(self, capsys):
        code = main(["scenarios", "run", "no-such-scenario"])
        self._assert_clean_error(capsys, code, "unknown scenario", "registered:")

    def test_detect_run_unknown_scenario(self, capsys):
        code = main(["detect", "run", "no-such-scenario"])
        self._assert_clean_error(capsys, code, "unknown scenario", "registered:")

    def test_detect_run_negative_max_latency(self, capsys):
        code = main(["detect", "run", "stationary", "--max-latency", "-1"])
        self._assert_clean_error(capsys, code, "--max-latency", ">= 0")

    @pytest.mark.parametrize("flags,needles", [
        (["--chunk-packets", "0"], ("chunk_packets", ">= 1")),
        (["--nv", "0"], ("n_valid", ">= 1")),
        (["--nv", "100000000"], ("no complete windows",)),
        (["--workers", "0"], ("n_workers", ">= 1")),
        (["--workers", "-2"], ("n_workers", ">= 1")),
        (["--sketch-seed", "3"], ("--sketch-*", "--mode sketch")),
    ])
    @pytest.mark.parametrize("command", ["analyze", "scenarios run", "detect run"])
    def test_engine_errors_are_one_line(self, trace_file, capsys, command, flags, needles):
        target = [str(trace_file)] if command == "analyze" else ["stationary"]
        code = main([*command.split(), *target, *flags])
        self._assert_clean_error(capsys, code, *needles)

    @pytest.mark.parametrize("command", ["scenarios run", "detect run"])
    def test_scenario_commands_reject_transport_on_serial(self, capsys, command):
        code = main([*command.split(), "stationary", "--backend", "serial",
                     "--payload-transport", "shm"])
        self._assert_clean_error(capsys, code, "payload_transport", "process backend")

    @pytest.mark.parametrize("flags,needles", [
        (["--packets", "0"], ("n_packets", ">= 1")),
        (["--nodes", "0"], ("n_nodes", ">= 10")),
    ])
    def test_generate_errors_are_one_line(self, tmp_path, capsys, flags, needles):
        code = main(["generate", str(tmp_path / "t.npz"), "--nodes", "2000",
                     "--packets", "20000", *flags])
        self._assert_clean_error(capsys, code, *needles)
        assert not (tmp_path / "t.npz").exists()

    @pytest.mark.parametrize("nv,needles", [
        ("0", ("n_valid", ">= 1")),
        ("100000000", ("no complete windows",)),
    ])
    def test_fit_errors_are_one_line(self, trace_file, capsys, nv, needles):
        code = main(["fit", str(trace_file), "--nv", nv])
        self._assert_clean_error(capsys, code, *needles)

    @pytest.mark.parametrize("command", [["analyze", "--nv", "1000"], ["fit"]])
    def test_missing_trace_path(self, tmp_path, capsys, command):
        missing = tmp_path / "no-such.npz"
        code = main([command[0], str(missing), *command[1:]])
        self._assert_clean_error(capsys, code, "no stored trace at", str(missing))

    def test_campaign_run_negative_max_cells(self, tmp_path, capsys):
        code = main(["campaign", "run", "--store", str(tmp_path / "s"),
                     "--scenarios", "stationary", "--max-cells", "-1"])
        self._assert_clean_error(capsys, code, "max_cells", ">= 0")

    @pytest.mark.parametrize("ttl", ["0", "-5"])
    def test_campaign_status_non_positive_lease_ttl(self, tmp_path, capsys, ttl):
        from repro.campaigns import ResultStore

        ResultStore(tmp_path / "s")
        code = main(["campaign", "status", "--store", str(tmp_path / "s"), "--lease-ttl", ttl])
        self._assert_clean_error(capsys, code, "lease_ttl must be > 0")

    def test_campaign_status_missing_store(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code = main(["campaign", "status", "--store", str(missing)])
        self._assert_clean_error(capsys, code, "no result store", "repro campaign run")
        assert not missing.exists()

    def test_campaign_report_missing_store(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code = main(["campaign", "report", "--store", str(missing), "anything"])
        self._assert_clean_error(capsys, code, "no result store", "repro campaign run")
        assert not missing.exists()


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestCampaign:
    GRID = [
        "--scenarios", "stationary", "invalid-storm",
        "--seeds", "0", "1",
        "--nv", "2000",
        "--quantities", "source_fanout",
    ]

    def test_run_status_report_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(["campaign", "run", "--store", store, "--name", "cli-demo", *self.GRID])
        assert code == 0
        out = capsys.readouterr().out
        assert "computed 4, cached 0" in out

        code = main(["campaign", "run", "--store", store, "--name", "cli-demo", *self.GRID])
        assert code == 0
        assert "computed 0, cached 4" in capsys.readouterr().out

        code = main(["campaign", "status", "--store", store])
        assert code == 0
        status = capsys.readouterr().out
        assert "cli-demo" in status and "True" in status

        code = main(["campaign", "report", "--store", store, "cli-demo",
                     "--quantity", "source_fanout"])
        assert code == 0
        report = capsys.readouterr().out
        assert "cross-seed summary — source_fanout" in report
        assert "0 missing" in report

    def test_partial_run_reports_missing_and_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(["campaign", "run", "--store", store, "--name", "partial",
                     "--max-cells", "1", *self.GRID])
        assert code == 0
        assert "re-run to resume" in capsys.readouterr().out

        code = main(["campaign", "report", "--store", store, "partial"])
        assert code == 0
        assert "cells missing" in capsys.readouterr().out

        code = main(["campaign", "run", "--store", store, "--name", "partial", *self.GRID])
        assert code == 0
        assert "computed 3, cached 1" in capsys.readouterr().out

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        code = main(["campaign", "run", "--store", str(tmp_path / "s"),
                     "--scenarios", "does-not-exist"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_detectors_axis_is_result_defining(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["campaign", "run", "--store", store, "--name", "det",
                "--scenarios", "stationary", "--nv", "2000",
                "--quantities", "source_fanout"]
        code = main([*base, "--detectors", "cusum"])
        assert code == 0
        assert "computed 1, cached 0" in capsys.readouterr().out
        # same grid plus detection is a different cell; without detectors it
        # must compute anew, not warm-hit the detecting cell
        code = main(base)
        assert code == 0
        assert "computed 1, cached 0" in capsys.readouterr().out

    def test_unknown_campaign_report_fails_cleanly(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        code = main(["campaign", "run", "--store", store, "--name", "exists",
                     "--scenarios", "stationary", "--seeds", "0", "--nv", "2000",
                     "--quantities", "source_fanout"])
        assert code == 0
        capsys.readouterr()
        code = main(["campaign", "status", "--store", store, "ghost"])
        assert code == 2
        assert "no campaign" in capsys.readouterr().out

    def test_report_on_unanalysed_quantity_fails_cleanly(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        code = main(["campaign", "run", "--store", store, "--name", "lp",
                     "--scenarios", "stationary", "--seeds", "0", "--nv", "2000",
                     "--quantities", "link_packets"])
        assert code == 0
        capsys.readouterr()
        # default --quantity is source_fanout, which this campaign never analysed
        code = main(["campaign", "report", "--store", store, "lp"])
        assert code == 2
        assert "was not analysed" in capsys.readouterr().out

    def test_status_on_missing_store_does_not_create_it(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        code = main(["campaign", "status", "--store", str(missing)])
        assert code == 2
        assert "no result store" in capsys.readouterr().out
        assert not missing.exists()

    def test_report_on_missing_store_does_not_create_it(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        code = main(["campaign", "report", "--store", str(missing), "anything"])
        assert code == 2
        assert "no result store" in capsys.readouterr().out
        assert not missing.exists()

    def test_repeated_grid_values_run_once(self, tmp_path, capsys):
        """A value listed twice on the command line names one cell."""
        code = main(["campaign", "run", "--store", str(tmp_path / "s"),
                     "--scenarios", "stationary", "stationary", "--seeds", "0", "0",
                     "--nv", "2000", "2000", "--quantities", "source_fanout"])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign 'default': 1 cells -> store" in out
        assert "computed 1, cached 0, failed 0, skipped 0" in out

    def test_experiments_store_caches_rows(self, tmp_path, capsys):
        store = str(tmp_path / "exp-store")
        code = main(["experiments", "fig4", "--store", store])
        assert code == 0
        assert "[computed]" in capsys.readouterr().out
        code = main(["experiments", "fig4", "--store", store])
        assert code == 0
        assert "[cached]" in capsys.readouterr().out


class TestCampaignFleet:
    GRID = [
        "--scenarios", "stationary", "invalid-storm",
        "--seeds", "0",
        "--nv", "2000",
        "--quantities", "source_fanout",
    ]

    def test_failed_cell_exits_nonzero_and_contains_the_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.campaigns.runner as runner_module

        real = runner_module.analyze_scenario

        def exploding(scenario, *args, **kwargs):
            if scenario.name == "invalid-storm":
                raise RuntimeError("boom")
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(runner_module, "analyze_scenario", exploding)
        store = str(tmp_path / "store")
        code = main(["campaign", "run", "--store", store, "--name", "f", *self.GRID])
        assert code == 1
        out = capsys.readouterr().out
        assert "computed 1, cached 0, failed 1" in out
        assert "failed invalid-storm seed=0" in out and "RuntimeError: boom" in out
        # the failure was contained: the good cell is stored, and a re-run
        # with the bug gone retries exactly the failed cell
        monkeypatch.setattr(runner_module, "analyze_scenario", real)
        code = main(["campaign", "run", "--store", store, "--name", "f", *self.GRID])
        assert code == 0
        assert "computed 1, cached 1" in capsys.readouterr().out

    def test_invalid_worker_id_exits_cleanly(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for bad in ("nope", "3/2", "0/2"):
            code = main(["campaign", "run", "--store", store, "--name", "w",
                         "--worker-id", bad, *self.GRID])
            assert code == 2
            assert "worker id" in capsys.readouterr().out
        code = main(["campaign", "run", "--store", store, "--name", "w",
                     "--workers", "4", "--worker-id", "1/2", *self.GRID])
        assert code == 2
        assert "fleet" in capsys.readouterr().out
        assert not (tmp_path / "store").exists()  # nothing ran

    def test_lone_fleet_member_steals_the_whole_grid(self, tmp_path, capsys):
        """One worker of a declared fleet of two finishes everything: its
        own shard first, the absent partner's cells via the stealing tail."""
        store = str(tmp_path / "store")
        code = main(["campaign", "run", "--store", store, "--name", "fleet",
                     "--worker-id", "1/2", "--lease-ttl", "5", *self.GRID])
        assert code == 0
        out = capsys.readouterr().out
        assert "(worker 1/2)" in out
        assert "computed 2, cached 0" in out

    def test_status_check_gates_on_completeness_and_leases(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(["campaign", "run", "--store", store, "--name", "gate",
                     "--max-cells", "1", *self.GRID])
        assert code == 0
        capsys.readouterr()
        code = main(["campaign", "status", "--store", store, "--check"])
        assert code == 1
        out = capsys.readouterr().out
        assert "check failed" in out and "incomplete" in out
        code = main(["campaign", "run", "--store", store, "--name", "gate", *self.GRID])
        assert code == 0
        capsys.readouterr()
        code = main(["campaign", "status", "--store", store, "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "check passed" in out
        assert "gate" in out

    def test_status_reports_outstanding_leases(self, tmp_path, capsys):
        from repro.campaigns import ResultStore

        store = str(tmp_path / "store")
        code = main(["campaign", "run", "--store", store, "--name", "held",
                     "--max-cells", "1", *self.GRID])
        assert code == 0
        capsys.readouterr()
        # simulate a fleet member computing the missing cell right now
        held = ResultStore(store)
        missing = [cell["key"] for cell in held.load_campaign("held")["cells"]
                   if cell["key"] not in held]
        assert held.acquire_lease(missing[0], "worker-x", ttl=30)
        code = main(["campaign", "status", "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "outstanding leases" in out and "worker-x" in out
        code = main(["campaign", "status", "--store", store, "--check"])
        assert code == 1
        assert "outstanding lease" in capsys.readouterr().out


class TestServeAndJobs:
    """``repro serve`` / ``repro jobs``: failure paths stay one clean line,
    and the daemon round-trip works through the console commands."""

    @staticmethod
    def _assert_clean_error(capsys, code, *needles):
        assert code == 2
        captured = capsys.readouterr()
        out = captured.out + captured.err
        assert "Traceback" not in out
        [error_line] = [line for line in out.splitlines() if line.startswith("error:")]
        for needle in needles:
            assert needle in error_line

    @staticmethod
    def _job_file(tmp_path, name="cli-job", n_valid=200):
        import json

        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "window": {"n_valid": n_valid}}))
        return path

    def test_serve_missing_job_config(self, tmp_path, capsys):
        code = main(["serve", "--job", str(tmp_path / "nope.json"), "--port", "0"])
        self._assert_clean_error(capsys, code, "cannot read job config")

    def test_serve_invalid_job_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "version": 99}')
        code = main(["serve", "--job", str(path), "--port", "0"])
        self._assert_clean_error(capsys, code, "version")

    def test_serve_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["serve", "--job", str(path), "--port", "0"])
        self._assert_clean_error(capsys, code, "not valid JSON")

    def test_serve_duplicate_job_names(self, tmp_path, capsys):
        a = self._job_file(tmp_path, "same")
        b = tmp_path / "same-again.json"
        b.write_text(a.read_text())
        code = main(["serve", "--job", str(a), "--job", str(b), "--port", "0"])
        self._assert_clean_error(capsys, code, "duplicate job names")

    def test_serve_store_path_is_a_file(self, tmp_path, capsys):
        job = self._job_file(tmp_path)
        bogus = tmp_path / "store-file"
        bogus.write_text("not a directory")
        code = main(["serve", "--job", str(job), "--port", "0",
                     "--store", str(bogus)])
        self._assert_clean_error(capsys, code, "--store", "not a directory")

    def test_serve_port_already_bound(self, tmp_path, capsys):
        import socket

        job = self._job_file(tmp_path)
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            code = main(["serve", "--job", str(job), "--port", str(port)])
        self._assert_clean_error(capsys, code, "cannot serve", str(port))

    def test_serve_bad_max_batch_bytes(self, tmp_path, capsys):
        job = self._job_file(tmp_path)
        code = main(["serve", "--job", str(job), "--port", "0",
                     "--max-batch-bytes", "0"])
        self._assert_clean_error(capsys, code, "--max-batch-bytes")

    def test_jobs_submit_bad_config(self, tmp_path, capsys):
        code = main(["jobs", "submit", str(tmp_path / "nope.json"),
                     "--url", "http://127.0.0.1:1"])
        self._assert_clean_error(capsys, code, "cannot read job config")

    def test_jobs_unreachable_daemon(self, tmp_path, capsys):
        job = self._job_file(tmp_path)
        # port 1 is never listening; the client must fail cleanly, fast
        code = main(["jobs", "submit", str(job), "--url", "http://127.0.0.1:1"])
        self._assert_clean_error(capsys, code, "cannot reach daemon")
        code = main(["jobs", "status", "--url", "http://127.0.0.1:1"])
        self._assert_clean_error(capsys, code, "cannot reach daemon")

    def test_jobs_status_min_windows_requires_name(self, capsys):
        code = main(["jobs", "status", "--url", "http://127.0.0.1:1",
                     "--min-windows", "1"])
        self._assert_clean_error(capsys, code, "--min-windows", "job name")

    def test_jobs_feed_unknown_scenario(self, capsys):
        code = main(["jobs", "feed", "j", "--url", "http://127.0.0.1:1",
                     "--scenario", "no-such-scenario"])
        self._assert_clean_error(capsys, code, "unknown scenario")

    def test_jobs_feed_bad_batch_packets(self, capsys):
        code = main(["jobs", "feed", "j", "--url", "http://127.0.0.1:1",
                     "--scenario", "stationary", "--batch-packets", "0"])
        self._assert_clean_error(capsys, code, "--batch-packets")

    def test_round_trip_through_console_commands(self, tmp_path, capsys):
        import threading

        from repro.service import ServiceDaemon, load_job_config

        daemon = ServiceDaemon([load_job_config(self._job_file(tmp_path))])
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert daemon.wait_ready(10)
        url = f"http://127.0.0.1:{daemon.port}"
        try:
            extra = self._job_file(tmp_path, "second", n_valid=500)
            assert main(["jobs", "submit", str(extra), "--url", url]) == 0
            out = capsys.readouterr().out
            assert "submitted job 'second'" in out
            assert main(["jobs", "feed", "cli-job", "--url", url,
                         "--scenario", "stationary",
                         "--batch-packets", "5000"]) == 0
            out = capsys.readouterr().out
            assert "windows folded" in out
            assert main(["jobs", "status", "cli-job", "--url", url,
                         "--min-windows", "1", "--timeout", "10"]) == 0
            out = capsys.readouterr().out
            assert "cli-job" in out
            # daemon-side rejection (unknown job) is a non-zero exit with the
            # daemon's structured message, not a traceback
            code = main(["jobs", "status", "ghost", "--url", url])
            assert code == 1
            out = capsys.readouterr().out
            assert "unknown_job" in out and "Traceback" not in out
        finally:
            daemon.request_shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
