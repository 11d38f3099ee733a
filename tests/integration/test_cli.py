"""Integration tests for the ios-bench command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.cli import main
from repro.hardware import list_devices


class TestCLI:
    def test_experiment_list_is_complete(self):
        expected = {
            "figure1", "figure2", "table1", "table2", "figure6", "figure7", "figure8",
            "figure9", "table3-batch", "table3-device", "figure10", "figure11", "figure12",
            "figure13", "figure14", "figure15", "figure16", "resnet-note",
            "ablation-cost-model", "ablation-blockwise", "ablation-passes",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_fast_experiment(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "nasnet_a" in out

    def test_run_with_csv_output(self, capsys, tmp_path):
        assert main(["figure13", "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "figure13.csv").exists()

    def test_device_flag(self, capsys):
        assert main(["figure2", "--device", "rtx2080ti"]) == 0
        assert "rtx2080ti" not in capsys.readouterr().err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])


class TestServeCLI:
    SERVE_ARGS = [
        "serve", "--model", "squeezenet", "--requests", "60", "--rate", "400",
        "--batch-sizes", "1,2,4",
    ]

    def test_serve_prints_a_report(self, capsys):
        assert main(self.SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "served 60 requests" in out
        assert "throughput" in out
        assert "registry" in out

    def test_serve_persists_schedules_across_invocations(self, capsys, tmp_path):
        args = self.SERVE_ARGS + ["--registry-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 disk hits" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "registry  : 0 searches" in second

    def test_serve_compare_writes_csv(self, capsys, tmp_path):
        assert main([
            "serve", "--compare", "--model", "squeezenet", "--requests", "40",
            "--batch-sizes", "1,2,4", "--csv-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "dynamic" in out and "unbatched" in out
        assert (tmp_path / "serving_comparison.csv").exists()

    def test_serve_no_batching_flag(self, capsys):
        assert main(self.SERVE_ARGS + ["--no-batching"]) == 0
        out = capsys.readouterr().out
        # Every request executes alone: as many batches as requests.
        assert "in 60 batches" in out

    def test_serve_rejects_unknown_pattern(self):
        with pytest.raises(SystemExit):
            main(["serve", "--pattern", "lumpy"])

    def test_serve_caps_traffic_to_a_small_ladder(self, capsys):
        # The default sample mix includes 4-sample requests; a ladder topping
        # out at 2 must cap the mix instead of crashing after warmup.
        assert main([
            "serve", "--model", "squeezenet", "--requests", "30",
            "--batch-sizes", "1,2",
        ]) == 0
        captured = capsys.readouterr()
        assert "served 30 requests" in captured.out
        assert "capped to the ladder maximum 2" in captured.err

    @pytest.mark.parametrize("bad", [
        ["--requests", "0"],
        ["--num-workers", "0"],
        ["--rate", "0"],
        ["--burst-size", "0"],
        ["--burst-gap-ms", "0"],
        ["--max-wait-ms", "-1"],
        ["--batch-sizes", "1,2,2"],
        ["--compare", "--no-batching"],
    ])
    def test_serve_rejects_bad_arguments_cleanly(self, bad):
        with pytest.raises(SystemExit):
            main(["serve"] + bad)

    @pytest.mark.parametrize("bad,field", [
        (["--rate", "0"], "rate_rps must be a finite number > 0"),
        (["--burst-size", "0"], "burst_size must be an int >= 1"),
        (["--burst-gap-ms", "0"], "burst_gap_ms must be a finite number > 0"),
        (["--slo", "-1"], "slo_ms must be a finite number >= 0"),
        (["--slo", "-1", "--compare"], "slo_ms must be a finite number >= 0"),
        (["--rate", "-5", "--compare"], "rate_rps must be a finite number > 0"),
    ])
    def test_serve_traffic_errors_name_the_config_field(self, bad, field, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve"] + bad)
        assert exit_info.value.code == 2
        assert f"bad traffic configuration: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad,message", [
        (["--requests", "0"], "bad traffic configuration: num_requests must be an int >= 1"),
        (["--num-workers", "0"], "worker count for device 'v100' must be an int >= 1"),
        (["--num-workers", "-2"], "worker count for device 'v100' must be an int >= 1"),
        (["--cluster", "-1"], "bad cluster configuration: num_hosts must be an int >= 1"),
        (["--cluster", "2", "--host-memory", "-4"],
         "bad cluster configuration: host memory_gb must be a finite number > 0"),
        (["--cluster", "2", "--host-memory", "nan"], "host memory_gb must be a finite number"),
        (["--cluster", "3", "--host-memory", "1,2"], "host_memory_gb has 2 entries for 3 hosts"),
        (["--autoscale", "2:4", "--num-workers", "1"], "must lie within the autoscale bounds"),
        (["--max-wait-ms", "-1"], "max_wait_ms must be a finite number >= 0"),
        (["--max-wait-ms", "nan", "--no-batching"], "max_wait_ms must be a finite number >= 0"),
        (["--window-ms", "0"], "window_ms must be a finite number > 0"),
        (["--compile-jobs", "-1"], "compile jobs must be an int >= 0, got -1"),
    ])
    def test_serve_knob_errors_name_the_config_field(self, bad, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--model", "squeezenet"] + bad)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_serve_unknown_device_lists_the_presets(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--model", "squeezenet", "--device", "bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "bad serving configuration: unknown device 'bogus'" in err
        assert all(name in err for name in list_devices())

    def test_serve_passes_flag_round_trips_warm(self, capsys, tmp_path):
        # A warm serve run on a pass-optimised graph must still perform zero
        # scheduler searches: the fingerprinted registry entries are reused.
        args = self.SERVE_ARGS + ["--passes", "--registry-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "served 60 requests" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "registry  : 0 searches" in second

    def test_serve_passes_shares_entries_when_rewrites_are_noops(self, capsys, tmp_path):
        # squeezenet is already fully fused, so the pipeline is a no-op and
        # the fingerprint matches the raw graph: flipping --passes may safely
        # reuse the persisted schedules.  (Graphs that *do* rewrite get a new
        # fingerprint and recompile — covered by the registry unit tests.)
        assert main(self.SERVE_ARGS + ["--registry-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(self.SERVE_ARGS + ["--passes", "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "registry  : 0 searches" in out

    def test_serve_fleet_reports_per_device_groups(self, capsys):
        assert main([
            "serve", "--model", "squeezenet", "--requests", "60", "--rate", "2500",
            "--batch-sizes", "1,2,4", "--fleet", "k80:1,v100:1",
        ]) == 0
        out = capsys.readouterr().out
        assert "router    : earliest-finish" in out
        assert "group k80×1:" in out and "group v100×1:" in out

    def test_serve_fleet_compare_prints_homogeneous_baselines(self, capsys, tmp_path):
        assert main([
            "serve", "--compare", "--model", "squeezenet", "--requests", "60",
            "--rate", "3000", "--batch-sizes", "1,2,4",
            "--fleet", "k80:1,v100:1", "--pattern", "poisson",
            "--csv-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        # The mixed fleet plus one equally-sized homogeneous fleet per type.
        assert "k80:1,v100:1" in out and "k80:2" in out and "v100:2" in out
        assert "k80:1@" in out  # per-device-group utilisation cell
        assert (tmp_path / "fleet_comparison.csv").exists()

    def test_serve_fleet_router_flag(self, capsys):
        assert main([
            "serve", "--model", "squeezenet", "--requests", "40", "--rate", "2000",
            "--batch-sizes", "1,2", "--fleet", "v100:2", "--router", "round-robin",
        ]) == 0
        assert "router    : round-robin" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,canonical,drifted,extra", [
        ("--router", "round-robin", "Round_Robin", ["--fleet", "v100:2"]),
        ("--admission", "deadline", " DEADLINE ", ["--slo", "20"]),
        ("--cluster-router", "least-loaded-host", "Least_Loaded_Host", ["--cluster", "2"]),
    ])
    def test_serve_name_flags_accept_every_api_spelling(self, flag, canonical, drifted,
                                                        extra, capsys):
        args = [
            "serve", "--model", "squeezenet", "--requests", "40", "--rate", "2000",
            "--batch-sizes", "1,2", *extra,
        ]
        assert main(args + [flag, canonical]) == 0
        expected = capsys.readouterr().out
        assert main(args + [flag, drifted]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("bad", [
        ["--fleet", "k80:1", "--device", "v100"],
        ["--fleet", "k80:1", "--num-workers", "2"],
        ["--fleet", "tpu:4"],
        ["--fleet", "k80:0"],
        ["--fleet", "k80:"],
        ["--router", "fastest"],
    ])
    def test_serve_fleet_rejects_bad_arguments(self, bad):
        with pytest.raises(SystemExit):
            main(["serve"] + bad)

    def test_serve_compare_forwards_pattern(self, capsys):
        assert main([
            "serve", "--compare", "--model", "squeezenet", "--requests", "40",
            "--batch-sizes", "1,2,4", "--pattern", "uniform",
        ]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.startswith(("poisson", "bursty", "uniform"))]
        assert rows and all(row.startswith("uniform") for row in rows)


class TestServeSloCLI:
    SLO_ARGS = [
        "serve", "--model", "squeezenet", "--device", "k80", "--num-workers", "1",
        "--pattern", "bursty", "--burst-size", "64", "--burst-gap-ms", "30",
        "--requests", "160", "--batch-sizes", "1,2,4,8", "--max-wait-ms", "2",
        "--slo", "20",
    ]

    def test_serve_slo_run_prints_the_slo_section(self, capsys):
        args = self.SLO_ARGS + ["--admission", "deadline", "--autoscale", "1:3"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "admission : deadline" in out
        assert "slo       :" in out
        assert "attainment" in out
        assert "autoscale :" in out

    def test_serve_slo_compare_prints_the_admission_table(self, capsys, tmp_path):
        args = self.SLO_ARGS + ["--compare", "--csv-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "admit-all" in out
        assert "deadline" in out
        assert (tmp_path / "slo_comparison.csv").exists()

    def test_serve_old_invocations_have_no_slo_noise(self, capsys):
        assert main(["serve", "--model", "squeezenet", "--requests", "40",
                     "--batch-sizes", "1,2,4"]) == 0
        out = capsys.readouterr().out
        assert "slo       :" not in out
        assert "admission :" not in out
        assert "autoscale :" not in out

    @pytest.mark.parametrize("bad", [
        ["--slo", "-1"],
        ["--autoscale", "3"],
        ["--autoscale", "4:1"],
        ["--autoscale", "2:4", "--num-workers", "1"],
        ["--admission", "nope"],
        ["--slo", "20", "--compare", "--fleet", "k80:1,v100:1"],
    ])
    def test_serve_slo_rejects_bad_arguments_cleanly(self, bad):
        with pytest.raises(SystemExit):
            main(["serve"] + bad)


class TestTraceCLI:
    TRACED_ARGS = [
        "serve", "--model", "squeezenet", "--requests", "40", "--rate", "400",
        "--batch-sizes", "1,2,4",
    ]

    def test_serve_trace_writes_a_valid_perfetto_json(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert main(self.TRACED_ARGS + ["--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert "served 40 requests" in captured.out
        assert str(trace_path) in captured.err
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []

    def test_serve_metrics_dump_without_tracing(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        assert main(self.TRACED_ARGS + ["--metrics", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert "serve.executions" in snapshot
        assert "serve.latency_ms" in snapshot

    def test_trace_subcommand_validates_and_summarises(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(self.TRACED_ARGS + ["--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "tracks:" in out
        assert "serving/requests" in out

    def test_trace_subcommand_rejects_invalid_documents(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"traceEvents": [{"name": "x", "ph": "Z"}]}')
        assert main(["trace", str(bogus)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_compare_ignores_trace_flags_with_a_note(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(self.TRACED_ARGS
                    + ["--compare", "--pattern", "poisson",
                       "--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert "ignoring them" in captured.err
        assert not trace_path.exists()
