"""CLI topology-flag validation for ``ios-bench serve --cluster``."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import serve_main


def error_of(capsys, argv) -> str:
    with pytest.raises(SystemExit) as excinfo:
        serve_main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


class TestTopologyFlagConflicts:
    """--device/--num-workers are rejected by every pool-owning flag alike."""

    def test_fleet_rejects_device(self, capsys):
        err = error_of(capsys, ["--fleet", "k80:2", "--device", "k80"])
        assert "--fleet declares the whole pool" in err

    def test_fleet_rejects_num_workers(self, capsys):
        err = error_of(capsys, ["--fleet", "k80:2", "--num-workers", "3"])
        assert "--fleet declares the whole pool" in err

    def test_cluster_rejects_device(self, capsys):
        err = error_of(capsys, ["--cluster", "2", "--device", "k80"])
        assert "--cluster declares one pool per host" in err

    def test_cluster_rejects_num_workers(self, capsys):
        err = error_of(capsys, ["--cluster", "2", "--num-workers", "3"])
        assert "--cluster declares one pool per host" in err

    def test_cluster_composes_with_fleet(self, capsys):
        # --fleet declares each host's pool; the combination is the sanctioned
        # spelling, not a conflict.
        rc = serve_main([
            "--model", "squeezenet", "--cluster", "2", "--fleet", "k80:1",
            "--requests", "8", "--batch-sizes", "1,2", "--rate", "100",
        ])
        assert rc == 0
        assert "cluster   : 2 hosts" in capsys.readouterr().out


class TestClusterFlagValidation:
    def test_cluster_must_be_positive(self, capsys):
        err = error_of(capsys, ["--cluster", "0"])
        assert "bad cluster configuration: num_hosts must be an int >= 1, got 0" in err

    def test_partition_requires_a_real_cluster(self, capsys):
        err = error_of(capsys, ["--partition"])
        assert "--partition" in err
        err = error_of(capsys, ["--partition", "--cluster", "1"])
        assert "--partition" in err

    def test_link_and_host_memory_require_cluster(self, capsys):
        err = error_of(capsys, ["--link", "bw=5"])
        assert "add --cluster" in err
        err = error_of(capsys, ["--host-memory", "4"])
        assert "add --cluster" in err

    def test_cluster_conflicts_with_compare(self, capsys):
        err = error_of(capsys, ["--cluster", "2", "--compare"])
        assert "drop --compare" in err

    def test_bad_link_spec_is_reported(self, capsys):
        err = error_of(capsys, ["--cluster", "2", "--link", "speed=9"])
        assert "bad cluster configuration: malformed link entry 'speed=9'" in err

    def test_host_memory_count_must_match_hosts(self, capsys):
        err = error_of(capsys, ["--cluster", "3", "--host-memory", "1,2"])
        assert "host_memory_gb has 2 entries for 3 hosts" in err

    def test_bad_fleet_spec_quotes_the_spec(self, capsys):
        err = error_of(capsys, ["--fleet", "k80:2,v100:x"])
        assert "k80:2,v100:x" in err
        err = error_of(capsys, ["--fleet", "k80:1,k80:2"])
        assert "duplicate device group" in err


class TestClusterRuns:
    def test_cluster_run_reports_per_host_rows(self, capsys, tmp_path):
        metrics_file = tmp_path / "metrics.json"
        rc = serve_main([
            "--model", "squeezenet", "--cluster", "2", "--fleet", "k80:1",
            "--requests", "12", "--batch-sizes", "1,2", "--rate", "150",
            "--slo", "200", "--metrics", str(metrics_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "host0" in out and "host1" in out
        assert metrics_file.exists()

    def test_partitioned_cluster_trace_has_host_tracks(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        rc = serve_main([
            "--model", "squeezenet", "--cluster", "2", "--partition",
            "--fleet", "k80:1", "--requests", "12", "--batch-sizes", "1,2",
            "--rate", "150", "--trace", str(trace_file),
        ])
        assert rc == 0
        assert "partition of 'squeezenet'" in capsys.readouterr().out
        data = json.loads(trace_file.read_text())
        processes = {
            event["args"]["name"]
            for event in data["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert any(name.startswith("host0") for name in processes)
        assert any(name.startswith("host1") for name in processes)
        assert any("link" in name for name in processes)
