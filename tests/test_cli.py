"""Tests for the command-line entry point and its exit codes."""

import json

import pytest

import sqss.cli as cli
from sqss.harness import ExperimentAborted


def _write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_run_prints_json_report(tmp_path, capsys):
    config = _write_config(tmp_path, {"protocol": "a", "trials": 2, "seed": 0,
                                      "params": {"n": 6, "m": 14}})
    assert cli.main(["run", "--config", config]) == cli.EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["trials"] == 2
    assert data["abort_fraction"] == 0.0


def test_run_writes_report_file(tmp_path):
    config = _write_config(tmp_path, {"protocol": "b", "trials": 2,
                                      "params": {"n": 8}})
    out = tmp_path / "report.json"
    code = cli.main(["run", "--config", config, "--output", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert {row["check_id"] for row in report["per_check"]} == {
        "ctrl", "test_b", "test_c"}


def test_bad_config_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, {"protocol": "a", "params": {"n": 6, "m": 14},
                                      "bogus": True})
    assert cli.main(["run", "--config", config]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("protocol, params", [
    ("a", {"n": 6, "m": 14, "announcement_order": "bob_first"}),
    ("b", {"n": 8, "publication_order": "simultaneous"}),
])
def test_removed_order_knobs_exit_2(tmp_path, capsys, protocol, params):
    config = _write_config(tmp_path, {"protocol": protocol, "params": params})
    assert cli.main(["run", "--config", config]) == cli.EXIT_CONFIG
    assert "unknown params keys" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == cli.EXIT_CONFIG


def test_csv_to_stdout_rejected(tmp_path):
    config = _write_config(tmp_path, {"protocol": "b", "params": {"n": 8}})
    assert cli.main(["run", "--config", config, "--format", "csv"]) == cli.EXIT_CONFIG


def test_fatal_simulator_error_exits_1(tmp_path, monkeypatch, capsys):
    config = _write_config(tmp_path, {"protocol": "a", "params": {"n": 6, "m": 14}})

    def boom(cfg):
        raise ExperimentAborted(0, (0, 0), RuntimeError("lost a particle"))

    monkeypatch.setattr(cli, "monte_carlo", boom)
    assert cli.main(["run", "--config", config]) == cli.EXIT_ABORTED
    assert "aborted" in capsys.readouterr().err


def test_oracle_subcommand_prints_exact_fractions(capsys):
    code = cli.main(["oracle", "--protocol", "a", "--attack", "a.mr.bob.1"])
    assert code == cli.EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["checks"]["case4"] == "1/4"
    assert data["checks"]["case1"] == "0/1"


def test_oracle_subcommand_rejects_mismatch(capsys):
    code = cli.main(["oracle", "--protocol", "a", "--attack", "b.mr.bob"])
    assert code == cli.EXIT_CONFIG


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.json"
    code = cli.main(["sweep", "--protocol", "a", "--attacks", "a.mr.bob.1",
                     "--sizes", "10", "--trials", "2", "--output", str(out)])
    assert code == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["protocol"] == "A"
    assert {row["check"] for row in data["rows"]} == {
        "case1", "case2", "case3", "case4"}


def test_tradeoff_subcommand(tmp_path):
    out = tmp_path / "tradeoff.json"
    code = cli.main(["tradeoff", "--mode", "a", "--epsilons", "0.25",
                     "--restarts", "2", "--iters", "3", "--output", str(out)])
    assert code == cli.EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["epsilon"] == 0.25
    assert rows[0]["info"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("probe_dim", ["0", "1"])
def test_tradeoff_rejects_a_probe_too_small_for_bit_copy(capsys, probe_dim):
    code = cli.main(["tradeoff", "--mode", "a", "--epsilons", "0.25", "--restarts", "2",
                     "--iters", "1", "--probe-dim", probe_dim])
    assert code == cli.EXIT_CONFIG
    assert "probe_dim must be at least 2" in capsys.readouterr().err
