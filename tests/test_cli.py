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


def test_csv_to_stdout_rejected(tmp_path, monkeypatch, capsys):
    """Rejected before the first trial, not after the whole experiment."""
    config = _write_config(tmp_path, {"protocol": "b", "params": {"n": 8}})

    def never(cfg):
        raise AssertionError("the experiment ran before the output check")

    monkeypatch.setattr(cli, "monte_carlo", never)
    assert cli.main(["run", "--config", config, "--format", "csv"]) == cli.EXIT_CONFIG
    assert "csv output requires --output" in capsys.readouterr().err


def test_output_config_key_exits_2(tmp_path, monkeypatch, capsys):
    """A config-file ``output`` key was once accepted and ignored; the report
    goes where --output says, so the key is now unknown."""
    monkeypatch.chdir(tmp_path)
    config = _write_config(tmp_path, {"protocol": "a", "params": {"n": 6, "m": 14},
                                      "output": "r.json"})
    assert cli.main(["run", "--config", config]) == cli.EXIT_CONFIG
    assert "unknown config keys: ['output']" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


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


@pytest.mark.parametrize("command", [
    ["oracle", "--protocol", "a", "--attack", "a.none.bob"],
    ["oracle", "--protocol", "a", "--attack", "a.mr.eve.01"],
    ["sweep", "--protocol", "b", "--attacks", "b.none.x.3", "--sizes", "8",
     "--trials", "1"],
], ids=["oracle-none-with-actor", "oracle-padded-leg", "sweep-none-with-variant"])
def test_non_canonical_attack_ids_exit_2(capsys, command):
    assert cli.main(command) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "not canonical" in captured.err and not captured.out


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


@pytest.mark.parametrize("command", [
    ["oracle", "--protocol", "a", "--attack", "a.mr.bob.1"],
    ["tradeoff", "--mode", "a", "--epsilons", "0.25", "--restarts", "1",
     "--iters", "1"],
], ids=["oracle", "tradeoff"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.json"
    assert cli.main(command + ["--output", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"cannot write output to {out}" in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("probe_dim", ["0", "1"])
def test_tradeoff_rejects_a_probe_too_small_for_bit_copy(capsys, probe_dim):
    code = cli.main(["tradeoff", "--mode", "a", "--epsilons", "0.25", "--restarts", "2",
                     "--iters", "1", "--probe-dim", probe_dim])
    assert code == cli.EXIT_CONFIG
    assert "probe_dim must be at least 2" in capsys.readouterr().err
