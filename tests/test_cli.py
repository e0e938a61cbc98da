"""Tests for the command-line entry point and its exit codes."""

import json

import pytest

import sqss.cli as cli
from sqss.adversary import UnsupportedAttackError, catalog_ids, resolve_attack
from sqss.harness import PROTOCOLS, ExperimentAborted
from sqss.oracle import detection_oracle

from test_adversary import REJECTED_IDS


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


def test_csv_to_stdout_matches_the_output_file(tmp_path, capsys):
    config = _write_config(tmp_path, {"protocol": "b", "trials": 2, "params": {"n": 8}})
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--config", config, "--format", "csv"]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("check_id,")
    assert cli.main(["run", "--config", config, "--format", "csv",
                     "--output", str(out)]) == cli.EXIT_OK
    assert printed.encode() == out.read_bytes()


@pytest.mark.parametrize("attack", [["a.mr.bob.1"], 1, {"id": "a.mr.bob.1"}, True],
                         ids=["list", "number", "object", "true"])
def test_non_string_attack_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, attack):
    config = _write_config(tmp_path, {"protocol": "a", "attack": attack,
                                      "params": {"n": 6, "m": 14}})

    def never(cfg):
        raise AssertionError("the experiment ran before the config check")

    monkeypatch.setattr(cli, "monte_carlo", never)
    assert cli.main(["run", "--config", config]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: bad attack id" in captured.err and not captured.out
    with pytest.raises(UnsupportedAttackError):
        resolve_attack("A", attack)


def test_check_fraction_of_one_exits_2_before_any_trial(tmp_path, monkeypatch, capsys):
    """``check_fraction`` 1.0 discloses every case-2/3 particle, so every run
    would abort with no key; it is rejected before the first trial runs."""
    config = _write_config(tmp_path, {"protocol": "a", "trials": 20,
                                      "params": {"n": 6, "m": 14, "check_fraction": 1.0}})

    def never(cfg):
        raise AssertionError("the experiment ran before the config check")

    monkeypatch.setattr(cli, "monte_carlo", never)
    assert cli.main(["run", "--config", config]) == cli.EXIT_CONFIG
    assert "check_fraction must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ('{"protocol": "a", "trials": 2, "trials": 3, "params": {"n": 6, "m": 12}}', "trials"),
    ('{"protocol": "a", "params": {"n": 5, "n": 6, "m": 12}}', "n"),
])
def test_repeated_config_key_exits_2_before_any_trial(tmp_path, monkeypatch, capsys,
                                                       text, key):
    """JSON keeps the last of two equal keys; a config names each once."""
    path = tmp_path / "config.json"
    path.write_text(text)

    def never(cfg):
        raise AssertionError("the experiment ran before the config check")

    monkeypatch.setattr(cli, "monte_carlo", never)
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"config repeats the key {key!r}" in capsys.readouterr().err


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


@pytest.mark.parametrize("command, attack_id", [
    (command, attack_id) for attack_id in REJECTED_IDS for command in ("oracle", "sweep")
], ids=[f"{command}-{label}" for label in REJECTED_IDS.values()
        for command in ("oracle", "sweep")])
def test_non_canonical_attack_ids_exit_2(monkeypatch, capsys, command, attack_id):
    """Rejected before any trial runs."""
    def never(*args, **kwargs):
        raise AssertionError("the work ran before the attack check")

    monkeypatch.setattr(cli, "monte_carlo", never)
    option = "--attack" if command == "oracle" else "--attacks"
    argv = [command, "--protocol", attack_id[0], option, attack_id]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"no catalog attack {attack_id!r}" in captured.err and not captured.out


@pytest.mark.parametrize("command", [
    ["oracle", "--protocol", "a", "--attack", "b.none"],
    ["oracle", "--protocol", "b", "--attack", "a.none"],
    ["sweep", "--protocol", "a", "--attacks", "a.mr.bob.1,b.none", "--sizes", "8"],
    ["sweep", "--protocol", "b", "--attacks", "a.none", "--sizes", "8"],
], ids=["oracle-a", "oracle-b", "sweep-a", "sweep-b"])
def test_other_protocols_none_exits_2_before_any_work(monkeypatch, capsys, command):
    """``<q>.none`` is not the honest run of protocol p: it is rejected."""
    def never(*args, **kwargs):
        raise AssertionError("the work ran before the attack check")

    monkeypatch.setattr(cli, "monte_carlo", never)
    assert cli.main(command) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "does not apply to protocol" in captured.err and not captured.out


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.json"
    code = cli.main(["sweep", "--protocol", "a", "--attacks", "a.mr.bob.1",
                     "--sizes", "10", "--trials", "2", "--output", str(out)])
    assert code == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["protocol"] == "A"
    assert {row["check"] for row in data["rows"]} == {
        "case1", "case2", "case3", "case4"}


@pytest.mark.parametrize("protocol", ["A", "B"])
def test_attack_bench_subcommand(tmp_path, protocol):
    outs = [tmp_path / "bench1.json", tmp_path / "bench2.json"]
    for out in outs:
        code = cli.main(["attack-bench", "--protocol", protocol, "--size", "6",
                         "--trials", "3", "--output", str(out)])
        assert code == cli.EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()
    rows = json.loads(outs[0].read_text())["rows"]
    assert sorted((row["attack"], row["check"]) for row in rows) == sorted(
        (attack, check) for attack in catalog_ids(protocol)
        for check in PROTOCOLS[protocol].checks)
    for row in rows:
        exact = detection_oracle(protocol, row["attack"])[row["check"]]
        assert row["oracle"] == f"{exact.numerator}/{exact.denominator}"
        assert row["oracle_value"] == float(exact)
        if row["compared"] > 0:
            assert isinstance(row["within_ci"], bool)
        else:
            assert row["within_ci"] is None


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
    ["run", "--config", "config.json"],
    ["sweep", "--protocol", "a", "--sizes", "8", "--trials", "1"],
    ["attack-bench", "--protocol", "b", "--size", "8", "--trials", "1"],
], ids=["oracle", "tradeoff", "run", "sweep", "attack-bench"])
def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, command):
    """A missing output directory is rejected before any work starts."""
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, {"protocol": "b", "params": {"n": 8}})

    def never(*args, **kwargs):
        raise AssertionError("the work ran before the output check")

    for name in ("monte_carlo", "constrained_search", "detection_oracle"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "missing" / "x.json"
    assert cli.main(command + ["--output", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"cannot write output to {out}" in captured.err and not captured.out
    assert not out.exists()
    # An output path naming an existing directory is rejected the same way.
    assert cli.main(command + ["--output", str(tmp_path)]) == cli.EXIT_CONFIG
    assert f"cannot write output to {tmp_path}: it is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    (["sweep", "--protocol", "b", "--sizes", "40,1"], "config error"),
    (["sweep", "--protocol", "a", "--sizes", "40,1"], "config error"),
    (["sweep", "--protocol", "a", "--sizes", "40,2"], "config error"),
    (["sweep", "--protocol", "a", "--attacks", "a.mr.bob.1,a.bogus"], "config error"),
    (["tradeoff", "--mode", "a", "--epsilons", "0.1,0.9"], "config error"),
    (["attack-bench", "--size", "1"], "config error"),
    (["attack-bench", "--size", "2"], "config error"),
    (["sweep", "--protocol", "a", "--sizes", "40,x"],
     "config error: --sizes item 'x' is not an integer"),
    (["sweep", "--protocol", "a", "--sizes", ""],
     "config error: --sizes item '' is not an integer"),
    (["tradeoff", "--mode", "a", "--epsilons", "0.1,abc"],
     "config error: --epsilons item 'abc' is not a number"),
    (["run", "--config", "utf16.json"], "config error: cannot read config utf16.json: "),
], ids=["sweep-size", "sweep-a-size-1", "sweep-a-size-2", "sweep-attack", "tradeoff-epsilon",
        "attack-bench-size", "attack-bench-a-size-2", "sweep-size-not-int",
        "sweep-sizes-empty", "tradeoff-epsilon-not-number", "run-config-not-utf8"])
def test_bad_input_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command, message):
    """A bad value late in a list is rejected before the first item runs; a
    list item that does not parse is named with its option, and a config
    file that is not UTF-8 with its path."""
    def never(*args, **kwargs):
        raise AssertionError("the work ran before the input check")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
    for name in ("monte_carlo", "constrained_search", "detection_oracle"):
        monkeypatch.setattr(cli, name, never)
    assert cli.main(command) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize("probe_dim", ["0", "1"])
def test_tradeoff_rejects_a_probe_too_small_for_bit_copy(capsys, probe_dim):
    code = cli.main(["tradeoff", "--mode", "a", "--epsilons", "0.25", "--restarts", "2",
                     "--iters", "1", "--probe-dim", probe_dim])
    assert code == cli.EXIT_CONFIG
    assert "probe_dim must be an integer >= 2, got" in capsys.readouterr().err
