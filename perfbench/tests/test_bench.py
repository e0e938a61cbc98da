"""Self-tests of the benchmark: inputs, gates, tracer and output format.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import calibrate
import instrument
import workloads
from sqss import protocol_a, qstate
from tracer import Tracer, snapshot

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _input_digests(workload, seed):
    built = workloads.WORKLOADS[workload](seed)
    if isinstance(built, workloads.Analysis):
        return [np.concatenate([pair.first.ravel() for quad in built.quads
                                for pair, _ in quad]).tobytes()]
    return [built.digest(built.op(i)) for i in range(len(built.configs))]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(workload):
    assert _input_digests(workload, 5) == _input_digests(workload, 5)
    assert _input_digests(workload, 5) != _input_digests(workload, 6)


def _catalog_outputs(seed, sweeps=4):
    built = workloads.build_mc_catalog(seed)
    return built, [built.op(i) for i in range(sweeps * len(built.configs))]


def test_rate_gate_passes_and_catches_a_wrong_expectation():
    built, reports = _catalog_outputs(1)
    assert built.gates(reports) == []
    built.expected["a.mr.bob.1"] = dict(built.expected["a.mr.bob.1"], case4=Fraction(1, 2))
    failures = built.gates(reports)
    assert len(failures) == 1 and failures[0].startswith("a.mr.bob.1 case4")


def test_honest_gate_catches_a_mismatch():
    built, reports = _catalog_outputs(1, sweeps=1)
    honest = reports[0]
    bad = honest.checks[0].__class__(honest.checks[0].check_id, 10, 1, 0.1, True)
    reports[0] = honest.__class__(**{**honest.__dict__, "checks": (bad,) + honest.checks[1:]})
    assert any(f.startswith("a.none trial 0") for f in built.gates(reports))


def test_curve_gate_catches_missing_information():
    built = workloads.build_analysis(1)
    ends = [built.op(j * built.CYCLE) for j in range(3)]
    assert [(p.mode, p.epsilon) for p in ends] == [("A", 0.0), ("A", 0.25), ("B", 0.25)]
    assert [workloads._point_failures(p) for p in ends] == [[], [], []]
    for p in ends:
        wrong = p.__class__(**{**p.__dict__, "info": 0.5})
        assert len(workloads._point_failures(wrong)) == 1


def test_family_z_is_four_sigma_for_one_comparison():
    assert workloads.family_z(1) == pytest.approx(4.0)
    assert workloads.family_z(100) > workloads.family_z(10) > 4.0


def test_tracer_restores_every_binding_and_keeps_digests():
    built = workloads.build_mc_probe(3)
    untraced = [built.digest(built.op(i)) for i in range(6)]
    owners = instrument.restore_owners()
    before = snapshot(owners)
    with Tracer(instrument.ALIAS_OF) as tracer:
        instrument.install(tracer)
        assert protocol_a.measure_qubit is not qstate.measure_qubit
        traced = [built.digest(built.op(i)) for i in range(6)]
    assert snapshot(owners) == before
    assert protocol_a.measure_qubit is qstate.measure_qubit
    assert traced == untraced
    values = instrument.layer_metrics(tracer)
    assert values["qstate.measure_qubit.calls"] > 0
    assert values["protocol_a.alice_measure.calls"] > 0
    assert values["adversary.interceptor.alice_to_bob.particles"] > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    totals = tracer.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    outer_wall = tracer.end[0] - tracer.start[0]
    assert totals["outer"][1] == pytest.approx(outer_wall - totals["inner"][1])
    assert list(tracer.parent) == [-1, 0, 0]


def test_calibration_scales_each_op_by_the_kernel_runs_around_it():
    cal = calibrate.Calibration()
    cal.at = [0] * 60 + [10] * 80
    cal.took = [2 * calibrate.REFERENCE_S] * 60 + [calibrate.REFERENCE_S / 2] * 80
    factors = cal.factors(20)
    assert factors[0] == pytest.approx(0.5) and factors[-1] == pytest.approx(2.0)


def test_calibration_runs_the_kernel_between_ops():
    cal = calibrate.Calibration()
    for i in range(3):
        cal.maybe_run(i)
    assert cal.at == [0] and len(cal.took) == 1 and cal.took[0] > 0


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        instrument.PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run(ROOT, "--workload", "mc-catalog", "--seed", "2", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "mc-catalog", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
