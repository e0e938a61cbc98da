"""sqss benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload mc-catalog --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate traced run gives the
per-layer metrics.  End-to-end timings are CPU times scaled to a reference
machine speed (see ``calibrate.py``).  Output gates run outside the timed
region; any failure makes ``correct`` false and the exit code 1.  The full
result, with its provenance, is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# The state matrices are 4x4: pin BLAS and OpenMP pools to one thread before
# NumPy loads, in this process and in every child it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
PROBE_KERNELS = 10    # kernel runs a set-up probe makes before and after set-up
CHILD_TIMEOUT_S = 60
DETERMINISM_SAMPLE = 4


def _import_package():
    """Import sqss from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sqss" / "__init__.py").is_file():
        raise SystemExit(f"error: no sqss package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import sqss
    if Path(sqss.__file__).resolve().parent != SRC / "sqss":
        raise SystemExit(f"error: sqss was imported from {sqss.__file__}, not {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup(workload: str, seed: int):
    """Build the workload's inputs and run one warm-up op."""
    import workloads
    built = workloads.WORKLOADS[workload](seed)
    built.warm_up()
    return built


def measure_setup(workload: str, seed: int) -> list[float]:
    """CPU time a fresh process spends from its start to the end of its set-up,
    scaled by the kernel runs it makes just before and after set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(), text=True)
        try:
            line = proc.stdout.readline()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        word, *took = line.split()
        if word != "ready" or len(took) != 2 or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(float(took[0]) * calibrate.REFERENCE_S / float(took[1]))
    return times


def import_times() -> dict[str, float]:
    """Cumulative import time of sqss and scipy.linalg, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sqss"],
                          capture_output=True, text=True, cwd=ROOT, env=_child_env(),
                          timeout=CHILD_TIMEOUT_S, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {"import.sqss_s": cumulative["sqss"],
            "import.scipy_linalg_s": cumulative["scipy.linalg"]}


def run_ops(built, seconds=None, n_ops=None, tracer=None, calibration=None):
    """Run ops 0, 1, ... for ``seconds`` of wall time or exactly ``n_ops`` of
    them.  Each op is timed in the thread's CPU time; the run as a whole in
    wall time.  A ``calibration`` gets its kernel runs between the ops."""
    latencies, outputs, raised = [], [], 0
    perf, clock = time.perf_counter, calibrate.CLOCK
    t_start = perf()
    deadline = t_start + seconds if seconds is not None else None
    i = 0
    while (i < n_ops) if n_ops is not None else (perf() < deadline):
        if tracer is not None:
            tracer.trial = i
        if calibration is not None:
            calibration.maybe_run(i)
        t0 = clock()
        try:
            out = built.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
            raised += 1
        latencies.append(clock() - t0)
        outputs.append(out)
        i += 1
    return latencies, outputs, raised, perf() - t_start


def determinism_failures(built, outputs, seed: int) -> list[str]:
    """Re-run a seeded sample of ops and require identical digests."""
    import numpy as np
    done = [i for i, out in enumerate(outputs) if out is not None]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    sample = rng.choice(done, size=min(DETERMINISM_SAMPLE, len(done)), replace=False)
    return [f"op {i}: re-run digest differs" for i in sorted(int(i) for i in sample)
            if built.digest(built.op(i)) != built.digest(outputs[i])]


def provenance(args) -> dict:
    import numpy
    import scipy
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def _metrics(values: dict, declared) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in declared}


def end_to_end(built, args):
    """Set-up probes, then the timed ops with tracing off.  Every timing is
    scaled to the reference speed by calibration kernel runs."""
    import workloads
    setup_times = measure_setup(args.workload, args.seed)
    calibration = calibrate.Calibration()
    latencies, outputs, raised, _ = run_ops(built, seconds=args.seconds,
                                            calibration=calibration)
    scaled = [float(t) for t in latencies * calibration.factors(len(latencies))]
    values, info = built.metrics(scaled)
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info["unscaled"] = built.metrics(latencies)[0]
    info["setup_s_samples"] = setup_times
    info["kernel_runs"] = len(calibration.took)
    info["kernel_ms_quartiles"] = [1e3 * q for q in statistics.quantiles(calibration.took, n=4)]
    return _metrics(values, workloads.END_TO_END), outputs, raised, [], info


def per_layer(built, args):
    """Untraced ops for half the time, then the same ops again, traced."""
    import instrument
    import workloads
    from tracer import Tracer, snapshot
    _, outputs, raised, wall = run_ops(built, seconds=args.seconds / 2)
    owners = instrument.restore_owners()
    before = snapshot(owners)
    with Tracer(instrument.ALIAS_OF) as tracer:
        instrument.install(tracer)
        traced_built = workloads.WORKLOADS[args.workload](args.seed)
        _, traced_outputs, traced_raised, traced_wall = run_ops(
            traced_built, n_ops=len(outputs), tracer=tracer)
    failures = [] if snapshot(owners) == before else ["tracer left a patched binding behind"]
    failures += [f"op {i}: traced digest differs from untraced"
                 for i, (a, b) in enumerate(zip(outputs, traced_outputs))
                 if a is not None and b is not None and built.digest(a) != built.digest(b)]
    values = instrument.layer_metrics(tracer)
    values.update(import_times())
    values["trace.overhead_frac"] = traced_wall / wall - 1.0
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    info = {"ops": len(outputs), "spans": tracer.span_count, "untraced_wall_s": wall,
            "traced_wall_s": traced_wall, "spans_file": str(spans_path.relative_to(ROOT))}
    return (_metrics(values, instrument.PER_LAYER), outputs, raised + traced_raised,
            failures, info)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-catalog", "mc-probe", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    if args.setup_probe:
        t0 = time.process_time()
        kernels = calibrate.kernel_times(PROBE_KERNELS)
        kernels_cpu = time.process_time() - t0
    _import_package()
    built = setup(args.workload, args.seed)
    if args.setup_probe:
        took = time.process_time() - kernels_cpu
        kernels += calibrate.kernel_times(PROBE_KERNELS)
        print(f"ready {took!r} {statistics.median(kernels)!r}", flush=True)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    metrics, outputs, raised, failures, info = measure(built, args)
    failures += built.gates(outputs)
    failures += determinism_failures(built, outputs, args.seed)
    for line in failures[:20]:
        print(f"gate failed: {line}", file=sys.stderr)
    failed = raised + len(failures)
    result = {"correct": failed == 0, "attempted": len(outputs), "failed": failed,
              "metrics": metrics}
    info["failed_frac"] = failed / max(len(outputs), 1)
    record = dict(result, provenance=provenance(args), info=info, gate_failures=failures)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"provenance": record["provenance"], "info": info}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
