"""The benchmark's workloads: seeded inputs, the timed op, metrics and gates.

A workload is built from the benchmark seed alone.  Op ``i`` is a pure
function of the built inputs and ``i``, so any op can be re-run to check
determinism, and a traced run can replay exactly the ops an untraced run made.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from fractions import Fraction

import numpy as np

from sqss import em_analysis, harness, oracle
from sqss.adversary import AttackSpec, catalog_ids
from sqss.protocol_a import CHECKS_A
from sqss.protocol_b import CHECKS_B
from sqss.runtime import xor_keys

# Statistical gates hold the whole family of comparisons a run makes to the
# false-alarm rate of a single two-sided 4-sigma test (Bonferroni).
FAMILY_Z = 4.0
RATE_TOL = 1e-12

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("sweep_ms", "ms"),
    ("us_per_unit", "us"),
    ("peak_rss_mb", "MB"),
)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def family_z(comparisons: int) -> float:
    """Per-comparison z that keeps ``comparisons`` tests at one 4-sigma test's rate."""
    dist = statistics.NormalDist()
    alpha = 2.0 * dist.cdf(-FAMILY_Z)
    return dist.inv_cdf(1.0 - alpha / (2.0 * max(comparisons, 1)))


def rate_gate(observed: dict, expected: dict) -> list[str]:
    """Check observed (mismatches, compared) against expected rates.

    Both dicts are keyed by (config label, check id).  An expected rate of
    zero tolerates no mismatch at all; every other comparison must fall inside
    the Wilson interval at the family-wise z.
    """
    failures = []
    live = [key for key, (_, n) in observed.items() if n > 0]
    z = family_z(sum(1 for key in live if 0.0 < float(expected[key]) < 1.0))
    for key in live:
        k, n = observed[key]
        p = float(expected[key])
        low, high = harness.wilson_interval(k, n, z=z)
        if not low <= p <= high:
            failures.append(f"{key[0]} {key[1]}: {k}/{n} outside "
                            f"[{low:.4f}, {high:.4f}] around {p:.4f}")
    return failures


# ---------------------------------------------------------------------------
# Monte Carlo workloads


class MonteCarlo:
    """Op ``i`` is trial ``i // K`` of config ``i % K``, via ``harness.run_one``."""

    def __init__(self, labels, configs, expected):
        self.labels = labels
        self.configs = configs
        self.expected = expected  # label -> {check: rate}
        self.particles = [c.protocol_config.n + c.protocol_config.m
                          if c.protocol == "A" else 3 * c.protocol_config.n
                          for c in configs]

    def op(self, i):
        k = len(self.configs)
        return harness.run_one(self.configs[i % k], i // k)

    def warm_up(self):
        self.op(0)

    @staticmethod
    def digest(report) -> str:
        return report.transcript_digest

    def metrics(self, latencies) -> dict:
        """Trial latency quantiles are taken per config and averaged over the
        configs: the configs' latencies differ by up to 2x, and a quantile of
        the pooled mixture jumps between them."""
        k = len(self.configs)
        per_config = [latencies[j::k] for j in range(k)]
        sweeps = [sum(latencies[j:j + k]) for j in range(0, len(latencies) - k + 1, k)]
        sweep_s = statistics.median(sweeps)
        return {
            "op_ms_p50": 1e3 * statistics.fmean(_quantile(ts, 0.5) for ts in per_config),
            "op_ms_p90": 1e3 * statistics.fmean(_quantile(ts, 0.9) for ts in per_config),
            "sweep_ms": 1e3 * sweep_s,
            "us_per_unit": 1e6 * sweep_s / sum(self.particles),
        }, {"ops": len(latencies), "trials_per_config_min": min(map(len, per_config)),
            "sweeps": len(sweeps), "mean_us_per_particle": 1e6 * sum(latencies) / sum(
                self.particles[i % k] for i in range(len(latencies)))}

    def gates(self, reports) -> list[str]:
        k = len(self.configs)
        failures = []
        observed = {}
        for i, report in enumerate(reports):
            if report is None:
                continue
            label = self.labels[i % k]
            for c in report.checks:
                m, n = observed.get((label, c.check_id), (0, 0))
                observed[(label, c.check_id)] = (m + c.mismatches, n + c.compared)
            if label.endswith(".none"):
                failures += _honest_failures(label, i // k, report)
        expected = {(label, check): rate for label, rates in self.expected.items()
                    for check, rate in rates.items()}
        return failures + rate_gate(observed, expected)


def _honest_failures(label, trial, report) -> list[str]:
    bad = [c.check_id for c in report.checks if c.mismatches]
    keys = report.keys
    if bad or keys is None or keys.k_a != xor_keys(keys.k_b, keys.k_c) or not keys.k_a:
        return [f"{label} trial {trial}: honest run has mismatches {bad} "
                f"or no valid key ({report.abort_reason})"]
    return []


CATALOG_PARAMS = {"A": {"n": 50, "m": 100}, "B": {"n": 50}}


def build_mc_catalog(seed: int) -> MonteCarlo:
    """The honest run and every catalog attack of both protocols, round-robin.

    Shapes are those ``attack-bench`` uses, with default thresholds, so
    attacked runs abort as they do for users.
    """
    labels = ["a.none"] + catalog_ids("A") + ["b.none"] + catalog_ids("B")
    configs = [harness.config_from_dict({
        "protocol": label[0].upper(), "trials": 1, "seed": seed, "attack": label,
        "params": dict(CATALOG_PARAMS[label[0].upper()])}) for label in labels]
    expected = {label: oracle.detection_oracle(label[0].upper(), label) for label in labels}
    return MonteCarlo(labels, configs, expected)


PROBE_PAIRS = {"A": 3, "B": 2}
PROBE_PARAMS = {"A": {"n": 99, "m": 100, "thresholds": dict.fromkeys(CHECKS_A, 1.0)},
                "B": {"n": 80, "thresholds": dict.fromkeys(CHECKS_B, 1.0)}}


def build_mc_probe(seed: int) -> MonteCarlo:
    """Entangle-measure Monte Carlo over seeded random probe couplings.

    Thresholds of 1.0 keep every run going to the end, as in the acceptance
    test that compares the simulator with ``error_profile``.
    """
    rng = _rng(seed, 1)
    labels, configs, expected = [], [], {}
    for mode, count in PROBE_PAIRS.items():
        base = harness.config_from_dict({"protocol": mode, "trials": 1, "seed": seed,
                                         "params": PROBE_PARAMS[mode]})
        for j in range(count):
            pair = em_analysis.random_pair(mode, 2, rng)
            label = f"{mode.lower()}.em.{j}"
            labels.append(label)
            configs.append(dataclasses.replace(base, attack=AttackSpec(mode, "em", pair=pair)))
            expected[label] = em_analysis.error_profile(pair, mode).rates
    return MonteCarlo(labels, configs, expected)


# ---------------------------------------------------------------------------
# Analysis workload

# The fixed tradeoff curve, endpoints first so that even a short run gates them.
CURVE = (("A", 0.0), ("A", 0.25), ("B", 0.25), ("A", 0.05), ("A", 0.1),
         ("B", 0.0), ("B", 0.05), ("B", 0.1))
CURVE_BUDGET = {"probe_dim": 2, "restarts": 2, "iters": 1, "seed": 0}
QUADS = 16            # seeded pair sets evaluated round-robin
PAIR_EVALS = 25       # pair-set evaluations per cycle
ORACLE_SWEEPS = 8     # full-catalog oracle sweeps per cycle, one attack per op
P90_WINDOW = 4        # cycles per window: 100 pair-set evaluations


@dataclasses.dataclass(frozen=True)
class Evaluation:
    mode: str
    zero_error: bool
    rates: dict
    info: float
    verdict: em_analysis.TheoremVerdict


def evaluate_pair(pair, zero_error: bool) -> Evaluation:
    mode = pair.protocol
    profile = em_analysis.error_profile(pair, mode)
    info = em_analysis.probe_distinguishability(pair, mode)
    verdict = em_analysis.theorem_check(pair, mode)
    return Evaluation(mode, zero_error, profile.rates, info, verdict)


class Analysis:
    """No simulation: tradeoff points, pair evaluations and oracle sweeps.

    The ops repeat in cycles of about half a second: one point of the fixed
    tradeoff curve (``constrained_search``), then ``PAIR_EVALS`` evaluations
    of a seeded pair set (a random pair and a zero-error pair per mode), then
    ``ORACLE_SWEEPS`` sweeps of ``detection_oracle`` over the catalog, one
    attack per op.  Interleaving
    them finely lets every kind see the same machine conditions, and the
    per-kind medians ignore a slow spell that covers a minority of the run.
    """

    def __init__(self, quads):
        self.quads = quads
        self.catalog = catalog_ids()
        self.CYCLE = 1 + PAIR_EVALS + ORACLE_SWEEPS * len(self.catalog)

    def kind(self, i: int) -> str:
        pos = i % self.CYCLE
        return "curve" if pos == 0 else "pairs" if pos <= PAIR_EVALS else "oracle"

    def op(self, i):
        cycle, pos = divmod(i, self.CYCLE)
        kind = self.kind(i)
        if kind == "curve":
            mode, eps = CURVE[cycle % len(CURVE)]
            return em_analysis.constrained_search(mode, eps, **CURVE_BUDGET)
        if kind == "pairs":
            quad = self.quads[(cycle * PAIR_EVALS + pos - 1) % len(self.quads)]
            return tuple(evaluate_pair(pair, zero) for pair, zero in quad)
        aid = self.attack(i)
        return oracle.detection_oracle(aid[0].upper(), aid)

    def attack(self, i: int) -> str:
        return self.catalog[(i % self.CYCLE - 1 - PAIR_EVALS) % len(self.catalog)]

    def warm_up(self):
        evaluate_pair(*self.quads[0][0])
        oracle.detection_oracle("A", self.catalog[0])

    @staticmethod
    def digest(output) -> str:
        return hashlib.sha256(repr(output).encode()).hexdigest()

    def metrics(self, latencies) -> dict:
        """``us_per_unit`` is the time of one tradeoff point: each point's
        median, averaged over the points.  ``op_ms_p90`` is the median over
        windows of ``P90_WINDOW`` cycles of each window's 90th percentile.

        ``sweep_ms`` is the sum over the catalog of each attack's median
        ``detection_oracle`` call.  The fastest call is no better: it picks
        the spells in which the host runs the benchmark fastest, and a run
        that has none of them reads 40% slower."""
        by_kind = {"curve": [], "pairs": [], "oracle": []}
        by_point, by_attack = {}, {}
        for i, t in enumerate(latencies):
            kind = self.kind(i)
            by_kind[kind].append(t)
            if kind == "curve":
                by_point.setdefault(i // self.CYCLE % len(CURVE), []).append(t)
            elif kind == "oracle":
                by_attack.setdefault(self.attack(i), []).append(t)
        pairs = by_kind["pairs"]
        size = P90_WINDOW * PAIR_EVALS
        windows = [pairs[j:j + size] for j in range(0, len(pairs) - size + 1, size)] or [pairs]
        return {
            "op_ms_p50": 1e3 * _quantile(pairs, 0.5),
            "op_ms_p90": 1e3 * statistics.median(_quantile(w, 0.9) for w in windows),
            "sweep_ms": 1e3 * sum(map(statistics.median, by_attack.values())),
            "us_per_unit": 1e6 * statistics.fmean(map(statistics.median, by_point.values())),
        }, {**{kind: len(ts) for kind, ts in by_kind.items()},
            "p90_windows": len(windows), "curve_points_min": min(map(len, by_point.values()))}

    def gates(self, outputs) -> list[str]:
        failures = []
        first = {}
        for i, out in enumerate(outputs):
            if out is None:
                continue
            kind = self.kind(i)
            if kind == "pairs":
                for ev in out:
                    failures += _evaluation_failures(i, ev)
                continue
            key = i // self.CYCLE % len(CURVE) if kind == "curve" else self.attack(i)
            if key not in first:
                first[key] = out
                failures += (_point_failures(out) if kind == "curve"
                             else _oracle_failures(key, out))
            elif out != first[key]:
                failures.append(f"op {i}: {kind} differs from its first run")
        return failures


def _in_unit(x: float) -> bool:
    return -RATE_TOL <= x <= 1.0 + RATE_TOL


def _evaluation_failures(i, ev: Evaluation) -> list[str]:
    failures = []
    if not all(_in_unit(r) for r in ev.rates.values()) or not _in_unit(ev.info):
        failures.append(f"op {i} {ev.mode}: rate or distinguishability outside [0, 1]")
    if ev.zero_error:
        v = ev.verdict
        if max(ev.rates.values()) > 1e-12 or ev.info > 1e-9 or not (v.zero_error and v.holds):
            failures.append(f"op {i} {ev.mode}: zero-error pair has error "
                            f"{max(ev.rates.values()):.2e}, info {ev.info:.2e}")
    return failures


def _point_failures(p) -> list[str]:
    """Every point keeps its error budget; the curve's ends are pinned: no
    information at zero error for protocol A, all of it at a quarter."""
    failures = []
    if p.max_error > p.epsilon + em_analysis.FEASIBILITY_TOL:
        failures.append(f"{p.mode} eps={p.epsilon}: error {p.max_error} over budget")
    if (p.mode, p.epsilon) == ("A", 0.0) and p.info > 1e-6:
        failures.append(f"A eps=0: info {p.info:.2e}, expected 0")
    if p.epsilon == 0.25 and p.info < 0.99:
        failures.append(f"{p.mode} eps=0.25: info {p.info:.4f}, expected 1")
    return failures


# Exact detection rates the paper's headline rests on.
PINNED = {("a.mr.bob.1", "case4"): Fraction(1, 4), ("a.mr.bob.2", "case4"): Fraction(1, 4),
          ("a.mr.charlie.1", "case4"): Fraction(1, 4),
          ("a.mr.charlie.2", "case4"): Fraction(1, 4),
          ("b.mr.bob", "ctrl"): Fraction(1, 4), ("b.mr.charlie", "ctrl"): Fraction(1, 4)}


def _oracle_failures(aid, rates) -> list[str]:
    failures = [f"{aid} {check}: {p} outside [0, 1]" for check, p in rates.items()
                if not 0 <= p <= 1]
    failures += [f"{aid} {check}: {rates[check]}, expected {p}"
                 for (pinned, check), p in PINNED.items() if pinned == aid and rates[check] != p]
    return failures


def build_analysis(seed: int) -> Analysis:
    rng = _rng(seed, 2)
    quads = [tuple((pair, zero) for mode in ("A", "B")
                   for pair, zero in ((em_analysis.random_pair(mode, 2, rng), False),
                                      (em_analysis.random_zero_error_pair(mode, 2, rng),
                                       True)))
             for _ in range(QUADS)]
    return Analysis(quads)


WORKLOADS = {"mc-catalog": build_mc_catalog, "mc-probe": build_mc_probe,
            "analysis": build_analysis}
