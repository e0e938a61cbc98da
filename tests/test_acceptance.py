"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a single
pass/fail line so the whole gate can be read off the pytest -s output.  The
statistical tests use 4-sigma Wilson intervals, so spurious failures are
astronomically unlikely at the sample sizes used.
"""

import time
from fractions import Fraction

import numpy as np

from sqss.adversary import AttackSpec
from sqss.em_analysis import (
    constrained_search,
    error_profile,
    probe_distinguishability,
    random_pair,
    random_zero_error_pair,
    theorem_check,
)
from sqss.harness import monte_carlo, config_from_dict, wilson_interval
from sqss.oracle import detection_oracle
from sqss.protocol_a import ProtocolAConfig, run_protocol_a
from sqss.protocol_a import default_thresholds as thresholds_a
from sqss.protocol_b import ProtocolBConfig, run_protocol_b
from sqss.protocol_b import default_thresholds as thresholds_b
from sqss.qstate import Basis, PrepState
from sqss.runtime import xor_keys

from reference_oracle import chained_measurement_distribution

Z4 = 4.0  # all statistical acceptance checks run at four sigma


def _report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    return ok


def _within(mismatches: int, compared: int, expected: float) -> bool:
    low, high = wilson_interval(mismatches, compared, z=Z4)
    return low <= expected <= high


def test_honest_run_exactness():
    """Both protocols, 100 seeds each: zero mismatches everywhere and the
    dealer's key is the XOR of the two shares; all in under ten seconds."""
    start = time.time()
    ok = True
    config_a = ProtocolAConfig(n=100, m=200)
    for seed in range(100):
        report = run_protocol_a(config_a, None, seed)
        ok &= not report.aborted
        ok &= all(c.mismatches == 0 for c in report.checks)
        ok &= report.keys.k_a == xor_keys(report.keys.k_b, report.keys.k_c)
    config_b = ProtocolBConfig(n=200)
    for seed in range(100):
        report = run_protocol_b(config_b, None, seed)
        ok &= not report.aborted
        ok &= all(c.mismatches == 0 for c in report.checks)
        ok &= report.keys.k_a == xor_keys(report.keys.k_b, report.keys.k_c)
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    assert _report("honest-run exactness", ok, f"{elapsed:.1f}s for 200 runs")


def test_measure_resend_quarter_detection():
    """Every measure-resend insider attack on the measure/reflect protocol is
    caught on reflected-both particles exactly 25% of the time."""
    ok = True
    details = []
    for attack_id in ("a.mr.bob.1", "a.mr.bob.2", "a.mr.charlie.1", "a.mr.charlie.2"):
        oracle = detection_oracle("A", attack_id)
        ok &= oracle["case4"] == Fraction(1, 4)
        config = config_from_dict({
            "protocol": "A", "trials": 80, "seed": 11, "attack": attack_id,
            "params": {"n": 100, "m": 200, "thresholds": thresholds_a(1.0)}})
        stats, _ = monte_carlo(config)
        s = stats.check("case4")
        ok &= s.compared >= 10_000
        ok &= _within(s.mismatches, s.compared, 0.25)
        details.append(f"{attack_id}: {s.mismatches}/{s.compared}")
    assert _report("measure-resend 25% detection", ok, "; ".join(details))


def test_insert_protocol_ctrl_quarter_and_sift_immunity():
    """Measure-resend on the insert-and-reorder protocol: 25% on the control
    particles, exactly zero on both revealed-bit test checks."""
    ok = True
    details = []
    for attack_id in ("b.mr.bob", "b.mr.charlie"):
        oracle = detection_oracle("B", attack_id)
        ok &= oracle["ctrl"] == Fraction(1, 4)
        ok &= oracle["test_b"] == Fraction(0)
        ok &= oracle["test_c"] == Fraction(0)
        config = config_from_dict({
            "protocol": "B", "trials": 60, "seed": 13, "attack": attack_id,
            "params": {"n": 200, "thresholds": thresholds_b(1.0)}})
        stats, _ = monte_carlo(config)
        s = stats.check("ctrl")
        ok &= s.compared >= 10_000
        ok &= _within(s.mismatches, s.compared, 0.25)
        ok &= stats.check("test_b").mismatches == 0
        ok &= stats.check("test_c").mismatches == 0
        details.append(f"{attack_id}: ctrl {s.mismatches}/{s.compared}")
    assert _report("ctrl 25% with test immunity", ok, "; ".join(details))


def test_x_collapse_half():
    """A Z-measured particle re-measured in the conjugate basis gives either
    outcome with probability exactly one half."""
    ok = True
    for s in PrepState:
        dist = chained_measurement_distribution(s, [Basis.Z, Basis.X])
        ok &= dist == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert _report("conjugate-basis collapse is exactly 1/2", ok)


# Exact detection probabilities for every intercept-resend catalog entry,
# derived independently by branch enumeration and pinned here so a regression
# in either the oracle or the simulator trips this gate.
INTERCEPT_RESEND_ORACLE = {
    "a.ir.bob": {"case1": Fraction(0), "case2": Fraction(0),
                 "case3": Fraction(1, 2), "case4": Fraction(1, 2)},
    "a.ir.charlie.1": {"case1": Fraction(0), "case2": Fraction(0),
                       "case3": Fraction(0), "case4": Fraction(1, 2)},
    "a.ir.charlie.2": {"case1": Fraction(1, 2), "case2": Fraction(1, 2),
                       "case3": Fraction(0), "case4": Fraction(0)},
    "a.ir.eve.1": {"case1": Fraction(0), "case2": Fraction(0),
                   "case3": Fraction(0), "case4": Fraction(1, 2)},
    "a.ir.eve.2": {"case1": Fraction(1, 2), "case2": Fraction(1, 2),
                   "case3": Fraction(0), "case4": Fraction(1, 2)},
    "a.ir.eve.3": {"case1": Fraction(1, 2), "case2": Fraction(1, 2),
                   "case3": Fraction(1, 2), "case4": Fraction(1, 2)},
    "b.ir.bob": {"ctrl": Fraction(1, 2), "test_b": Fraction(0),
                 "test_c": Fraction(1, 2)},
    "b.ir.charlie": {"ctrl": Fraction(1, 2), "test_b": Fraction(1, 2),
                     "test_c": Fraction(0)},
    "b.ir.eve.1": {"ctrl": Fraction(1, 2), "test_b": Fraction(0),
                   "test_c": Fraction(0)},
    "b.ir.eve.2": {"ctrl": Fraction(1, 2), "test_b": Fraction(1, 2),
                   "test_c": Fraction(0)},
    "b.ir.eve.3": {"ctrl": Fraction(1, 2), "test_b": Fraction(1, 2),
                   "test_c": Fraction(1, 2)},
}


def test_intercept_resend_detectability():
    """Every intercept-resend entry disturbs at least one check with the
    pinned exact probability, Monte Carlo agrees within four sigma, and at
    production batch sizes the default thresholds abort essentially always."""
    ok = True
    details = []
    for attack_id, expected in INTERCEPT_RESEND_ORACLE.items():
        protocol = attack_id[0].upper()
        oracle = detection_oracle(protocol, attack_id)
        ok &= oracle == expected
        ok &= max(oracle.values()) > 0
        # statistics at permissive thresholds so no run aborts early
        params = ({"n": 100, "m": 200, "thresholds": thresholds_a(1.0)}
                  if protocol == "A" else
                  {"n": 200, "thresholds": thresholds_b(1.0)})
        config = config_from_dict({"protocol": protocol, "trials": 40,
                                   "seed": 17, "attack": attack_id,
                                   "params": params})
        stats, _ = monte_carlo(config)
        for check, exact in expected.items():
            s = stats.check(check)
            if float(exact) == 0.0:
                ok &= s.mismatches == 0
            else:
                ok &= _within(s.mismatches, s.compared, float(exact))
        # detection at default thresholds and production sizes
        strict_params = ({"n": 100, "m": 200} if protocol == "A" else {"n": 200})
        strict = config_from_dict({"protocol": protocol, "trials": 100,
                                   "seed": 19, "attack": attack_id,
                                   "params": strict_params})
        strict_stats, _ = monte_carlo(strict)
        ok &= strict_stats.abort_fraction >= 0.99
        details.append(f"{attack_id}: abort {strict_stats.abort_fraction:.2f}")
    assert _report("intercept-resend detectability", ok, "; ".join(details))


def test_zero_error_attacks_carry_no_information():
    """Property-based sweep: one hundred zero-error probe couplings per mode
    (random probe unitaries and global phases, probe dimension 2 or 4) never
    disturb a check and never let the probe distinguish a key bit; all the
    structural identities forced by the zero-error condition hold."""
    start = time.time()
    rng = np.random.default_rng(101)
    ok = True
    worst_info = 0.0
    worst_residual = 0.0
    for mode in ("A", "B"):
        for _ in range(100):
            d = int(rng.choice([2, 4]))
            pair = random_zero_error_pair(mode, d, rng)
            profile = error_profile(pair, mode)
            ok &= profile.max_rate <= 1e-12
            info = probe_distinguishability(pair, mode)
            ok &= info <= 1e-8
            verdict = theorem_check(pair, mode)
            ok &= verdict.zero_error and bool(verdict.holds)
            ok &= verdict.max_residual <= 1e-8
            worst_info = max(worst_info, info)
            worst_residual = max(worst_residual, verdict.max_residual)
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    assert _report(
        "zero-error attacks carry no information", ok,
        f"worst info {worst_info:.2e}, worst residual {worst_residual:.2e}, "
        f"{elapsed:.1f}s")


def test_tradeoff_endpoints():
    """The constrained search pins both ends of the error/information curve:
    nothing at zero budget (for the measure/reflect protocol, whose checks
    close every zero-error channel), everything at a quarter."""
    start = time.time()
    zero = constrained_search("A", 0.0, restarts=3, iters=10, seed=0)
    ok = zero.max_error <= 1e-9 and zero.info <= 1e-6
    details = [f"A eps=0: info {zero.info:.2e}"]
    for mode in ("A", "B"):
        full = constrained_search(mode, 0.25, restarts=3, iters=10, seed=0)
        ok &= full.max_error <= 0.25 + 1e-9
        ok &= full.info >= 0.99
        details.append(f"{mode} eps=0.25: info {full.info:.4f}")
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    assert _report("tradeoff endpoints", ok,
                   "; ".join(details) + f", {elapsed:.1f}s")


def test_simulator_matches_analysis_on_random_probe_attacks():
    """Ten random two-unitary probe attacks per mode: the protocol-level Monte
    Carlo error rate of every check agrees with the closed-form expectation
    within four sigma, at ten thousand or more particles per check."""
    rng = np.random.default_rng(55)
    ok = True
    worst_sigma = 0.0
    for mode in ("A", "B"):
        for _ in range(10):
            pair = random_pair(mode, 2, rng)
            profile = error_profile(pair, mode)
            attack = AttackSpec(mode, "em", pair=pair)
            compared = {c: 0 for c in profile.rates}
            mismatches = {c: 0 for c in profile.rates}
            trials = 0
            while min(compared.values()) < 10_000:
                seed = (ord(mode), trials)
                if mode == "A":
                    config = ProtocolAConfig(n=99, m=100,
                                             thresholds=thresholds_a(1.0))
                    report = run_protocol_a(config, attack, seed)
                else:
                    config = ProtocolBConfig(n=80, thresholds=thresholds_b(1.0))
                    report = run_protocol_b(config, attack, seed)
                for c in report.checks:
                    compared[c.check_id] += c.compared
                    mismatches[c.check_id] += c.mismatches
                trials += 1
            for check, p in profile.rates.items():
                n, k = compared[check], mismatches[check]
                sigma = max(np.sqrt(n * p * (1 - p)), 1.0)
                worst_sigma = max(worst_sigma, abs(k - n * p) / sigma)
                ok &= abs(k - n * p) <= Z4 * sigma
    assert _report("simulator matches closed-form rates", ok,
                   f"worst deviation {worst_sigma:.2f} sigma")
