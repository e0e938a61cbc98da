"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a single
pass/fail line so the whole gate can be read off the pytest -s output.  The
statistical tests use 4-sigma Wilson intervals, so spurious failures are
astronomically unlikely at the sample sizes used.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from sqss.adversary import AttackSpec, catalog_ids, resolve_attack
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


# Batch sizes at which each check compares about 250 particles or more per
# run, at thresholds no run aborts on, so 10 000 take about forty runs.
LARGE = {"A": ProtocolAConfig(n=999, m=1000, thresholds=thresholds_a(1.0)),
         "B": ProtocolBConfig(n=500, thresholds=thresholds_b(1.0))}
RUN = {"A": run_protocol_a, "B": run_protocol_b}


def _tally(attack: AttackSpec, seed: int, rates: dict) -> tuple[dict, dict]:
    """Compared and mismatch totals per check of ``attack`` over runs
    ``(seed, 0)``, ``(seed, 1)``, ... at the ``LARGE`` batch sizes, until
    every check with a nonzero rate in ``rates`` has compared 10 000
    particles or more."""
    mode = attack.protocol
    compared = dict.fromkeys(rates, 0)
    mismatches = dict.fromkeys(rates, 0)
    trial = 0
    while min(n for c, n in compared.items() if rates[c] > 0) < 10_000:
        for c in RUN[mode](LARGE[mode], attack, (seed, trial)).checks:
            compared[c.check_id] += c.compared
            mismatches[c.check_id] += c.mismatches
        trial += 1
    return compared, mismatches


def test_honest_run_exactness():
    """Both protocols, 100 seeds each: zero mismatches and a passed verdict on
    every check, the dealer's key is the XOR of the two shares, and there is
    no payoff to score; all in under ten seconds."""
    start = time.time()
    ok = True
    for mode, config in (("A", ProtocolAConfig(n=100, m=200)),
                         ("B", ProtocolBConfig(n=200))):
        for seed in range(100):
            report = RUN[mode](config, None, seed)
            ok &= not report.aborted and report.payoff is None
            ok &= all(c.mismatches == 0 and c.passed for c in report.checks)
            ok &= report.keys.k_a == xor_keys(report.keys.k_b, report.keys.k_c)
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    assert _report("honest-run exactness", ok, f"{elapsed:.1f}s for 200 runs")


@pytest.mark.parametrize("attack_id", catalog_ids())
def test_catalog_attack_matches_the_oracle(attack_id):
    """Every catalog attack, simulated at large batches: each check the exact
    oracle gives a nonzero rate has that rate inside the four-sigma Wilson
    interval of 10 000 or more compared particles, and each check it gives
    rate 0 has no mismatch at all."""
    protocol = attack_id[0].upper()
    exact = detection_oracle(protocol, attack_id)
    compared, mismatches = _tally(resolve_attack(protocol, attack_id), 17, exact)
    ok = True
    for check, rate in exact.items():
        if rate:
            ok &= _within(mismatches[check], compared[check], float(rate))
        else:
            ok &= mismatches[check] == 0
    assert _report(f"{attack_id} matches the oracle", ok, ", ".join(
        f"{c} {mismatches[c]}/{compared[c]} at {exact[c]}" for c in exact))


def test_x_collapse_half():
    """A Z-measured particle re-measured in the conjugate basis gives either
    outcome with probability exactly one half."""
    ok = True
    for s in PrepState:
        dist = chained_measurement_distribution(s, [Basis.Z, Basis.X])
        ok &= dist == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert _report("conjugate-basis collapse is exactly 1/2", ok)


def test_intercept_resend_detectability():
    """At production batch sizes the default thresholds abort essentially
    every run of every intercept-resend attack."""
    ok = True
    details = []
    for attack_id in (aid for aid in catalog_ids() if ".ir." in aid):
        protocol = attack_id[0].upper()
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
    close every zero-error channel), and at a quarter full information from
    a search point, not the fallback."""
    start = time.time()
    zero = constrained_search("A", 0.0, restarts=3, iters=10, seed=0)
    ok = zero.max_error <= 1e-9 and zero.info <= 1e-6
    details = [f"A eps=0: info {zero.info:.2e}"]
    for mode in ("A", "B"):
        full = constrained_search(mode, 0.25, restarts=3, iters=10, seed=0)
        ok &= full.max_error <= 0.25 + 1e-9
        ok &= abs(full.info - 1.0) <= 1e-6 and not full.fallback
        details.append(f"{mode} eps=0.25: info {full.info!r}")
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    assert _report("tradeoff endpoints", ok,
                   "; ".join(details) + f", {elapsed:.1f}s")


def test_simulator_matches_analysis_on_random_probe_attacks():
    """Ten random two-unitary probe attacks per mode, simulated at large
    batches: every check's closed-form rate lies strictly inside (0, 1) and
    inside the four-sigma Wilson interval of 10 000 or more compared
    particles."""
    rng = np.random.default_rng(55)
    ok = True
    worst, detail = -1.0, ""
    for mode in ("A", "B"):
        for i in range(10):
            pair = random_pair(mode, 2, rng)
            rates = error_profile(pair, mode).rates
            compared, mismatches = _tally(AttackSpec(mode, "em", pair=pair),
                                          ord(mode), rates)
            for check, rate in rates.items():
                k, n = mismatches[check], compared[check]
                ok &= 0 < rate < 1 and _within(k, n, rate)
                low, high = wilson_interval(k, n, z=Z4)
                # the share of its half-width the rate lies from k / n
                share = (rate - k / n) / ((high if rate > k / n else low) - k / n)
                if share > worst:
                    worst = share
                    detail = f"{mode} pair {i} {check}: {k}/{n} against {rate:.4f}"
    assert _report("simulator matches closed-form rates", ok,
                   f"worst {detail}, {worst:.2f} of its 4-sigma half-width")
