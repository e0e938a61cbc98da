"""Which sqss calls the traced run wraps, and the per-layer metrics they give.

Layers are the package's modules.  ``cli`` is a thin shell over ``harness``,
``oracle`` and ``em_analysis`` and is not a layer of its own.
"""

from __future__ import annotations

import json

from sqss import (adversary, em_analysis, harness, oracle, protocol_a, protocol_b,
                  qstate, runtime)
import sqss
import sqss.cli

LEGS = tuple(leg.value for leg in runtime.LEG_ORDER)

# Every module whose globals may hold a binding of a traced function.
MODULES = (sqss, qstate, runtime, adversary, protocol_a, protocol_b, oracle,
           em_analysis, harness, sqss.cli)

# (span name, module, attribute) of each traced module-level function.
FUNCTIONS = (
    ("qstate.measure", qstate, "measure"),
    ("qstate.prepare", qstate, "prepare"),
    ("qstate.zstate", qstate, "zstate"),
    ("qstate.measure_qubit", qstate, "measure_qubit"),
    ("qstate.lift", qstate, "lift"),
    ("qstate.trace_distance", qstate, "trace_distance"),
    ("runtime.evaluate_check", runtime, "evaluate_check"),
    ("runtime.derive_keys", runtime, "derive_keys"),
    ("adversary.build_attack_plan", adversary, "build_attack_plan"),
    ("protocol_a.run", protocol_a, "run_protocol_a"),
    ("protocol_b.run", protocol_b, "run_protocol_b"),
    ("protocol_b.resolve_orders", protocol_b, "resolve_orders"),
    ("oracle.detection_oracle", oracle, "detection_oracle"),
    ("em_analysis.error_profile", em_analysis, "error_profile"),
    ("em_analysis.probe_distinguishability", em_analysis, "probe_distinguishability"),
    ("em_analysis.theorem_check", em_analysis, "theorem_check"),
    ("em_analysis.unitary_from_params", em_analysis, "unitary_from_params"),
    ("em_analysis.constrained_search", em_analysis, "constrained_search"),
    ("harness.run_one", harness, "run_one"),
    ("harness.config_from_dict", harness, "config_from_dict"),
)

# (span name, class, method) of each traced method.  Party steps are patched
# on every class that defines them, so overrides are traced too.
_PARTIES = [c for c in vars(adversary).values()
            if isinstance(c, type) and issubclass(c, (adversary.HonestPartyA,
                                                      adversary.HonestPartyB))]
METHODS = (
    [("qstate.CompositeState.init", qstate.CompositeState, "__post_init__"),
     ("qstate.DensityMatrix.init", qstate.DensityMatrix, "__post_init__"),
     ("adversary.guess", adversary.AttackPlan, "guess_a"),
     ("adversary.guess", adversary.AttackPlan, "guess_b")]
    + [(f"adversary.party.{step}", cls, step)
       for step in ("act", "process", "announce")
       for cls in _PARTIES if step in vars(cls)]
)


def _leg_span(prefix):
    return lambda args: f"{prefix}.{args[1].value}"


def _count_particles(prefix):
    return lambda args, result: (f"{prefix}.{args[1].value}.particles", len(args[0]))


def _count_digest_bytes(args, result):
    blob = json.dumps(args[0], sort_keys=True, separators=(",", ":"))
    return "runtime.transcript_digest.bytes", len(blob.encode())


def install(tracer) -> None:
    """Patch every traced call into ``tracer``; ``tracer`` restores them.

    ``qstate``'s own helpers call each other (measure -> basis_state ->
    zstate -> prepare); those calls stay inside their caller's span, so
    qstate functions are traced only where other modules call them.
    """
    outside_qstate = [m for m in MODULES if m is not qstate]
    for name, module, attr in FUNCTIONS:
        tracer.patch_function(outside_qstate if module is qstate else MODULES,
                              getattr(module, attr), name)
    tracer.patch_function(MODULES, runtime.transmit, _leg_span("runtime.transmit"),
                          _count_particles("runtime.transmit"))
    tracer.patch_function(MODULES, runtime.transcript_digest,
                          "runtime.transcript_digest", _count_digest_bytes)
    for name, cls, attr in METHODS:
        tracer.patch(cls, attr, tracer.wrap(name, vars(cls)[attr]))

    original = adversary.AttackPlan.interceptor
    span = _leg_span("adversary.interceptor")
    count = _count_particles("adversary.interceptor")

    def interceptor(plan, leg):
        fn = original(plan, leg)
        return None if fn is None else tracer.wrap(span, fn, count)

    tracer.patch(adversary.AttackPlan, "interceptor", interceptor)


def restore_owners():
    """Every namespace ``install`` may patch."""
    return list(MODULES) + list({cls for _, cls, _ in METHODS}) + [adversary.AttackPlan]


# Per-layer metrics: (name, unit).
SPANS = ([name for name, _, _ in FUNCTIONS]
         + [f"runtime.transmit.{leg}" for leg in LEGS]
         + ["runtime.transcript_digest"]
         + sorted({name for name, _, _ in METHODS})
         + [f"adversary.interceptor.{leg}" for leg in LEGS])
COUNTERS = ([f"runtime.transmit.{leg}.particles" for leg in LEGS]
            + [f"adversary.interceptor.{leg}.particles" for leg in LEGS]
            + ["runtime.transcript_digest.bytes"])
# Child spans also counted under an alias when their parent is a given span:
# Alice's final measurement is a qstate measurement made by the runner itself.
ALIAS_OF = {(measure, f"{proto}.run"): f"{proto}.alice_measure"
            for proto in ("protocol_a", "protocol_b")
            for measure in ("qstate.measure", "qstate.measure_qubit")}
ALIAS_OF[("em_analysis.error_profile", "em_analysis.constrained_search")] = (
    "em_analysis.constrained_search.error_profile")
ALIASES = ("protocol_a.alice_measure", "protocol_b.alice_measure")

PER_LAYER = (
    [(f"{name}.calls", "count") for name in SPANS]
    + [(f"{name}.self_s", "s") for name in SPANS]
    + [(name, "bytes" if name.endswith(".bytes") else "count") for name in COUNTERS]
    + [(f"{name}.calls", "count") for name in ALIASES]
    + [(f"{name}.wall_s", "s") for name in ALIASES]
    + [("em_analysis.constrained_search.evals_per_point", "count"),
       ("import.sqss_s", "s"),
       ("import.scipy_linalg_s", "s"),
       ("trace.overhead_frac", "ratio")]
)


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values from one traced run (imports and overhead excluded)."""
    totals = tracer.totals()
    out = {}
    for name in SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    for name in ALIASES:
        out[f"{name}.calls"] = tracer.alias_calls.get(name, 0)
        out[f"{name}.wall_s"] = tracer.alias_wall.get(name, 0.0)
    searches = totals.get("em_analysis.constrained_search", (0, 0.0))[0]
    profiles = tracer.alias_calls.get("em_analysis.constrained_search.error_profile", 0)
    out["em_analysis.constrained_search.evals_per_point"] = (
        profiles / searches if searches else 0)
    return out
