"""Every name the benchmark's trace mode wraps still exists in the package,
and ``import sqss`` still loads what the trace mode times.

``perfbench/instrument.py`` patches each ``(module, attribute)`` of its
``FUNCTIONS`` and each ``(class, method)`` of its ``METHODS``, and its
``install`` fails on a name that is gone, so deleting a traced name crashes
``perfbench/run.py --trace 1``.  That run also reads the import time of
``scipy.linalg`` out of ``-X importtime`` of ``import sqss``, and raises
``KeyError`` when the package stops loading it.  These tests fail first, in
the package's own suite.  ROADMAP item 1 makes ``install`` skip absent names
and report their metrics as 0, and lets the import time of a module that is
not loaded read 0; that retires this module.

The benchmark's self-test also requires ``qstate.measure_qubit`` calls on
its entangle-measure workload, which it counts at ``runtime``'s binding; a
test here checks that probed particles still reach that binding.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sqss
from sqss import protocol_a, protocol_b, runtime
from sqss.adversary import AttackSpec
from sqss.em_analysis import random_pair

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def _instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    missing = [name for name, module, attr in _instrument().FUNCTIONS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_methods_resolve():
    missing = [f"{name} ({cls.__name__}.{attr})" for name, cls, attr in _instrument().METHODS
               if not callable(vars(cls).get(attr))]
    assert missing == []


def test_package_import_loads_scipy_linalg():
    """A fresh interpreter, so that no other test's imports count."""
    env = dict(os.environ)
    src = str(Path(sqss.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, sqss; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["True"]


def test_probed_layers_reach_the_traced_kernel_once(monkeypatch):
    """The trace mode counts probed-particle measurements at
    ``runtime.measure_qubit``: one call per measured layer of a probed
    batch, none on a layer of a bare batch.  Protocol B's em run measures
    one layer, after Charlie's bare insertions have joined the probed
    particles."""
    layers = []  # per measured layer: (the batch is probed, kernel calls)
    calls = []
    measure, kernel = runtime.ParticleBatch.measure, runtime.measure_qubit

    def counted_measure(batch, positions, bases, rng, collapse=True):
        probed = batch.probed
        before = len(calls)
        bits = measure(batch, positions, bases, rng, collapse)
        layers.append((probed, len(calls) - before))
        return bits

    def counted_kernel(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(runtime.ParticleBatch, "measure", counted_measure)
    monkeypatch.setattr(runtime, "measure_qubit", counted_kernel)
    config_a = protocol_a.ProtocolAConfig(n=20, m=45,
                                          thresholds=protocol_a.default_thresholds(1.0))
    config_b = protocol_b.ProtocolBConfig(n=16, thresholds=protocol_b.default_thresholds(1.0))
    for run, config, mode, probed_layers in (
            (protocol_a.run_protocol_a, config_a, "A", 3),
            (protocol_b.run_protocol_b, config_b, "B", 1)):
        pair = random_pair(mode, 2, np.random.default_rng(5))
        layers.clear()
        run(config, AttackSpec(mode, "em", pair=pair), (3, 1))
        # In A: Bob's, Charlie's and Alice's measurements; in B: Alice's.
        assert layers == [(True, 1)] * probed_layers
        layers.clear()
        run(config, None, (3, 1))
        assert layers == [(False, 0)] * probed_layers
