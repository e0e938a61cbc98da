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
from sqss import runtime
from sqss.adversary import AttackSpec
from sqss.em_analysis import random_pair
from sqss.protocol_a import ProtocolAConfig, default_thresholds, run_protocol_a

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
    ``runtime.measure_qubit``: one call per measured layer that holds probed
    particles, none on a layer of bare particles alone."""
    layers = []  # per measured layer: (holds probed particles, kernel calls)
    calls = []
    measure, kernel = runtime.ParticleBatch.measure, runtime.measure_qubit

    def counted_measure(batch, positions, bases, rng):
        probed = bool(np.any(batch.code[np.asarray(positions)] == runtime.PROBED))
        before = len(calls)
        bits = measure(batch, positions, bases, rng)
        layers.append((probed, len(calls) - before))
        return bits

    def counted_kernel(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(runtime.ParticleBatch, "measure", counted_measure)
    monkeypatch.setattr(runtime, "measure_qubit", counted_kernel)
    pair = random_pair("A", 2, np.random.default_rng(5))
    config = ProtocolAConfig(n=20, m=45, thresholds=default_thresholds(1.0))
    run_protocol_a(config, AttackSpec("A", "em", pair=pair), (3, 1))
    # Bob's, Charlie's and Alice's measurements, all of probed particles.
    assert layers == [(True, 1)] * 3
    run_protocol_a(config, None, (3, 1))
    assert layers[3:] == [(False, 0)] * 3
