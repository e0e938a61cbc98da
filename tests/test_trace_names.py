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
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import sqss

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
