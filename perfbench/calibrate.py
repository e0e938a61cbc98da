"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by up to 2x
over minutes.  Two measures keep its timings comparable across runs:

* ops are timed in CPU time of the benchmark's own thread
  (``CLOCK_THREAD_CPUTIME_ID``), which leaves out time the thread waited for
  a CPU, whether another process or the hypervisor (steal time) held it;
* a fixed reference kernel, which does not touch ``sqss``, is timed the same
  way at short intervals between the ops.  Each op's time is scaled by
  ``REFERENCE_S`` over a rolling median of the kernel times around it, so the
  timings read as on a machine where the kernel takes exactly ``REFERENCE_S``.

The CPU time of fixed work still toggles by up to 1.6x within a second on such
hosts (a busy or idle sibling hyperthread, presumably), while the ratio of an
op's time to the kernel's, taken a few tens of milliseconds apart, holds to a
few percent.  Hence the short interval and the narrow window.

The kernel does what the simulator does most: small complex NumPy arrays,
frozen dataclasses, enum lookups and dictionary tallies.  A change to
``sqss`` cannot change the kernel's time, so it shows in the scaled timings
in full.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import time

import numpy as np

CLOCK = time.thread_time
REFERENCE_S = 2e-3    # kernel CPU time on the reference machine, by definition
EVERY_S = 0.02        # CPU time between two kernel runs
WINDOW = 5            # kernel runs in the rolling median, about 0.1 s
_STEPS = 20

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class _Basis(enum.Enum):
    Z = "Z"
    X = "X"


@dataclasses.dataclass(frozen=True)
class _Amp:
    amp0: complex
    amp1: complex

    def __post_init__(self):
        if abs(abs(self.amp0) ** 2 + abs(self.amp1) ** 2 - 1.0) > 1e-9:
            raise ValueError("not normalised")


def kernel() -> str:
    """The reference work: a fixed pseudo-random sequence of small steps."""
    rng = np.random.default_rng(12345)
    tally: dict = {}
    for j in range(_STEPS):
        a, b = rng.random(2)
        v = np.array([a, 1j * b], dtype=complex)
        v = v / np.sqrt(np.vdot(v, v).real)
        basis = _Basis.X if j & 1 else _Basis.Z
        w = (_H if basis is _Basis.X else _Z) @ v
        state = _Amp(complex(w[0]), complex(w[1]))
        joint = np.kron(_H, _Z) @ np.kron(w, v)
        p = float(abs(state.amp0) ** 2) + float(np.vdot(joint, joint).real)
        key = (basis.value, j % 5, p > 1.5)
        tally[key] = tally.get(key, 0) + 1
    return hashlib.sha256(repr(sorted(tally.items())).encode()).hexdigest()


def kernel_times(runs: int) -> list[float]:
    """CPU times of ``runs`` kernel runs after one warm-up run."""
    kernel()
    took = []
    for _ in range(runs):
        t0 = CLOCK()
        kernel()
        took.append(CLOCK() - t0)
    return took


class Calibration:
    """Kernel times taken during a run, and the speed factors they give."""

    def __init__(self):
        self.at: list[int] = []       # ops completed before each kernel run
        self.took: list[float] = []   # CPU seconds of each kernel run
        self._next = float("-inf")
        kernel()                      # warm-up, not recorded

    def maybe_run(self, ops_done: int) -> None:
        """Run the kernel if ``EVERY_S`` of CPU time passed since the last run."""
        now = CLOCK()
        if now < self._next:
            return
        kernel()
        took = CLOCK() - now
        self.at.append(ops_done)
        self.took.append(took)
        self._next = now + took + EVERY_S

    def factors(self, n_ops: int) -> np.ndarray:
        """Per op: reference over the rolling median of the kernel runs
        centred on the last run before the op."""
        took = np.asarray(self.took)
        half = WINDOW // 2
        smooth = np.array([np.median(took[max(0, j - half):j + half + 1])
                           for j in range(len(took))])
        last = np.searchsorted(self.at, np.arange(n_ops), side="right") - 1
        return REFERENCE_S / smooth[np.clip(last, 0, None)]
