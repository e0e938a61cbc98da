"""A reference for ``em_analysis.constrained_search``: the sequential restarts
that the lockstep blocks replaced.

Each restart here climbs on its own, one theta at a time, through the
package's stack-of-one kernels (``_evaluate`` and ``_objective_gradient`` on
one row), with the rules the search keeps row by row: a gradient norm
below 1e-12 stops the restart, a line search halves its step down to 1e-7,
and an accepted step doubles up to 0.5.  Random starts are drawn one restart
at a time, and a feasible point replaces the best when its objective is
strictly larger, in restart order.  This is how ``constrained_search`` ran
before its restarts climbed in lockstep, so a test can hold it to this loop.
"""

from __future__ import annotations

import numpy as np

from sqss import em_analysis
from sqss.em_analysis import FEASIBILITY_TOL, TradeoffPoint, params_dim


def constrained_search(mode: str, epsilon: float, probe_dim: int = 2, restarts: int = 6,
                       iters: int = 40, seed: int = 0) -> TradeoffPoint:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE)))
    npar = params_dim(probe_dim)
    analysis = em_analysis._MODES[mode]
    best = {"info": 0.0, "err": 0.0, "obj": 0.0, "theta": np.zeros(2 * npar), "fallback": True}

    def evaluate(theta):
        return em_analysis._evaluate(analysis, theta[None], probe_dim, epsilon)

    def consider(theta, point):
        obj, info, err = (float(value[0]) for value in point[:3])
        if err <= epsilon + FEASIBILITY_TOL and obj > best["obj"]:
            best.update(info=info, err=err, obj=obj, theta=theta.copy(), fallback=False)

    fixed = [np.zeros(2 * npar), em_analysis._bit_copy_start(probe_dim)]
    for start in range(restarts):
        theta = fixed[start] if start < len(fixed) else rng.normal(scale=0.5, size=2 * npar)
        point = evaluate(theta)
        consider(theta, point)
        step = 0.25
        for _ in range(iters):
            grad = em_analysis._objective_gradient(analysis, probe_dim, epsilon, point)[0]
            gnorm = np.linalg.norm(grad)
            if gnorm < 1e-12:
                break
            direction = grad / gnorm
            improved = False
            trial_step = step
            while trial_step > 1e-7:
                cand = theta + trial_step * direction
                trial = evaluate(cand)
                if trial[0][0] > point[0][0]:
                    theta, point = cand, trial
                    consider(theta, point)
                    step = min(trial_step * 2.0, 0.5)
                    improved = True
                    break
                trial_step /= 2.0
            if not improved:
                break
    theta = best["theta"]
    return TradeoffPoint(mode=mode, epsilon=epsilon, info=best["info"], max_error=best["err"],
                         probe_dim=probe_dim, params=(tuple(theta[:npar]), tuple(theta[npar:])),
                         restarts=restarts, iterations=iters, fallback=best["fallback"])
