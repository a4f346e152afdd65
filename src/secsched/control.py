"""Guarantee constants of the drift-plus-penalty controller, and the choice of V.

The controller itself is the slot loop in `simulator.run`: it thresholds
admissions against the backlogs, then picks one (user, power, data fraction)
action maximizing backlog-weighted secrecy rate minus the power price.  Both
steps are the exact per-slot minimizers of the drift-plus-penalty upper
bound, which is what yields the queue and power guarantees evaluated here.
Scenario fields, the power and data-fraction grids among them, are checked
by `ScenarioConfig.validate`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class PerformanceBounds:
    """Constants in the stability/optimality guarantees of the controller."""

    queue_drift_bound: float   # quadratic arrival/service term, B
    power_drift_bound: float   # quadratic power term, C
    queue_caps: np.ndarray     # deterministic per-user backlog caps
    power_cap: float           # virtual power-queue cap, needs an empirical gamma
    gamma: float               # best observed secrecy rate per unit power
    optimality_gap: float      # utility gap shrinking as 1/V


def compute_bounds(config, rate_max: float, gamma: float) -> PerformanceBounds:
    """Evaluate the guarantee constants for a scenario.

    `rate_max` bounds the served secrecy rate, `gamma` the secrecy rate per
    unit transmit power; both come from the scenario or from a run's
    empirical maxima.  The backlog caps are hard; the power cap is a
    diagnostic since gamma is estimated.
    """
    if rate_max < 0 or gamma < 0:
        raise ValueError("rate and gamma bounds are nonnegative")
    theta = np.asarray(config.theta, dtype=float)
    p_max = float(max(config.power_grid))
    queue_drift = (config.n_users * config.a_max**2 + rate_max**2) / 2.0
    power_drift = (p_max**2 + config.p_av**2) / 2.0
    caps = config.v * theta + config.a_max
    power_cap = gamma * config.v * float(np.max(theta)) + gamma * config.a_max + p_max
    return PerformanceBounds(
        queue_drift_bound=queue_drift,
        power_drift_bound=power_drift,
        queue_caps=caps,
        power_cap=power_cap,
        gamma=gamma,
        optimality_gap=(queue_drift + power_drift) / config.v,
    )


def choose_v(delay_targets, theta, a_max: float) -> float:
    """Largest V meeting per-user backlog targets D_i via V theta_i + A_max <= D_i."""
    targets = np.asarray(delay_targets, dtype=float)
    priorities = np.asarray(theta, dtype=float)
    if targets.shape != priorities.shape or targets.ndim != 1:
        raise ValueError("targets and priorities must be flat vectors of equal length")
    if np.any(priorities <= 0):
        raise ValueError("priorities must be positive")
    if np.any(targets <= a_max):
        bad = int(np.argmin(targets - a_max))
        raise ConfigError(
            f"backlog target {targets[bad]} for user {bad} is not achievable: "
            f"targets must exceed the arrival bound {a_max}"
        )
    return float(np.min((targets - a_max) / priorities))
