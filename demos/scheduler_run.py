#!/usr/bin/env python3
"""One full scheduler run with the standard setup, plus the guarantees it
is supposed to honor. Takes a few seconds.
"""
import numpy as np

from secsched import ScenarioConfig, compute_bounds, run

config = ScenarioConfig(seed=11)
metrics = run(config)
bounds = compute_bounds(config, rate_max=metrics.max_served_rate,
                        gamma=metrics.empirical_gamma)

print(f"{config.n_slots} slots, V={config.v}, arrivals {config.arrival_mean}/user/slot")
print()
print("admission rate per user :", np.round(metrics.admission_rate, 3))
print("average backlog         :", np.round(metrics.avg_queue, 2))
print("average power           :", round(metrics.avg_power, 1), "(budget", config.p_av, ")")
print("transmit slots          :", metrics.n_transmit_slots)
print("secrecy outages         :", metrics.empirical_outage, "(instantaneous CSI)")
print()
print("hard backlog cap        :", bounds.queue_caps, "observed max", metrics.max_queue)
print("cap margin              :", bounds.queue_caps.max() - metrics.max_queue)
print("power queue cap (diag.) :", round(bounds.power_cap, 1),
      "observed max", round(metrics.max_power_queue, 1))
print("optimality gap bound    : (B + C)/V =", bounds.optimality_gap)
