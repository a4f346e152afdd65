"""Secrecy-aware cross-layer scheduling for a multi-antenna downlink.

The transmitter beamforms confidential data to one user per slot while
jamming eavesdroppers with artificial noise, and a drift-plus-penalty
controller decides admissions, the served user, the transmit power and the
power split so that queues stay bounded, average power meets its budget and
every transmitted message respects a secrecy constraint.
"""

from .channel import RngStreams, sample_complex_gaussian, sample_realization_batch
from .control import choose_v, compute_bounds
from .errors import ConfigError, DegenerateChannelError
from .oracle import (
    ChannelRealization, TransmitParams, beamforming_basis, cap_eve_noncolluding,
    cap_eve_upper_noncolluding, cap_eves_colluding, cap_eves_colluding_logdet,
    cap_eves_upper_colluding, cap_legit, sample_realization, secrecy_rate,
)
from .secrecy import (
    SecrecyRegime, calibrate_outage, colluding_outage_ccdf, noncolluding_outage_cdf,
    rate_cost_colluding, rate_cost_noncolluding, rate_cost_noncolluding_bisect, rate_cost_table,
)
from .simulator import RunMetrics, ScenarioConfig, SlotTrace, run, sample_arrivals

__all__ = [
    "ChannelRealization", "RngStreams", "beamforming_basis", "sample_complex_gaussian",
    "sample_realization", "sample_realization_batch",
    "choose_v", "compute_bounds",
    "ConfigError", "DegenerateChannelError",
    "SecrecyRegime", "TransmitParams",
    "calibrate_outage", "cap_eve_noncolluding", "cap_eve_upper_noncolluding",
    "cap_eves_colluding", "cap_eves_colluding_logdet", "cap_eves_upper_colluding",
    "cap_legit", "colluding_outage_ccdf", "noncolluding_outage_cdf",
    "rate_cost_colluding", "rate_cost_noncolluding", "rate_cost_noncolluding_bisect",
    "rate_cost_table", "secrecy_rate",
    "RunMetrics", "ScenarioConfig", "SlotTrace", "run", "sample_arrivals",
]

__version__ = "0.1.0"
