"""Streaming anytime-valid inference for A/B tests.

Confidence sequences that stay valid under continuous monitoring, the
classical and Bayesian baselines they are compared against, sample-size
calculators for both regimes, a Monte Carlo study lab, and an event-log
analysis engine with a CLI.
"""

from .bayes import (
    BetaPosterior,
    BfConfig,
    BhtConfig,
    bht_decide,
    two_arm_expected_loss,
)
from .confseq import (
    ConfSeqParams,
    asympcs_ate,
    radius_beta,
)
from .design import (
    DesignSpec,
    fixed_horizon_sample_size,
    hypothesized_sample_size,
    variance_guess_binary,
)
from .engine import CrossTab, DecisionRecord, EventRecord, analyze, crosstab, ingest
from .gst import SpendingSchedule, compute_boundaries, pocock_spend
from .moments import StreamingMoments

__version__ = "0.1.0"

__all__ = [
    "BetaPosterior",
    "BfConfig",
    "BhtConfig",
    "ConfSeqParams",
    "CrossTab",
    "DecisionRecord",
    "DesignSpec",
    "EventRecord",
    "SpendingSchedule",
    "StreamingMoments",
    "analyze",
    "asympcs_ate",
    "bht_decide",
    "compute_boundaries",
    "crosstab",
    "fixed_horizon_sample_size",
    "hypothesized_sample_size",
    "ingest",
    "pocock_spend",
    "radius_beta",
    "two_arm_expected_loss",
    "variance_guess_binary",
]
