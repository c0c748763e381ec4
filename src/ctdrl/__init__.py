"""Continuous-time distributional RL laboratory.

Quantile-based distribution machinery, SDE return simulation, Monte-Carlo
action-gap and superiority estimation, a family of value-based learners at
configurable decision frequency, fixture environments, and an experiment CLI.
"""

__version__ = "0.1.0"

from . import agents, approx, ctmdp, dist, envs, estimate

# Kept for callers that record which kernels ran: only numpy ones exist.
KERNEL_BACKEND = "numpy"

__all__ = [
    "agents",
    "approx",
    "ctmdp",
    "dist",
    "envs",
    "estimate",
    "KERNEL_BACKEND",
    "__version__",
]
