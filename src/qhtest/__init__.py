"""Sequential and fixed-copy hypothesis tests for single-qubit state families.

The package simulates binary tests between composite sets of states drawn
from a one-parameter qubit family: an always-valid sequential ratio test
with adaptive block measurements, plus calibrated fixed-copy baselines,
with a seeded Monte Carlo harness for power and copy-complexity sweeps.
"""

__version__ = "0.1.0"
