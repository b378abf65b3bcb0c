"""Deterministic radio warning simulator for railroad grade crossings.

Simulates a train broadcasting periodic safety messages while approaching a
crossing, models per-packet radio success (empirical error-rate tables or a
synthetic path-loss channel), drives the receiver warning logic, and
reproduces the downstream analysis: windowed packet error rate, received
counts, coverage range, latency statistics, protection time and safeness
curves.

Names are imported from their modules (from railwarn.engine import
run_pass); importing the package loads none of them.
"""

__version__ = "0.1.0"
