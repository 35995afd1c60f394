"""Small shared utilities used across the repro packages.

Everything here is dependency-free (stdlib only) and deterministic: all
randomised helpers require an explicit seed so that traces, schedules and
workloads are reproducible run-to-run.
"""

from repro.utils.rng import DeterministicRNG
from repro.utils.unionfind import UnionFind
from repro.utils.errors import (
    ReproError,
    EncodingError,
    SolverError,
    McapiError,
    ProgramError,
    TraceError,
)

__all__ = [
    "DeterministicRNG",
    "UnionFind",
    "ReproError",
    "EncodingError",
    "SolverError",
    "McapiError",
    "ProgramError",
    "TraceError",
]
