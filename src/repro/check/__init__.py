"""Conformance harness and runtime invariant checkers (``repro check``).

Three layers, designed to make collective-protocol bugs loud:

1. :mod:`~repro.check.invariants` — passive runtime checkers (SPMD
   lockstep, tag-space audit, end-of-run leak checks) installed as
   ``sim.checker``; zero-cost when absent.
2. :mod:`~repro.check.harness` — one runner for every case: each
   collective against plain-NumPy reference semantics, byte-exactly,
   across (P, root, size, chunking, window, profile, fault), with every
   run classified exact / recovered / typed error / silent / hang.  The
   byte-exact matrix (``generate_matrix``) and the chaos matrix
   (``generate_chaos_matrix``: collective x profile x fault kind) are
   two case lists for it.
3. :mod:`~repro.check.mutation` — a self-test seeding deliberate bugs
   (protocol bugs and disabled fault protections) and asserting the two
   layers above catch each one.
"""

from .harness import (
    BOUNDARY_CASES, COLLECTIVES, Case, CaseResult, FAULT_KINDS,
    generate_chaos_matrix, generate_matrix, outcome_tally, parse_case,
    run_case, run_matrix,
)
from .invariants import InvariantChecker, Violation
from .mutation import MUTATIONS, MutationOutcome, run_mutation_selftest
from .reference import rank_payload, reduce_reference

__all__ = [
    "BOUNDARY_CASES", "COLLECTIVES", "Case", "CaseResult", "FAULT_KINDS",
    "generate_chaos_matrix", "generate_matrix", "outcome_tally",
    "parse_case", "run_case", "run_matrix",
    "InvariantChecker", "Violation",
    "MUTATIONS", "MutationOutcome", "run_mutation_selftest",
    "rank_payload", "reduce_reference",
]
