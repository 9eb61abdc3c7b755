#!/usr/bin/env python
"""Hierarchical-reduce design space + offline tuning (the Section 5 story).

Benchmarks MPI_Reduce designs at 160 simulated GPUs across message
sizes — flat binomial, chunked chain, chain-binomial (CB-k) and
chain-chain (CC-k) hierarchies — then picks the winner per size, which
is how the MVAPICH2 tuning infrastructure builds the HR (Tuned)
selection table: by offline sweeps on the target system.

Run:  python examples/reduce_tuning.py
"""

from repro.hardware import cluster_a
from repro.mpi import MV2GDR
from repro.mpi.omb import osu_reduce
from repro.sim import Simulator

P = 160
KiB, MiB = 1 << 10, 1 << 20
SIZES = (64 * KiB, 2 * MiB, 16 * MiB, 128 * MiB)
DESIGNS = ("flat", "chain", "CB-8", "CC-8")


def fmt(nbytes):
    return f"{nbytes // MiB}M" if nbytes >= MiB else f"{nbytes // KiB}K"


print(f"MPI_Reduce latency at {P} GPUs (Cluster-A)\n")
print(f"{'size':>6} | " + " | ".join(f"{d:>10}" for d in DESIGNS))
print("-" * (9 + 13 * len(DESIGNS)))
winners = {}
for s in SIZES:
    times = {d: osu_reduce(lambda: cluster_a(Simulator()), s, P,
                           profile=MV2GDR, design=d) for d in DESIGNS}
    winners[s] = min(DESIGNS, key=times.get)
    print(f"{fmt(s):>6} | "
          + " | ".join(f"{times[d] * 1e3:8.2f}ms" for d in DESIGNS))

print("\nOffline sweep -> selection per size:")
for s, design in winners.items():
    print(f"  {fmt(s):>6} -> {design}")

print("""
The flat binomial wins small (latency-bound) messages; pipelined chain
hierarchies win the DL-scale (multi-MB) reductions — the trade-off that
equations (1) and (2) of the paper formalize, and that the tuned design
exploits per message-size range.
""")
