"""OSU Micro-Benchmarks (OMB) suite over the simulated runtime.

The paper's Section 6.5 evaluation is performed "using the OMB suite";
this module is its equivalent for the simulated stack: point-to-point
latency/bandwidth and collective-latency micro-benchmarks, each run on
a fresh cluster with warm-started steady-state semantics (deterministic
simulation makes one measured run exact).

All functions return seconds (latency) or bytes/second (bandwidth).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..cuda import DeviceBuffer
from ..hardware import Cluster
from .profiles import MPIProfile, MV2GDR
from .runtime import MPIRuntime

__all__ = ["osu_latency", "osu_bw", "osu_bcast", "osu_reduce",
           "osu_allreduce", "sweep"]

ClusterFactory = Callable[[], Cluster]


def _run(cluster_factory: ClusterFactory, profile, n_ranks, program_fn):
    cluster = cluster_factory()
    rt = MPIRuntime(cluster, profile)
    comm = rt.world(n_ranks)
    results = rt.execute(comm, program_fn)
    return results


def osu_latency(cluster_factory: ClusterFactory, nbytes: int, *,
                profile: MPIProfile | str = MV2GDR,
                ranks: Sequence[int] = (0, 1),
                iterations: int = 4) -> float:
    """osu_latency: mean one-way time of a ping-pong between two GPUs.

    ``ranks`` selects which two world ranks play (e.g. ``(0, 16)`` for a
    cross-node pair on Cluster-A).
    """
    if len(ranks) != 2 or ranks[0] == ranks[1]:
        raise ValueError("osu_latency needs two distinct ranks")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    a, b = ranks

    def program(ctx):
        if ctx.rank not in (a, b):
            return None
        buf = DeviceBuffer(ctx.gpu, nbytes)
        peer = b if ctx.rank == a else a
        t0 = ctx.sim.now
        for i in range(iterations):
            if ctx.rank == a:
                yield from ctx.send(peer, buf, tag=2 * i)
                yield from ctx.recv(peer, buf, tag=2 * i + 1)
            else:
                yield from ctx.recv(peer, buf, tag=2 * i)
                yield from ctx.send(peer, buf, tag=2 * i + 1)
        if ctx.rank == a:
            return (ctx.sim.now - t0) / (2 * iterations)

    n_ranks = max(a, b) + 1
    results = _run(cluster_factory, profile, n_ranks, program)
    return results[a]


def osu_bw(cluster_factory: ClusterFactory, nbytes: int, *,
           profile: MPIProfile | str = MV2GDR,
           ranks: Sequence[int] = (0, 1), window: int = 8) -> float:
    """osu_bw: streaming bandwidth with ``window`` messages in flight."""
    if window < 1:
        raise ValueError("window must be >= 1")
    a, b = ranks

    def program(ctx):
        if ctx.rank not in (a, b):
            return None
        peer = b if ctx.rank == a else a
        bufs = [DeviceBuffer(ctx.gpu, nbytes) for _ in range(window)]
        t0 = ctx.sim.now
        if ctx.rank == a:
            reqs = [ctx.isend(peer, bufs[i], tag=i)
                    for i in range(window)]
            for r in reqs:
                yield r.wait()
            # Wait for the ack closing the window.
            yield from ctx.recv(peer, bufs[0], tag=999, nbytes=4)
            return window * nbytes / (ctx.sim.now - t0)
        reqs = [ctx.irecv(peer, bufs[i], tag=i) for i in range(window)]
        for r in reqs:
            yield r.wait()
        yield from ctx.send(peer, bufs[0], tag=999, nbytes=4)

    n_ranks = max(a, b) + 1
    results = _run(cluster_factory, profile, n_ranks, program)
    return results[a]


def _collective_latency(cluster_factory, nbytes, n_ranks, profile,
                        body) -> float:
    def program(ctx):
        sendbuf = DeviceBuffer(ctx.gpu, nbytes)
        recvbuf = DeviceBuffer(ctx.gpu, nbytes)
        t0 = ctx.sim.now
        yield from body(ctx, sendbuf, recvbuf)
        return ctx.sim.now - t0

    results = _run(cluster_factory, profile, n_ranks, program)
    return max(results)


def osu_bcast(cluster_factory: ClusterFactory, nbytes: int, n_ranks: int,
              *, profile: MPIProfile | str = MV2GDR,
              algorithm: str = "binomial") -> float:
    """osu_bcast: full-communicator broadcast latency."""
    from .collectives import bcast

    def body(ctx, sendbuf, recvbuf):
        yield from bcast(ctx, sendbuf, 0, algorithm=algorithm)

    return _collective_latency(cluster_factory, nbytes, n_ranks, profile,
                               body)


def osu_reduce(cluster_factory: ClusterFactory, nbytes: int, n_ranks: int,
               *, profile: MPIProfile | str = MV2GDR,
               design: str = "tuned") -> float:
    """osu_reduce: reduce-to-root latency under a named design
    ("tuned" | "flat" | "chain" | HR labels like "CB-8"/"CCB-8"; see
    :func:`~repro.mpi.collectives.reduce_design`)."""
    from .collectives import reduce_design

    def body(ctx, sendbuf, recvbuf):
        out = recvbuf if ctx.rank == 0 else None
        yield from reduce_design(ctx, sendbuf, out, 0, design)

    return _collective_latency(cluster_factory, nbytes, n_ranks, profile,
                               body)


def osu_allreduce(cluster_factory: ClusterFactory, nbytes: int,
                  n_ranks: int, *, profile: MPIProfile | str = MV2GDR,
                  algorithm: str = "ring") -> float:
    """osu_allreduce latency."""
    from .collectives import allreduce

    def body(ctx, sendbuf, recvbuf):
        yield from allreduce(ctx, sendbuf, recvbuf, algorithm=algorithm)

    return _collective_latency(cluster_factory, nbytes, n_ranks, profile,
                               body)


def sweep(bench: Callable[..., float], sizes: Sequence[int],
          **kwargs) -> Dict[int, float]:
    """Run a micro-benchmark across message sizes."""
    return {s: bench(nbytes=s, **kwargs) for s in sizes}
