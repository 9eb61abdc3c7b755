"""MPI runtime profiles.

One engine, three behaviours.  The paper compares three real runtimes
(Section 6.5, Fig. 12); what actually differed between them is *how a
GPU-resident buffer moves and where reductions compute*.  Each profile
encodes those mechanisms:

``mv2gdr``
    The proposed co-designed runtime (MVAPICH2-GDR 2.2 + HR designs):
    GPUDirect RDMA for inter-node transfers, CUDA IPC intra-node,
    GPU-kernel reductions, large pipeline chunks, hierarchical reduce
    available, asynchronous NBC progression.

``mv2``
    MVAPICH2 2.2RC1 baseline: CUDA-aware with pinned host-staged
    pipelining (GDRCOPY helps latency, not large-message bandwidth),
    CPU-side reductions, flat binomial reduce only.

``openmpi``
    OpenMPI v1.10.2: CUDA support via *small-segment* host staging in the
    coll/tuned reduction (default segments), pageable staging buffers, no
    IPC for collectives, CPU-side reductions, and per-segment
    synchronization — the combination behind the up-to-133x gap.

``nccl``
    The framework-level contender from the follow-up "MPI or NCCL?"
    study: a :class:`NCCLProfile` with the same device-native transport
    mechanisms as ``mv2gdr`` (IPC, GDR, GPU reductions) plus the knobs
    that select between topology-aware rings and double binary trees
    (:mod:`repro.nccl`).

The module doubles as the *backend registry*: anything that needs the
list of runnable backends (CLI choices, the conformance matrix's
backend axis) derives it from :func:`profile_names` instead of
hardcoding names.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, replace
from typing import List, Optional

__all__ = ["MPIProfile", "NCCLProfile", "MV2GDR", "MV2", "OPENMPI", "NCCL",
           "get_profile", "is_stock_profile", "profile_names",
           "register_profile", "registered_profile"]

KiB = 1 << 10
MiB = 1 << 20


@dataclass(frozen=True)
class MPIProfile:
    """Mechanism knobs that distinguish MPI runtimes."""

    name: str
    #: Direct GPU<->NIC DMA for inter-node device buffers (GPUDirect RDMA).
    gdr: bool
    #: CUDA IPC peer copies for intra-node device buffers.
    ipc: bool
    #: Chunk size for pipelined host-staged transfers.
    pipeline_chunk: int
    #: Internal segmentation of reduction algorithms (per-segment
    #: recv+reduce+forward granularity).
    reduce_segment: int
    #: Perform reduction arithmetic with GPU kernels (else host CPU).
    gpu_reduce: bool
    #: Staging buffers are page-locked (pinned).
    pinned_staging: bool
    #: Segments of a reduction processed with pipelining (overlap recv of
    #: segment k+1 with compute of k); OpenMPI-era collectives serialize.
    segment_pipelining: bool
    #: Extra synchronization cost (stream sync / event query) paid by
    #: non-pipelined segment processing, expressed in seconds per
    #: *full* ``reduce_segment``; partial segments pay pro-rata (the
    #: underlying cost is per internal copy block).
    per_segment_sync: float
    #: Hierarchical (multi-level communicator) reduce designs available.
    hierarchical_reduce: bool
    #: Ibcast progresses asynchronously (hardware/async progress).  The
    #: paper notes runtimes *do* progress Ibcast in the background but do
    #: NOT asynchronously progress Ireduce computation (Section 4.2).
    async_progress: bool
    #: Point-to-point eager/rendezvous switchover.
    eager_threshold: int = 16 * KiB
    #: Default flat reduce algorithm.
    flat_reduce_algorithm: str = "binomial"
    #: Use GDR only up to this message size: the PCIe root complex caps
    #: GDR *reads* well below pinned-DMA bandwidth on Haswell-era
    #: chipsets, so real MVAPICH2-GDR switches to pipelined host staging
    #: for large messages (the GPUDIRECT_LIMIT tunable).
    gdr_threshold: int = 128 * KiB
    #: Chain length k for the CB-k/CC-k/CCB-k hierarchical reduce
    #: designs (the paper's ideal chain size; exposed as an MPI_T cvar).
    chain_size: int = 8
    #: Pre-posted receives per chain-reduce hop; 0 means unbounded (all
    #: chunk receives posted up front).  Exposed as an MPI_T cvar.
    pipeline_window: int = 0

    def derive(self, **kwargs) -> "MPIProfile":
        """A copy with some knobs replaced (for ablations)."""
        return replace(self, **kwargs)

    def segment_sync_time(self, nbytes: int) -> float:
        """Synchronization charge for a segment of ``nbytes``."""
        if not self.per_segment_sync:
            return 0.0
        return self.per_segment_sync * nbytes / self.reduce_segment


MV2GDR = MPIProfile(
    name="mv2gdr",
    gdr=True,
    ipc=True,
    pipeline_chunk=512 * KiB,
    reduce_segment=4 * MiB,
    gpu_reduce=True,
    pinned_staging=True,
    segment_pipelining=True,
    per_segment_sync=0.0,
    hierarchical_reduce=True,
    async_progress=True,
)

MV2 = MPIProfile(
    name="mv2",
    gdr=True,
    ipc=True,
    pipeline_chunk=2 * MiB,
    reduce_segment=2 * MiB,
    gpu_reduce=False,
    pinned_staging=True,
    segment_pipelining=True,
    per_segment_sync=0.0,
    hierarchical_reduce=False,
    async_progress=True,
)

#: OpenMPI v1.10.2's CUDA collectives move device buffers through
#: pageable host staging in small internal blocks (~8 KiB), each with a
#: synchronous cuMemcpy (launch + sync ~ 31 us).  We simulate at a 1 MiB
#: segment granularity to keep the event count tractable and charge the
#: aggregated per-block synchronization as ``per_segment_sync``:
#: (1 MiB / 8 KiB) blocks x 2 copies x ~15.6 us = 4 ms per segment.
OPENMPI = MPIProfile(
    name="openmpi",
    gdr=False,
    ipc=False,
    pipeline_chunk=1 * MiB,
    reduce_segment=1 * MiB,
    gpu_reduce=False,
    pinned_staging=False,
    segment_pipelining=False,
    per_segment_sync=4.0e-3,
    hierarchical_reduce=False,
    async_progress=False,
)

@dataclass(frozen=True)
class NCCLProfile(MPIProfile):
    """Knobs specific to the simulated NCCL backend (:mod:`repro.nccl`).

    Inherits every transport mechanism knob — the transport layer treats
    NCCL like a device-native runtime (IPC + GDR + GPU reductions) — and
    adds the algorithm-selection knobs NCCL itself tunes.
    """

    #: Fine-grained pipelining chunk for ring/tree collectives: each
    #: ring step (and each tree edge) moves the payload in chunks of at
    #: most this many bytes so the reduction of chunk k overlaps the
    #: transfer of chunk k+1.  Exposed as the ``nccl.ring_chunk`` cvar.
    ring_chunk: int = 256 * KiB
    #: Allreduce/broadcast payloads at or below this size use the double
    #: binary trees (latency-optimal, log2 P depth); larger payloads use
    #: the topology-aware rings (bandwidth-optimal).  Exposed as the
    #: ``nccl.tree_threshold`` cvar.
    tree_threshold: int = 256 * KiB


#: The simulated NCCL backend.  Transport mechanisms mirror ``mv2gdr``
#: (that is the point of the crossover study: same wires, different
#: collective algorithms); hierarchical reduce is an MPI-side design and
#: stays off.
NCCL = NCCLProfile(
    name="nccl",
    gdr=True,
    ipc=True,
    pipeline_chunk=512 * KiB,
    reduce_segment=4 * MiB,
    gpu_reduce=True,
    pinned_staging=True,
    segment_pipelining=True,
    per_segment_sync=0.0,
    hierarchical_reduce=False,
    async_progress=True,
)

_PROFILES = {p.name: p for p in (MV2GDR, MV2, OPENMPI, NCCL)}


def register_profile(profile: MPIProfile) -> None:
    """Add (or replace) a backend profile in the registry.

    Names are normalized to lowercase — :func:`get_profile` lowercases
    its lookup, so a mixed-case registration would otherwise be
    unreachable.  The stored profile carries the normalized name too,
    keeping ``get_profile(name).name == name.lower()``.
    """
    key = profile.name.lower()
    if profile.name != key:
        profile = replace(profile, name=key)
    _PROFILES[key] = profile


def profile_names() -> List[str]:
    """Registered backend names, in registration order."""
    return list(_PROFILES)


def registered_profile(name: str) -> Optional[MPIProfile]:
    """The registry's current entry for ``name`` (exact, normalized
    name), or None."""
    return _PROFILES.get(name)


def is_stock_profile(profile: MPIProfile) -> bool:
    """True when ``profile`` still equals its registered original.

    Any ``derive()`` — which is what every CVAR write goes through —
    breaks the dataclass equality, so this is the gate the tuning-table
    consult uses: an explicitly hand-tuned profile must never be
    second-guessed by an offline table (explicit MPI_T writes win).
    """
    base = registered_profile(profile.name)
    return base is not None and base == profile


def get_profile(name: str) -> MPIProfile:
    """Look up a profile by name (``mv2gdr``/``mv2``/``openmpi``/``nccl``)."""
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        hint = ""
        close = difflib.get_close_matches(name.lower(), _PROFILES, n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        raise KeyError(
            f"unknown MPI profile {name!r}; choose from "
            f"{sorted(_PROFILES)}{hint}")
