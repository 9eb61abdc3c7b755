"""Device-buffer transport: the CUDA-aware part of the MPI runtime.

This module decides *how bytes move* between two GPU buffers, as a
function of the runtime profile and the endpoint placement:

=====================  ==========================================
endpoint placement      mechanism (by profile)
=====================  ==========================================
same GPU                device-to-device copy
same node, ``ipc``      CUDA IPC peer copy over both PCIe uplinks
same node, no IPC       pipelined D2H -> host -> H2D staging
other node, ``gdr``     GPUDirect RDMA (PCIe + NIC cut-through,
                        capped at the GDR read bandwidth)
other node, no GDR      pipelined D2H -> NIC wire -> H2D staging
=====================  ==========================================

Pipelined staging is modeled faithfully: one sim process per chunk,
contending FIFO on the PCIe/NIC/host links, so stage overlap (and its
absence for tiny chunks, where per-copy overhead dominates) emerges from
the event model rather than a closed-form guess.
"""

from __future__ import annotations

import zlib
from typing import Any, Generator, NamedTuple, Optional, Tuple

import numpy as np

from ..cuda import CudaRuntime, DeviceBuffer, HostBuffer
from ..hardware import Cluster, multi_link_transfer
from ..hardware.gpu import GPUDevice
from ..hardware.faults import LinkDownError, MessageDropped, TransportFault
from ..sim import BandwidthLink, Event
from ..sim.resources import pipeline_exit_times
from ..telemetry.metrics import MetricsRegistry
from .profiles import MPIProfile

__all__ = ["DeviceTransport", "CutThrough", "TransportTimeout",
           "TransportMetrics", "ChecksumError", "IntegrityError"]


class TransportTimeout(RuntimeError):
    """A transfer exhausted its retry budget (the link never recovered)."""


class ChecksumError(TransportFault):
    """The delivered payload failed its CRC32 verify (NACK: retransmit).

    A :class:`~repro.hardware.faults.TransportFault` subclass so the
    transport's bounded retry/backoff loop doubles as the retransmit
    machinery — a corrupted delivery is re-sent like a dropped one.
    """


class IntegrityError(TransportTimeout):
    """Every retransmit kept failing its checksum (persistent corruptor).

    A :class:`TransportTimeout` subclass: callers that treat transport
    exhaustion as recoverable (revoke/shrink) handle this identically;
    the distinct type preserves *why* the transfer gave up.
    """


class TransportMetrics:
    """Robustness counters (zero on a quiet fabric), registry-backed.

    This is a *view* over the simulator's metrics registry — the same
    counters the telemetry PVARs read — so each count has exactly one
    source of truth.  The attribute API (``metrics.retries``, ...) is
    preserved for the fault tests and the invariant checker; mutation
    goes through the ``count_*`` / staging methods.
    """

    def __init__(self, registry: MetricsRegistry):
        self._retries = registry.counter(
            "transport.retries",
            "transfer attempts retried after transient link faults")
        self._timeouts = registry.counter(
            "transport.timeouts",
            "transfers that exhausted their retry budget")
        self._drops = registry.counter(
            "transport.drops_detected",
            "forced message drops observed by the transport")
        self._link_down = registry.counter(
            "transport.link_down_detected", "transfers that hit a down link")
        self._stagings = registry.gauge(
            "transport.stagings_live",
            "host staging buffers currently alive (must drain to 0)")
        self._stagings_peak = registry.gauge(
            "transport.stagings_peak",
            "high-water mark of concurrently live staging buffers")
        self._corrupt_detected = registry.counter(
            "integrity.corrupt_detected",
            "deliveries whose CRC32 verify failed (corruption caught)")
        self._retransmits = registry.counter(
            "integrity.retransmits",
            "transfers re-sent after a failed checksum verify")
        self._integrity_failures = registry.counter(
            "integrity.failures",
            "transfers that exhausted retransmits on checksum failures")
        self._silent_corruptions = registry.counter(
            "integrity.silent_corruptions",
            "corrupted deliveries that PASSED verify (must stay 0; "
            "non-zero means the checksum layer is broken)")

    @property
    def retries(self) -> int:
        return int(self._retries.value())

    @property
    def timeouts(self) -> int:
        return int(self._timeouts.value())

    @property
    def drops_detected(self) -> int:
        return int(self._drops.value())

    @property
    def link_down_detected(self) -> int:
        return int(self._link_down.value())

    @property
    def stagings_live(self) -> int:
        """Host staging buffers currently alive (leak detector for the
        interrupt-during-staged-transfer path; must return to 0)."""
        return int(self._stagings.value())

    @property
    def stagings_peak(self) -> int:
        return int(self._stagings_peak.value())

    @property
    def corrupt_detected(self) -> int:
        return int(self._corrupt_detected.value())

    @property
    def retransmits(self) -> int:
        return int(self._retransmits.value())

    @property
    def integrity_failures(self) -> int:
        return int(self._integrity_failures.value())

    @property
    def silent_corruptions(self) -> int:
        return int(self._silent_corruptions.value())

    def count_retry(self) -> None:
        self._retries.inc()

    def count_timeout(self) -> None:
        self._timeouts.inc()

    def count_drop(self) -> None:
        self._drops.inc()

    def count_link_down(self) -> None:
        self._link_down.inc()

    def count_corrupt_detected(self) -> None:
        self._corrupt_detected.inc()

    def count_retransmit(self) -> None:
        self._retransmits.inc()

    def count_integrity_failure(self) -> None:
        self._integrity_failures.inc()

    def count_silent_corruption(self) -> None:
        self._silent_corruptions.inc()

    def enter_staging(self) -> None:
        self._stagings.inc()
        self._stagings_peak.set_max(self._stagings.value())

    def exit_staging(self) -> None:
        self._stagings.dec()


class CutThrough(NamedTuple):
    """A single-hold path: every link is held at once for one cut-through
    duration (CUDA IPC inside a node, GPUDirect RDMA between nodes)."""

    #: Links in path order; the latency sum and bottleneck run over them.
    links: Tuple[BandwidthLink, ...]
    #: Fixed wire time added to the hold (copy/message overhead, GDR cap).
    extra: float
    #: Transport path label for telemetry: ``"ipc"`` or ``"gdr"``.
    kind: str
    #: Span kind of the hold under a profiler: ``"p2p"`` or ``"rdma"``.
    span: str
    #: True when the mechanism itself copies the payload (IPC).
    moved: bool


class DeviceTransport:
    """Moves bytes between device buffers according to an MPI profile.

    Transient link faults (:class:`~repro.hardware.faults.TransportFault`)
    raised on the path are retried with bounded exponential backoff; the
    backoff schedule is deterministic (no randomness) so runs stay pure
    functions of the seed.  An exhausted budget raises
    :class:`TransportTimeout`.
    """

    #: Retry policy (deterministic exponential backoff).
    RETRY_LIMIT = 8
    RETRY_BASE = 50e-6     # first backoff, seconds
    RETRY_MAX = 10e-3      # backoff cap, seconds
    # Cumulative backoff = 50u+100u+...+6.4m ~= 12.75 ms: wide enough to
    # bridge a momentary link flap, bounded so a hard outage still fails
    # fast enough for recovery to engage.

    def __init__(self, cluster: Cluster, cuda: CudaRuntime,
                 profile: MPIProfile):
        self.cluster = cluster
        self.cuda = cuda
        self.profile = profile
        self.sim = cluster.sim
        self.cal = cluster.cal
        self.metrics = TransportMetrics(cluster.sim.metrics)

    # -- public API --------------------------------------------------------
    def transfer(self, src: DeviceBuffer, dst: DeviceBuffer,
                 nbytes: Optional[int] = None, *, src_offset: int = 0,
                 dst_offset: int = 0, payload: Optional[np.ndarray] = None,
                 ) -> Generator[Event, Any, None]:
        """Sub-protocol: move ``nbytes`` from ``src`` to ``dst``.

        Payload bytes (when present) are copied on completion.
        ``payload`` overrides the delivered bytes with a frozen snapshot
        (the communicator's eager-send contract: the bytes captured at
        post time land, not whatever the sender wrote since) — routing
        it through the transport keeps delivery in one place, so the
        integrity layer covers snapshots too.

        When the fault injector has armed corruptible links, every
        delivery is CRC32-verified against the bytes the sender put on
        the wire; a mismatch is NACKed and retransmitted through the
        same bounded backoff schedule as a drop.  Persistent corruption
        surfaces as :class:`IntegrityError` (a typed
        :class:`TransportTimeout`), never as silently wrong bytes.  On a
        quiet fabric the integrity layer costs one attribute load and
        adds zero simulated events.
        """
        n = self._span(src, dst, nbytes, src_offset, dst_offset)
        rec = self.sim.recorder
        if rec is not None:
            # One logical message per transfer call (retries not
            # double-counted) — feeds the (src, dst) comm matrix.
            rec.message(src.device, dst.device, n)
        armed = self.cluster.fault_links_armed
        attempt = 0
        corrupted = False
        while True:
            try:
                if armed and n:
                    corrupted = self._consume_corruption(src, dst, n)
                moved = yield from self._transfer_once(
                    src, dst, n, src_offset, dst_offset)
                if armed:
                    self.deliver(src, dst, n, src_offset, dst_offset,
                                 payload, moved, corrupted)
                    self._verify(src, dst, n, src_offset, dst_offset,
                                 payload, corrupted)
                break
            except TransportFault as exc:
                if isinstance(exc, MessageDropped):
                    self.metrics.count_drop()
                elif isinstance(exc, LinkDownError):
                    self.metrics.count_link_down()
                elif isinstance(exc, ChecksumError):
                    self.metrics.count_corrupt_detected()
                attempt += 1
                if attempt > self.RETRY_LIMIT:
                    if isinstance(exc, ChecksumError):
                        self.metrics.count_integrity_failure()
                        raise IntegrityError(
                            f"transfer {src.device.name}->{dst.device.name} "
                            f"failed checksum verify {self.RETRY_LIMIT + 1} "
                            f"times") from exc
                    self.metrics.count_timeout()
                    raise TransportTimeout(
                        f"transfer {src.device.name}->{dst.device.name} "
                        f"gave up after {self.RETRY_LIMIT} retries") from exc
                if isinstance(exc, ChecksumError):
                    self.metrics.count_retransmit()
                else:
                    self.metrics.count_retry()
                backoff = min(self.RETRY_BASE * (2 ** (attempt - 1)),
                              self.RETRY_MAX)
                yield self.sim.timeout(backoff)
        if not armed:
            self.deliver(src, dst, n, src_offset, dst_offset, payload,
                         moved)
        elif corrupted:
            # Reachable only if _verify let a corrupted delivery through
            # (e.g. the mutation self-test disabling it): the exact
            # failure mode the chaos gate exists to keep at zero.
            self.metrics.count_silent_corruption()

    def _span(self, src: DeviceBuffer, dst: DeviceBuffer,
              nbytes: Optional[int], src_offset: int, dst_offset: int,
              ) -> int:
        """Validate a transfer's offsets and size; returns the byte count."""
        if src_offset < 0 or dst_offset < 0:
            raise ValueError(
                f"negative offset (src_offset={src_offset}, "
                f"dst_offset={dst_offset})")
        if src_offset > src.nbytes or dst_offset > dst.nbytes:
            raise ValueError(
                f"offset beyond buffer: src_offset={src_offset} of "
                f"{src.nbytes}, dst_offset={dst_offset} of {dst.nbytes}")
        n = min(src.nbytes - src_offset,
                dst.nbytes - dst_offset) if nbytes is None else nbytes
        if n < 0:
            raise ValueError("negative transfer size")
        if src_offset + n > src.nbytes or dst_offset + n > dst.nbytes:
            raise ValueError(
                f"transfer of {n} bytes over-reads: src has "
                f"{src.nbytes - src_offset} past offset, dst has "
                f"{dst.nbytes - dst_offset}")
        return n

    def cut_through(self, a: GPUDevice, b: GPUDevice, nbytes: int,
                    ) -> Optional[CutThrough]:
        """The cut-through path an ``nbytes`` transfer from GPU ``a`` to
        GPU ``b`` takes, or None for a same-device copy or a staged
        (host-bounced) path.

        The one routing rule for IPC and GDR: :meth:`_transfer_once`,
        :meth:`_path_links`, :meth:`estimate` and the communicator's
        process-free messages all read it.
        """
        if a is b:
            return None
        profile = self.profile
        cal = self.cal
        if a.node_index == b.node_index:
            if not profile.ipc:
                return None
            return CutThrough((a.pcie_up, b.pcie_down),
                              cal.cuda_copy_overhead, "ipc", "p2p", True)
        if not profile.gdr or nbytes > profile.gdr_threshold:
            return None
        # GPUDirect RDMA: PCIe(src) -> NIC(src) -> NIC(dst) -> PCIe(dst).
        # The GDR read-bandwidth cap inflates the wire time to
        # ``nbytes / gdr_read_bw`` when that exceeds the raw cut-through.
        cluster = self.cluster
        links = (a.pcie_up, cluster.node_of(a).nic_for(a).tx,
                 cluster.node_of(b).nic_for(b).rx, b.pcie_down)
        raw_bw = min(l.bandwidth for l in links)
        extra = 0.0
        if cal.gdr_read_bw < raw_bw:
            extra = nbytes / cal.gdr_read_bw - nbytes / raw_bw
        return CutThrough(links, extra + cal.mpi_message_overhead,
                          "gdr", "rdma", False)

    def direct_route(self, src: DeviceBuffer, dst: DeviceBuffer, n: int,
                     src_offset: int, dst_offset: int,
                     ) -> Optional[CutThrough]:
        """The path of a message that may move without a process, or None.

        Eligible: a cut-through path, no profiler installed, no fault
        links armed and no fault hook on the path, and a valid byte
        range.  Such a transfer is one hold with nothing to retry,
        verify or record, so a callback state machine realizes the
        mover's exact event sequence (see docs/PERFORMANCE.md).  A bad
        range returns None: the mover raises it where it always has.
        """
        if self.sim.recorder is not None or self.cluster.fault_links_armed:
            return None
        path = self.cut_through(src.device, dst.device, n)
        if path is None:
            return None
        for link in path.links:
            if link.check_fault is not None:
                return None
        try:
            self._span(src, dst, n, src_offset, dst_offset)
        except ValueError:
            return None
        return path

    def note_path(self, path: CutThrough, n: int) -> None:
        """Telemetry hooks of one cut-through transfer."""
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_transfer_path(path.kind, n)
            if path.kind == "ipc":
                tel.on_cuda_copy("p2p", n)

    def _transfer_once(self, src: DeviceBuffer, dst: DeviceBuffer, n: int,
                       src_offset: int, dst_offset: int,
                       ) -> Generator[Event, Any, bool]:
        """One transfer attempt; returns True if the payload already moved
        (the p2p mechanism copies it as part of the operation)."""
        path = self.cut_through(src.device, dst.device, n)
        if path is not None:
            self.note_path(path, n)
            yield from multi_link_transfer(
                self.sim, path.links, n, extra_time=path.extra,
                kind=path.span)
            if path.moved:
                dst.copy_payload_from(src, nbytes=n, src_offset=src_offset,
                                      dst_offset=dst_offset)
            return path.moved
        a, b = src.device, dst.device
        tel = self.sim.telemetry
        if a is b:
            if tel is not None:
                tel.on_transfer_path("d2d", n)
            yield from self.cuda.memcpy_d2d(a, n)
        elif self.cluster.same_node(a, b):
            if tel is not None:
                tel.on_transfer_path("staged_intra", n)
            yield from self._staged_intra_node(src, dst, n)
        else:
            if tel is not None:
                tel.on_transfer_path("staged_inter", n)
            yield from self._staged_inter_node(src, dst, n)
        return False

    # -- integrity layer ---------------------------------------------------
    def _path_links(self, src: DeviceBuffer, dst: DeviceBuffer, n: int):
        """The links a (src, dst) transfer traverses, for corruption
        attribution: the cut-through path, else the staged route."""
        path = self.cut_through(src.device, dst.device, n)
        if path is not None:
            return path.links
        a, b = src.device, dst.device
        if a is b:
            return ()
        if self.cluster.same_node(a, b):
            node = self.cluster.node_of(a)
            return (a.pcie_up, node.host_memcpy, b.pcie_down)
        nic_a = self.cluster.node_of(a).nic_for(a)
        nic_b = self.cluster.node_of(b).nic_for(b)
        return (a.pcie_up, nic_a.tx, nic_b.rx, b.pcie_down)

    def _consume_corruption(self, src: DeviceBuffer, dst: DeviceBuffer,
                            n: int) -> bool:
        """Consume at most one pending payload corruption on the path.

        Runs synchronously at attempt start (no yields between consuming
        the flag and the attempt it applies to), so concurrent transfers
        on other links cannot be mis-attributed the flip.
        """
        for link in self._path_links(src, dst, n):
            hook = link.consume_corruption
            if hook is not None and hook():
                return True
        return False

    def deliver(self, src: DeviceBuffer, dst: DeviceBuffer, n: int,
                src_offset: int, dst_offset: int,
                payload: Optional[np.ndarray], moved: bool = False,
                corrupted: bool = False) -> None:
        """Materialize one attempt's delivered bytes into ``dst``: the
        frozen ``payload`` when given, else the source range unless the
        mechanism already ``moved`` it.

        Idempotent across retransmits: each attempt rewrites the range
        from the source of truth, then applies this attempt's wire
        corruption (a deterministic bit-flip) on top.
        """
        if payload is not None and dst.data is not None:
            dst.data.view(np.uint8)[dst_offset:dst_offset + n] = payload
        elif not moved:
            dst.copy_payload_from(src, nbytes=n, src_offset=src_offset,
                                  dst_offset=dst_offset)
        if corrupted and n and dst.data is not None:
            view = dst.data.view(np.uint8)
            view[dst_offset] ^= 0x01

    def _verify(self, src: DeviceBuffer, dst: DeviceBuffer, n: int,
                src_offset: int, dst_offset: int,
                payload: Optional[np.ndarray], corrupted: bool) -> None:
        """Receive-side CRC32 verify; raises :class:`ChecksumError` on a
        mismatch (the NACK that triggers a retransmit).

        With real payloads the sender's CRC is computed over the bytes
        put on the wire and compared against the delivered range.  On
        size-only runs (no arrays to hash) the wire-corruption flag
        stands in for the mismatch — the *semantics* (detected, NACKed,
        retransmitted) are identical.
        """
        if dst.data is not None and (payload is not None
                                     or src.data is not None):
            if payload is not None:
                sent = np.ascontiguousarray(payload[:n])
            else:
                sent = np.ascontiguousarray(
                    src.data.view(np.uint8)[src_offset:src_offset + n])
            got = np.ascontiguousarray(
                dst.data.view(np.uint8)[dst_offset:dst_offset + n])
            if zlib.crc32(sent.tobytes()) != zlib.crc32(got.tobytes()):
                raise ChecksumError(
                    f"CRC32 mismatch on {src.device.name}->"
                    f"{dst.device.name} ({n} bytes)")
            return
        if corrupted:
            raise ChecksumError(
                f"CRC32 mismatch on {src.device.name}->{dst.device.name} "
                f"({n} bytes, modeled)")

    def estimate(self, src_gpu, dst_gpu, nbytes: int) -> float:
        """Closed-form uncontended estimate (used by tuning tables).

        A cut-through path (IPC, GDR) is priced exactly as its
        jitter-free hold: the link latencies, ``nbytes`` over the
        bottleneck bandwidth, and the path's fixed ``extra``.
        """
        if src_gpu is dst_gpu:
            return self.cal.cuda_copy_overhead + nbytes / src_gpu.spec.membw
        path = self.cut_through(src_gpu, dst_gpu, nbytes)
        if path is not None:
            lat = 0.0
            for link in path.links:
                lat += link.latency
            bw = min(link.bandwidth for link in path.links)
            return lat + nbytes / bw + path.extra
        if self.cluster.same_node(src_gpu, dst_gpu):
            return self._staged_estimate(nbytes, wire_bw=self.cal.pcie_bw)
        nic_bw = self.cluster.node_of(src_gpu).nic_for(src_gpu).bandwidth
        return self._staged_estimate(nbytes, wire_bw=nic_bw)

    # -- mechanisms ------------------------------------------------------------
    def _staged_chunks(self, nbytes: int) -> list:
        chunk = self.profile.pipeline_chunk
        offsets = list(range(0, nbytes, chunk)) or [0]
        return [(off, min(chunk, nbytes - off)) for off in offsets]

    def _staged_train(self, src: DeviceBuffer, dst: DeviceBuffer, chunks,
                      staging: HostBuffer, mid_links, mid_lat: float,
                      mid_bw: float, mid_extra: float, mid_ovh: float,
                      ) -> Generator[Event, Any, bool]:
        """Batched fast path for a pipelined staged transfer.

        When every stage link is :meth:`~repro.sim.resources.BandwidthLink.
        train_eligible` (no profiler spans, no armed jitter, no fault
        plan, nothing queued), the K-chunk software pipeline's schedule
        is a pure function of the chunk sizes — compute it in one
        :func:`pipeline_exit_times` call and post a constant number of
        events (one hold per stage) instead of one process and ~six
        events per chunk.  Counters, telemetry and busy-time integrals
        are replicated exactly; while a stage runs, its link reads as
        continuously busy, so foreign arrivals queue behind the train
        (per-chunk mode would interleave them — see docs/PERFORMANCE.md
        for why the fallback matrix makes this unobservable).

        Returns True if the train was posted, False if the caller must
        run the per-chunk pipeline.
        """
        if not self.profile.segment_pipelining or len(chunks) < 2:
            return False
        up = src.device.pcie_up
        down = dst.device.pcie_down
        stage_links = (up,) + tuple(mid_links) + (down,)
        for link in stage_links:
            if not link.train_eligible():
                return False
        sim = self.sim
        cal = self.cal
        sizes = [n for _off, n in chunks]
        factor = self.cuda._staging_factor(staging)
        effs = ([int(n / factor) for n in sizes] if factor != 1.0
                else sizes)
        sz = np.asarray(sizes, dtype=np.float64)
        ef = np.asarray(effs, dtype=np.float64)
        occ = np.empty((3, len(sizes)))
        occ[0] = up.latency + ef / up.bandwidth
        occ[1] = mid_lat + sz / mid_bw + mid_extra
        occ[2] = down.latency + ef / down.bandwidth
        # Each stage's pre-request delays, as the *sequence* of timeouts
        # the per-chunk path pays (float addition does not associate).
        overheads = ((cal.cuda_copy_overhead, up.per_message_overhead),
                     (mid_ovh,),
                     (cal.cuda_copy_overhead, down.per_message_overhead))
        now = sim.now
        exits = pipeline_exit_times(overheads, occ, start=now)

        k = len(sizes)
        eff_total = sum(effs)
        up.messages += k
        up.bytes_moved += eff_total
        down.messages += k
        down.bytes_moved += eff_total
        total = sum(sizes)
        for link in mid_links:
            link.messages += k
            link.bytes_moved += total
        tel = sim.telemetry
        if tel is not None:
            for n in sizes:
                tel.on_cuda_copy("d2h", n)
                tel.on_cuda_copy("h2d", n)

        for s, links in enumerate(((up,), tuple(mid_links), (down,))):
            end = float(exits[s, -1])
            gap = (end - now) - occ[s].sum()
            for link in links:
                res = link._res
                grant = res.request()._value  # idle -> granted inline

                def _done(_t, res=res, grant=grant, gap=gap):
                    res.release(grant)
                    res._absorb_idle(gap)

                sim.timeout_at(end).add_callback(_done)
        # Posted after the release timeouts: at the final instant the
        # stage holds are handed back first, then the caller resumes —
        # the order the per-chunk pipeline realizes.
        yield sim.timeout_at(float(exits[2, -1]))
        return True

    def _staged_pipeline(self, stages, chunks) -> Generator[Event, Any, None]:
        """Run ``stages`` (list of per-chunk sub-protocol factories) over
        ``chunks``, one sim process per chunk, contending on shared links.

        Under ``segment_pipelining`` chunks are all in flight at once and
        the FIFO links produce a software pipeline; without it (the
        OpenMPI profile) chunks run strictly one after another, plus a
        per-segment synchronization charge.
        """
        if self.profile.segment_pipelining:
            procs = []
            for off, n in chunks:
                def chain(n=n):
                    for stage in stages:
                        yield from stage(n)
                procs.append(self.sim.process(chain(), eager=True))
            yield self.sim.all_of(procs)
        else:
            for off, n in chunks:
                for stage in stages:
                    yield from stage(n)
                sync = self.profile.segment_sync_time(n)
                if sync:
                    yield self.sim.timeout(sync)

    def _staged_intra_node(self, src: DeviceBuffer, dst: DeviceBuffer,
                           nbytes: int) -> Generator[Event, Any, None]:
        """No-IPC same-node path: D2H, host memcpy, H2D."""
        node = self.cluster.node_of(src.device)
        staging = HostBuffer(0, pinned=self.profile.pinned_staging)
        self.metrics.enter_staging()
        try:
            host = node.host_memcpy
            done = yield from self._staged_train(
                src, dst, self._staged_chunks(nbytes), staging,
                (host,), host.latency, host.bandwidth, 0.0,
                host.per_message_overhead)
            if done:
                return
            stages = [
                lambda n: self.cuda.memcpy_d2h(src, staging, n),
                lambda n: host.transfer(n, kind="hostcpy"),
                lambda n: self.cuda.memcpy_h2d(dst, staging, n),
            ]
            yield from self._staged_pipeline(stages,
                                             self._staged_chunks(nbytes))
        finally:
            self.metrics.exit_staging()

    def _staged_inter_node(self, src: DeviceBuffer, dst: DeviceBuffer,
                           nbytes: int) -> Generator[Event, Any, None]:
        """No-GDR cross-node path: D2H, NIC->NIC wire, H2D."""
        a, b = src.device, dst.device
        nic_a = self.cluster.node_of(a).nic_for(a)
        nic_b = self.cluster.node_of(b).nic_for(b)
        staging = HostBuffer(0, pinned=self.profile.pinned_staging)
        self.metrics.enter_staging()
        try:
            done = yield from self._staged_train(
                src, dst, self._staged_chunks(nbytes), staging,
                (nic_a.tx, nic_b.rx),
                nic_a.tx.latency + nic_b.rx.latency,
                min(nic_a.tx.bandwidth, nic_b.rx.bandwidth),
                self.cal.mpi_message_overhead, 0.0)
            if done:
                return

            def wire(n):
                yield from multi_link_transfer(
                    self.sim, [nic_a.tx, nic_b.rx], n,
                    extra_time=self.cal.mpi_message_overhead, kind="wire")

            stages = [
                lambda n: self.cuda.memcpy_d2h(src, staging, n),
                wire,
                lambda n: self.cuda.memcpy_h2d(dst, staging, n),
            ]
            yield from self._staged_pipeline(stages,
                                             self._staged_chunks(nbytes))
        finally:
            self.metrics.exit_staging()

    def _staged_estimate(self, nbytes: int, wire_bw: float) -> float:
        chunk = min(self.profile.pipeline_chunk, max(1, nbytes))
        nchunks = max(1, -(-nbytes // chunk))
        factor = 1.0 if self.profile.pinned_staging else self.cal.unpinned_factor
        d2h = self.cal.cuda_copy_overhead + chunk / (self.cal.pcie_bw * factor)
        wire = self.cal.ib_latency + chunk / wire_bw
        h2d = d2h
        if self.profile.segment_pipelining:
            bottleneck = max(d2h, wire, h2d)
            return d2h + wire + h2d + (nchunks - 1) * bottleneck
        per = (d2h + wire + h2d
               + self.profile.segment_sync_time(chunk))
        return nchunks * per
