"""Link-path composition helpers.

Transfers that traverse several physical links (e.g. a GPUDirect-RDMA
message: source PCIe -> source NIC -> fabric -> dest NIC -> dest PCIe)
hold every link for the duration of the cut-through transfer.  Links are
acquired in a globally consistent order (by name) so concurrent multi-link
transfers cannot deadlock.
"""

from __future__ import annotations

from typing import Any, Generator, List, Sequence

from ..sim import BandwidthLink, Event, Simulator

__all__ = ["acquisition_order", "cut_through_time", "hold_time",
           "multi_link_transfer"]


def cut_through_time(links: Sequence[BandwidthLink], nbytes: int) -> float:
    """Cut-through duration: sum of latencies + serialization on the
    narrowest link."""
    if not links:
        raise ValueError("need at least one link")
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    lat = sum(l.latency for l in links)
    bw = min(l.bandwidth for l in links)
    return lat + nbytes / bw


def acquisition_order(links: Sequence[BandwidthLink]) -> List[BandwidthLink]:
    """The distinct links of a path in the global acquisition order (by
    name), so concurrent multi-link holds cannot deadlock.

    Duplicate links (loopback-style paths) collapse to one acquisition.
    """
    if len(links) == 2:
        # Dominant case (PCIe pair, NIC tx/rx): dedup + name-sort inline.
        a, b = links
        if a is b:
            return [a]
        return [a, b] if a.name <= b.name else [b, a]
    uniq = []
    seen = set()
    for l in links:
        if id(l) not in seen:
            seen.add(id(l))
            uniq.append(l)
    uniq.sort(key=lambda l: l.name)
    return uniq


def hold_time(sim: Simulator, links: Sequence[BandwidthLink], nbytes: int,
              extra_time: float = 0.0) -> float:
    """How long a cut-through transfer holds every link of its path.

    The latency sum and bottleneck bandwidth run over ``links`` as given
    (duplicates counted, matching :func:`cut_through_time`); the largest
    per-link jitter scales the wire time by one draw; ``extra_time`` of
    fixed software overhead is added on top.
    """
    jitter = 0.0
    lat = 0.0
    bw = None
    for l in links:
        lat += l.latency
        lbw = l.bandwidth
        if bw is None or lbw < bw:
            bw = lbw
        if l.jitter > jitter:
            jitter = l.jitter
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    duration = lat + nbytes / bw
    if jitter:
        duration *= sim.jitter_factor(jitter)
    return duration + extra_time


def multi_link_transfer(sim: Simulator, links: Sequence[BandwidthLink],
                        nbytes: int, *, extra_time: float = 0.0,
                        kind: str = "xfer",
                        ) -> Generator[Event, Any, None]:
    """Sub-protocol: hold all ``links`` simultaneously for the cut-through
    duration (+ ``extra_time`` of fixed software overhead on the wire).

    Duplicate links in the path (loopback-style transfers) are collapsed
    to a single acquisition.

    Fault semantics: any :class:`~repro.hardware.faults.FaultyLink` on
    the path is checked up front — a down link or a pending forced drop
    raises before any wire is held, so the transport retry path observes
    a clean failure; a stalled link parks the transfer forever (watchdog
    territory).  Interrupt-safe: an interrupt while queued on a
    link withdraws the pending request instead of leaking the grant.
    """
    if not links:
        raise ValueError("need at least one link")
    uniq = acquisition_order(links)
    # Fault check first: a down link or pending drop raises before any
    # jitter is drawn or any wire is held.
    for l in uniq:
        check = l.check_fault
        if check is not None:
            check()
            if l.is_stalled:
                # Stalled link: the transfer parks forever instead of
                # failing fast — only a watchdog interrupt releases it.
                yield from l.stall_transfer(nbytes)
    duration = hold_time(sim, links, nbytes, extra_time)
    grants = []
    sid = None
    rec = sim.recorder
    try:
        for l in uniq:
            req = l._res.request()
            try:
                grant = yield req
            except BaseException:
                l._res.cancel(req)
                raise
            grants.append((l, grant))
            l.messages += 1
            l.bytes_moved += nbytes
        if rec is not None:
            # One span holding every link, led by the bottleneck link so
            # class attribution (ib vs pcie) follows the narrowest hop.
            narrow = min(uniq, key=lambda l: (l.bandwidth, l.name))
            names = [narrow.name] + [l.name for l in uniq if l is not narrow]
            sid = rec.open(kind, resources=tuple(names), nbytes=nbytes)
        yield sim.timeout(duration)
    finally:
        if sid is not None:
            # Close before releasing: successors granted at this instant
            # must see a closed predecessor.
            rec.close(sid)
        for l, grant in grants:
            l._res.release(grant)
