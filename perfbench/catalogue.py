"""Every metric the benchmark reports: name, unit, direction, meaning.

``END_TO_END`` is reported by ``--trace 0`` runs and ``PER_LAYER`` by
``--trace 1`` runs; ``BENCHMARK.json`` lists the same names and units.
A per-layer metric a workload does not exercise reads 0 on it.
"""

from __future__ import annotations

from collections import namedtuple

from layers import LAYERS
from workloads import PHASES

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "FRAMEWORKS",
           "BACKENDS", "SCAFFE_GPUS", "PHASES"]

#: clock: "host" (calibrated host seconds or counts taken on the host),
#: "sim" (simulated, exact) or "-"; kind: "timed" (varies run to run)
#: or "exact" (repeats bit for bit for a given seed and code).
Metric = namedtuple("Metric", "name unit better clock kind meaning")

FRAMEWORKS = ("scaffe", "caffe", "nvcaffe", "cntk", "inspur", "mpicaffe")
BACKENDS = ("mv2gdr", "mv2", "openmpi", "nccl")
SCAFFE_GPUS = (16, 32, 64)

END_TO_END = (
    Metric("setup_s", "s", "lower", "host", "timed",
           "process start to first experiment ready (imports, model zoo, "
           "tuning tables, first cluster); median of 5 fresh processes"),
    Metric("wall_s", "s", "lower", "host", "timed",
           "median calibrated host seconds per pass over the experiment "
           "list; the first pass is a warm-up"),
    Metric("peak_rss_mb", "MiB", "lower", "host", "timed",
           "peak resident memory of the workload's process"),
    Metric("sim_s", "s", "lower", "sim", "exact",
           "sum of simulated makespans over one pass"),
    Metric("ok_frac", "ratio", "higher", "-", "exact",
           "experiments passing their checks / experiments attempted "
           "(1 - fail_frac)"),
)


def _per_layer():
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_share", "ratio", "lower", "host",
                          "timed", f"share of profiled self time in {layer}"))
    for layer in LAYERS:
        out.append(Metric(f"{layer}.calls", "count", "lower", "host",
                          "exact", f"entries into {layer} frames, "
                          "generator resumes included"))
    out.append(Metric("trace.overhead", "ratio", "lower", "host", "timed",
                      "traced pass time / untraced pass time"))
    out.append(Metric("sim.events", "count", "lower", "sim", "exact",
                      "simulator events processed in one pass"))
    for p in SCAFFE_GPUS:
        out.append(Metric(f"sim.us_per_event.p{p}", "us", "lower", "host",
                          "timed", f"calibrated host microseconds per event "
                          f"of the {p}-GPU S-Caffe point"))
    out.append(Metric("sim.link_train_share", "ratio", "higher", "host",
                      "exact", "share of link holds posted as batched "
                      "trains (traced pass)"))
    out.append(Metric("mpi.transport.retries", "count", "lower", "sim",
                      "exact", "transport retries in one pass "
                      "(sim.metrics transport.retries)"))
    for fw in FRAMEWORKS:
        out.append(Metric(f"core.{fw}.wall_s", "s", "lower", "host",
                          "timed", f"calibrated host seconds inside "
                          f"train() for {fw}, per pass"))
    for ph in PHASES:
        out.append(Metric(f"sim.phase.{ph}_s", "s", "lower", "sim",
                          "exact", f"simulated {ph} time per iteration, "
                          "32-GPU S-Caffe report"))
    out.append(Metric("sim.io_stall_s", "s", "lower", "sim", "exact",
                      "simulated I/O stall per iteration, 32-GPU "
                      "S-Caffe report"))
    out.append(Metric("obs.post_s", "s", "lower", "host", "timed",
                      "calibrated host seconds of the post-run analyses "
                      "(straggler report, RunCard, run payload)"))
    for b in BACKENDS:
        out.append(Metric(f"check.{b}.wall_s", "s", "lower", "host",
                          "timed", f"calibrated host seconds of the {b} "
                          "matrix cases, per pass"))
    out.append(Metric("check.large.wall_s", "s", "lower", "host", "timed",
                      "calibrated host seconds of the 1-4 MiB slice, "
                      "per pass"))
    return tuple(out)


PER_LAYER = _per_layer()
