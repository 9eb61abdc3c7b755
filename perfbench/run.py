"""Host-time benchmark of the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --list        # every metric, unit, meaning

One process runs one workload single-threaded: it sets up, runs one
warm-up pass over the workload's experiment list, then timed passes
until ``--seconds`` have elapsed (at least two).  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds a pass under ``cProfile``
and reports the per-layer metrics.  Every experiment's outputs are
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the full result record, with its provenance block.

Timings are calibrated host seconds (see ``hostclock.py``).  Results
compare only within one seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro") + os.sep

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5
#: Timed passes per run, at least.
MIN_PASSES = 2


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One workload process: passes, outcomes and the metrics they give."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.attempted = 0
        self.failures = []
        self.reference = {}        # experiment -> signature (warm-up pass)
        self.passes = []           # [{experiment: calibrated s}]
        self.raw_passes = []       # [raw s per pass]
        self.outcomes = {}         # experiment -> Outcome (last pass)
        self.groups = {}           # experiment -> group

    # -- running ---------------------------------------------------------
    def run_pass(self, meter=None) -> None:
        """Run every experiment once; time each one when ``meter``."""
        first = not self.reference
        for exp in self.wl.experiments():
            self.groups[exp.name] = exp.group
            self.attempted += 1
            mark = meter.start() if meter is not None else None
            try:
                out = exp.run()
            except Exception as exc:   # an experiment that raises fails
                if meter is not None:
                    meter.stop(mark, exp.name)
                tb = traceback.format_exception_only(type(exc), exc)
                self.failures.append(
                    f"{exp.name}: raised {''.join(tb).strip()}; repro: "
                    f"python3 perfbench/run.py --workload {self.wl.name} "
                    f"--seed {self.wl.seed} --seconds 1 --trace 0")
                continue
            if meter is not None:
                meter.stop(mark, exp.name)
            if first:
                self.reference[exp.name] = out.signature
            elif out.ok and out.signature != self.reference.get(exp.name):
                out.ok = False
                out.detail = (f"simulated outputs differ from the warm-up "
                              f"pass: {out.signature!r} vs "
                              f"{self.reference.get(exp.name)!r}")
            if not out.ok:
                self.failures.append(f"{exp.name}: {out.detail}")
            self.outcomes[exp.name] = out

    def timed_pass(self) -> None:
        from hostclock import Meter
        gc.collect()
        meter = Meter()
        meter.start_sampling()
        try:
            self.run_pass(meter)
        finally:
            meter.stop_sampling()
        self.passes.append(meter.flush())
        self.raw_passes.append(sum(meter.raw.values()))

    def traced_pass(self):
        """One pass under cProfile: (calibrated seconds, LayerProfile)."""
        from hostclock import REF_CAL_S, calibrate
        from layers import profile_call
        gc.collect()
        before = calibrate()
        t0 = time.perf_counter()
        prof = profile_call(self.run_pass, REPRO_DIR, BENCH_DIR)
        raw = time.perf_counter() - t0
        scale = REF_CAL_S / (0.5 * (before + calibrate()))
        return raw * scale, prof

    # -- metrics ---------------------------------------------------------
    def pass_totals(self):
        return [sum(p.values()) for p in self.passes]

    def group_wall(self, group: str) -> float:
        return _median([sum(v for k, v in p.items()
                            if self.groups.get(k) == group)
                        for p in self.passes])

    def sim_s(self) -> float:
        return sum(o.sim_s for o in self.outcomes.values())

    def ok_frac(self) -> float:
        return 1.0 - len(self.failures) / self.attempted

    def end_to_end(self, setup_s: float) -> dict:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"setup_s": setup_s,
                "wall_s": _median(self.pass_totals()),
                "peak_rss_mb": rss_kib / 1024.0,
                "sim_s": self.sim_s(),
                "ok_frac": self.ok_frac()}

    def per_layer(self, traced_s: float, prof) -> dict:
        from catalogue import BACKENDS, FRAMEWORKS, PHASES, SCAFFE_GPUS
        from layers import LAYERS
        m = {}
        shares = prof.shares()
        for layer in LAYERS:
            m[f"{layer}.self_share"] = shares[layer]
        for layer in LAYERS:
            m[f"{layer}.calls"] = prof.calls[layer]
        m["trace.overhead"] = traced_s / _median(self.pass_totals())
        outs = self.outcomes
        m["sim.events"] = sum(o.events for o in outs.values())
        for p in SCAFFE_GPUS:
            name = next((n for n in outs if n.startswith(f"scaffe.p{p}")),
                        None)
            us = 0.0
            if name is not None and outs[name].events:
                wall = _median([q[name] for q in self.passes])
                us = wall / outs[name].events * 1e6
            m[f"sim.us_per_event.p{p}"] = us
        m["sim.link_train_share"] = link_train_share(prof)
        m["mpi.transport.retries"] = sum(o.retries for o in outs.values())
        for fw in FRAMEWORKS:
            m[f"core.{fw}.wall_s"] = self.group_wall(f"core.{fw}")
        p32 = next((o for n, o in outs.items()
                    if n.startswith("scaffe.p32")), None)
        for ph in PHASES:
            m[f"sim.phase.{ph}_s"] = p32.phases[ph] if p32 else 0.0
        m["sim.io_stall_s"] = p32.io_stall_s if p32 else 0.0
        m["obs.post_s"] = self.group_wall("obs.post")
        for b in BACKENDS:
            m[f"check.{b}.wall_s"] = self.group_wall(f"check.{b}")
        m["check.large.wall_s"] = self.group_wall("check.large")
        return m


def link_train_share(prof) -> float:
    """Share of link holds that were batched trains.

    A link hold is one ``Resource.request`` made by a link path: the
    per-message paths (``BandwidthLink.transfer``,
    ``multi_link_transfer``) or a batched train (any requesting
    function whose name contains ``train``).
    """
    callers = prof.calls_by_caller("request", os.path.join(
        "repro", "sim", "resources.py"))
    train = per_msg = 0
    for (cfile, cfunc), n in callers.items():
        if "train" in cfunc:
            train += n
        elif (cfunc == "transfer" and cfile.endswith("resources.py")) \
                or cfunc == "multi_link_transfer":
            per_msg += n
    total = train + per_msg
    return train / total if total else 0.0


def measure_setup(workload: str, seed: int) -> float:
    """Median calibrated seconds of :data:`SETUP_PROBES` fresh processes
    that set the workload up and exit."""
    from hostclock import REF_CAL_S, calibrate
    probe = os.path.join(BENCH_DIR, "probe.py")
    times = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe, workload, str(seed)],
                       check=True, timeout=120, cwd=ROOT)
        raw = time.perf_counter() - t0
        after = calibrate()
        times.append(raw * REF_CAL_S / (0.5 * (before + after)))
        before = after
    return _median(times)


def provenance(seed: int, passes: int) -> dict:
    """RunCard-style provenance: the RunCard's ``seed`` and
    ``tuning_digest`` fields plus commit, host and toolchain."""
    import numpy
    from hostclock import REF_CAL_S
    from repro.obs.runcard import tuning_tables_digest
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 \
                and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "host": platform.node(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "passes": passes,
            "tuning_digest": tuning_tables_digest(),
            "ref_cal_s": REF_CAL_S}


def measure(workload_name: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run one workload; return its result record."""
    from workloads import make_workload
    wl = make_workload(workload_name, seed)
    setup_s = 0.0 if trace else measure_setup(workload_name, seed)
    wl.ready()
    wl.prepare()
    run = Run(wl)
    run.run_pass()                       # warm-up, untimed
    t_end = time.perf_counter() + seconds
    while len(run.passes) < MIN_PASSES or time.perf_counter() < t_end:
        run.timed_pass()
    totals = run.pass_totals()
    record = {"workload": workload_name,
              "provenance": provenance(seed, len(run.passes)),
              "wall_s_passes": totals,
              "wall_s_raw_passes": run.raw_passes,
              "failures": run.failures}
    if trace:
        traced_s, prof = run.traced_pass()
        record["metrics"] = run.per_layer(traced_s, prof)
        record["sim_s"] = run.sim_s()
    else:
        record["metrics"] = run.end_to_end(setup_s)
    record["attempted"] = run.attempted
    record["failed"] = len(run.failures)
    return record


def _list_metrics() -> None:
    from catalogue import END_TO_END, PER_LAYER
    for title, group in (("end-to-end (--trace 0)", END_TO_END),
                         ("per-layer (--trace 1)", PER_LAYER)):
        print(f"# {title}")
        print(f"{'name':34s} {'unit':6s} {'better':7s} {'clock':5s} "
              f"{'kind':6s} meaning")
        for m in group:
            print(f"{m.name:34s} {m.unit:6s} {m.better:7s} {m.clock:5s} "
                  f"{m.kind:6s} {m.meaning}")


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (default 0; held-out seed: 11)")
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print every metric with its unit and exit")
    args = ap.parse_args(argv)
    if args.list:
        _list_metrics()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        print(f"perfbench: no program to measure: {REPRO_DIR} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from catalogue import END_TO_END, PER_LAYER
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    prov = record["provenance"]
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"passes {prov['passes']}  commit {prov['commit'][:12]}  "
          f"host {prov['host']} ({prov['nproc']} cpu)")
    totals = record["wall_s_passes"]
    print(f"# wall_s per pass (calibrated): "
          + " ".join(f"{t:.3f}" for t in totals)
          + f"  median {_median(totals):.3f}  max {max(totals):.3f}  "
          f"n={len(totals)}")
    print("# raw host seconds per pass: "
          + " ".join(f"{t:.3f}" for t in record["wall_s_raw_passes"]))
    for failure in record["failures"]:
        print(f"FAIL {failure}")
    for name, value in record["metrics"].items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    print("record: " + json.dumps(record, sort_keys=True))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in record["metrics"].items()}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
