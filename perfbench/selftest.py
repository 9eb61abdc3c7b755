"""The benchmark's own self-test.

    python3 perfbench/selftest.py [--seed 0]

1. ``BENCHMARK.json`` names exactly the metrics of ``catalogue.py``,
   with the same units and directions.
2. Determinism: two fresh ``--trace 1`` processes per workload give
   identical exact metrics (``sim_s``, ``sim.events``, every
   ``*.calls``, ``sim.phase.*``, ``sim.io_stall_s``,
   ``sim.link_train_share``, ``mpi.transport.retries``).
3. Injected slowdown: a busy-wait wrapped around the public
   ``repro.prof.SpanRecorder.open`` must raise ``observed``'s
   ``wall_s`` by more than its bound and raise ``prof.self_share``,
   while ``train`` (no recorder attached) stays within the bound.
   Baseline and injected passes are interleaved in one process.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import types

import run as bench
from catalogue import END_TO_END, PER_LAYER

#: Busy-loop iterations added to every ``SpanRecorder.open`` call.  On
#: the reference host 2 000 raise ``observed``'s ``wall_s`` by ~80%:
#: well beyond the 25% bound, small enough that the self-test stays
#: quick.
INJECTED_SPINS = 2_000
#: Interleaved baseline/injected pass pairs per workload.
AB_PAIRS = 3


def _bounds() -> dict:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec, {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def check_catalogue(spec) -> list:
    errors = []
    for key, group in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = [(m.name, m.unit, m.better) for m in group]
        got = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if got != want:
            errors.append(f"BENCHMARK.json {key} differs from catalogue.py: "
                          f"{sorted(set(got) ^ set(want))[:6]}")
    return errors


def _exact(record: dict) -> dict:
    exact = {m.name for m in PER_LAYER if m.kind == "exact"}
    out = {k: v for k, v in record["metrics"].items() if k in exact}
    out["sim_s"] = record["sim_s"]
    return out


def _traced_record(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "1"],
        capture_output=True, text=True, cwd=bench.ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    line = proc.stdout.strip().splitlines()[-2]
    return json.loads(line[len("record: "):])


def check_determinism(seed: int) -> list:
    errors = []
    for workload in ("train", "observed", "conformance"):
        a = _exact(_traced_record(workload, seed))
        b = _exact(_traced_record(workload, seed))
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        print(f"determinism {workload}: {len(a)} exact metrics, "
              f"{len(diff)} differ")
        if diff:
            errors.append(f"{workload}: exact metrics differ between two "
                          f"runs: {diff}")
    return errors


@contextlib.contextmanager
def injected_slowdown(cls, attr: str, spins: int):
    """Wrap ``cls.attr`` in a busy-wait attributed to ``cls``'s module
    for the duration of the ``with`` block.

    The wrapper's code object carries the wrapped function's file name,
    so the profiler books the busy-wait to the same layer.
    """
    orig = getattr(cls, attr)

    def slowed(*args, **kwargs):
        for _ in range(spins):
            pass
        return orig(*args, **kwargs)

    code = slowed.__code__.replace(co_filename=orig.__code__.co_filename)
    setattr(cls, attr, types.FunctionType(code, slowed.__globals__, attr,
                                          None, slowed.__closure__))
    try:
        yield
    finally:
        setattr(cls, attr, orig)


def _ab(workload: str, seed: int):
    """Interleaved baseline/injected passes in this process.

    Returns (baseline wall, injected wall, baseline prof share,
    injected prof share, failures)."""
    from repro.prof import SpanRecorder
    from workloads import make_workload

    def slowdown():
        return injected_slowdown(SpanRecorder, "open", INJECTED_SPINS)

    wl = make_workload(workload, seed)
    wl.ready()
    wl.prepare()
    base, slow = bench.Run(wl), bench.Run(wl)
    base.run_pass()
    with slowdown():
        slow.run_pass()
    for _ in range(AB_PAIRS):
        base.timed_pass()
        with slowdown():
            slow.timed_pass()
    _, base_prof = base.traced_pass()
    with slowdown():
        _, slow_prof = slow.traced_pass()
    return (statistics.median(base.pass_totals()),
            statistics.median(slow.pass_totals()),
            base_prof.shares()["prof"], slow_prof.shares()["prof"],
            base.failures + slow.failures)


def check_injection(seed: int, bound: float) -> list:
    errors = []
    for workload, must_slow in (("observed", True), ("train", False)):
        b, s, pb, ps, failures = _ab(workload, seed)
        change = s / b - 1.0
        print(f"injection {workload}: wall_s {b:.3f} -> {s:.3f} "
              f"({change:+.1%}, bound {bound:.0%}); prof.self_share "
              f"{pb:.4f} -> {ps:.4f}")
        errors.extend(f"{workload}: {f}" for f in failures)
        if must_slow:
            if change <= bound:
                errors.append(f"{workload}: injected slowdown moved wall_s "
                              f"by {change:+.1%}, not beyond the bound")
            if ps <= pb + 0.02:
                errors.append(f"{workload}: prof.self_share did not rise "
                              f"({pb:.4f} -> {ps:.4f})")
        elif abs(change) > bound:
            errors.append(f"{workload}: wall_s moved {change:+.1%} with no "
                          "recorder attached; the bound should hold")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(bench.REPRO_DIR, "__init__.py")):
        print("selftest: no program to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, bench.SRC)
    spec, bounds = _bounds()
    errors = check_catalogue(spec)
    errors += check_determinism(args.seed)
    errors += check_injection(args.seed, bounds["wall_s"])
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("FAILED" if errors else "all checks pass"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
