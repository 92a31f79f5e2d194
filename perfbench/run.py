#!/usr/bin/env python3
"""Host-speed benchmark of the SoftWalker simulator.

Run from the repository root::

    python3 perfbench/run.py --workload sw-walk --seed 1 --seconds 24 --trace 0

The benchmark repeats one *pass* of a workload (a fixed set of
simulations built from ``--seed``) until ``--seconds`` are used up, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
count simulations, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  Timings are
medians over the passes of the run, in seconds of a reference host: a
fixed kernel (``calibrate.py``) is timed before and after every pass,
and the host's speed on it rescales that pass's timings.  See
``perfbench/README.md`` for the workloads, the metrics and the layer map.

The simulator is driven only through ``build_workload``,
``GPUSimulator``, ``Runner.sweep`` and ``DEFAULT_CONFIGS``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
#: The seed whose fingerprint digests ``digests.json`` holds.
DEFAULT_SEED = 1
SLOW_BACKEND = ROOT / "examples" / "plugins" / "slow_backend.py"
#: Scratch space for the sweep's result stores and worker spool files,
#: inside the checkout and removed at exit.
WORK_DIR = ROOT / ".perfbench_work"
#: Median seconds of one ``calibrate.kernel`` repetition on the reference
#: host, a 2-vCPU Xeon VM.  A pass's host times are reported in seconds of
#: that host: measured seconds x REF_KERNEL_S / the median kernel time
#: around the pass.
REF_KERNEL_S = 0.022
#: Kernel repetitions before the first pass and after every pass.
CALIBRATE_REPS = 8


@dataclass(frozen=True)
class Workload:
    config: str
    traces: tuple[str, ...]
    scale: float


# README.md gives the layer -> metric -> workload map.  gups and spmv are
# at their smallest size at scale 0.05 (one memory instruction per warp).
WORKLOADS = {
    # Hardware walkers, PWB queueing, L2 MSHR failures, PTE reads and
    # radix walks do the work; SoftWalker (core) is absent.
    "hw-walk": Workload("baseline", ("gups", "spmv"), 0.05),
    # The same traces on the software backend: controller, distributor,
    # SoftPWB and In-TLB MSHR do the work; hardware walkers are absent.
    "sw-walk": Workload("softwalker", ("gups", "spmv"), 0.05),
    # Regular traces (MPKI < 3): the bypass workload for every walker
    # optimisation, and memory streams data instead of reading PTEs.
    "tlb-hit": Workload("softwalker", ("gemm", "cc"), 0.5),
}
# Runner.sweep at jobs=2 over every DEFAULT_CONFIGS entry, cold then warm
# from the store: how figures are produced, and the only workload that
# covers nha, fshpt, avatar, hybrid and ideal.
SWEEP = Workload("*", ("dc", "gemm"), 0.02)
SWEEP_JOBS = 2
#: Events per timed slice of a simulation (tens of milliseconds of host
#: time).  Slice k covers the same events in every pass, so the median
#: of slice k over the passes of a run filters host hiccups at that
#: grain; loop_s sums those medians.
SLICE_EVENTS = 500
WORKLOAD_NAMES = (*WORKLOADS, "sweep")

#: Simulator counters that must equal a wrapper's call count.
COUNTER_CHECKS = (
    ("memory.data_access", "mem.data_accesses"),
    ("memory.pte_access", "mem.pte_accesses"),
    ("ptw.submit", "ptw.submitted"),
    ("core.receive", "softwalker.received"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_repro(plant_delay: float | None):
    """Import the simulator from ``src/``; plant the slow backend if asked."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if plant_delay is not None:
        os.environ["REPRO_MOLASSES_HIJACK"] = "1"
        os.environ["REPRO_MOLASSES_DELAY"] = repr(plant_delay)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as error:
        fail(f"cannot import the simulator from {ROOT / 'src'}: {error}")
    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        fail(f"imported the simulator from {repro.__file__}, not from {ROOT / 'src'}")
    if plant_delay is not None:
        import importlib.util

        if not SLOW_BACKEND.is_file():
            fail(f"missing {SLOW_BACKEND}")
        spec = importlib.util.spec_from_file_location("perfbench_slow_backend", SLOW_BACKEND)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    return repro


def digest(result) -> str:
    blob = json.dumps(result.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Sim:
    """One simulation of a pass and what the checks made of it."""

    label: str
    result: object = None
    setup_s: float = 0.0
    #: Host seconds of each SLICE_EVENTS slice of the event loop.
    slices: tuple = ()
    events: int = 0
    digest: str = ""
    error: str = ""


@dataclass
class Pass:
    """One pass.  Its timings are split into units of identical work
    (set-up steps, loop slices), laid out the same way in every pass."""

    sims: list
    wall_s: float
    setup_units: list
    loop_units: list
    #: Units whose sum is the pass's host time (the kinst_per_s base).
    time_units: list
    cold_s: float = 0.0
    warm_s: float = 0.0
    warm_hits: int = 0
    layers: dict | None = None
    absent: tuple = ()
    #: Reference-host seconds per measured second; see ``rescale``.
    factor: float = 1.0

    @property
    def loop_s(self) -> float:
        return sum(self.loop_units)

    def rescale(self, kernel_s: list) -> None:
        """Put every host time in reference-host seconds.

        The host's speed drifts by tens of percent over minutes, for the
        simulator and for ``calibrate.kernel`` alike.  ``kernel_s`` holds
        the kernel's times just before and just after this pass.
        """
        self.factor = REF_KERNEL_S / statistics.median(kernel_s)
        f = self.factor
        self.setup_units = [t * f for t in self.setup_units]
        self.loop_units = [t * f for t in self.loop_units]
        self.time_units = [t * f for t in self.time_units]
        self.cold_s *= f
        self.warm_s *= f
        if self.layers is not None:
            self.layers = {name: (calls, self_s * f) for name, (calls, self_s) in self.layers.items()}

    @property
    def kinst(self) -> float:
        return sum(
            s.result.instructions + s.result.pw_instructions
            for s in self.sims if s.result is not None
        ) / 1000.0


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def simulate(repro, workload: Workload, trace: str, seed: int) -> Sim:
    sim = Sim(f"{workload.config}/{trace}")
    try:
        config = repro.DEFAULT_CONFIGS.get(workload.config)
        started = time.perf_counter()
        built = repro.build_workload(trace, config, scale=workload.scale, seed=seed)
        simulator = repro.GPUSimulator(config, built)
        sim.setup_s = time.perf_counter() - started
        slices = []
        more = True
        while more:
            begun = time.perf_counter()
            more = simulator.advance(max_events=SLICE_EVENTS)
            slices.append(time.perf_counter() - begun)
        begun = time.perf_counter()
        result = simulator.run()  # drained already: builds and checks the result
        slices.append(time.perf_counter() - begun)
        sim.slices = tuple(slices)
        sim.events = simulator.engine.events_processed
        if not result.complete or simulator.warps_remaining or simulator.engine.truncated:
            sim.error = "truncated or warps unfinished"
        sim.result = result
    except Exception as error:  # a failed simulation is counted, not fatal
        sim.error = f"{type(error).__name__}: {error}"
    return sim


def machine_pass(repro, workload: Workload, seed: int, recorder=None) -> Pass:
    if recorder is not None:
        recorder.reset()
    with recorder or contextlib.nullcontext():
        started = time.perf_counter()
        sims = [simulate(repro, workload, trace, seed) for trace in workload.traces]
        wall = time.perf_counter() - started
    setup_units = [s.setup_s for s in sims]
    loop_units = [t for s in sims for t in s.slices]
    return Pass(
        sims=sims,
        wall_s=wall,
        setup_units=setup_units,
        loop_units=loop_units,
        time_units=setup_units + loop_units,
        layers=recorder.totals() if recorder is not None else None,
        absent=tuple(recorder.absent) if recorder is not None else (),
    )


def sweep_points(repro, seed: int):
    labels = {}
    for trace in SWEEP.traces:
        for name in repro.DEFAULT_CONFIGS.names():
            point = repro.make_point(
                repro.DEFAULT_CONFIGS.get(name), trace, scale=SWEEP.scale, seed=seed
            )
            labels[point] = f"{name}/{trace}"
    return labels


def sweep_pass(repro, labels: dict, recorder) -> Pass:
    """Cold sweep into a fresh store, then the same sweep warm from it.

    ``recorder`` is installed for the cold sweep only: the set-up spans
    untraced, every layer traced.  Forked workers spool their totals.
    """
    points = list(labels)
    store = Path(tempfile.mkdtemp(prefix="store-", dir=WORK_DIR))
    recorder.reset()
    cold = warm = {}
    cold_s = warm_s = 0.0
    warm_hits = 0
    error = ""
    try:
        started = time.perf_counter()
        with recorder:
            cold = repro.Runner(store=store, jobs=SWEEP_JOBS).sweep(points)
        cold_s = time.perf_counter() - started
        warm_runner = repro.Runner(store=store, jobs=SWEEP_JOBS)
        warm = warm_runner.sweep(points)
        warm_s = time.perf_counter() - started - cold_s
        warm_hits = warm_runner.cache_info()["disk_hits"]
    except Exception as failure:  # one raising point fails the whole sweep
        error = f"sweep raised {type(failure).__name__}: {failure}"
    finally:
        shutil.rmtree(store, ignore_errors=True)
    totals = recorder.totals()
    sims = []
    for point in points:
        result = cold.get(point)
        sim = Sim(labels[point], result=result, error=error)
        if result is not None and not error:
            sim.slices = (result.perf["wall_seconds"],)
            sim.events = result.perf["events"]
            if not result.complete:
                sim.error = "truncated or warps unfinished"
            elif digest(warm[point]) != digest(result):
                sim.error = "warm store result differs from the cold run"
        sims.append(sim)
    # Only meaningful untraced, where these two spans are all there is.
    setup = sum(totals.get(name, (0, 0.0))[1] for name in ("workloads.build", "gpu.construct"))
    return Pass(
        sims=sims,
        wall_s=cold_s + warm_s,
        setup_units=[setup],
        loop_units=[t for s in sims for t in s.slices],
        time_units=[cold_s + warm_s],
        cold_s=cold_s,
        warm_s=warm_s,
        warm_hits=warm_hits,
        layers=totals,
        absent=tuple(recorder.absent),
    )


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Checker:
    """Counts attempted and failed simulations across a run."""

    def __init__(self, stored: dict | None) -> None:
        #: label -> digest stored for the default seed, or None to skip.
        self.stored = stored
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)
            print(f"CHECK FAILED: {message}")

    def sims(self, sims: list, *, twin: list | None = None) -> None:
        """Check one pass; ``twin`` is the untraced pass of a traced one."""
        for index, sim in enumerate(sims):
            self.attempted += 1
            if not sim.error and sim.result is not None:
                sim.digest = digest(sim.result)
                expected = self.first.setdefault(sim.label, sim.digest)
                if sim.digest != expected:
                    sim.error = "fingerprint differs from an earlier pass"
                elif self.stored is not None and self.stored.get(sim.label) != sim.digest:
                    sim.error = "fingerprint differs from the stored digest"
                elif twin is not None and twin[index].digest != sim.digest:
                    sim.error = "traced fingerprint differs from its untraced twin"
            if sim.error:
                self.failed += 1
                self.problem(f"{sim.label}: {sim.error}")

    def counts(self, run: Pass) -> None:
        """Wrapper call counts must equal the simulator's own counters."""
        for span, counter in COUNTER_CHECKS:
            if span in run.absent:
                continue
            expected = sum(
                s.result.stats.counters.get(counter) for s in run.sims if s.result is not None
            )
            calls = run.layers.get(span, (0, 0.0))[0]
            if calls != expected:
                self.problem(f"{span} made {calls} calls but {counter} = {expected}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def composed(passes: list, units: str) -> float:
    """Sum over units of each unit's median across the passes."""
    return sum(statistics.median(column) for column in zip(*(getattr(p, units) for p in passes)))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(passes: list) -> dict:
    return {
        "kinst_per_s": (ratio(passes[0].kinst, composed(passes, "time_units")), "kinst/s"),
        "loop_s": (composed(passes, "loop_units"), "s"),
        "setup_s": (composed(passes, "setup_units"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated(sims: list) -> dict:
    """Simulated (not host) statistics summed over one pass."""
    results = [s.result for s in sims if s.result is not None]

    def counter(name):
        return sum(r.stats.counters.get(name) for r in results)

    instructions = sum(r.instructions for r in results)
    cycles = sum(r.cycles for r in results)
    walk_total = sum(r.stats.latency("walk").mean_total * r.stats.latency("walk").count for r in results)
    walk_queue = sum(
        r.stats.latency("walk").component_mean("queueing") * r.stats.latency("walk").count
        for r in results
    )
    l2d_miss = counter("l2d.misses") + counter("l2d.sector_misses")
    return {
        "gpu.sim_cycles": (cycles, "cycles"),
        "gpu.ipc": (ratio(instructions + sum(r.pw_instructions for r in results), cycles), "inst/cycle"),
        "gpu.stall_frac": (ratio(sum(r.stall_cycles for r in results),
                                 sum(r.cycles * r.num_sms for r in results)), "fraction"),
        "tlb.l2_mpki": (ratio(counter("l2tlb.demand_misses"), instructions / 1000.0), "misses/kinst"),
        "tlb.l2_hit_rate": (ratio(counter("l2tlb.hits"), counter("l2tlb.lookups")), "fraction"),
        "tlb.pwc_hit_rate": (ratio(counter("pwc.hits"), counter("pwc.probes")), "fraction"),
        "ptw.walks": (counter("ptw.walks"), "count"),
        "ptw.queueing_frac": (ratio(walk_queue, walk_total), "fraction"),
        "core.walks": (counter("softwalker.walks"), "count"),
        "core.pw_instructions": (sum(r.pw_instructions for r in results), "count"),
        "memory.l2_miss_rate": (ratio(l2d_miss, counter("l2d.accesses")), "fraction"),
        "memory.dram_accesses": (counter("dram.accesses"), "count"),
    }


#: Per-layer spans reported as ``<span>.calls`` and ``<span>.self_s``.
CALL_SPANS = (
    "gpu.request", "tlb.lookup", "tlb.fill", "tlb.mshr_allocate", "tlb.track",
    "tlb.pwc_probe", "ptw.submit", "walk.submit", "core.receive",
    "core.distributor_submit", "core.distributor_complete", "core.pwb_take",
    "memory.data_access", "memory.pte_access", "pagetable.walk_path",
    "pagetable.translate",
)


def per_layer(traced: list, untraced: list) -> dict:
    """Medians over the traced passes, timing baselines from the untraced.

    The ``harness.*`` metrics read 0 outside the sweep workload."""
    def span_median(name, index):
        return statistics.median(p.layers.get(name, (0, 0.0))[index] for p in traced)

    out = {
        "workloads.build.self_s": (span_median("workloads.build", 1), "s"),
        "arch.build.self_s": (span_median("arch.build", 1), "s"),
        "sim.events": (sum(s.events for s in untraced[0].sims), "count"),
        "sim.us_per_event": (
            1e6 * ratio(composed(untraced, "loop_units"), sum(s.events for s in untraced[0].sims)),
            "us",
        ),
        "sim.unattributed_s": (span_median("sim.run", 1), "s"),
    }
    for name in CALL_SPANS:
        out[f"{name}.calls"] = (span_median(name, 0), "count")
        out[f"{name}.self_s"] = (span_median(name, 1), "s")
    out.update(simulated(traced[0].sims))
    out["tlb.mshr_fail_frac"] = (
        ratio(sum(s.result.stats.counters.get("l2tlb.mshr_failures")
                  for s in traced[0].sims if s.result is not None),
              span_median("tlb.track", 0)),
        "fraction",
    )
    cold = statistics.median(p.cold_s for p in untraced)
    out["harness.cold_s"] = (cold, "s")
    out["harness.warm_s"] = (statistics.median(p.warm_s for p in untraced), "s")
    out["harness.warm_hit_frac"] = (ratio(untraced[0].warm_hits, len(untraced[0].sims)), "fraction")
    out["harness.parallel_eff"] = (
        ratio(composed(untraced, "loop_units"), SWEEP_JOBS * cold), "fraction")
    out["trace.overhead_frac"] = (
        ratio(composed(traced, "loop_units"), composed(untraced, "loop_units")) - 1.0,
        "fraction",
    )
    return out


# ----------------------------------------------------------------------
# Model reference (shape only)
# ----------------------------------------------------------------------
def print_reference(repro, name: str, sims: list, seed: int, stored: dict) -> None:
    print("model reference (shape-only check against the paper; synthetic "
          "traces, and the repo holds no host-time reference):")
    for sim in sims:
        if sim.result is None:
            continue
        trace = sim.label.split("/")[1]
        if name == "sweep" and not sim.label.startswith("baseline/"):
            continue
        print(f"  {sim.label}: l2_mpki {sim.result.l2_tlb_mpki:.1f}  "
              f"(Table 4 paper_mpki {repro.get_spec(trace).paper_mpki:g})")
    cycles = {s.label: s.result.cycles for s in sims if s.result is not None}
    twin = {"hw-walk": "sw-walk", "sw-walk": "hw-walk"}.get(name)
    if twin is not None and seed == DEFAULT_SEED:
        for label, entry in stored.get(twin, {}).items():
            cycles.setdefault(label, entry["cycles"])
    for trace in ("gups", "spmv"):
        base, soft = cycles.get(f"baseline/{trace}"), cycles.get(f"softwalker/{trace}")
        if base and soft:
            print(f"  {trace}: softwalker/baseline cycles {soft / base:.3f}, speedup "
                  f"{base / soft:.2f}x (paper Fig 16: 3.94x geomean over the irregular suite)")


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant-delay", type=float, default=None, metavar="SECONDS",
        help="load examples/plugins/slow_backend.py in hijack mode: every "
             "walk submit sleeps this long (the planted-slowdown self-check)",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help="run one pass at the default seed and store its fingerprint "
             "digests in digests.json instead of checking them",
    )
    return parser.parse_args(argv)


def main(argv=None) -> dict:
    args = parse_args(argv)
    repro = load_repro(args.plant_delay)
    import layers

    stored_all = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    stored = stored_all.get(args.workload, {}) if args.seed == DEFAULT_SEED else None
    checker = Checker(
        None if stored is None or args.record_digests
        else {label: entry["digest"] for label, entry in stored.items()}
    )
    sweep = args.workload == "sweep"
    workload = SWEEP if sweep else WORKLOADS[args.workload]
    print(f"workload {args.workload}: config {workload.config}, traces "
          f"{', '.join(workload.traces)}, scale {workload.scale}, seed {args.seed}, "
          f"trace {args.trace}")

    WORK_DIR.mkdir(exist_ok=True)
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=WORK_DIR)) if sweep else None
    labels = sweep_points(repro, args.seed) if sweep else None

    # Import the modules the machine builder loads lazily, so the first
    # timed pass does not pay for them (sweep workers inherit them).
    warm_config = repro.DEFAULT_CONFIGS.get("softwalker" if sweep else workload.config)
    repro.GPUSimulator(warm_config, repro.build_workload(workload.traces[0], warm_config, scale=0.01))
    calibrate.timed(3)  # warm up
    kernel_before = calibrate.timed(CALIBRATE_REPS)

    def run_pass(traced: bool) -> Pass:
        nonlocal kernel_before
        gc.collect()  # garbage of the previous pass is not this pass's cost
        if sweep:
            targets = layers.TARGETS if traced else layers.SETUP_TARGETS
            run = sweep_pass(repro, labels, layers.Recorder(targets, spool=spool))
        else:
            recorder = layers.Recorder() if traced else None
            run = machine_pass(repro, workload, args.seed, recorder)
        kernel_after = calibrate.timed(CALIBRATE_REPS)
        run.rescale(kernel_before + kernel_after)
        kernel_before = kernel_after
        return run

    untraced: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()
    try:
        while True:
            # A traced run alternates untraced and traced passes, so each
            # traced simulation has an untraced twin from the same moment.
            one = run_pass(False)
            checker.sims(one.sims)
            untraced.append(one)
            spent = one.wall_s
            if args.trace or args.record_digests:
                two = run_pass(True)
                checker.sims(two.sims, twin=one.sims)
                checker.counts(two)
                traced.append(two)
                spent += two.wall_s
            elapsed = time.perf_counter() - started
            if args.record_digests or elapsed + spent > args.seconds:
                break
    finally:
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    if args.record_digests:
        if checker.failed:
            fail("not recording digests: a simulation failed")
        stored_all[args.workload] = {
            s.label: {"digest": s.digest, "cycles": s.result.cycles} for s in untraced[0].sims
        }
        DIGESTS.write_text(json.dumps(stored_all, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(untraced[0].sims)} digests for {args.workload} in {DIGESTS.name}")

    print_reference(repro, args.workload, untraced[0].sims, args.seed, stored_all)
    if traced and traced[0].absent:
        print(f"absent layers (wrap target not found, reported as 0): "
              f"{', '.join(traced[0].absent)}")
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"failed_frac {checker.failed}/{checker.attempted} = "
          f"{ratio(checker.failed, checker.attempted):.3f}")
    print(f"host speed: reference-host seconds per measured second, per untraced pass "
          f"(calibrate.kernel reference {REF_KERNEL_S * 1e3:g} ms): "
          + " ".join(f"{p.factor:.3f}" for p in untraced))
    print("  per-pass loop_s, untraced, measured: "
          + " ".join(f"{p.loop_s / p.factor:.3f}" for p in untraced))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    report = {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return report


if __name__ == "__main__":
    main()
