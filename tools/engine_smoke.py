#!/usr/bin/env python3
"""Event-engine smoke check (the CI gate for the batched engine).

Enforces three invariants of the pluggable event-engine layer:

1. Every committed golden fingerprint is reproduced bit-identically by
   *both* registered engines — the batched engine's batch dispatch,
   component hot paths, and boundary handling change nothing observable.
2. A parallel sweep (``--jobs 2``) with ``engine=batched`` returns
   byte-identical fingerprint digests to the same matrix swept serially
   under the heap engine — the engine choice survives worker-process
   dispatch and the fingerprint-keyed caches.
3. The batched engine actually earns its keep: on the most batch-heavy
   pinned cell (softwalker/spmv), the median of interleaved repeats must
   not lose to the heap engine (small tolerance for host noise), and the
   run must have genuinely dispatched events through batch handlers —
   a silent fallback to per-event dispatch fails the guard even if the
   wall clock happens to pass.

Usage:
    python tools/engine_smoke.py [--scale S] [--repeats N] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

REPO = Path(__file__).resolve().parent.parent

from repro.config import DEFAULT_CONFIGS, GPUConfig  # noqa: E402
from repro.gpu.gpu import GPUSimulator  # noqa: E402
from repro.harness.pool import matrix_points  # noqa: E402
from repro.harness.runner import Runner, build_workload  # noqa: E402
from repro.harness.store import fingerprint_digest  # noqa: E402

#: The headline configurations of the pinned golden matrix in
#: tests/test_golden_fingerprints.py.
GOLDEN_CASES = [
    (config, bench)
    for config in ("baseline", "softwalker", "hybrid")
    for bench in ("dc", "spmv")
]
GOLDEN_SCALE = 0.05
GOLDEN_SEED = 7

#: Host-noise allowance for the wall-time guard: the batched engine must
#: be at least this close to winning (medians of interleaved repeats).
WALL_TOLERANCE = 1.02


def engine_config(name: str, engine: str) -> GPUConfig:
    return DEFAULT_CONFIGS.get(name).derive(event_engine=engine)


def check_golden_matrix() -> None:
    runner = Runner()
    for engine in ("heap", "batched"):
        for config_name, bench in GOLDEN_CASES:
            golden = json.loads(
                (REPO / "tests" / "golden" / f"{config_name}_{bench}.json").read_text()
            )
            result = runner.run(
                engine_config(config_name, engine),
                bench,
                scale=GOLDEN_SCALE,
                seed=GOLDEN_SEED,
            )
            actual = json.loads(json.dumps(result.fingerprint()))
            if actual != golden:
                raise SystemExit(
                    f"FAIL: {config_name}/{bench} under engine={engine} "
                    f"drifted from its committed golden fingerprint"
                )
        print(f"ok: engine={engine} reproduces all {len(GOLDEN_CASES)} goldens")


def check_parallel_sweep_batched(scale: float, jobs: int) -> None:
    names = ("baseline", "softwalker")
    abbrs = ("gups", "dc")
    batched_points = matrix_points(
        [engine_config(name, "batched") for name in names], abbrs, scale=scale
    )
    heap_points = matrix_points(
        [DEFAULT_CONFIGS.get(name) for name in names], abbrs, scale=scale
    )
    parallel = Runner().sweep(batched_points, jobs=jobs)
    serial = Runner().sweep(heap_points, jobs=1)
    for batched_point, heap_point in zip(batched_points, heap_points):
        left = fingerprint_digest(parallel[batched_point])
        right = fingerprint_digest(serial[heap_point])
        if left != right:
            raise SystemExit(
                f"FAIL: {batched_point.label()} under engine=batched "
                f"--jobs {jobs} diverged from the serial heap sweep: "
                f"{left[:12]} != {right[:12]}"
            )
    print(
        f"ok: engine=batched sweep --jobs {jobs} byte-identical to the "
        f"serial heap sweep ({len(batched_points)} points)"
    )


def _timed_run(config: GPUConfig, scale: float) -> tuple[float, GPUSimulator]:
    workload = build_workload("spmv", config, scale=scale, seed=GOLDEN_SEED)
    sim = GPUSimulator(config, workload)
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started, sim


def check_batched_wins(scale: float, repeats: int) -> None:
    heap_config = DEFAULT_CONFIGS.get("softwalker")
    batched_config = engine_config("softwalker", "batched")
    heap_walls: list[float] = []
    batched_walls: list[float] = []
    batched_events = 0
    # Interleave the engines so slow host drift hits both equally.
    for _ in range(repeats):
        wall, _sim = _timed_run(heap_config, scale)
        heap_walls.append(wall)
        wall, sim = _timed_run(batched_config, scale)
        batched_walls.append(wall)
        batched_events = sum(sim.engine.batch_counts().values())
    if batched_events == 0:
        raise SystemExit(
            "FAIL: the batched engine dispatched no events through batch "
            "handlers on softwalker/spmv — batching is silently disabled"
        )
    heap_median = statistics.median(heap_walls)
    batched_median = statistics.median(batched_walls)
    ratio = batched_median / heap_median
    if ratio > WALL_TOLERANCE:
        raise SystemExit(
            f"FAIL: batched engine lost to heap on softwalker/spmv: "
            f"{batched_median:.3f}s vs {heap_median:.3f}s "
            f"({ratio:.2f}x, tolerance {WALL_TOLERANCE:.2f}x)"
        )
    print(
        f"ok: batched beats heap on softwalker/spmv "
        f"({batched_median:.3f}s vs {heap_median:.3f}s, {ratio:.2f}x; "
        f"{batched_events:,} events batch-dispatched)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    check_golden_matrix()
    check_parallel_sweep_batched(args.scale, args.jobs)
    check_batched_wins(args.scale, args.repeats)
    print("engine smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
