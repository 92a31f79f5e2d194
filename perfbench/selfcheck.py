#!/usr/bin/env python3
"""Planted-slowdown self-check: does the benchmark see a slower walk backend?

Run from the repository root::

    python3 perfbench/selfcheck.py            # about two minutes

It runs ``hw-walk``, ``sw-walk`` and ``tlb-hit`` at the default seed, clean
and with ``examples/plugins/slow_backend.py`` loaded in hijack mode, which
sleeps ``--delay`` seconds in every walk-backend ``submit`` without
touching simulated time.  It passes when

* every run is correct: the planted simulations' fingerprints equal the
  stored digests, so the simulation did not change;
* on hw-walk and sw-walk, ``loop_s`` rises by at least half the planted
  time (walks x delay), and the traced run bills the rise to the
  ``walk.submit`` span, while the self time of the ``tlb`` and ``memory``
  spans moves by under a quarter of it;
* on tlb-hit, whose few walks take a small share of the loop, the
  traced run still bills the planted time to ``walk.submit``, and ``loop_s``
  rises by no more than the time billed to ``walk.submit`` plus the
  benchmark's own ``loop_s`` bound (host noise).

Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BOUNDS = {m["name"]: m.get("bound") for m in json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def bench(workload: str, seconds: float, trace: int, delay: float | None) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    if delay is not None:
        command += ["--plant-delay", str(delay)]
    out = subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in report["metrics"].items()}
    values["correct"] = report["correct"]
    return values


def self_s(metrics: dict, prefix: str) -> float:
    return sum(v for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".self_s"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay", type=float, default=0.0002)
    parser.add_argument("--seconds", type=float, default=8)
    args = parser.parse_args(argv)

    failures = []

    def check(ok: bool, message: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {message}")
        if not ok:
            failures.append(message)

    for workload in ("hw-walk", "sw-walk", "tlb-hit"):
        clean = bench(workload, args.seconds, 0, None)
        planted = bench(workload, args.seconds, 0, args.delay)
        clean_t = bench(workload, args.seconds, 1, None)
        planted_t = bench(workload, args.seconds, 1, args.delay)
        walks = planted_t["walk.submit.calls"]
        planted_s = walks * args.delay
        d_loop = planted["loop_s"] - clean["loop_s"]
        d_walk = planted_t["walk.submit.self_s"] - clean_t["walk.submit.self_s"]
        d_other = (self_s(planted_t, "tlb.") - self_s(clean_t, "tlb.")
                   + self_s(planted_t, "memory.") - self_s(clean_t, "memory."))
        print(f"{workload}: {walks:.0f} walks x {args.delay}s = {planted_s:.3f}s planted; "
              f"loop_s {clean['loop_s']:.3f} -> {planted['loop_s']:.3f}s; "
              f"walk.submit self +{d_walk:.3f}s; tlb+memory self {d_other:+.3f}s")
        check(all(r["correct"] for r in (clean, planted, clean_t, planted_t)),
              "fingerprints identical to the stored digests, planted or not")
        check(d_walk >= 0.8 * planted_s, "the planted time is billed to walk.submit")
        if workload == "tlb-hit":
            allowed = d_walk + BOUNDS["loop_s"] * clean["loop_s"]
            check(d_loop <= allowed,
                  f"loop_s moves by at most its walks' share "
                  f"({d_loop:+.3f}s <= {allowed:.3f}s; planted share "
                  f"{planted_s / clean['loop_s']:.1%} of the loop)")
        else:
            check(abs(d_other) <= 0.25 * d_walk, "tlb and memory self time barely move")
            check(d_loop >= 0.5 * planted_s, "loop_s rises by at least half the planted time")
    print("planted-slowdown self-check:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
