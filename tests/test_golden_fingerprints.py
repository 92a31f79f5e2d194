"""Golden-fingerprint regression tests.

Pins :meth:`SimulationResult.fingerprint` for the three headline
configurations (baseline, softwalker, hybrid), three TLB variants
(avatar, a coalesced L2 TLB, In-TLB MSHRs under hardware walkers) and
three SoftWalker dispatch variants (deep SoftPWB, lockstep PW warp,
distributor overflow) on two small workloads against stored golden files.  The machine is deterministic in its
inputs, so any drift here means a refactor changed simulated behavior —
the registry-driven assembly (``repro.arch``) is contractually
event-for-event identical to the hand-wired construction these goldens
were recorded under.

Regenerate (only when behavior is *intentionally* changed)::

    PYTHONPATH=src python tests/test_golden_fingerprints.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.config import DEFAULT_CONFIGS
from repro.harness.runner import Runner

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small but non-trivial: dc is the paper's most walk-bound benchmark,
#: spmv the classic irregular sparse kernel.
SCALE = 0.05
SEED = 7

#: Golden case name -> configuration.  The three headline
#: configurations, plus the TLB paths whose replacement state differs
#: from theirs: Avatar speculation filling the L1 TLB, a coalesced L2
#: TLB (block entries), and In-TLB MSHR pending ways under hardware
#: walkers.  The last three pin SoftWalker dispatch order: a SoftPWB
#: deeper than the PW warp (which valid slot launches next), lockstep
#: warp batches, and a distributor that overflows so the round-robin
#: cursor decides every placement.
CONFIGS = {
    "baseline": lambda: DEFAULT_CONFIGS.get("baseline"),
    "softwalker": lambda: DEFAULT_CONFIGS.get("softwalker"),
    "hybrid": lambda: DEFAULT_CONFIGS.get("hybrid"),
    "avatar": lambda: DEFAULT_CONFIGS.get("avatar"),
    "softwalker_coalesced": lambda: DEFAULT_CONFIGS.get("softwalker").derive(
        tlb_coalescing_span=8
    ),
    "baseline_in_tlb_mshr": lambda: DEFAULT_CONFIGS.get("baseline").derive(
        hw_in_tlb_mshr=True
    ),
    "softwalker_deep_pwb": lambda: DEFAULT_CONFIGS.get("softwalker").with_softwalker(
        pw_threads_per_sm=4, softpwb_entries=64
    ),
    "softwalker_lockstep": lambda: DEFAULT_CONFIGS.get("softwalker").with_softwalker(
        simt_lockstep=True, pw_threads_per_sm=8, softpwb_entries=16
    ),
    "softwalker_rr_overflow": lambda: DEFAULT_CONFIGS.get(
        "softwalker"
    ).with_softwalker(pw_threads_per_sm=1, softpwb_entries=2),
}
CASES = [(config, bench) for config in CONFIGS for bench in ("dc", "spmv")]


def golden_path(config_name: str, benchmark: str) -> Path:
    return GOLDEN_DIR / f"{config_name}_{benchmark}.json"


def compute_fingerprint(config_name: str, benchmark: str) -> dict:
    result = Runner().run(
        CONFIGS[config_name](), benchmark, scale=SCALE, seed=SEED
    )
    # Round-trip through JSON so tuples normalise to lists exactly as
    # they do in the stored golden files.
    return json.loads(json.dumps(result.fingerprint()))


@pytest.mark.parametrize("config_name,bench", CASES)
def test_fingerprint_matches_golden(config_name: str, bench: str) -> None:
    path = golden_path(config_name, bench)
    expected = json.loads(path.read_text())
    actual = compute_fingerprint(config_name, bench)
    assert actual == expected, (
        f"{config_name}/{bench} fingerprint drifted from {path.name}; "
        "if the behavior change is intentional, regenerate with "
        "`python tests/test_golden_fingerprints.py --regen`"
    )


#: Golden files owned by other test suites sharing the directory.
FOREIGN_GOLDENS = {"explore_tiny.json"}


def test_every_golden_file_is_covered() -> None:
    """No stale golden files lingering after a case rename."""
    expected = {golden_path(c, b).name for c, b in CASES}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")} - FOREIGN_GOLDENS
    assert actual == expected


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for config_name, benchmark in CASES:
        path = golden_path(config_name, benchmark)
        fingerprint = compute_fingerprint(config_name, benchmark)
        path.write_text(json.dumps(fingerprint, indent=1, sort_keys=True))
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
