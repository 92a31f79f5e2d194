"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run as bench  # noqa: E402


@pytest.mark.parametrize("tamper", [False, True])
def test_stored_digest_gates_correctness(tmp_path, monkeypatch, capsys, tamper):
    digests = json.loads(bench.DIGESTS.read_text())
    if tamper:
        label = next(iter(digests["tlb-hit"]))
        digests["tlb-hit"][label]["digest"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    monkeypatch.setattr(bench, "DIGESTS", path)

    report = bench.main(["--workload", "tlb-hit", "--seed", str(bench.DEFAULT_SEED),
                         "--seconds", "0"])

    assert report["attempted"] == 2
    assert report["failed"] == (1 if tamper else 0)
    assert report["correct"] is not tamper
    assert set(report["metrics"]) == {"kinst_per_s", "loop_s", "setup_s", "peak_rss_mb"}
    assert capsys.readouterr().out.splitlines()[-1] == json.dumps(report)


class Layer:
    def work(self, n):
        return self.leaf(n) + 1

    def leaf(self, n):
        return n * 2


Layer.work.marker = "kept"


def test_recorder_self_time_restore_and_absent_targets():
    original = Layer.__dict__["work"]
    recorder = layers.Recorder([
        ("demo.work", __name__, "Layer", "work"),
        ("demo.leaf", __name__, "Layer", "leaf"),
        ("demo.gone", __name__, "Layer", "no_such_method"),
        ("demo.nomodule", "no_such_module", "Layer", "work"),
    ])
    with recorder:
        assert Layer.work.marker == "kept"  # functools.wraps keeps attributes
        assert Layer().work(3) == 7
        assert Layer().work(4) == 9
    totals = recorder.totals()
    assert recorder.absent == ["demo.gone", "demo.nomodule"]
    assert totals["demo.work"][0] == 2 and totals["demo.leaf"][0] == 2
    assert totals["demo.work"][1] >= 0 and totals["demo.leaf"][1] >= 0
    assert Layer.__dict__["work"] is original
