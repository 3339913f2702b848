"""Self-tests of the benchmark: its checks can fail, tracing changes nothing.

Run from the repository root (about 30 s):

    python3 perfbench/selftest.py

The functions are also collected by pytest: ``python -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
import run as R  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

ROOT = os.getcwd()
# Cheap cases: the Euclidean presets and the remote Heisenberg atom.
SMALL = [c["label"] for c in W.make_job("scenario-mix", 0)["cases"]
         if c["label"].startswith("eg-") or c["label"] == "hc-remote-atom"]


def _small_job(seed: int = 0) -> dict:
    job = W.make_job("scenario-mix", seed)
    job["cases"] = [c for c in job["cases"] if c["label"] in SMALL]
    job["groups"] = sorted({c["group"] for c in job["cases"]})
    return job


def test_negative_controls():
    """A wrong expected verdict fails its case; a tampered digest shows."""
    job = _small_job()
    wrong = next(c for c in job["cases"] if c["label"] == "eg-bump")
    wrong["expected_verdict"] = "both-diverge"
    out = R.run_child(job, ROOT)
    attempted, failed, reasons = R._failures([out])
    assert failed == 1 and attempted == len(SMALL), reasons
    assert reasons[0].startswith("eg-bump:"), reasons

    tampered = dict(out["digests"], **{"eg-quadratic": "0" * 64})
    assert R.changed_digests(out["digests"], tampered) == ["eg-quadratic"]
    assert R.changed_digests(out["digests"], dict(out["digests"])) == []


def test_battery_judge_fails_wrong_values():
    """The Heisenberg battery checks reject a 1% mass error and a wrong order."""
    heis = W.make_job("kernel-battery", 0)["cases"]["heisenberg"]
    label = heis["group"]
    assert child._judge_battery(label, {"mass": 1 - 9.6e-6, "pde_ratio": 4.0},
                                heis)[0] is None
    assert child._judge_battery(label, {"mass": 1.01, "pde_ratio": 4.0},
                                heis)[0] is not None
    assert child._judge_battery(label, {"mass": 1.0, "pde_ratio": 1.0},
                                heis)[0] is not None


def test_trace_keeps_digests():
    """Traced and untraced passes of the same inputs report identical bytes."""
    job = _small_job(seed=7)
    plain = R.run_child(job, ROOT)
    traced = R.run_child(dict(job, trace=True), ROOT)
    assert plain["digests"] == traced["digests"]
    assert len(plain["digests"]) == len(SMALL)
    summ = traced["trace"]
    assert abs(summ["self_cover"] - 1.0) < 0.05, summ["self_cover"]
    assert summ["layers"]["scenarios.run_scenario"]["calls"] == len(SMALL)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(R.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.metric_specs()
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)


def main() -> int:
    tests = [test_negative_controls, test_battery_judge_fails_wrong_values,
             test_trace_keeps_digests, test_benchmark_json_lists_every_metric]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
