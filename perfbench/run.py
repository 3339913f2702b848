"""fatoulab benchmark: preset workloads timed in fresh interpreters.

Run from the repository root:

    python3 perfbench/run.py --workload scenario-mix --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one report

Each measured pass is a fresh ``python3 perfbench/child.py`` process, so it
pays import, group construction, kernel tables and every lazy grid cache just
as one ``fatou`` invocation does. An untraced run makes one full pass plus two
set-up-only passes and reports the medians; it adds full passes while the
``--seconds`` budget allows. A traced run (``--trace 1``) makes one untraced
and one traced pass and reports the per-layer metrics of the traced one, with
the tracing overhead. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
REFERENCE = os.path.join(HERE, "reference_digests.json")
BLAS_THREADS = 1
RUN_LIMIT_S = 175     # one workload's passes, start to finish

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failing case)."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.pop("FATOU_THREADS", None)
    return env


def run_child(job: dict, root: str, deadline: float | None = None) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result.

    A pass still running at ``deadline`` (a ``time.monotonic`` value) is
    killed and raises `subprocess.TimeoutExpired`.
    """
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=root,
        env=_child_env(root), timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"measured process exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_sha(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine_record(root: str, child_versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **child_versions,
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "commit": _commit(root),
        "source_sha256": _source_sha(root),
    }


def load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def changed_digests(digests: dict, reference: dict | None) -> list[str] | None:
    """Labels whose digest differs from the reference; None without one."""
    if reference is None:
        return None
    labels = sorted(set(digests) | set(reference))
    return [lb for lb in labels if digests.get(lb) != reference.get(lb)]


def _failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    reasons = []
    for p in passes:
        for case in p["cases"]:
            attempted += 1
            if case["error"] is not None:
                failed += 1
                reasons.append(f"{case['label']}: {case['error']}")
    return attempted, failed, reasons


def measure(workload: str, seed: int, seconds: float, root: str) -> dict:
    """Untraced run: set-up medians, run-time median, peak RSS median."""
    job = W.make_job(workload, seed)
    setup_job = dict(job, setup_only=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [run_child(setup_job, root, deadline)["setup_s"]]
    t0 = time.monotonic()
    passes = [run_child(job, root, deadline)]
    pass_s = time.monotonic() - t0
    setups += [passes[0]["setup_s"],
               run_child(setup_job, root, deadline)["setup_s"]]
    while time.monotonic() - start + pass_s <= seconds:
        passes.append(run_child(job, root, deadline))
        setups.append(passes[-1]["setup_s"])
    return {"job": job, "passes": passes, "setups": setups}


def measure_traced(workload: str, seed: int, root: str) -> dict:
    """One untraced and one traced pass; per-layer metrics of the traced."""
    job = W.make_job(workload, seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    spans = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl")
    plain = run_child(job, root, deadline)
    traced = run_child(dict(job, trace=True, spans_path=spans), root, deadline)
    return {"job": job, "passes": [plain, traced], "setups": [],
            "spans_path": spans}


def layer_metrics(traced: dict, plain: dict) -> dict:
    from tracing import metric_specs

    summ = traced["trace"]
    values = {"groups.construct_s": traced["construct_s"],
              "kernels.profile_build_s": traced["profile_build_s"],
              "trace.overhead_s": traced["run_s"] - plain["run_s"],
              "trace.self_cover": summ["self_cover"],
              "trace.spans": summ["spans"]}
    for name, rec in summ["layers"].items():
        for key, val in rec.items():
            values[f"{name}.{key}"] = val
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in metric_specs()}


def report(workload: str, seed: int, trace: bool, res: dict, root: str,
           update_reference: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    passes = res["passes"]
    attempted, failed, reasons = _failures(passes)
    digests = passes[0]["digests"]
    consistent = all(p["digests"] == digests for p in passes[1:])
    machine = machine_record(root, passes[0]["machine"])

    print(f"== {workload} seed={seed} trace={int(trace)} "
          f"passes={len(passes)} cases={attempted}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    if trace:
        metrics = layer_metrics(passes[1], passes[0])
        untraced, traced = passes[0]["run_s"], passes[1]["run_s"]
        cover = passes[1]["trace"]["self_cover"]
        print(f"tracing overhead: {traced - untraced:+.3f} s "
              f"(untraced run_s {untraced:.3f} s, traced {traced:.3f} s, "
              f"{100 * (traced / untraced - 1):+.1f}%)")
        print(f"self time summed over spans: "
              f"{passes[1]['trace']['self_sum_s']:.3f} s = "
              f"{100 * cover:.2f}% of traced run_s")
        print(f"spans written to {res['spans_path']}")
        zero = 0
        for name, m in metrics.items():
            if m["value"] == 0:
                zero += 1
            else:
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(f"  ({zero} per-layer metrics are 0 on this workload; "
              f"all are in the JSON line)")
    else:
        metrics = {
            "setup_s": statistics.median(res["setups"]),
            "run_s": statistics.median(p["run_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"  setup_s samples: {[round(s, 4) for s in res['setups']]}")
        print(f"  run_s samples: {[round(p['run_s'], 4) for p in passes]} "
              f"(process CPU time "
              f"{[round(p['run_cpu_s'], 4) for p in passes]})")
    print(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted} cases)")
    for r in reasons:
        print(f"  FAILED {r}")
    for key in ("limit_err", "norm_resid"):
        if key in passes[0]:
            print(f"{key} = {passes[0][key]:.6g} (relative error, unitless)")

    reference = load_reference()
    ref = reference.get(workload, {}).get(str(seed))
    changed = changed_digests(digests, ref)
    if changed is None:
        print(f"digests: no reference for seed {seed}")
    elif changed:
        print(f"digests: {len(changed)} of {len(digests)} changed vs "
              f"reference: {', '.join(changed)}")
    else:
        print(f"digests: all {len(digests)} match reference")
    if not consistent:
        print("digests: passes of the same inputs disagree"
              + (" (traced vs untraced)" if trace else ""))
    if update_reference:
        reference.setdefault(workload, {})[str(seed)] = digests
        with open(REFERENCE, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    detail = os.path.join(root, OUT_DIR,
                          f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(detail, "w") as fh:
        json.dump({"machine": machine, "passes": passes,
                   "setups": res["setups"], "changed_digests": changed},
                  fh, indent=1, sort_keys=True)
    return {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(W.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="store this run's digests as the seed's reference")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fatoulab", "__init__.py")):
        print("perfbench: run from the repository root (src/fatoulab "
              "not found)", file=sys.stderr)
        return 2
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                res = measure_traced(name, args.seed, root)
            else:
                res = measure(name, args.seed, args.seconds, root)
            results[name] = report(name, args.seed, bool(args.trace), res,
                                   root, args.update_reference)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
