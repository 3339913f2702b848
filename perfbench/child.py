"""One measured pass of a workload, in a fresh interpreter.

Reads a job (see `workloads.make_job`) as JSON on stdin and prints one JSON
line: set-up time, run time, peak RSS, per-case outcomes and digests, and,
when traced, the per-layer summary. Set-up is ``import fatoulab``,
``get_group`` for each group the workload uses, ``profile_for`` and
``certify_gaussian``; the run is the workload's calls after that, lazy grid
caches included. With ``"setup_only"`` the pass stops after set-up.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

_perf = time.perf_counter


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(obj):
    """JSON-ready copy of a result: arrays to lists, keys to strings."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def canonical_digest(obj) -> str:
    return _sha(json.dumps(_plain(obj), sort_keys=True, separators=(",", ":")))


def _scenario_outcome(S, rep) -> tuple[str | None, float]:
    """(failure reason or None, largest relative error to expected_limit)."""
    err = 0.0
    if rep.expected_limit is not None:
        scale = max(1.0, abs(rep.expected_limit))
        ests = [rep.derivative["estimate"]]
        ests += [lim["estimate"] for lim in rep.limits.values()]
        err = max(abs(e - rep.expected_limit) / scale for e in ests)
    if rep.verdict == S.VERDICT_MISMATCH:
        return "verdict MISMATCH", err
    if not rep.matches_expected:
        return f"verdict {rep.verdict} does not match expectation", err
    return None, err


def _run_scenarios(S, cases, tracer):
    out = []
    for cfg in cases:
        if tracer:
            tracer.case = cfg["label"]
        try:
            rep = S.run_scenario(dict(cfg))
            out.append((cfg["label"], (rep, S.report_to_json(rep)), None))
        except Exception as exc:  # a raising case counts as failed
            out.append((cfg["label"], None, f"{type(exc).__name__}: {exc}"))
    return out


def _run_maximal(S, cases, alphas, tracer):
    out = []
    for cfg in cases:
        if tracer:
            tracer.case = cfg["label"]
        try:
            out.append((cfg["label"], S.run_maximal_case(cfg, alphas=alphas), None))
        except Exception as exc:
            out.append((cfg["label"], None, f"{type(exc).__name__}: {exc}"))
    return out


def _run_battery(K, G, spec, tracer):
    out = []
    for label in spec["groups"]:
        if tracer:
            tracer.case = label
        try:
            prof = K.profile_for(G.get_group(label))
            out.append((label, K.validate_profile(
                prof, seed=spec["validate_seed"]), None))
        except Exception as exc:
            out.append((label, None, f"{type(exc).__name__}: {exc}"))
    heis = spec["heisenberg"]
    if tracer:
        tracer.case = heis["group"]
    try:
        prof = K.profile_for(G.get_group(heis["group"]))
        mass = K.kernel_mass(prof, heis["mass_t"])
        x, t, h = heis["pde_point"], heis["pde_t"], heis["pde_h"]
        r1 = K.pde_residual(prof, x, t, h)
        r2 = K.pde_residual(prof, x, t, h / 2.0)
        out.append((heis["group"], {"mass": mass, "pde_ratio": r1 / r2}, None))
    except Exception as exc:
        out.append((heis["group"], None, f"{type(exc).__name__}: {exc}"))
    return out


def _judge_battery(label, res, heis):
    """(failure reason or None, largest normalization residual)."""
    if label == heis["group"]:
        resid = abs(1.0 - res["mass"])
        lo, hi = heis["pde_ratio"]
        if resid > heis["normalization_tol"]:
            return f"normalization residual {resid:.3e}", resid
        if not lo <= res["pde_ratio"] <= hi:
            return f"pde residual ratio {res['pde_ratio']:.3f}", resid
        return None, resid
    resid = max(c["max_residual"] for c in res["checks"]
                if c["property"].startswith("normalization"))
    failed = [c["property"] for c in res["checks"] if not c["pass"]]
    return (f"checks failed: {failed}" if failed else None), resid


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def run_job(job: dict) -> dict:
    trace = bool(job.get("trace"))
    t0 = _perf()
    import fatoulab  # noqa: F401  (import time is part of set-up)
    from fatoulab import groups as G, kernels as K, scenarios as S

    construct_s = profile_s = 0.0
    profiles = []
    for label in job["groups"]:
        ta = _perf()
        g = G.get_group(label)
        tb = _perf()
        prof = K.profile_for(g)
        tc = _perf()
        K.certify_gaussian(prof)
        construct_s += tb - ta
        profile_s += tc - tb
        profiles.append(prof)
    setup_s = _perf() - t0
    result = {"setup_s": setup_s, "construct_s": construct_s,
              "profile_build_s": profile_s}
    if job.get("setup_only"):
        return result

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        for prof in profiles:
            tracer.wrap_profile(prof)

    cases = job["cases"]
    workload = job["workload"]
    t1, c1 = _perf(), time.process_time()
    if workload == "scenario-mix":
        raw = _run_scenarios(S, cases, tracer)
    elif workload == "maximal-sandwich":
        raw = _run_maximal(S, cases, tuple(job["maximal_alphas"]), tracer)
    else:
        raw = _run_battery(K, G, cases, tracer)
    run_s = _perf() - t1
    run_cpu_s = time.process_time() - c1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes, digests, worst = [], {}, 0.0
    for label, res, err in raw:
        if err is None:
            if workload == "scenario-mix":
                err, e = _scenario_outcome(S, res[0])
                digests[label] = _sha(res[1])
            elif workload == "maximal-sandwich":
                e = 0.0
                err = None if res["passed"] else "sandwich or heat chain failed"
                digests[label] = canonical_digest(res)
            else:
                err, e = _judge_battery(label, res, cases["heisenberg"])
                digests[label] = canonical_digest(res)
            worst = max(worst, e)
        outcomes.append({"label": label, "error": err})
    result.update(run_s=run_s, run_cpu_s=run_cpu_s, peak_rss_mb=peak_rss_mb,
                  cases=outcomes, digests=digests, machine=_versions())
    if workload == "scenario-mix":
        result["limit_err"] = worst
    elif workload == "kernel-battery":
        result["norm_resid"] = worst
    if tracer:
        result["trace"] = tracer.summary(run_s)
        spans_path = job.get("spans_path")
        if spans_path:
            tracer.write(spans_path)
    return result


def main() -> int:
    job = json.load(sys.stdin)
    result = run_job(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
