"""Command-line front end.

Exit codes: 0 all checks passed; 1 a verdict mismatch or battery failure;
2 usage or configuration error; 3 numerical failure (quadrature breakdown
or certification not achievable). A reader that closes standard output
early (``fatou suite ... | head -1``) changes neither: the command runs to
its end with its output discarded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._version import __version__
from .errors import (
    CertificationError,
    ConfigError,
    FatouLabError,
    GroupError,
    MeasureError,
    NumericsError,
)
from . import groups as G
from . import kernels as K
from . import oracle as O
from . import scenarios as S

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fatou",
        description=(
            "Numerical laboratory for boundary behaviour of heat extensions "
            "of measures on stratified groups."
        ),
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario config (JSON file)")
    run.add_argument("config", help="path to a scenario config")
    run.add_argument("--out", help="directory for report + trace files")

    suite = sub.add_parser("suite", help="run a preset suite")
    suite.add_argument("name", choices=S.suite_names() + ["all"])
    suite.add_argument("--out", help="directory for report files")

    kc = sub.add_parser("kernel-check", help="validate kernel profiles")
    kc.add_argument("--group", action="append", choices=G.GROUP_LABELS,
                    help="restrict to a group (repeatable; default all)")

    mc = sub.add_parser("maximal-check", help="run the maximal sandwich suite")
    mc.add_argument("--n-atomic", type=int, default=20)
    mc.add_argument("--n-density", type=int, default=5)

    ov = sub.add_parser(
        "oracle-validate",
        help="cross-check deterministic values against Monte Carlo",
    )
    ov.add_argument("--paths", type=int, default=200_000)
    ov.add_argument("--seed", type=int, default=0)
    return p


def _print_suite(result: dict) -> None:
    print(f"suite {result['suite']}: "
          f"{'PASS' if result['passed'] else 'FAIL'} "
          f"({len(result['cases'])} cases, {result['n_mismatch']} failing)")
    for case in result["cases"]:
        mark = "ok " if case["passed"] else "FAIL"
        extra = ""
        if "verdict" in case:
            extra = f" verdict={case['verdict']}"
            if case.get("expected"):
                extra += f" expected={case['expected']}"
        print(f"  [{mark}] {case['label']}{extra}")


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {args.config}: {exc}") from exc
    report = S.run_scenario(cfg)
    if args.out:
        for path in S.emit_report(report, args.out):
            print(f"wrote {path}")
    ok = report.verdict != S.VERDICT_MISMATCH and report.matches_expected
    print(f"{report.label}: verdict={report.verdict} "
          f"derivative={report.derivative['estimate']:.6g} "
          f"(converged={report.derivative['converged']}) "
          f"{'PASS' if ok else 'FAIL'}")
    for key, lim in sorted(report.limits.items()):
        print(f"  aperture {key}: limit={lim['estimate']:.6g} "
              f"converged={lim['converged']}")
    return 0 if ok else 1


def _cmd_suite(args) -> int:
    names = S.suite_names() if args.name == "all" else [args.name]
    rc = 0
    for name in names:
        result = S.run_suite(name, out_dir=args.out)
        _print_suite(result)
        rc = max(rc, 0 if result["passed"] else 1)
    return rc


def _cmd_kernel_check(args) -> int:
    labels = args.group or list(G.GROUP_LABELS)
    rc = 0
    for label in labels:
        profile = K.profile_for(G.get_group(label))
        report = K.validate_profile(profile)
        print(f"kernel {label}: {'PASS' if report['passed'] else 'FAIL'} "
              f"(c0={report['c0']:.6g})")
        for chk in report["checks"]:
            mark = "ok " if chk["pass"] else "FAIL"
            tol = chk["tolerance"]
            tol_str = (
                f"{tol:.3e}" if isinstance(tol, (int, float)) else repr(tol)
            )
            print(f"  [{mark}] {chk['property']}: "
                  f"max_residual={chk['max_residual']:.3e} tol={tol_str}")
        rc = max(rc, 0 if report["passed"] else 1)
    return rc


def _cmd_maximal_check(args) -> int:
    if args.n_atomic < 0 or args.n_density < 0:
        raise ConfigError("--n-atomic and --n-density must be >= 0")
    if args.n_atomic + args.n_density == 0:
        raise ConfigError("maximal-check needs at least one case")
    result = S._maximal_suite(args.n_atomic, args.n_density)
    _print_suite(result)
    return 0 if result["passed"] else 1


def _cmd_oracle_validate(args) -> int:
    if args.paths < 2:
        # the z-scores divide by sample standard deviations
        raise ConfigError(f"--paths must be >= 2, got {args.paths}")
    checks = []

    g1 = G.euclidean_group(1)
    ens = O.simulate_horizontal_bm(g1, args.paths, t_final=1.0, n_steps=400,
                                   seed=args.seed)
    kde = O.kde_density(ens, [[0.0]])
    exact = K.gamma_euclidean(1, np.array([0.0]))
    z = (kde["values"][0] - exact) / kde["stderr"][0]
    checks.append(("line kernel at origin vs KDE", z, 4.5))

    gh = G.heisenberg_group()
    n_h = min(args.paths, 150_000)
    ens_h = O.simulate_horizontal_bm(gh, n_h, t_final=1.0, n_steps=300,
                                     seed=args.seed + 1)
    x2 = ens_h.endpoints[:, 0] ** 2
    s2 = ens_h.endpoints[:, 2] ** 2
    z_x2 = (x2.mean() - 2.0) / (x2.std(ddof=1) / np.sqrt(n_h))
    z_s2 = (s2.mean() - 16.0) / (s2.std(ddof=1) / np.sqrt(n_h))
    checks.append(("step-2 horizontal variance", z_x2, 4.5))
    checks.append(("step-2 vertical variance", z_s2, 4.5))

    kde_h = O.kde_density(ens_h, [[0.0, 0.0, 0.0]])
    z_h = (kde_h["values"][0] - 1.0 / 64.0) / kde_h["stderr"][0]
    checks.append(("step-2 kernel at origin vs KDE", z_h, 4.5))

    vol = O.mc_ball_volume(gh, 1.0, seed=args.seed + 2)
    z_v = (vol["estimate"] - gh.unit_ball_volume) / vol["stderr"]
    checks.append(("step-2 unit ball volume", z_v, 4.5))

    ok = True
    for name, z, bound in checks:
        good = abs(z) <= bound
        ok &= good
        print(f"  [{'ok ' if good else 'FAIL'}] {name}: z={z:+.2f} "
              f"(|z| <= {bound})")
    print(f"oracle validation: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


class _DiscardOnBrokenPipe:
    """Standard output that, once its reader is gone, discards the rest.

    The first write or flush that meets a closed pipe points the stream's
    file descriptor at os.devnull, so later writes, and the flush at
    interpreter exit, succeed without output and without a traceback.
    """

    def __init__(self, stream):
        self._stream = stream

    def _discard(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._discard()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._discard()

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv=None) -> int:
    stdout = sys.stdout
    sys.stdout = _DiscardOnBrokenPipe(stdout)
    try:
        return _main(argv)
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "suite": _cmd_suite,
        "kernel-check": _cmd_kernel_check,
        "maximal-check": _cmd_maximal_check,
        "oracle-validate": _cmd_oracle_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, MeasureError, GroupError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, CertificationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FatouLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
