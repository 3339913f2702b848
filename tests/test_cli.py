"""Command-line usage errors exit with code 2 before doing any work, and a
reader that closes standard output early changes neither the exit status
nor standard error."""

import os
import subprocess
import sys

import pytest

from fatoulab import scenarios as S
from fatoulab.cli import _print_suite, main


@pytest.mark.parametrize("argv", [
    ["oracle-validate", "--paths", "1"],
    ["oracle-validate", "--paths", "0"],
    ["maximal-check", "--n-atomic", "-3", "--n-density", "0"],
    ["maximal-check", "--n-atomic", "0", "--n-density", "0"],
    ["maximal-check", "--n-atomic", "1", "--n-density", "-1"],
])
def test_degenerate_counts_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "PASS" not in captured.out and "nan" not in captured.out


@pytest.mark.parametrize("argv, status, err", [
    (["kernel-check", "--group", "euclidean:1"], 0, ""),
    (["maximal-check", "--n-atomic", "0", "--n-density", "0"], 2,
     "error: maximal-check needs at least one case\n"),
])
def test_main_against_a_closed_pipe(argv, status, err):
    # the pipe's read end is closed before main writes, so every write to
    # standard output meets EPIPE, as under `fatou ... | head -0`; this used
    # to end in a BrokenPipeError traceback and exit status 1
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys; from fatoulab.cli import main; sys.exit(main(sys.argv[1:]))"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == status
    assert proc.stderr == err


def test_maximal_check_prints_the_maximal_suite_result(capsys):
    # `fatou maximal-check` and `fatou suite maximal-sandwich` print one
    # suite result, built by one function, at the given counts
    assert main(["maximal-check", "--n-atomic", "2", "--n-density", "0"]) == 0
    got = capsys.readouterr().out
    _print_suite(S._maximal_suite(2, 0))
    assert got == capsys.readouterr().out
    assert got.splitlines()[0] == \
        "suite maximal-sandwich: PASS (2 cases, 0 failing)"
