"""Command-line usage errors exit with code 2 before doing any work."""

import pytest

from fatoulab.cli import main


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
