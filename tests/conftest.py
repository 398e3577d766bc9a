"""Shared fixtures for the tier-1 suite."""

import contextlib
import io

import pytest

from bdsweyl.cli import main


@pytest.fixture(scope="session")
def json_run():
    """Run a CLI command with `--format json` once per session: the exit code
    and the stdout string, keyed by the command.  The golden digests and the
    schema checks read the same run."""
    runs = {}

    def run(command: str) -> tuple[int, str]:
        if command not in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(command.split() + ["--format", "json"])
            runs[command] = (code, buf.getvalue())
        return runs[command]

    return run
