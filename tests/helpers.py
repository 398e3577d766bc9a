"""Helpers shared by the test modules: the CLI's JSON writer as a function
of a value, and one in-process CLI run.  Kept apart from `test_cli` so that a
failure to import that module leaves the others collectable."""

import contextlib
import io

from bdsweyl.cli import _json, _write, main


def dumps(obj) -> str:
    """What `_write` writes of `_json(obj)`, as one string."""
    parts = []
    _write(_json(obj), parts.append)
    return "".join(parts)


def stdout_of(argv):
    """The exit code and the stdout of `main(argv)`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()
