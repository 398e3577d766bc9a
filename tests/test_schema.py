"""The JSON stdout of every golden and frontier query validates against the
machine-readable schema in docs/json-schema-v1.json."""

import json
from pathlib import Path

import jsonschema
import pytest

from test_golden import D12_ALAMBDA, FRONTIER, GOLDEN

SCHEMA = json.loads((Path(__file__).parents[1] / "docs" / "json-schema-v1.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
# The D12 alambda payload has the shape of the D10 one at nine times the
# facets; validating it would take about 20 s, so its digest alone pins it.
QUERIES = [c for c, _ in GOLDEN + FRONTIER if c != D12_ALAMBDA]


def json_stdout(json_run, command):
    """A freshly parsed payload of the session's one run of the command."""
    code, out = json_run(command)
    assert code == 0
    return json.loads(out)


def test_schema_is_valid_and_covers_every_subcommand():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    commands = set(SCHEMA["properties"]["command"]["enum"])
    assert commands == {c.split()[0] for c in QUERIES}
    assert len(commands) == 7


@pytest.mark.parametrize("command", QUERIES)
def test_json_stdout_matches_the_schema(json_run, command):
    VALIDATOR.validate(json_stdout(json_run, command))


@pytest.mark.parametrize("change", [
    lambda p: p.pop("facets"),
    lambda p: p.update(extra=1),
    lambda p: p["pair"].update(extra=1),
    lambda p: p["flags"].update(koszul="false"),
    lambda p: p["hilbert"].update(degree=-1),
    lambda p: p["facets"][0].append([1]),
    lambda p: p.update(command="nope"),
], ids=["missing_key", "extra_key", "extra_pair_key", "koszul_false", "negative_degree",
        "short_node_level", "unknown_command"])
def test_schema_rejects_a_changed_payload(json_run, change):
    payload = json_stdout(json_run, GOLDEN[2][0])
    VALIDATOR.validate(payload)
    change(payload)
    with pytest.raises(jsonschema.ValidationError):
        VALIDATOR.validate(payload)
