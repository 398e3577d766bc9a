"""Golden corpus: SHA-256 of the JSON stdout of a fixed set of CLI runs, and
of the text stdout of one of them.

The digests pin the exact bytes printed by every subcommand, including the
Hilbert series on both sides of jac_zero (comark 1 at j, where the closed
form is printed, and comark 2 or 3, where it is not) and at degree 0.  A
refactor that changes any printed byte fails here; re-record a digest only
for an intended change of output.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bdsweyl
from bdsweyl.cli import build_parser, main

D8_WEIGHT = "h1=6,h2=6,h3=6,h5=6,h6=6,h7=6,h8=6,h0=24"
D6_WEIGHT = "h1=1,h2=2,h4=1,h5=1,h6=1,h0=4"

GOLDEN = [
    ("pair B 3 --node 3",
     "6dbdeaab2fdb0e56518f79e86fb5536c2d2684584f0f88b6606a7be7d279e4b0"),
    ("pair E 6 --node 4",
     "f256bbfefa6db6bab7402aa9ce8047fa72006d077cf6c5ad72dc4fefbec3420c"),
    ("alambda B 4 --node 4 --weight h1=2,h3=1,h0=3 --degree 12",
     "679944ab91f24bfc4610adf1bc87c589e592c5d4624b0fa5771480eaa1539c1f"),
    ("hilbert B 4 --node 4 --weight h1=2,h3=1,h0=3 --degree 20",
     "07a5b4fbad3f9bfe20cd4920f8b85156a6bd274aeaa06007a67933f09ccbf8ef"),
    (f"alambda D 6 --node 3 --weight {D6_WEIGHT} --degree 10",
     "d422a4cbb8313717d2fb2cd1437f492ba4d96277135e26e39df5fd8697a02f49"),
    (f"hilbert D 8 --node 4 --weight {D8_WEIGHT} --degree 6",
     "a484cf23e6780a41f061c2d093c3ddba36c84e9a7b23a48c1b2971002a303648"),
    ("hilbert E 6 --node 4 --weight h1=1,h2=1,h3=1,h5=1,h6=1,h0=4 --degree 14",
     "8de1d49f779363318271a0f023c0a3418e9048c6411eea6f8bfebae641fc99f6"),
    ("hilbert G 2 --node 1 --weight h2=2,h0=2 --degree 0",
     "8b666fbd5ae1c356673a0191afc209544b2fd168f0fc2efebbce73960c79868f"),
    (f"hilbert D 6 --node 3 --weight {D6_WEIGHT} --degree 0",
     "2b3b52d80d3528dd2a412e50f4aad8909801617ba0e9032e56c5c50037b4f381"),
    ("localdim B 3 --node 3 --fundamental 2 --power 1",
     "cd1cfd20c1f06cd0cee1651cde93a10f7f87fc6cbc0c5a091afb8e444dcf1ae4"),
    ("idealpoint B 3 --node 3 --weight h2=1,h0=1 --seed 11 --points 3",
     "d5c5307a977fa7083d74d847ec2e1e0ec67852533787838d10eaf1286bd49c70"),
    ("garland-check B 3 --node 3 --order 3",
     "76d273c3de891e1ca957b7962c3941ffa3d1e596db68b46d86bcefc3ad4c7024"),
    ("verify-all --max-rank 4",
     "2d822ac9b8cde0de912141e2d58a728a75b6fbe88dd76ad4f6268023d9c10eeb"),
]


# The scale frontier.  B12 at node 12, where the last constrained node has cap
# lam(h_0): these digests were recorded with the per-(state, top level) DP
# that came before the telescoped numerator.  C8 at node 4, with five
# constrained nodes of large cap: these were recorded with the dense product
# per (state, level) at every node but the last.  E8 at order 3 and B3 at
# order 8, the largest rank and the deepest order of garland-check: these were
# recorded with a Fraction for every HPoly coefficient, before the integer
# numerators.  D10 at node 5, comark 2 at j with 936 facets, the largest
# facet list pinned: recorded with json.dumps and the facets sorted after the
# walk.  D12 at node 6, weight 4 on every node and h0=16, 8418 facets: recorded
# with the payload rows built as [node, level] lists and written one at a time.
D10_ALAMBDA = ("alambda D 10 --node 5 --weight h1=3,h2=3,h3=3,h4=3,h6=3,h7=3,h8=3,h9=3,h10=3,h0=12"
               " --degree 48")
D12_ALAMBDA = ("alambda D 12 --node 6 --weight h1=4,h2=4,h3=4,h4=4,h5=4,h7=4,h8=4,h9=4,h10=4,h11=4,"
               "h12=4,h0=16 --degree 60")

FRONTIER = [
    ("hilbert B 12 --node 12 --weight h11=10,h0=60 --degree 80",
     "1a3c5f2a84c323e8d58e56a7f565990c9378b3d30fdea1ddb03fa22f88a57f8d"),
    ("hilbert B 12 --node 12 --weight h11=20,h0=100 --degree 40",
     "2ebb2ba7a374ae955d173475897eb502f141c46ad96d7b1419bc4b46cb8fe589"),
    ("hilbert C 8 --node 4 --weight h5=15,h6=15,h7=15,h8=15,h0=30 --degree 20",
     "300197dccd99c8ea27892e9598b37ab1cc193b532f039e519705a427d54c6714"),
    ("hilbert C 8 --node 4 --weight h5=20,h6=20,h7=20,h8=20,h0=40 --degree 20",
     "215b2bcc46e4137902f79c6e7f21ffd5856667719706ae018b9b8561e074a795"),
    ("garland-check E 8 --node 4 --order 3",
     "1f73b2ceea7bb07b65d9eebedd87256983bf0939d648d6729aed2fbc1e194266"),
    ("garland-check B 3 --node 3 --order 8",
     "f5d35b3688f5167a7e90d138f7d59de09a539f8152f55ae481b9423f5381cbfe"),
    (D10_ALAMBDA,
     "e96609b965bd21ea1b537a53ff76e8971e1999e0e869a8286237c630689094ba"),
    (D12_ALAMBDA,
     "a6b15ec26a04aa5ad172ec4add8598a803ed1276ce0ba45aa97349f3d80cd583"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_json_stdout(json_run, command, digest):
    code, out = json_run(command)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,digest", FRONTIER, ids=[c for c, _ in FRONTIER])
def test_scale_frontier_json_stdout(json_run, command, digest):
    code, out = json_run(command)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scale_frontier_text_stdout(capsys):
    # the text report of the D10 query, facets line included, without --format
    code = main(D10_ALAMBDA.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "eaa759ea57c9da060d68eb64e79f1a1012b0bb7f2731f3ca4aab9a6cdbdfe3d9")


def test_one_parser_serves_every_query(capsys):
    assert build_parser() is build_parser()
    for command, digest in (GOLDEN[0], GOLDEN[7], GOLDEN[0]):
        assert main(command.split() + ["--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert build_parser.cache_info().currsize == 1


# Replays the corpus in one `python -O` process, where bare asserts are
# stripped, so no printed byte may depend on an assert statement.
OPTIMIZED_REPLAY = """
import contextlib, hashlib, io, json, sys
from bdsweyl.cli import main
out = []
for command in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split() + ["--format", "json"])
    out.append([code, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
print(json.dumps(out))
"""


def test_golden_json_stdout_under_optimized_mode():
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]))
    commands = [c for c, _ in GOLDEN]
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_REPLAY, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, digest] for _, digest in GOLDEN]
