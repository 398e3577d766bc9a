import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bdsweyl
from bdsweyl import garland, srring, verify, weylcrit
from bdsweyl.bdspair import BdsPair, all_pairs, build_pair
from bdsweyl.cli import (_CHUNK, _JSON_LIST, _ROW_PAD, COMMANDS, _json, _Joined, _pair_payload,
                         _plain_args, _render, _write, build_parser, main)
from bdsweyl.srring import MAX_FACETS, Weight0, presentation
from test_bench_goldens import GOLDENS, workloads
from test_golden import D12_ALAMBDA, FRONTIER, GOLDEN


def dumps(obj) -> str:
    """What `_write` writes of `_json(obj)`, as one string."""
    parts = []
    _write(_json(obj), parts.append)
    return "".join(parts)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pair_text(capsys):
    code, out, _ = run(capsys, "pair", "B", "3", "--node", "3")
    assert code == 0
    assert "alpha0 = a2+2a3" in out
    assert "g0 components: A3" in out
    assert "comarks of alpha0: [0, 1, 1]" in out


def test_pair_invalid_node_exits_2(capsys):
    code, _, err = run(capsys, "pair", "B", "3", "--node", "1")
    assert code == 2
    assert "mark a_1 = 1" in err


def test_pair_invalid_rank_exits_2(capsys):
    code, _, err = run(capsys, "pair", "D", "2", "--node", "1")
    assert code == 2
    assert "rank" in err


@pytest.mark.parametrize("argv, err", [
    (("pair", "E", "9", "--node", "2"), "error: type E requires rank in [6, 8], got 9\n"),
    (("alambda", "A", "0", "--node", "1"), "error: type A requires rank in [1, 12], got 0\n"),
])
def test_rank_outside_its_type_exits_2_with_one_message(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_missing_node_reports_eligible(capsys):
    code, _, err = run(capsys, "pair", "B", "3")
    assert code == 2
    assert "[2, 3]" in err


def test_alambda_section78(capsys):
    code, out, _ = run(capsys, "alambda", "B", "3", "--node", "3",
                       "--weight", "h2=1,h0=1", "--degree", "12")
    assert code == 0
    assert "C[P(2,1), P(3,1)] / (P(2,1)P(3,1))" in out
    assert "Krull dimension: 1" in out
    assert "[1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2]" in out


def test_alambda_zero_weight(capsys):
    code, out, _ = run(capsys, "alambda", "B", "3", "--node", "3", "--weight", "h0=0")
    assert code == 0
    assert "A_lambda = C" in out
    assert "W(lambda) irreducible: true" in out


def test_alambda_bad_weight_exits_2(capsys):
    code, _, err = run(capsys, "alambda", "B", "3", "--node", "3", "--weight", "bogus")
    assert code == 2
    assert "weight" in err


def test_alambda_delta_weight_conversion(capsys):
    # ambient weight omega_2 of B3 restricts to h2=1, h0=1
    code, out, _ = run(capsys, "alambda", "B", "3", "--node", "3",
                       "--delta-weight", "h2=1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == "h2=1,h0=1"
    # a negative value at j is allowed in ambient coordinates
    code, out, _ = run(capsys, "alambda", "B", "3", "--node", "3", "--delta-weight", "h2=1,h3=-1")
    assert code == 0
    assert "weight: h2=1\n" in out


def test_alambda_json_schema(capsys):
    code, out, _ = run(capsys, "alambda", "B", "4", "--node", "4",
                       "--weight", "h1=2,h3=1,h0=3", "--degree", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "alambda"
    assert payload["krull_dim"] == 5
    assert payload["d_lambda"] == 5
    assert payload["hilbert"]["coefficients"][0] == 1
    assert payload["flags"]["koszul"] == "true"
    assert payload["verdicts"] == {"alambda_trivial": False, "global_weyl_irreducible": False}


def test_localdim(capsys):
    code, out, _ = run(capsys, "localdim", "B", "3", "--node", "3",
                       "--fundamental", "2", "--power", "1")
    assert code == 0
    assert "= 22" in out
    code, out, _ = run(capsys, "localdim", "B", "3", "--node", "3",
                       "--fundamental", "0", "--power", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["value"] == 64


def test_localdim_bad_index_exits_2(capsys):
    code, _, err = run(capsys, "localdim", "B", "3", "--node", "3", "--fundamental", "7")
    assert code == 2


LOCALDIM_B6_I2 = ("localdim", "B", "6", "--node", "6", "--fundamental", "2")


def test_localdim_power_at_the_digit_limit(capsys):
    # the base at B6, index 2 is 79: 79^2265 has 4299 digits and 79^2266 has 4301
    code, out, err = run(capsys, *LOCALDIM_B6_I2, "--power", "2265", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 79 ** 2265
    code, out, err = run(capsys, *LOCALDIM_B6_I2, "--power", "2266")
    assert (code, out) == (2, "")
    assert err == ("error: dim W_loc(2266 * lambda_2) = 79^2266 has more than 4300 digits, "
                   "the limit of a local dimension\n")


def test_localdim_huge_power_exits_2_at_once(capsys):
    run(capsys, *LOCALDIM_B6_I2)  # builds B6 and the pair
    t0 = time.perf_counter()
    code, out, err = run(capsys, *LOCALDIM_B6_I2, "--power", "10000000")
    assert time.perf_counter() - t0 < 0.1
    assert (code, out) == (2, "")
    assert "has more than 4300 digits" in err


def test_idealpoint_deterministic(capsys):
    args = ("idealpoint", "B", "3", "--node", "3", "--weight", "h2=1,h0=1",
            "--seed", "11", "--points", "1", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verified"] is True
    for val in payload["pi"].values():
        assert "/" in val or val.lstrip("-").isdigit()


def test_idealpoint_more_points_than_the_pool_exits_2(capsys):
    args = ("idealpoint", "B", "3", "--node", "3", "--weight", "h2=1,h0=1", "--seed", "11")
    code, _, err = run(capsys, *args, "--points", "319")
    assert code == 2
    assert "318" in err
    code, out, err = run(capsys, *args, "--points", "-1")
    assert code == 2
    assert out == ""
    assert "non-negative" in err
    code, out, _ = run(capsys, *args, "--points", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["points"]) == 3


@pytest.mark.parametrize("flag,spec", [("--weight", "h2=1,h2=5,h0=1"),
                                       ("--delta-weight", "h2=1,h2=5")])
def test_repeated_weight_key_exits_2(capsys, flag, spec):
    code, out, err = run(capsys, "alambda", "B", "3", "--node", "3", flag, spec)
    assert code == 2
    assert out == ""
    assert "h2 given more than once" in err


@pytest.mark.parametrize("cmd", ["alambda", "hilbert", "idealpoint"])
def test_weight_flags_exclusive_and_strict(capsys, cmd):
    base = (cmd, "B", "3", "--node", "3")
    with pytest.raises(SystemExit) as exc:
        main([*base, "--weight", "h2=5,h0=5", "--delta-weight", "h2=1"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    for flag in ("--weight", "--delta-weight"):
        code, out, err = run(capsys, *base, flag, "h2=1,")
        assert code == 2
        assert out == ""
        assert "bad weight component ''" in err


def test_closed_stdout_pipe_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "bdsweyl.cli", "pair", "B", "3", "--node", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before anything is written
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    # the reader goes away in the middle of the 12.9 MB D12 facet list
    proc = subprocess.Popen([sys.executable, "-m", "bdsweyl.cli", *D12_ALAMBDA.split(),
                             "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(1 << 16)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert len(head) == 1 << 16 and head.startswith(b'{\n  "caps": {')


class HashSink:
    """A stdout that keeps only the SHA-256 and the length of what is written,
    and the number of writes."""

    def __init__(self):
        self.sha, self.size, self.writes = hashlib.sha256(), 0, 0

    def write(self, s):
        self.sha.update(s.encode())
        self.size += len(s)
        self.writes += 1

    def flush(self):
        pass


def test_alambda_json_is_written_without_a_copy_of_the_answer():
    # the first sr-facets query of the benchmark's seed-0 stream: 2.4 MB of
    # JSON, written a row at a time, never as one string
    query = workloads.generate("sr-facets", 0)[0]
    with contextlib.redirect_stdout(HashSink()):
        main(query.argv)  # builds D12 and the pair
    sink = HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(query.argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.size) == (0, 2410752)
    assert sink.sha.hexdigest() == GOLDENS["workloads"]["sr-facets"][0]
    assert peak < 1.5 * 2**20


def test_alambda_text_is_written_without_a_copy_of_the_facets_line():
    # the D12 frontier text report: 2.4 MB, 1.8 MB of it the facets line,
    # written a chunk of rows at a time (the whole line held peaked at 7.75 MB)
    with contextlib.redirect_stdout(HashSink()):
        main(D12_ALAMBDA.split())  # builds D12 and the pair
    sink = HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(D12_ALAMBDA.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.size) == (0, 2445252)
    assert sink.sha.hexdigest() == "b27f529f545ce15b47da4d825f2b1eaf5013c9aa8259a6715c15129968ac98dd"
    assert peak < 6 * 2**20


@pytest.mark.parametrize("fmt, digest", [
    ("text", "b27f529f545ce15b47da4d825f2b1eaf5013c9aa8259a6715c15129968ac98dd"),
    ("json", dict(FRONTIER)[D12_ALAMBDA])], ids=["text", "json"])
def test_alambda_presentation_is_written_without_a_copy_of_it(fmt, digest):
    # the D12 frontier: its presentation, 17911 generators in 618956
    # characters, is written a chunk of monomials at a time (held as one
    # string, the peak was 4.8 MiB in either format)
    argv = D12_ALAMBDA.split() + ["--format", fmt]
    with contextlib.redirect_stdout(HashSink()):
        main(argv)  # builds D12 and the pair
    sink = HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.sha.hexdigest() == digest
    assert peak < 4.5 * 2**20


@pytest.mark.parametrize("fmt, size", [("text", 249), ("json", 760)])
def test_a_small_report_takes_one_write(fmt, size):
    # the text report has 9 lines, each once written apart from its newline
    sink = HashSink()
    with contextlib.redirect_stdout(sink):
        code = main(["pair", "B", "3", "--node", "3", "--format", fmt])
    assert (code, sink.size, sink.writes) == (0, size, 1)


# Runs one query and reports the peak resident set size of its process, in
# KiB.  Linux keeps the peak of the address space an exec replaces, so the
# query runs in a child of a small launcher, not of this process.
MAXRSS = """
import resource, sys
from bdsweyl.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""
LAUNCH = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, *sys.argv[1:]]))"


def test_d12_frontier_json_stays_small_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LAUNCH, "-c", MAXRSS, *D12_ALAMBDA.split(),
                           "--format", "json"], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == dict(FRONTIER)[D12_ALAMBDA]
    assert int(proc.stderr) < 40 * 1024


def run_optimized(code):
    """Run `code` under `python -O`, where bare asserts are stripped."""
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]))
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_non_integral_quotient_fails_under_optimized_mode():
    # d_3 = 3 does not divide a_3(alpha_0) * d_alpha = 2 for the B3 pair at node 3
    proc = run_optimized("import sys\n"
                         "from bdsweyl import cli, rootsys\n"
                         "rootsys.build('B', 3).d = (1, 1, 3)\n"
                         "sys.exit(cli.main(['pair', 'B', '3', '--node', '3']))\n")
    assert proc.returncode == 1
    assert "property failure: non-integral coroot coefficient: 2/3" in proc.stderr


def test_krull_dim_failure_survives_optimized_mode():
    proc = run_optimized("import sys\n"
                         "from bdsweyl import cli, srring\n"
                         "srring.SRPresentation.d_lambda = lambda self: -1\n"
                         "sys.exit(cli.main(['verify-all', '--max-rank', '4']))\n")
    assert proc.returncode == 1
    assert "property failure: krull_dim: " in proc.stderr
    assert proc.stdout == ""


def test_bad_hilbert_series_is_refused_under_optimized_mode():
    proc = run_optimized("from bdsweyl.srring import HilbertSeries\n"
                         "HilbertSeries(2, (2, 1, 1))\n")
    assert proc.returncode == 1
    assert "AssertionError: Hilbert series: constant coefficient 2 != 1" in proc.stderr


def test_wrong_cancellation_is_refused_under_optimized_mode():
    # _cancel drops a denominator factor without dividing the numerator: the
    # identity N_red * prod(cancelled factors) = N fails before any byte is written
    proc = run_optimized("import sys\n"
                         "from bdsweyl import cli, srring\n"
                         "cancel = srring._cancel\n"
                         "srring._cancel = lambda num, den: (lambda n, left: (n, left[1:]))"
                         "(*cancel(num, den))\n"
                         "sys.exit(cli.main(['hilbert', 'B', '4', '--node', '4',"
                         " '--weight', 'h1=2,h3=1,h0=3', '--degree', '20']))\n")
    assert proc.returncode == 1
    assert proc.stderr == "property failure: hilbert_series: closed form != expansion\n"
    assert proc.stdout == ""


# B7 at node 3: comark 2 at j, 10 facets, the first with top levels (2, 0, 0, 0)
B7_TOPS = ("from bdsweyl.bdspair import build_pair\n"
           "from bdsweyl.srring import Weight0, presentation\n"
           "pres = presentation(build_pair('B', 3, rank=7),"
           " Weight0.parse('h1=1,h4=2,h5=2,h6=3,h0=4'))\n"
           "tops = list(pres._tops)\n")


@pytest.mark.parametrize("edit, message", [
    ("tops[0] = (1, 0, 0, 0)", "facets: top levels (1, 0, 0, 0) are not maximal"),
    ("tops.append(tops[-1])", "facets: top-level tuples not strictly descending"),
], ids=["lowered", "repeated"])
def test_facet_tuple_check_survives_optimized_mode(edit, message):
    proc = run_optimized(B7_TOPS + edit + "\npres._check_tops(tops)\n")
    assert proc.returncode == 1
    assert "AssertionError: " + message in proc.stderr


def test_facet_tuple_count_failure_survives_optimized_mode():
    proc = run_optimized("import sys\n"
                         "from bdsweyl import cli, srring\n"
                         "srring.SRPresentation.facet_count = lambda self: 11\n"
                         "sys.exit(cli.main(['alambda', 'B', '7', '--node', '3',"
                         " '--weight', 'h1=1,h4=2,h5=2,h6=3,h0=4']))\n")
    assert proc.returncode == 1
    assert "property failure: facets: the walk listed 10 tuples, the count is 11" in proc.stderr
    assert proc.stdout == ""


def test_facet_check_failure_in_alambda_json_survives_optimized_mode():
    # the first top-level tuple lowered: _check_tops fails before any byte is written
    proc = run_optimized("import sys\n"
                         "from bdsweyl import cli, srring\n"
                         "check = srring.SRPresentation._check_tops\n"
                         "srring.SRPresentation._check_tops = "
                         "lambda self, tops: check(self, [(1, 0, 0, 0)] + tops[1:])\n"
                         "sys.exit(cli.main(['alambda', 'B', '7', '--node', '3',"
                         " '--weight', 'h1=1,h4=2,h5=2,h6=3,h0=4', '--format', 'json']))\n")
    assert proc.returncode == 1
    assert "property failure: facets: top levels (1, 0, 0, 0) are not maximal" in proc.stderr
    assert proc.stdout == ""


def test_canonical_shelling_failure_survives_optimized_mode():
    proc = run_optimized("import sys\n"
                         "from bdsweyl import cli, srring\n"
                         "srring.verify_shelling = lambda complex_, order: False\n"
                         "sys.exit(cli.main(['alambda', 'B', '3', '--node', '3',"
                         " '--weight', 'h2=1,h0=1']))\n")
    assert proc.returncode == 1
    assert "property failure: canonical shelling: order fails the shelling test" in proc.stderr
    assert proc.stdout == ""


def test_canonical_shelling_tops_off_h0_refused_in_optimized_mode():
    # every top-level tuple summing to h0 + 1: the complex still reads pure, so
    # flags reaches the canonical branch, which refuses before building a facet
    proc = run_optimized("import sys\n"
                         "from bdsweyl import cli, srring\n"
                         "srring.SRPresentation._tops = property("
                         "lambda self: tuple((self.h0 + 1 - r, r) for r in range(2)))\n"
                         "sys.exit(cli.main(['alambda', 'B', '3', '--node', '3',"
                         " '--weight', 'h2=1,h0=1']))\n")
    assert proc.returncode == 1
    assert "property failure: canonical shelling: not the facet set" in proc.stderr
    assert proc.stdout == ""


def test_g0_coroot_failure_survives_optimized_mode():
    proc = run_optimized("import sys\n"
                         "from bdsweyl import cli\n"
                         "from bdsweyl.bdspair import BdsPair\n"
                         "coords = BdsPair.g0_coroot_coordinates\n"
                         "BdsPair.g0_coroot_coordinates = "
                         "lambda self, a: tuple(-c for c in coords(self, a))\n"
                         "sys.exit(cli.main(['localdim', 'B', '3', '--node', '3',"
                         " '--fundamental', '2']))\n")
    assert proc.returncode == 1
    assert "property failure: g0_weyl_dim: negative Delta_0 coroot" in proc.stderr
    assert proc.stdout == ""


def test_property_failures_are_named(capsys, monkeypatch):
    monkeypatch.setattr(srring, "verify_shelling", lambda complex_, order: False)
    code, out, err = run(capsys, "alambda", "B", "3", "--node", "3", "--weight", "h2=1,h0=1")
    assert (code, out) == (1, "")
    assert err == "property failure: canonical shelling: order fails the shelling test\n"
    coords = BdsPair.g0_coroot_coordinates
    monkeypatch.setattr(BdsPair, "g0_coroot_coordinates",
                        lambda self, a: tuple(-c for c in coords(self, a)))
    code, out, err = run(capsys, "localdim", "B", "3", "--node", "3", "--fundamental", "2")
    assert (code, out) == (1, "")
    assert err == "property failure: g0_weyl_dim: negative Delta_0 coroot\n"


def test_garland_failure_reported_by_both_routes(capsys, monkeypatch):
    monkeypatch.setattr(garland, "newton_identity_holds", lambda c, r: False)
    code, out, _ = run(capsys, "garland-check", "G", "2", "--node", "2", "--order", "2",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert len(payload["failures"]) == payload["roots_checked"] == 6
    assert all(f["check"] == "newton" and f["order"] == 2 for f in payload["failures"])
    result = verify.check_garland(all_pairs(2), 2)
    assert not result.ok
    assert result.detail.startswith("newton at ")


def test_garland_check(capsys):
    code, out, _ = run(capsys, "garland-check", "G", "2", "--node", "2", "--order", "3")
    assert code == 0
    assert "pass" in out


def test_garland_order_one_above_the_limit_exits_2_before_any_polynomial(capsys, monkeypatch):
    # B3 at order 8 has 15525 tensor-square monomials at u^8: one above a
    # limit of 15524, which the check refuses before any HPoly is built.
    def unreachable(*args, **kwargs):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(garland, "MAX_TENSOR_TERMS", 15524)
    monkeypatch.setattr(garland.HPoly, "_make", unreachable)
    monkeypatch.setattr(garland.HPoly, "__init__", unreachable)
    code, out, err = run(capsys, "garland-check", "B", "3", "--node", "3", "--order", "8")
    assert (code, out) == (2, "")
    assert err == ("error: order 8 is too large for rank 3: the tensor square has 15525 "
                   "monomials at u^8, above the limit 15524\n")


def test_garland_order_above_the_limit_exits_2(capsys):
    for order in ("9", "1000000000"):
        code, out, err = run(capsys, "garland-check", "B", "3", "--node", "3", "--order", order)
        assert (code, out) == (2, "")
        assert err == (f"error: order {order} is too large for rank 3: the tensor square has "
                       "36280 monomials at u^9, above the limit 20000\n")


def test_oversized_presentation_exits_2(capsys):
    code, out, err = run(capsys, "hilbert", "G", "2", "--node", "1",
                         "--weight", "h0=99999999999", "--degree", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: weight too large: the variable degrees sum to 14999999999850000000000, "
                   "above the limit 100000 on the Hilbert numerator length\n")


def test_degree_above_the_limit_exits_2(capsys):
    code, out, err = run(capsys, "hilbert", "B", "3", "--node", "3",
                         "--weight", "h2=1,h0=1", "--degree", "100001")
    assert code == 2
    assert out == ""
    assert err == "error: truncation degree 100001 is above the limit 100000\n"


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-rank", "4", "--seed", "1")
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("max_rank", ["0", "1", "-3"])
def test_verify_all_below_rank_2_exits_2(capsys, max_rank):
    code, out, err = run(capsys, "verify-all", "--max-rank", max_rank)
    assert code == 2
    assert out == ""
    assert "at least 2" in err
    assert "Traceback" not in err


def test_verify_all_above_rank_12_exits_2(capsys):
    code, out, err = run(capsys, "verify-all", "--max-rank", "13")
    assert code == 2
    assert out == ""
    assert err == "error: max rank must be at most 12, the largest classical rank, got 13\n"


def test_verify_all_rank_2_passes(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-rank", "2")
    assert code == 0
    assert "overall: pass" in out


def test_verify_all_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-rank", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert all(r["ok"] for r in payload["results"])


def test_byte_identical_reports(capsys):
    args = ("alambda", "C", "3", "--node", "1", "--weight", "h2=2,h3=1,h0=2", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# The argv vocabulary of the differential test: tokens each argument reads,
# and odd ones: bad type letters, ints that `int` reads or refuses, a bad
# choice, and flags, among them the spellings argparse reads but the plain form
# leaves to it (abbreviation, `=`, help, `--`).
INT_TOKENS = ["0", "1", "3", "4", "8", "+2", "1_0", "\u0663"]
WEIGHT_TOKENS = ["h2=1,h0=1", "h2=1", ""]
PLAIN_FLAGS = sorted({flag for command in COMMANDS.values() for flag in command.options})
ODD_TOKENS = ["H", "AB", "-1", "\u00b2", "xml", *PLAIN_FLAGS,
              "--deg", "--degree=12", "-h", "--help", "--"]
VOCABULARY = [*"ABCDEFG", *INT_TOKENS, *WEIGHT_TOKENS, "text", "json", *ODD_TOKENS]


@st.composite
def cli_argv(draw):
    """An argv of a command's own form (a bogus name takes alambda's), with
    flags repeated or not and about one token in ten drawn from the whole
    vocabulary, then up to two tokens inserted or replaced."""
    def token(arg):
        own = arg.choices or (INT_TOKENS if arg.type is int else WEIGHT_TOKENS)
        return draw(st.sampled_from(own if draw(st.integers(0, 9)) else VOCABULARY))

    name = draw(st.sampled_from([*COMMANDS, "bogus"]))
    command = COMMANDS.get(name, COMMANDS["alambda"])
    argv = [name] + [token(arg) for arg in command.positionals]
    flags = st.sampled_from(sorted(command.options))
    for flag in draw(st.lists(flags, max_size=5, unique=draw(st.booleans()))):
        argv += [flag, token(command.options[flag])]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, len(argv)))
        argv[k:k + draw(st.integers(0, 1))] = [draw(st.sampled_from(VOCABULARY))]
    return argv


def argparse_namespace(argv):
    """vars() of what the argparse parser reads from argv, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


# one argv for each rule of the plain form, each one that argparse reads otherwise
@example(["alambda", "B", "3", "--weight", "-h"])
@example(["hilbert", "B", "3", "--delta-weight", "--"])
@example(["pair", "AB", "3"])
@example(["pair", "B", "\u00b2"])
@example(["localdim", "B", "3", "--node", "3"])
@example(["idealpoint", "B", "3", "--weight", "h2=1", "--delta-weight", "h2=1"])
@example(["garland-check", "B", "3", "--order"])
@settings(max_examples=1000, deadline=None)
@given(cli_argv())
def test_plain_args_agree_with_argparse(argv):
    args = _plain_args(argv)
    if args is not None:
        assert vars(args) == argparse_namespace(argv)


def test_every_successful_corpus_argv_takes_the_plain_path():
    argvs = [command.split() + tail for command, _ in GOLDEN + FRONTIER
             for tail in ([], ["--format", "json"])]
    argvs += [query.argv for workload in workloads.WORKLOADS for seed in range(5)
              for query in workloads.generate(workload, seed) if query.expect == 0]
    for argv in argvs:
        args = _plain_args(argv)
        assert args is not None, argv
        assert vars(args) == argparse_namespace(argv)


# Replays argv lists in one fresh process: the exit code, the SHA-256 of
# stdout and stderr of each.
REPLAY = """
import contextlib, hashlib, io, json, sys
from bdsweyl.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.append([code, hashlib.sha256(stdout.getvalue().encode()).hexdigest(), stderr.getvalue()])
print(json.dumps(out))
"""


def replay(argvs):
    # -S: no site hooks; COLUMNS fixes the width argparse wraps its help to
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-S", "-c", REPLAY, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# SHA-256 of the `--help` stdout, as the parser printed it when it was built by
# hand, one add_argument call after another, before the option table.
HELP_DIGESTS = {
    "": "f1a4013c96a2939ad2a2fb6cf50faca5afa59d074b9e67a30af1ba32866a839a",
    "pair": "843bb1e9c989480c9e64cf6f2fc4c25b853f3624e6c3076c40aea4851795d38e",
    "alambda": "74c51a8f1088e314c25e34f3080989147fff101e3150a721e47e68c0d702f6ba",
    "hilbert": "328ea63f078d518f19947be2f458bf1ed3a1fd94b7f7f369a8f8179a1d526a27",
    "localdim": "026b65838bcf35a27650ba250baeb3bdf7b1f7e8a3f8935905a2ca5170f3cec4",
    "idealpoint": "09f7e4c32cabb3a6798c3096122db004ff3330ce2e5bfe59aff29a907915b3db",
    "garland-check": "8e99849a844bdd3834e92683a65e9eb5b065b1b586d91cf23d3e56b88f33bf55",
    "verify-all": "b8b4d3d26572352065fa9042c61557dc3b6ff64f3fc010135f3496d943de97f8",
}


def test_help_is_the_hand_built_parsers():
    assert set(HELP_DIGESTS) - {""} == set(COMMANDS)
    argvs = [[command, "--help"] if command else ["--help"] for command in HELP_DIGESTS]
    assert replay(argvs) == [[0, digest, ""] for digest in HELP_DIGESTS.values()]


EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# stderr of each refused argv, as the hand-built parser wrote it
USAGE_ERRORS = [
    (["pair", "H", "3", "--node", "1"],
     "usage: bdsweyl pair [-h] [--node NODE] [--format {text,json}]\n"
     "                    {A,B,C,D,E,F,G} rank\n"
     "bdsweyl pair: error: argument type: invalid choice: 'H' "
     "(choose from 'A', 'B', 'C', 'D', 'E', 'F', 'G')\n"),
    (["alambda", "B", "3", "--node", "3", "--weight", "h2=1", "--delta-weight", "h2=1"],
     "usage: bdsweyl alambda [-h] [--node NODE]\n"
     "                       [--weight WEIGHT | --delta-weight DELTA_WEIGHT]\n"
     "                       [--degree DEGREE] [--format {text,json}]\n"
     "                       {A,B,C,D,E,F,G} rank\n"
     "bdsweyl alambda: error: argument --delta-weight: not allowed with argument --weight\n"),
    (["hilbert", "B", "3", "--node", "3", "--degree", "-1"],
     "error: truncation degree must be >= 0\n"),
    (["no-such-command"],
     "usage: bdsweyl [-h]\n"
     "               {pair,alambda,hilbert,localdim,idealpoint,garland-check,verify-all}\n"
     "               ...\n"
     "bdsweyl: error: argument command: invalid choice: 'no-such-command' (choose from "
     "'pair', 'alambda', 'hilbert', 'localdim', 'idealpoint', 'garland-check', 'verify-all')\n"),
]


def test_usage_errors_are_the_hand_built_parsers():
    assert replay([argv for argv, _ in USAGE_ERRORS]) == [
        [2, EMPTY_SHA256, err] for _, err in USAGE_ERRORS]


# Every value the JSON writer accepts; json.dumps with the CLI's settings is the oracle.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.text(),
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)


# The rows of a row generator, and the writes they take: none, one empty row,
# and 1.4 _CHUNK of row text, which is written once on the way.
ROW_LISTS = [([], 1), ([[]], 1), ([[i, [i, 2 * i]] for i in range(1500)], 2)]


@pytest.mark.parametrize("rows, count", ROW_LISTS, ids=["no_rows", "one_empty_row", "past_chunk"])
def test_write_json_writes_a_row_generator_as_its_list(rows, count):
    writes = []
    row_list = _Joined((_render(r, _ROW_PAD) for r in rows), *_JSON_LIST)
    _write(_json({"a": 1, "rows": row_list, "z": [None]}), writes.append)
    assert "".join(writes) == json.dumps({"a": 1, "rows": rows, "z": [None]}, sort_keys=True, indent=2)
    assert len(writes) == count


@pytest.mark.parametrize("value", [1.5, {1: "a"}, [0, 2.0], {"k": {True: 1}}, [1, object()]],
                         ids=["float", "int_key", "float_in_int_list", "bool_key", "object"])
def test_dumps_rejects_what_the_payloads_never_hold(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_cli_does_not_import_json():
    assert not hasattr(bdsweyl.cli, "json")


# Oracle: the alambda payload as it was built before the rows were rendered
# from per-node prefix tables, with a [node, level] list per variable, each
# row sorted, and the facets and generators sorted as sorted variable lists.
def old_presentation_payload(pres, degree):
    flags = pres.flags()
    pair = pres.pair
    gens = sorted(pres.generators, key=sorted)
    variables = ", ".join(v.label() for v in pres.variables) or "-"
    relations = ", ".join("".join(v.label() for v in sorted(g)) for g in gens) or "-"
    hs = pres.hilbert_series(degree)
    cf = hs.closed_form
    return {
        "weight": pres.lam.format(),
        "caps": {str(i): pres.caps[i] for i in pair.rs.nodes},
        "variables": [[v.node, v.level, v.degree] for v in pres.variables],
        "generators": [sorted([v.node, v.level] for v in g) for g in gens],
        "presentation": f"C[{variables}] / ({relations})",
        "krull_dim": pres.krull_dim(),
        "d_lambda": pres.d_lambda() if pres.jac_zero else None,
        "facets": [[[v.node, v.level] for v in sorted(f)]
                   for f in sorted(pres.facets().facets, key=sorted)],
        "hilbert": {
            "degree": hs.truncation_degree,
            "coefficients": list(hs.coefficients),
            "closed_form": None if cf is None else {
                "numerator": list(cf.numerator),
                "denominator": list(cf.denominator),
                "display": cf.format(),
            },
        },
        "flags": {
            "jac_zero": flags["jac_zero"],
            "koszul": "true" if flags["koszul"] else "unknown",
            "pure": flags["pure"],
            "cohen_macaulay_certified": flags["cohen_macaulay_certified"],
        },
        "verdicts": {
            "alambda_trivial": weylcrit.is_alambda_trivial(pair, pres.lam),
            "global_weyl_irreducible": weylcrit.is_global_weyl_irreducible(pair, pres.lam),
        },
    }


# Oracle: the text report as it was written from the list payload above.
def old_text_report(pres, payload, degree):
    lower = lambda b: str(b).lower() if isinstance(b, bool) else b
    f, v = payload["flags"], payload["verdicts"]
    text = [
        f"pair: {pres.pair.describe()}",
        f"weight: {pres.lam.format()}",
        f"presentation: {payload['presentation']}" + ("   (A_lambda = C)" if not pres.variables else ""),
        f"Krull dimension: {payload['krull_dim']}",
        "facets: " + ("; ".join(
            "{" + ", ".join(f"P({n},{r})" for n, r in fa) + "}" for fa in payload["facets"]) or "{}"),
        f"Hilbert coefficients to degree {degree}: {payload['hilbert']['coefficients']}",
    ]
    if payload["hilbert"]["closed_form"]:
        text.append(f"Hilbert closed form: {payload['hilbert']['closed_form']['display']}")
    text.append(
        f"flags: jac_zero={lower(f['jac_zero'])} koszul={f['koszul']} pure={lower(f['pure'])} "
        f"cohen_macaulay_certified={lower(f['cohen_macaulay_certified'])}")
    text.append(f"A_lambda trivial (one-dimensional modulo radical): {lower(v['alambda_trivial'])}")
    text.append(f"W(lambda) irreducible: {lower(v['global_weyl_irreducible'])}")
    return "\n".join(text) + "\n"


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


ALL_PAIRS_8 = all_pairs(8)


def assert_rows_match_the_list_renderer(pair, lam, degree):
    argv = ["alambda", pair.rs.type_letter, str(pair.rs.rank), "--node", str(pair.j),
            "--weight", lam.format(), "--degree", str(degree)]
    pres = presentation(pair, lam)
    old = old_presentation_payload(pres, degree)
    envelope = {"schema_version": 1, "command": "alambda", "pair": _pair_payload(pair), **old}
    assert stdout_of(argv + ["--format", "json"]) == (
        0, json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    assert stdout_of(argv) == (0, old_text_report(pres, old, degree))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_alambda_rows_match_the_list_renderer(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.delta0_labels})
    degree = data.draw(st.integers(0, 8), label="degree")
    assert_rows_match_the_list_renderer(pair, lam, degree)


# Rows the draw above seldom reaches, each with the shape it pins: a free node
# after the last constrained node (the row's tail after its table entries;
# of all_pairs(12) only E6 node 3, E7 node 2 and E8 node 1 have one), free
# nodes but no constrained node (the tail alone), and no variable at all.
FIXED_ROW_CASES = {
    "free_node_after_the_constrained_ones": (
        "E", 6, 3, "h1=2,h6=1,h0=4", lambda p: max(p.free_nodes) > max(p.constrained_nodes)),
    "free_nodes_only": ("E", 6, 3, "h6=1,h0=0", lambda p: p.free_nodes and not p.constrained_nodes),
    "no_variable": ("B", 3, 3, "h0=0", lambda p: not p.variables),
}


@pytest.mark.parametrize("case", FIXED_ROW_CASES.values(), ids=FIXED_ROW_CASES)
def test_alambda_rows_match_the_list_renderer_on_fixed_cases(case):
    type_letter, rank, node, weight, shape = case
    pair = build_pair(type_letter, node, rank=rank)
    lam = Weight0.parse(weight)
    assert shape(presentation(pair, lam))
    assert_rows_match_the_list_renderer(pair, lam, 6)


# D12 at node 6 with the same weight w on every node and h0 = 4 w: 1555961
# facets at w = 10.
def d12_argv(w):
    weight = ",".join(f"h{i}={w}" for i in range(1, 13) if i != 6) + f",h0={4 * w}"
    return ["alambda", "D", "12", "--node", "6", "--weight", weight, "--degree", "4"]


def test_facet_count_refusal_exits_2_at_once(capsys):
    run(capsys, *d12_argv(1))  # builds D12 and the pair
    t0 = time.perf_counter()
    code, out, err = run(capsys, *d12_argv(10))
    assert time.perf_counter() - t0 < 0.1
    assert (code, out) == (2, "")
    assert err == f"error: too many facets: the complex has 1555961, above the limit {MAX_FACETS}\n"
