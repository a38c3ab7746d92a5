"""Experiment harness and the command-line front end.

CLI tests go through cli.main(argv) so exit codes and output files are
exercised exactly as a shell user would see them.
"""

import gc
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegames import cli
from edgegames.cli import SUBCOMMANDS, build_parser, main
from edgegames.engine import (
    Board,
    InducedSubgraphProperty,
    NotKColorableProperty,
    SubgraphProperty,
)
from edgegames.graphs import (
    MAX_N,
    bits,
    complete_graph,
    edge_index,
    edges_between,
    graph_from_edges,
    graph_to_text,
    mask_of,
    num_edges,
    turan_bounds,
    turan_number,
)
from edgegames.harness import (
    CSV_COLUMNS,
    SweepConfig,
    margin_violation_fraction,
    match_seed,
    monitor_set_size,
    parse_n_range,
    parse_property,
    report_bounds,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from edgegames.regularity import _samples, jumbleg_margin


# ---------------------------------------------------------------------------
# property DSL
# ---------------------------------------------------------------------------

def test_parse_property_kinds():
    p = parse_property("edge")  # the family {K2}
    assert type(p) is SubgraphProperty and p.members == [complete_graph(2)] and p.chi == 2
    p = parse_property("subgraph:K3")
    assert isinstance(p, SubgraphProperty) and p.chi == 3
    p = parse_property("induced:P3")
    assert isinstance(p, InducedSubgraphProperty) and p.chi == 2
    p = parse_property("nc:4")
    assert isinstance(p, NotKColorableProperty) and p.k == 4
    with pytest.raises(ValueError):
        parse_property("clique:3")


def test_parse_property_family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(["3 3\n0 1\n0 2\n1 2\n", "4 4\n0 1\n1 2\n2 3\n0 3\n"]))
    p = parse_property("family:%s" % path)
    assert isinstance(p, SubgraphProperty)
    assert len(p.members) == 2
    assert p.chi == 2  # C4 is bipartite

    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    with pytest.raises(ValueError):
        parse_property("family:%s" % bad)
    bad.write_text('{"a": 1}')
    with pytest.raises(ValueError):
        parse_property("family:%s" % bad)
    for texts in ([1, 2], ["2 1\n0 1\n", None]):  # a member that is not a graph text
        bad.write_text(json.dumps(texts))
        with pytest.raises(ValueError, match="list of graph texts"):
            parse_property("family:%s" % bad)


def test_property_bounds():
    # a property's bounds are turan_bounds at its chi
    lower, upper = turan_bounds(10, parse_property("subgraph:K3").chi)
    assert lower == turan_number(10, 2) // 2 == 12
    assert upper == Fraction(1, 2) * 100 / 4
    lower, upper = turan_bounds(10, parse_property("nc:2").chi)
    assert lower == turan_number(10, 2) // 2
    assert upper == Fraction(1, 2) * 100 / 4
    lower, upper = turan_bounds(10, parse_property("edge").chi)
    assert lower == turan_number(10, 1) // 2 == 0


@pytest.mark.parametrize("descriptor, chi, k, variant", [
    ("edge", 2, 2, "family"),
    ("subgraph:K4", 4, 4, "family"),
    ("induced:C5", 3, 3, "family"),
    ("family", 2, 2, "family"),  # K3 and the bipartite C4
    ("nc:1", 2, 1, "nc"),
    ("nc:2", 3, 2, "nc"),
    ("nc:3", 4, 3, "nc"),
    ("nc:4", 5, 4, "nc"),
])
def test_property_bounds_match_the_report_row(tmp_path, descriptor, chi, k, variant):
    if descriptor == "family":
        path = tmp_path / "family.json"
        path.write_text(json.dumps(["3 3\n0 1\n0 2\n1 2\n", "4 4\n0 1\n1 2\n2 3\n0 3\n"]))
        descriptor = "family:%s" % path
    prop = parse_property(descriptor)
    assert prop.chi == chi
    for n in (2, 5, 10, 13):
        lower, upper = turan_bounds(n, prop.chi)
        row = report_bounds(n, k, variant)
        assert (lower, float(upper)) == (row["lower"], row["upper_main"])


# ---------------------------------------------------------------------------
# seeds, ranges, monitor sizes
# ---------------------------------------------------------------------------

def test_match_seed_deterministic_and_spread():
    assert match_seed(0, 6, 0) == match_seed(0, 6, 0)
    seeds = {match_seed(0, n, t) for n in range(6, 12) for t in range(10)}
    assert len(seeds) == 60  # no collisions in a small grid
    assert match_seed(1, 6, 0) != match_seed(0, 6, 0)


def test_parse_n_range():
    assert parse_n_range("6") == [6]
    assert parse_n_range("6,8,10") == [6, 8, 10]
    assert parse_n_range("6:9") == [6, 7, 8, 9]  # inclusive
    assert parse_n_range("6:12:3") == [6, 9, 12]
    with pytest.raises(ValueError):
        parse_n_range("6:9:1:2")
    with pytest.raises(ValueError):
        parse_n_range("six")
    # a repeated size would play its matches twice with the same seeds
    with pytest.raises(ValueError, match="repeated size 6 in '6,8,6'"):
        parse_n_range("6,8,6")
    for spec in ("6:10:0", "10:6:-2", "6:10:-1"):
        with pytest.raises(ValueError, match="range step must be >= 1"):
            parse_n_range(spec)


def test_monitor_set_size():
    # n=100, eps=1/10: qualifying floor is 11, but n/4 = 25 wins
    assert monitor_set_size(100, Fraction(1, 10)) == 25
    # small boards: quarter-size sets, capped at n//2 so a disjoint pair fits
    assert monitor_set_size(8, Fraction(1, 10)) == 2
    assert 2 * monitor_set_size(11, Fraction(1, 10)) <= 11


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=MAX_N),
    st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 7), Fraction(3, 20), Fraction(1, 3)]),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=1, max_value=5),
)
def test_pool_samples_match_random_sample(n, eps, seed, count):
    # the monitor's draws, list for list, against the stdlib call they replace
    k = 2 * monitor_set_size(n, eps)
    rng = random.Random(seed)
    want = [rng.sample(range(n), k) for _ in range(count)]
    assert list(itertools.islice(_samples(random.Random(seed), range(n), k), count)) == want


def test_monitor_sizes_take_the_pool_path():
    # `sample` shuffles a pool when n <= 21 + (the smallest power of 4 that
    # is at least 3k, for k > 5); `_samples` runs that path inline
    for eps in (Fraction(1, 10), Fraction(1, 3)):
        for n in range(2, MAX_N + 1):
            k = 2 * monitor_set_size(n, eps)
            table = 1
            while k > 5 and table < 3 * k:
                table *= 4
            assert 2 <= k <= n <= 21 + (table if k > 5 else 0), (n, eps)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_margin_violation_fraction_matches_per_pair_bound(data):
    # the monitor compares integer margins with floor(bound) from one
    # jumbleg_margin call on a board; the reference counts edges from the
    # claim codes and asks jumbleg_margin about every pair, with the same draws
    n = data.draw(st.integers(min_value=2, max_value=12))
    m = num_edges(n)
    claims = data.draw(st.lists(st.sampled_from([0, 1, 1, 1, 2]), min_size=m, max_size=m))
    eps = data.draw(st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(1, 10), Fraction(3, 20)]))
    seed, pairs = data.draw(st.integers(min_value=0, max_value=2**32)), 30
    size = monitor_set_size(n, eps)
    rng = random.Random(seed)
    bad = 0
    for _ in range(pairs):
        picks = rng.sample(range(n), 2 * size)
        S, T = mask_of(picks[:size]), mask_of(picks[size:])
        cross = [claims[edge_index(min(u, v), max(u, v), n)] for u in bits(S) for v in bits(T)]
        bad += not jumbleg_margin(cross.count(1), cross.count(2), size, size, eps)[2]
    board = Board(n)
    for eid, c in enumerate(claims):
        if c:
            board.claim(eid, c)
    assert margin_violation_fraction(board.n, board.claims, eps, pairs, seed) == Fraction(bad, pairs)


def per_pair_violation_fraction(board, eps, pairs, seed):
    """The monitor as two edges_between bit loops per drawn pair."""
    G_b, G_m = board.builder_graph(), board.opponent_graph()
    size = monitor_set_size(board.n, eps)
    limit = math.floor(jumbleg_margin(0, 0, size, size, eps)[1])
    rng = random.Random(seed)
    bad = 0
    for _ in range(pairs):
        picks = rng.sample(range(board.n), 2 * size)
        S, T = mask_of(picks[:size]), mask_of(picks[size:])
        bad += edges_between(G_b, S, T) - edges_between(G_m, S, T) > limit
    return Fraction(bad, pairs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_margin_violation_fraction_matches_edges_between(data):
    # the one-pass monitor against the per-pair formula it replaced, on
    # random boards, seeds and pair counts
    n = data.draw(st.integers(min_value=2, max_value=40))
    board = Board(n)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    bias = data.draw(st.sampled_from([(1, 1, 1), (1, 4, 1), (3, 1, 1), (1, 1, 4)]))
    for eid in range(board.m):
        c = rng.choices([0, 1, 2], weights=bias)[0]
        if c:
            board.claim(eid, c)
    eps = data.draw(st.sampled_from([Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)]))
    pairs = data.draw(st.integers(min_value=1, max_value=60))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    got = margin_violation_fraction(board.n, board.claims, eps, pairs, seed)
    assert got == per_pair_violation_fraction(board, eps, pairs, seed)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def small_config(**overrides):
    base = dict(
        n_values=[6, 8],
        trials=2,
        avoider="turan:2",
        enforcer="random",
        property_descriptor="subgraph:K3",
        master_seed=7,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_rows_and_summary():
    rows, summary = run_sweep(small_config())
    assert len(rows) == 4
    assert [(r.n, r.trial) for r in rows] == [(6, 0), (6, 1), (8, 0), (8, 1)]
    for r in rows:
        assert r.lower == turan_number(r.n, 2) // 2
        assert r.hit_round == -1 or r.hit_round >= 1
        assert 0 <= r.violations <= 1
    assert [s["n"] for s in summary] == [6, 8]
    for s in summary:
        if s["hits"]:
            assert s["min"] <= s["median"] <= s["max"]


def test_sweep_deterministic():
    a = sweep_to_csv(*run_sweep(small_config()))
    b = sweep_to_csv(*run_sweep(small_config()))
    assert a == b
    c = sweep_to_csv(*run_sweep(small_config(master_seed=8)))
    assert c != a


def test_sweep_csv_shape():
    text = sweep_to_csv(*run_sweep(small_config()))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    data = [l for l in lines[1:] if not l.startswith("#")]
    comments = [l for l in lines[1:] if l.startswith("# summary")]
    assert len(data) == 4 and len(comments) == 2
    first = data[0].split(",")
    assert len(first) == 7
    assert first[0] == "6" and first[1] == "0"


def test_sweep_json_matches_csv_rows():
    rows, summary = run_sweep(small_config())
    payload = json.loads(sweep_to_json(rows, summary))
    assert len(payload["rows"]) == len(rows)
    for rec, r in zip(payload["rows"], rows):
        assert rec["n"] == r.n and rec["seed"] == r.seed
        assert rec["hit_round"] == r.hit_round
    assert len(payload["summary"]) == 2


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        small_config(n_values=[])
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(max_rounds=0)


# ---------------------------------------------------------------------------
# bounds reports
# ---------------------------------------------------------------------------

def test_report_bounds_family():
    rep = report_bounds(10, 3, "family")
    assert rep["lower"] == turan_number(10, 2) // 2
    assert rep["upper_main"] == 12.5
    assert rep["flags"] == [] and rep["caption"] is None


def test_report_bounds_bipartite_flag():
    rep = report_bounds(10, 2, "family")
    assert "last two inequalities only" in rep["flags"]
    assert rep["caption"] is not None
    assert rep["upper_main"] == 0


def test_report_bounds_nc():
    rep = report_bounds(10, 2, "nc")
    assert rep["lower"] == turan_number(10, 2) // 2
    rep1 = report_bounds(10, 1, "nc")
    assert "trivial game" in rep1["flags"]
    assert rep1["lower"] == 0
    with pytest.raises(ValueError):
        report_bounds(10, 1, "family")
    with pytest.raises(ValueError):
        report_bounds(10, 0, "nc")
    with pytest.raises(ValueError):
        report_bounds(10, 2, "xyz")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_play_writes_transcript(tmp_path):
    out = tmp_path / "match.jsonl"
    code = main(
        [
            "play", "--n", "6", "--avoider", "turan:2", "--enforcer", "random",
            "--property", "subgraph:K3", "--seed", "5", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["type"] == "header" and header["n"] == 6
    assert json.loads(lines[-1])["type"] == "outcome"


def test_cli_play_to_stdout_matches_out(tmp_path, capsys):
    # a full board of 4,950 moves spans more than one streamed chunk
    out = tmp_path / "match.jsonl"
    argv = ["play", "--n", "100", "--avoider", "random", "--enforcer", "jumbleg:1/10",
            "--property", "nc:100", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == out.read_text() and len(text.splitlines()) == 2 + num_edges(100)


def test_cli_play_max_rounds_is_capped(tmp_path):
    out = tmp_path / "match.jsonl"
    code = main(
        [
            "play", "--n", "8", "--avoider", "turan:2", "--enforcer", "random",
            "--property", "subgraph:K3", "--seed", "5", "--max-rounds", "2", "--out", str(out),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert records[-1] == {"type": "outcome", "result": "capped", "t": -1}
    assert [r["role"] for r in records[1:-1]] == ["avoider", "enforcer", "avoider"]


def test_cli_solve(tmp_path):
    out = tmp_path / "solve.json"
    code = main(["solve", "--n", "4", "--property", "subgraph:K3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload.pop("elapsed_ms"), int)
    assert payload == {
        "n": 4,
        "property": "subgraph:K3",
        "convention": "avoider-enforcer",
        "first_mover": "avoider",
        "value": "never",
        "nodes": 21,
    }


def test_cli_solve_budget_exit_code(tmp_path):
    out = tmp_path / "solve.json"
    code = main(
        ["solve", "--n", "5", "--property", "subgraph:K3", "--budget", "10",
         "--out", str(out)]
    )
    assert code == 3
    assert json.loads(out.read_text())["value"] == "unknown"


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--n", "6:8:2", "--trials", "1", "--seed", "3",
        "--avoider", "turan:2", "--enforcer", "random",
        "--property", "subgraph:K3", "--out", str(out),
    ]
    assert main(argv) == 0
    text1 = out.read_text()
    assert text1.startswith(CSV_COLUMNS)
    assert main(argv) == 0
    assert out.read_text() == text1  # byte-identical rerun


def test_cli_verify_p1(tmp_path):
    out = tmp_path / "p1.json"
    code = main(["verify", "p1", "--graph", "K8", "--eps", "1/10", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload == {"check": "p1", "passed": True, "min_degree": 7}


def test_cli_verify_p2_exact(tmp_path):
    out = tmp_path / "p2.json"
    code = main(
        ["verify", "p2", "--graph", "K6", "--eps", "1/4", "--mode", "exact",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["check"] == "p2" and payload["passed"] is False
    assert payload["witness_S"] is not None


def test_cli_verify_regular_pair(tmp_path):
    out = tmp_path / "rp.json"
    code = main(
        ["verify", "regular-pair", "--graph", "Kpartite:5,5", "--alpha", "1/10",
         "--A", "0,1,2,3,4", "--B", "5,6,7,8,9", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True and payload["deviation_num"] == 0


def test_cli_verify_density_lemma(tmp_path):
    out = tmp_path / "dl.json"
    code = main(
        ["verify", "density-lemma", "--graph", "K12", "--E", "1/2",
         "--parts", "3", "--inner-size", "2", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["check"] == "density-lemma"
    assert payload["conclusion_ok"] is True
    # on a cycle the count depends on which vertices were picked: the first
    # two of each round-robin part
    code = main(
        ["verify", "density-lemma", "--graph", "C12", "--E", "1/2",
         "--parts", "3", "--inner-size", "2", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["lhs"] == 5


def test_cli_verify_slicing(tmp_path, graph_file=None):
    # complete bipartite pair: trivially regular, all slices at density 1
    out = tmp_path / "sl.json"
    code = main(
        ["verify", "slicing", "--graph", "Kpartite:6,6", "--alpha", "1/3",
         "--A", "0,1,2,3,4,5", "--B", "6,7,8,9,10,11",
         "--L0", "6", "--Li", "3", "--Lj", "3", "--trials", "20", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["violations"] == 0 and payload["trials"] == 20
    assert payload["alpha_prime"] == "2/3"
    # without --L0 the check derives L0 = |A| and reports the same alpha'
    code = main(
        ["verify", "slicing", "--graph", "Kpartite:6,6", "--alpha", "1/3",
         "--A", "0,1,2,3,4,5", "--B", "6,7,8,9,10,11",
         "--Li", "3", "--Lj", "3", "--trials", "20", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["alpha_prime"] == "2/3"


def test_cli_verify_graph_file(tmp_path):
    gpath = tmp_path / "tri.txt"
    gpath.write_text("3 3\n0 1\n0 2\n1 2\n")
    out = tmp_path / "p1.json"
    code = main(["verify", "p1", "--graph", str(gpath), "--eps", "1/3", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["min_degree"] == 2


def test_cli_constants(tmp_path):
    out = tmp_path / "c.json"
    base = [
        "constants", "--epsilon", "1/100000", "--e0", "9/1000000",
        "--e1", "1/1000", "--eta", "1/100", "--delta", "1/20",
        "--gamma", "1/1000", "--f", "3", "--k", "3", "--s0", "1000",
        "--s1", "100", "--out", str(out),
    ]
    assert main(base) == 0
    assert json.loads(out.read_text()) == {"valid": True, "violations": []}
    bad = list(base)
    bad[bad.index("--epsilon") + 1] = "1/10"
    assert main(bad) == 0
    assert "(3)" in json.loads(out.read_text())["violations"]
    # n*eps^3/8 lies just below ln 30; the float comparison let it pass
    near = [
        "constants", "--epsilon", "544924888054581/562949953421312", "--e0", "1/100",
        "--e1", "1/10", "--eta", "1/2", "--delta", "1/2", "--gamma", "1/2", "--f", "3",
        "--k", "3", "--s0", "1", "--s1", "1", "--n", "30", "--out", str(out),
    ]
    assert main(near) == 0
    assert json.loads(out.read_text()) == {"valid": False, "violations": ["jumbleg-eps"]}


def test_cli_bounds_text_and_json(tmp_path, capsys):
    assert main(["bounds", "--n", "10", "--k", "3"]) == 0
    text = capsys.readouterr().out
    assert "lower" in text and "upper_main" in text
    out = tmp_path / "b.json"
    assert main(["bounds", "--n", "10", "--k", "2", "--variant", "nc",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["lower"] == turan_number(10, 2) // 2


def test_cli_play_long_cycle_pattern(capsys):
    # chi(C1101) tries a 2-colouring of 1101 vertices, which a backtracker
    # recursing once per vertex could not finish (RecursionError, no exit
    # code); the builder's graph stays bipartite, so the match is capped
    code = main(["play", "--n", "1200", "--avoider", "first", "--enforcer", "first",
                 "--property", "subgraph:C1101", "--max-rounds", "3"])
    assert code == 0
    outcome = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert outcome == {"type": "outcome", "result": "capped", "t": -1}


def test_cli_validation_exit_code_2(tmp_path, capsys):
    assert main(["play", "--n", "1"]) == 2
    assert main(["play", "--n", "6", "--avoider", "nope"]) == 2
    assert main(["play", "--n", "6", "--property", "nope"]) == 2
    assert main(["verify", "p1", "--graph", "no-such-file.txt"]) == 2
    assert main(["solve", "--n", "8", "--property", "subgraph:K3"]) == 2  # symmetry cap
    assert main(["solve", "--n", "4", "--property", "subgraph:K1"]) == 2  # holds at start
    assert main(["play", "--n", "5", "--property", "subgraph:K1"]) == 2
    assert main(["sweep", "--n", "5:6", "--property", "subgraph:K1"]) == 2
    assert main(["verify", "regular-pair", "--graph", "K6"]) == 2  # no --A/--B
    # past the exact caps: n = 21, and 2^19 * 19 cells above 2^18 * 18
    assert main(["verify", "p2", "--graph", "K21", "--eps", "1/10", "--mode", "exact"]) == 2
    assert main(["verify", "regular-pair", "--graph", "Kpartite:19,19", "--alpha", "1/10",
                 "--A", ",".join(map(str, range(19))), "--B", ",".join(map(str, range(19, 38)))]) == 2
    for mode in ("exact", "sampled"):
        assert main(["verify", "regular-pair", "--graph", "K6", "--A", "0,1", "--B", "2,99",
                     "--mode", mode]) == 2  # vertex 99 is not in K6
    assert main(["verify", "slicing", "--graph", "K6", "--A", "0,1", "--B", "2,99",
                 "--L0", "2", "--Li", "2", "--Lj", "2"]) == 2
    assert main(["verify", "slicing", "--graph", "K6", "--A", "0,1"]) == 2  # no --B
    assert main(["verify", "slicing", "--graph", "Kpartite:6,6", "--alpha", "1/3",
                 "--A", "0,1,2,3,4,5", "--B", "6,7,8,9,10,11",
                 "--L0", "12", "--Li", "3", "--Lj", "3"]) == 2  # L0 is |A| = 6
    for trials in ("0", "-5"):
        assert main(["verify", "slicing", "--graph", "Kpartite:6,6", "--alpha", "1/3",
                     "--A", "0,1,2,3,4,5", "--B", "6,7,8,9,10,11", "--Li", "3", "--Lj", "3",
                     "--trials", trials]) == 2
    for size in ("0", "-1"):
        assert main(["verify", "density-lemma", "--graph", "C12", "--parts", "3",
                     "--inner-size", size]) == 2
    for E in ("0", "-1"):
        assert main(["verify", "density-lemma", "--graph", "C12", "--parts", "3",
                     "--E", E]) == 2
    assert main(["sweep", "--n", "6", "--eps", "-1"]) == 2
    assert main(["solve", "--n", "4", "--budget", "-5"]) == 2
    assert main(["verify", "p1", "--graph", "K6", "--eps", "-1"]) == 2
    assert main(["verify", "p2", "--graph", "C8", "--eps", "-1"]) == 2
    # --set-size sizes the sampled pairs; exact mode covers every size
    assert main(["verify", "p2", "--graph", "C8", "--eps", "1/10", "--mode", "exact",
                 "--set-size", "3"]) == 2
    assert main(["verify", "regular-pair", "--graph", "K6", "--A", "0,1,2", "--B", "3,4,5",
                 "--alpha", "-1"]) == 2
    # boards above MAX_N are refused before any is built
    assert main(["play", "--n", "100000"]) == 2
    assert main(["sweep", "--n", "6,100000"]) == 2
    # the boundary values stay valid
    assert main(["sweep", "--n", "6", "--eps", "0"]) == 0
    assert main(["solve", "--n", "4", "--budget", "0"]) == 0
    assert main(["verify", "p1", "--graph", "K6", "--eps", "0"]) == 0
    assert main(["verify", "p2", "--graph", "C8", "--eps", "0"]) == 0
    capsys.readouterr()  # swallow the error prints
    for texts in ([1, 2], ["2 1\n0 1\n", None]):  # a family member that is not a graph text
        path = tmp_path / "family.json"
        path.write_text(json.dumps(texts))
        assert main(["play", "--n", "5", "--property", "family:%s" % path]) == 2
        assert "list of graph texts" in capsys.readouterr().err
    for check in ("regular-pair", "slicing"):
        assert main(["verify", check, "--graph", "K6", "--A", "0,-1", "--B", "2"]) == 2
        assert "negative vertex -1 in '0,-1'" in capsys.readouterr().err
        assert main(["verify", check, "--graph", "K6", "--A", "0,0", "--B", "2,3"]) == 2
        assert "repeated vertex 0 in '0,0'" in capsys.readouterr().err
        assert main(["verify", check, "--graph", "K6", "--A", "0,1", "--B", "2,3,5,3"]) == 2
        assert "repeated vertex 3 in '2,3,5,3'" in capsys.readouterr().err
        # a vertex past the graph is refused before it becomes a mask bit
        for spec, v in (("0,400000000", 400000000), ("1,6", 6)):
            assert main(["verify", check, "--graph", "K6", "--A", spec, "--B", "2"]) == 2
            err = capsys.readouterr().err
            assert "vertex %d in '%s' is not in the 6-vertex graph" % (v, spec) in err
    for spec, problem in (("6,8,6", "repeated size 6"), ("6:10:0", "range step must be >= 1")):
        assert main(["sweep", "--n", spec]) == 2
        assert problem in capsys.readouterr().err


def test_cli_oversized_or_repeated_graph_input_exit_code_2(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("1000000000000 0\n")
    for graph, problem in ((big, "got 1000000000000"), ("K1000000000", "got 1000000000")):
        start = time.perf_counter()
        assert main(["verify", "p1", "--graph", str(graph)]) == 2
        assert time.perf_counter() - start < 1
        assert "graph needs n <= 2000, " + problem in capsys.readouterr().err
    twice = tmp_path / "twice.txt"
    twice.write_text("3 2\n0 1\n0 1\n")
    assert main(["verify", "p1", "--graph", str(twice)]) == 2
    assert "repeated edge line: '0 1'" in capsys.readouterr().err


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_cli_max_rounds_below_one_exit_code_2(tmp_path, capsys, rounds):
    out = tmp_path / "out"
    assert main(["play", "--n", "5", "--max-rounds", rounds, "--out", str(out)]) == 2
    assert main(["sweep", "--n", "6:8", "--max-rounds", rounds, "--out", str(out)]) == 2
    assert not out.exists()
    assert "max_rounds must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser builds: a call builds only the subparser it names
# ---------------------------------------------------------------------------

SAMPLE_ARGV = {
    "play": ["play", "--n", "6", "--avoider", "random", "--property", "nc:2",
             "--seed", "3", "--max-rounds", "4", "--out", "t.jsonl"],
    "solve": ["solve", "--n", "4", "--property", "subgraph:K3", "--budget", "10"],
    "sweep": ["sweep", "--n", "6:8", "--trials", "2", "--eps", "1/5", "--format", "json"],
    "verify": ["verify", "regular-pair", "--graph", "K6", "--mode", "sampled",
               "--A", "0,1", "--B", "2,3", "--set-size", "2", "--L0", "2"],
    "constants": ["constants", "--epsilon", "1/100", "--e0", "1/50", "--e1", "1/10",
                  "--eta", "1/5", "--delta", "1/4", "--gamma", "1/3", "--f", "3", "--k", "2",
                  "--s0", "4", "--s1", "5", "--strict-e1"],
    "bounds": ["bounds", "--n", "5", "--k", "3", "--variant", "nc", "--format", "json"],
}


def _parse(parser, argv, capsys):
    """(namespace, exit code, stdout, stderr) of one parse_args call."""
    try:
        args, code = parser.parse_args(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return args, code, out.out, out.err


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_one_subparser_build_matches_the_full_build(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    one, full = build_parser([name]), build_parser()
    # an unrecognized argument prints the top-level usage, which names all six
    assert one.format_usage() == full.format_usage()
    assert "{play,solve,sweep,verify,constants,bounds}" in full.format_usage()
    sample = SAMPLE_ARGV[name]
    want = _parse(full, sample, capsys)
    assert want[0].command == name and want[1] is None
    assert _parse(one, sample, capsys) == want
    want = _parse(full, [name, "--help"], capsys)
    assert want[1] == 0 and want[2].startswith("usage: edgegames %s " % name)
    assert _parse(one, [name, "--help"], capsys) == want
    for extra in (["--no-such-option"], ["extra"]):
        want = _parse(full, sample + extra, capsys)
        assert want[1] == 2 and "unrecognized arguments: %s" % extra[0] in want[3]
        assert _parse(one, sample + extra, capsys) == want


def test_main_builds_only_the_named_subparser(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    built = []

    def spy(commands=SUBCOMMANDS):
        built.append(list(commands))
        return build_parser(commands)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["bounds", "--n", "5", "--k", "3"]) == 0
    capsys.readouterr()
    # a typo and no arguments build every subparser, and argparse's errors
    # name the subcommand argument by its dest
    for argv, error in (
        (["bound", "--n", "5"], "argument command: invalid choice: 'bound'"),
        ([], "the following arguments are required: command"),
    ):
        with pytest.raises(SystemExit, match="2"):
            main(argv)
        assert error in capsys.readouterr().err
    with pytest.raises(SystemExit, match="0"):
        main(["--help"])
    # each parser is built once per process: the typo, [] and --help share one
    assert built == [["bounds"], list(SUBCOMMANDS)]
    out = capsys.readouterr().out
    for name, (help_line, _) in SUBCOMMANDS.items():  # one listing line each
        assert re.search(r"^    %s +%s" % (name, re.escape(help_line[:40])), out, re.M)


# ---------------------------------------------------------------------------
# once per process: the parser cache, the heap freeze, a closed stdout
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def _python(*args, **kwargs):
    """A fresh interpreter that imports edgegames from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          check=True, timeout=120, **kwargs).stdout


def test_reused_parser_formats_help_at_the_current_width(monkeypatch, capsys):
    # argparse formats help when it prints it, so a cached parser follows COLUMNS
    helps = {}
    for columns in ("60", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]:
            with pytest.raises(SystemExit, match="0"):
                main(argv)
            got = capsys.readouterr().out
            want = _parse(build_parser(), argv, capsys)
            assert want[1] == 0 and got == want[2]
            helps[columns, argv[0]] = got
    for argv0 in ["--help"] + list(SUBCOMMANDS):
        assert helps["60", argv0] != helps["100", argv0]


def test_repeated_calls_in_one_process_match_fresh_processes(tmp_path):
    rng = random.Random(5)
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.5]
    (tmp_path / "g.txt").write_text(graph_to_text(graph_from_edges(12, edges)))
    calls = [
        ["verify", "p2", "--graph", "g.txt", "--eps", "1/10", "--mode", "exact"],
        ["verify", "regular-pair", "--graph", "g.txt", "--alpha", "1/10",
         "--A", "0,1,2,3,4,5", "--B", "6,7,8,9,10,11"],
    ] + [["play", "--n", "20", "--avoider", "random", "--enforcer", "jumbleg:1/10",
          "--property", "nc:20", "--seed", seed] for seed in ("1", "2")]
    fresh = b"".join(_python("-m", "edgegames.cli", *argv, cwd=tmp_path) for argv in calls)
    script = (
        "import json, sys\n"
        "from edgegames.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1]) * 2))\n"
    )
    assert _python("-c", script, json.dumps(calls), cwd=tmp_path) == fresh * 2


def test_main_freezes_the_heap_once(monkeypatch, capsys):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    enabled = gc.isenabled()
    argv = ["play", "--n", "8", "--avoider", "random", "--property", "nc:2", "--seed", "4"]
    monkeypatch.setattr(cli, "_frozen", True)
    assert main(argv) == 0 and not frozen
    want = capsys.readouterr().out
    monkeypatch.setattr(cli, "_frozen", False)
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == want
    assert frozen == [True] and cli._frozen is True
    assert gc.isenabled() == enabled


CLOSED_PIPE_ARGV = ["play", "--n", "200", "--avoider", "random", "--enforcer", "jumbleg:1/10",
                    "--property", "nc:200", "--seed", "1"]


def test_closed_stdout_pipe_exits_1_silently():
    # the reader takes one line and leaves, like `edgegames play ... | head -1`
    env = dict(os.environ, PYTHONPATH=SRC)
    with subprocess.Popen([sys.executable, "-m", "edgegames.cli", *CLOSED_PIPE_ARGV], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        rc = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert first["convention"] == "avoider-enforcer"
    assert (rc, err) == (1, b"")


def test_closed_stdout_pipe_leaves_stdout_on_devnull(monkeypatch):
    # the header waits in the stream's buffer when the first write fails, so
    # a flush at exit would raise again unless stdout now points at /dev/null
    read_end, write_end = os.pipe()
    os.close(read_end)
    stream = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stream)
    try:
        assert main(CLOSED_PIPE_ARGV) == 1
        stream.flush()
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        stream.close()
