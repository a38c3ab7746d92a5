"""Experiment harness and the command-line front end.

CLI tests go through cli.main(argv) so exit codes and output files are
exercised exactly as a shell user would see them.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegames import (
    HasEdgeProperty,
    InducedSubgraphProperty,
    NotKColorableProperty,
    SubgraphProperty,
    SweepConfig,
    parse_property,
    report_bounds,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
    turan_number,
)
from edgegames.cli import main
from edgegames.engine import Board
from edgegames.graphs import bits, edge_index, edges_between, num_edges
from edgegames.harness import (
    CSV_COLUMNS,
    margin_violation_fraction,
    match_seed,
    monitor_set_size,
    parse_n_range,
    property_bounds,
)
from edgegames.regularity import _random_disjoint_pair, jumbleg_margin


# ---------------------------------------------------------------------------
# property DSL
# ---------------------------------------------------------------------------

def test_parse_property_kinds():
    assert isinstance(parse_property("edge"), HasEdgeProperty)
    p = parse_property("subgraph:K3")
    assert isinstance(p, SubgraphProperty) and p.k == 3
    p = parse_property("induced:P3")
    assert isinstance(p, InducedSubgraphProperty) and p.k == 2
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
    assert p.k == 2  # C4 is bipartite

    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    with pytest.raises(ValueError):
        parse_property("family:%s" % bad)
    bad.write_text('{"a": 1}')
    with pytest.raises(ValueError):
        parse_property("family:%s" % bad)


def test_property_bounds():
    lower, upper = property_bounds(parse_property("subgraph:K3"), 10)
    assert lower == turan_number(10, 2) // 2 == 12
    assert upper == Fraction(1, 2) * 100 / 4
    lower, upper = property_bounds(parse_property("nc:2"), 10)
    assert lower == turan_number(10, 2) // 2
    assert upper == Fraction(1, 2) * 100 / 4
    lower, upper = property_bounds(parse_property("edge"), 10)
    assert lower == turan_number(10, 1) // 2 == 0


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


def test_monitor_set_size():
    # n=100, eps=1/10: qualifying floor is 11, but n/4 = 25 wins
    assert monitor_set_size(100, Fraction(1, 10)) == 25
    # small boards: quarter-size sets, capped at n//2 so a disjoint pair fits
    assert monitor_set_size(8, Fraction(1, 10)) == 2
    assert 2 * monitor_set_size(11, Fraction(1, 10)) <= 11


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
        S, T = _random_disjoint_pair(rng, n, size, size)
        cross = [claims[edge_index(min(u, v), max(u, v), n)] for u in bits(S) for v in bits(T)]
        bad += not jumbleg_margin(cross.count(1), cross.count(2), size, size, eps)[2]
    board = Board(n)
    for eid, c in enumerate(claims):
        if c:
            board.claim(eid, c)
    assert margin_violation_fraction(board, eps, pairs, seed) == Fraction(bad, pairs)


def per_pair_violation_fraction(board, eps, pairs, seed):
    """The monitor as two edges_between bit loops per drawn pair."""
    G_b, G_m = board.builder_graph(), board.opponent_graph()
    size = monitor_set_size(board.n, eps)
    limit = math.floor(jumbleg_margin(0, 0, size, size, eps)[1])
    rng = random.Random(seed)
    bad = 0
    for _ in range(pairs):
        S, T = _random_disjoint_pair(rng, board.n, size, size)
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
    got = margin_violation_fraction(board, eps, pairs, seed)
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


@pytest.mark.parametrize("pairs", [0, -1])
def test_sweep_config_rejects_monitor_pairs_below_one(pairs):
    # a sweep with no monitor pairs would play every match, then divide by 0
    with pytest.raises(ValueError, match="monitor_pairs"):
        small_config(monitor_pairs=pairs)


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
    assert payload["value"] == "never"
    assert payload["first_mover"] == "avoider"
    assert payload["nodes"] > 0


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


def test_cli_bounds_text_and_json(tmp_path, capsys):
    assert main(["bounds", "--n", "10", "--k", "3"]) == 0
    text = capsys.readouterr().out
    assert "lower" in text and "upper_main" in text
    out = tmp_path / "b.json"
    assert main(["bounds", "--n", "10", "--k", "2", "--variant", "nc",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["lower"] == turan_number(10, 2) // 2


def test_cli_validation_exit_code_2(capsys):
    assert main(["play", "--n", "1"]) == 2
    assert main(["play", "--n", "6", "--avoider", "nope"]) == 2
    assert main(["play", "--n", "6", "--property", "nope"]) == 2
    assert main(["verify", "p1", "--graph", "no-such-file.txt"]) == 2
    assert main(["solve", "--n", "8", "--property", "subgraph:K3"]) == 2  # symmetry cap
    assert main(["solve", "--n", "4", "--property", "subgraph:K1"]) == 2  # holds at start
    assert main(["play", "--n", "5", "--property", "subgraph:K1"]) == 2
    assert main(["sweep", "--n", "5:6", "--property", "subgraph:K1"]) == 2
    assert main(["verify", "regular-pair", "--graph", "K6"]) == 2  # no --A/--B
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


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_cli_max_rounds_below_one_exit_code_2(tmp_path, capsys, rounds):
    out = tmp_path / "out"
    assert main(["play", "--n", "5", "--max-rounds", rounds, "--out", str(out)]) == 2
    assert main(["sweep", "--n", "6:8", "--max-rounds", rounds, "--out", str(out)]) == 2
    assert not out.exists()
    assert "max_rounds must be >= 1" in capsys.readouterr().err
