"""The benchmark's workloads: CLI calls made from a seed, and output checks.

Each workload is a fixed list of `edgegames` CLI calls whose inputs come
from (seed, iteration): iteration i of a run plays other matches, or checks
other graphs, than iteration i+1, so the median over a run's iterations
averages over inputs as well as over machine noise. Every call writes one
output file, and every output has a check that uses this file's own
arithmetic, never the package's. At DEFAULT_SEED the transcripts, sweep
CSVs and verify reports of the first iterations must also match, byte for
byte, the sha256 digests in digests.json, recorded at the seed commit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

DEFAULT_SEED = 1
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Call:
    key: str  # stable id, "<workload>/<iteration>/<index>", for the digest table
    argv: list
    out: str
    check: Callable[[bytes], Optional[str]]  # a problem, or None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests(seed: int) -> dict:
    if seed != DEFAULT_SEED:
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# match-jumbleg: two full-board matches, random Avoider vs jumbleg Enforcer
# ---------------------------------------------------------------------------

MATCH_N = 200


def audit_transcript(text: str, n: int, prop: str, seed: int, never: bool) -> Optional[str]:
    """Distinct legal edges, alternating turns from Avoider, consistent rounds,
    and an outcome that is a hit on Avoider's last move or a full board."""
    records = [json.loads(line) for line in text.splitlines()]
    if len(records) < 2:
        return "transcript has %d records" % len(records)
    head, outcome, moves = records[0], records[-1], records[1:-1]
    want = {"type": "header", "n": n, "property": prop, "seed": seed,
            "convention": "avoider-enforcer", "first_mover": "avoider"}
    if head != want:
        return "header %r" % head
    seen = set()
    held = {"avoider": 0, "enforcer": 0}
    for i, mv in enumerate(moves):
        role = "avoider" if i % 2 == 0 else "enforcer"
        if mv.get("type") != "move" or mv.get("role") != role:
            return "move %d is %r, expected a %s move" % (i, mv, role)
        u, v = mv["u"], mv["v"]
        if not 0 <= u < v < n or (u, v) in seen:
            return "move %d claims illegal or repeated edge (%r,%r)" % (i, u, v)
        seen.add((u, v))
        held[role] += 1
        if mv["round"] != held[role]:
            return "move %d has round %r, expected %d" % (i, mv["round"], held[role])
    if outcome.get("type") != "outcome":
        return "last record %r" % outcome
    if outcome["result"] == "hit":
        if never:
            return "hit reported where the property cannot occur"
        if len(moves) % 2 == 0 or outcome["t"] != held["avoider"]:
            return "hit at t=%r after %d moves" % (outcome["t"], len(moves))
    elif outcome["result"] == "never":
        if len(moves) != n * (n - 1) // 2 or outcome["t"] != -1:
            return "'never' with %d of %d edges claimed" % (len(moves), n * (n - 1) // 2)
    else:
        return "unknown result %r" % outcome["result"]
    return None


def inputs(workload: str, seed: int, iteration: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, iteration))


def match_jumbleg(seed: int, iteration: int, tmp: str) -> list:
    rng = inputs("match-jumbleg", seed, iteration)
    calls = []
    for i in range(2):
        s = rng.getrandbits(32)
        out = os.path.join(tmp, "match%d.jsonl" % i)
        argv = ["play", "--n", str(MATCH_N), "--avoider", "random",
                "--enforcer", "jumbleg:1/10", "--property", "nc:%d" % MATCH_N,
                "--seed", str(s), "--out", out]
        # every graph on n vertices is n-colourable, so nc:n never fires
        check = lambda data, s=s: audit_transcript(data.decode(), MATCH_N, "nc:%d" % MATCH_N, s, never=True)
        calls.append(Call("match-jumbleg/%d/%d" % (iteration, i), argv, out, check))
    return calls


def transcript_moves(data: bytes) -> int:
    return data.count(b'"type": "move"')


# ---------------------------------------------------------------------------
# sweep-c5: turan:2 Avoider vs random Enforcer until a C5 appears
# ---------------------------------------------------------------------------

SWEEP_N = (16, 20, 24)
SWEEP_TRIALS = 2
CSV_HEADER = "n,trial,seed,hit_round,lower,upper_main,violations"


def _fmt(x: Fraction) -> str:
    return str(int(x)) if x.denominator == 1 else repr(float(x))


def audit_sweep(text: str, master: int) -> Optional[str]:
    """Rows in (n, trial) order with the per-match seed, the C5 bounds
    floor(t(n,2)/2) and n^2/8, and a hit strictly after the lower bound
    (turan:2 keeps at least half the t(n,2) cross edges before its first
    non-bipartite move); then one consistent summary line per n."""
    lines = text.splitlines()
    rows = len(SWEEP_N) * SWEEP_TRIALS
    if len(lines) != 1 + rows + len(SWEEP_N) or lines[0] != CSV_HEADER:
        return "unexpected CSV shape: %d lines, header %r" % (len(lines), lines[:1])
    hits = {n: [] for n in SWEEP_N}
    body = iter(lines[1:1 + rows])
    for n in SWEEP_N:
        lower = (n * n // 4) // 2
        upper = _fmt(Fraction(n * n, 8))
        for trial in range(SWEEP_TRIALS):
            f = next(body).split(",")
            seed = random.Random("%d:%d:%d" % (master, n, trial)).getrandbits(63)
            if f[:3] != [str(n), str(trial), str(seed)] or f[4:6] != [str(lower), upper]:
                return "row %r, expected n=%d trial=%d seed=%d lower=%d upper=%s" % (f, n, trial, seed, lower, upper)
            t = int(f[3])
            if not lower < t <= math.ceil(n * (n - 1) / 4):
                return "n=%d trial=%d hit at %d, outside (%d, %d]" % (n, trial, t, lower, math.ceil(n * (n - 1) / 4))
            if not 0 <= Fraction(f[6]) <= 1:
                return "violation fraction %r outside [0,1]" % f[6]
            hits[n].append(t)
    for n, line in zip(SWEEP_N, lines[1 + rows:]):
        h = hits[n]
        want = "# summary,n=%d,hits=%d,min=%d,median=%d,max=%d,lower=%d,upper_main=%s" % (
            n, len(h), min(h), int(statistics.median(h)), max(h), (n * n // 4) // 2, _fmt(Fraction(n * n, 8)))
        if line != want:
            return "summary %r, expected %r" % (line, want)
    return None


def sweep_c5(seed: int, iteration: int, tmp: str) -> list:
    master = inputs("sweep-c5", seed, iteration).getrandbits(32)
    out = os.path.join(tmp, "sweep.csv")
    argv = ["sweep", "--n", "%d:%d:4" % (SWEEP_N[0], SWEEP_N[-1]),
            "--trials", str(SWEEP_TRIALS), "--avoider", "turan:2",
            "--enforcer", "random", "--property", "subgraph:C5",
            "--seed", str(master), "--out", out]
    return [Call("sweep-c5/%d/0" % iteration, argv, out, lambda data: audit_sweep(data.decode(), master))]


def sweep_moves(data: bytes) -> int:
    """Moves of both players: a hit at round t follows 2t - 1 moves."""
    rows = data.decode().splitlines()[1:]
    return sum(2 * int(r.split(",")[3]) - 1 for r in rows if not r.startswith("#"))


# ---------------------------------------------------------------------------
# solve-k3: exact value of the K3 game on K6
# ---------------------------------------------------------------------------

def check_solve(data: bytes) -> Optional[str]:
    got = json.loads(data)
    want = {"n": 6, "property": "subgraph:K3", "convention": "avoider-enforcer",
            "first_mover": "avoider", "value": 7}
    bad = {k: got.get(k) for k in want if got.get(k) != want[k]}
    return "solve reported %r, expected %r" % (bad, {k: want[k] for k in bad}) if bad else None


def solve_k3(seed: int, iteration: int, tmp: str) -> list:
    # K6 has one labelling up to isomorphism, so the seed cannot vary this input
    out = os.path.join(tmp, "solve.json")
    argv = ["solve", "--n", "6", "--property", "subgraph:K3", "--out", out]
    return [Call("solve-k3/%d/0" % iteration, argv, out, check_solve)]


# ---------------------------------------------------------------------------
# verify-exact: exact P2 and exact regular-pair checks on seeded G(n, 1/2)
# ---------------------------------------------------------------------------

P2_N, P2_EPS = 12, Fraction(1, 10)
PAIR_N, PAIR_ALPHA = 24, Fraction(1, 4)


def random_graph(rng: random.Random, n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                adj[u, v] = adj[v, u] = 1
    return adj


def graph_text(adj: np.ndarray) -> str:
    n = len(adj)
    edges = ["%d %d" % (u, v) for u in range(n) for v in range(u + 1, n) if adj[u, v]]
    return "\n".join(["%d %d" % (n, len(edges))] + edges) + "\n"


def _max_fraction(num: np.ndarray, den: np.ndarray) -> Fraction:
    # denominators are small, so distinct ratios differ far above float error
    num, den = num.ravel(), den.ravel()
    j = int(np.argmax(num / den))
    return Fraction(int(num[j]), int(den[j]))


def p2_exact(adj: np.ndarray, eps: Fraction):
    """(pairs, worst): ordered disjoint S,T with |S|,|T| > eps*n, and the
    largest |e(S,T)/(|S||T|) - 1/2|. Enumerates all 3^n vertex labellings
    (0: neither, 1: in S, 2: in T)."""
    n = len(adj)
    least = math.floor(eps * n) + 1
    pow3 = 3 ** np.arange(n, dtype=np.int64)
    pairs, worst = 0, Fraction(0)
    step = 3 ** 10
    for lo in range(0, 3 ** n, step):
        digit = np.arange(lo, min(lo + step, 3 ** n), dtype=np.int64)[:, None] // pow3 % 3
        S = (digit == 1).astype(np.int64)
        T = (digit == 2).astype(np.int64)
        s, t = S.sum(1), T.sum(1)
        ok = (s >= least) & (t >= least)
        e = ((S @ adj) * T).sum(1)[ok]
        st = (s * t)[ok]
        pairs += int(ok.sum())
        if st.size:
            worst = max(worst, _max_fraction(np.abs(2 * e - st), 2 * st))
    return pairs, worst


def regular_pair_exact(adj: np.ndarray, A: list, B: list, alpha: Fraction):
    """(subpairs, worst): X in A, Y in B with |X| > alpha|A| and
    |Y| > alpha|B|, and the largest |d(X,Y) - d(A,B)|."""
    a, b = len(A), len(B)
    M = adj[np.ix_(A, B)]
    d_num = int(M.sum())
    X = (np.arange(1 << a)[:, None] >> np.arange(a)) & 1
    Y = (np.arange(1 << b)[:, None] >> np.arange(b)) & 1
    X = X[X.sum(1) * alpha.denominator > alpha.numerator * a]
    Y = Y[Y.sum(1) * alpha.denominator > alpha.numerator * b]
    xs, ys = X.sum(1), Y.sum(1)
    XM = X @ M
    worst = Fraction(0)
    for lo in range(0, len(X), 256):
        E = XM[lo:lo + 256] @ Y.T
        sizes = xs[lo:lo + 256, None] * ys[None, :]
        worst = max(worst, _max_fraction(np.abs(E * (a * b) - d_num * sizes), sizes * (a * b)))
    return len(X) * len(Y), worst


def _edges(adj, S, T) -> int:
    return sum(int(adj[u, v]) for u in S for v in T)


def check_report(data: bytes, check: str, samples: int, worst: Fraction, limit: Fraction,
                 strict: bool, witness_ok: Callable) -> Optional[str]:
    """Compare a verify report with the benchmark's own exhaustive result.

    `strict` means the check passes only when worst < limit (regular pairs);
    otherwise worst <= limit passes (P2)."""
    got = json.loads(data)
    passed = worst < limit if strict else worst <= limit
    want = {"check": check, "mode": "exact", "samples": samples, "passed": passed,
            "deviation_num": worst.numerator, "deviation_den": worst.denominator}
    bad = {k: got.get(k) for k in want if got.get(k) != want[k]}
    if bad:
        return "%s reported %r, expected %r" % (check, bad, {k: want[k] for k in bad})
    S, T = got["witness_S"], got["witness_T"]
    if passed:
        return None if S is None and T is None else "%s passed but names a witness" % check
    if S is None or T is None:
        return "%s failed without a witness" % check
    return witness_ok(S, T)


def verify_exact(seed: int, iteration: int, tmp: str) -> list:
    rng = inputs("verify-exact", seed, iteration)
    g12, g24 = random_graph(rng, P2_N), random_graph(rng, PAIR_N)
    perm = rng.sample(range(PAIR_N), PAIR_N)
    A, B = sorted(perm[:PAIR_N // 2]), sorted(perm[PAIR_N // 2:])
    paths = []
    for name, adj in (("g12.txt", g12), ("g24.txt", g24)):
        paths.append(os.path.join(tmp, name))
        with open(paths[-1], "w") as fh:
            fh.write(graph_text(adj))

    # computed once, though --trace 1 checks iteration 0's reports twice
    expected_p2 = functools.cache(lambda: p2_exact(g12, P2_EPS))
    expected_pair = functools.cache(lambda: regular_pair_exact(g24, A, B, PAIR_ALPHA))

    def check_p2(data):
        pairs, worst = expected_p2()
        least = math.floor(P2_EPS * P2_N) + 1

        def witness_ok(S, T):
            if set(S) & set(T) or min(len(S), len(T)) < least:
                return "P2 witness %r,%r is not a qualifying pair" % (S, T)
            dev = abs(Fraction(_edges(g12, S, T), len(S) * len(T)) - Fraction(1, 2))
            return None if dev == worst else "P2 witness deviation %s, reported %s" % (dev, worst)

        return check_report(data, "p2", pairs, worst, P2_EPS, False, witness_ok)

    def check_pair(data):
        subpairs, worst = expected_pair()
        d = Fraction(_edges(g24, A, B), len(A) * len(B))

        def witness_ok(X, Y):
            if not (set(X) <= set(A) and set(Y) <= set(B)) or not (
                len(X) > PAIR_ALPHA * len(A) and len(Y) > PAIR_ALPHA * len(B)
            ):
                return "regular-pair witness %r,%r is not a qualifying sub-pair" % (X, Y)
            dev = abs(Fraction(_edges(g24, X, Y), len(X) * len(Y)) - d)
            return None if dev == worst else "regular-pair witness deviation %s, reported %s" % (dev, worst)

        return check_report(data, "regular-pair", subpairs, worst, PAIR_ALPHA, True, witness_ok)

    out_p2, out_pair = os.path.join(tmp, "p2.json"), os.path.join(tmp, "pair.json")
    p2 = ["verify", "p2", "--graph", paths[0], "--eps", str(P2_EPS), "--mode", "exact",
          "--out", out_p2]
    pair = ["verify", "regular-pair", "--graph", paths[1], "--alpha", str(PAIR_ALPHA),
            "--mode", "exact", "--A", ",".join(map(str, A)), "--B", ",".join(map(str, B)),
            "--out", out_pair]
    return [Call("verify-exact/%d/0" % iteration, p2, out_p2, check_p2),
            Call("verify-exact/%d/1" % iteration, pair, out_pair, check_pair)]


@dataclass
class Workload:
    name: str
    calls: Callable[[int, int, str], list]  # (seed, iteration, tmp) -> [Call]
    moves: Optional[Callable[[bytes], int]] = None  # moves in one output


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("match-jumbleg", match_jumbleg, transcript_moves),
        Workload("sweep-c5", sweep_c5, sweep_moves),
        Workload("solve-k3", solve_k3),
        Workload("verify-exact", verify_exact),
    )
}
