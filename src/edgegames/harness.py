"""Experiment harness: property descriptors, seeded sweeps, bound reports.

A sweep plays `trials` matches per board size, writes one CSV row per match,
and appends a per-n summary block as comment lines. Identical configs
(including the master seed) produce byte-identical output: per-match seeds
are derived from (master seed, n, trial) via Python's string seeding, which
is stable across platforms.
"""

from __future__ import annotations

import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .engine import (
    BUILDER,
    OPPONENT,
    Board,
    GameRules,
    HasEdgeProperty,
    InducedSubgraphProperty,
    NotKColorableProperty,
    PropertyDetector,
    SubgraphProperty,
    _incidence,
    play_match,
    replay,
)
from .graphs import (
    graph_from_name,
    graph_from_text,
    nc_theorem_bounds,
    turan_bounds,
)
from .regularity import jumbleg_margin, least_size_above
from .strategies import match_players

CSV_COLUMNS = "n,trial,seed,hit_round,lower,upper_main,violations"

# a claim code's sign in the monitor's e_B - e_M
_SIGN = np.array([0, 0, 0], dtype=np.int8)
_SIGN[BUILDER], _SIGN[OPPONENT] = 1, -1


def parse_property(descriptor: str) -> PropertyDetector:
    """Property DSL: edge | subgraph:<name> | induced:<name> | nc:<k> | family:<path>."""
    if descriptor == "edge":
        return HasEdgeProperty()
    if descriptor.startswith("subgraph:"):
        name = descriptor.split(":", 1)[1]
        return SubgraphProperty([graph_from_name(name)], descriptor=descriptor)
    if descriptor.startswith("induced:"):
        name = descriptor.split(":", 1)[1]
        return InducedSubgraphProperty([graph_from_name(name)], descriptor=descriptor)
    if descriptor.startswith("nc:"):
        return NotKColorableProperty(int(descriptor.split(":", 1)[1]))
    if descriptor.startswith("family:"):
        path = descriptor.split(":", 1)[1]
        with open(path) as fh:
            texts = json.load(fh)
        if not isinstance(texts, list) or not texts:
            raise ValueError("family file must be a nonempty JSON list of graph texts")
        members = [graph_from_text(t) for t in texts]
        det = SubgraphProperty(members, descriptor=descriptor)
        return det
    raise ValueError("unknown property descriptor: %r" % descriptor)


def property_bounds(prop: PropertyDetector, n: int):
    """(lower, upper_main) for the detector's bound family.

    Subgraph/induced families use floor(t(n,k-1)/2) and (k-2)/(k-1)*n^2/4 with
    k the family's minimum chromatic number; HasEdge is the k=2 single-edge
    family; non-k-colorability uses t(n,k) and (k-1)/k*n^2/4.
    """
    if isinstance(prop, NotKColorableProperty):
        return nc_theorem_bounds(n, prop.k)
    if isinstance(prop, SubgraphProperty):  # induced families included
        k = prop.k
    elif isinstance(prop, HasEdgeProperty):
        k = 2
    else:
        raise ValueError("no bound formula for detector %r" % prop.descriptor)
    return turan_bounds(n, k)


@dataclass
class SweepConfig:
    n_values: list
    trials: int
    avoider: str
    enforcer: str
    property_descriptor: str
    master_seed: int = 0
    eps: Fraction = Fraction(1, 10)
    monitor_pairs: int = 200
    max_rounds: Optional[int] = None

    def __post_init__(self):
        if not self.n_values:
            raise ValueError("empty n range")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.eps = Fraction(self.eps)
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.monitor_pairs < 1:
            raise ValueError("monitor_pairs must be >= 1")


@dataclass
class SweepRow:
    n: int
    trial: int
    seed: int
    hit_round: int  # -1 when the property never fired
    lower: int
    upper_main: Fraction
    violations: Fraction


def match_seed(master: int, n: int, trial: int) -> int:
    return random.Random("%d:%d:%d" % (master, n, trial)).getrandbits(63)


def monitor_set_size(n: int, eps: Fraction) -> int:
    """Monitor pairs are sampled at max(floor(eps*n)+1, ceil(n/4)), capped at
    n//2: sizes near n/4 make the margin bound a multi-sigma target instead
    of a coin flip at the minimum qualifying size."""
    return min(max(least_size_above(eps * n), -(-n // 4)), n // 2)


def margin_violation_fraction(board: Board, eps: Fraction, pairs: int, seed: int) -> Fraction:
    """Fraction of sampled (S,T) pairs violating e_B - e_M <= 2*eps|S||T| + 1
    on the board, read as builder B and opponent M.

    The pairs are drawn as `_random_disjoint_pair` draws them, and every
    pair's e_B - e_M is summed at once from one signed n x n matrix: +1
    where the builder holds the edge, -1 where the opponent does."""
    n = board.n
    size = monitor_set_size(n, eps)
    # margins are integers, so margin <= bound iff margin <= floor(bound)
    limit = math.floor(jumbleg_margin(0, 0, size, size, eps)[1])
    rng = random.Random(seed)
    picks = np.array([rng.sample(range(n), 2 * size) for _ in range(pairs)], dtype=np.intp)
    sign = np.zeros(board.m + 1, dtype=np.int8)  # slot m: the diagonal of _incidence
    sign[:-1] = _SIGN.take(board.codes)
    signed = sign[_incidence(n)]
    margins = signed[picks[:, :size, None], picks[:, None, size:]].sum(axis=(1, 2))
    return Fraction(int((margins > limit).sum()), pairs)


def run_sweep(cfg: SweepConfig):
    """Play every (n, trial) match; returns (rows, summary) in deterministic order."""
    prop = parse_property(cfg.property_descriptor)
    rules_of = {n: GameRules(n=n, prop=prop) for n in cfg.n_values}  # every n checked up front
    rows = []
    for n in cfg.n_values:
        for trial in range(cfg.trials):
            seed = match_seed(cfg.master_seed, n, trial)
            avoider, enforcer = match_players(cfg.avoider, cfg.enforcer, seed)
            transcript = play_match(
                avoider, enforcer, rules_of[n], max_rounds=cfg.max_rounds, seed=seed
            )
            lower, upper_main = property_bounds(prop, n)
            violations = margin_violation_fraction(
                replay(transcript, prop), cfg.eps, cfg.monitor_pairs, seed ^ 0xA5A5
            )
            rows.append(
                SweepRow(
                    n=n,
                    trial=trial,
                    seed=seed,
                    hit_round=transcript.t,
                    lower=lower,
                    upper_main=upper_main,
                    violations=violations,
                )
            )
    summary = []
    for n in cfg.n_values:
        hits = [r.hit_round for r in rows if r.n == n and r.hit_round >= 0]
        lower, upper_main = property_bounds(prop, n)
        summary.append(
            {
                "n": n,
                "hits": len(hits),
                "min": min(hits) if hits else -1,
                "median": int(statistics.median(hits)) if hits else -1,
                "max": max(hits) if hits else -1,
                "lower": lower,
                "upper_main": _num(upper_main),
            }
        )
    return rows, summary


def _num(x: Fraction):
    return int(x) if x.denominator == 1 else float(x)


def _fmt(x: Fraction) -> str:
    return str(int(x)) if x.denominator == 1 else repr(float(x))


def sweep_to_csv(rows, summary) -> str:
    out = io.StringIO()
    out.write(CSV_COLUMNS + "\n")
    for r in rows:
        out.write(
            "%d,%d,%d,%d,%d,%s,%s\n"
            % (r.n, r.trial, r.seed, r.hit_round, r.lower, _fmt(r.upper_main), _fmt(r.violations))
        )
    for s in summary:
        out.write(
            "# summary,n=%d,hits=%d,min=%d,median=%d,max=%d,lower=%d,upper_main=%s\n"
            % (s["n"], s["hits"], s["min"], s["median"], s["max"], s["lower"], s["upper_main"])
        )
    return out.getvalue()


def sweep_to_json(rows, summary) -> str:
    payload = {
        "rows": [
            {
                "n": r.n,
                "trial": r.trial,
                "seed": r.seed,
                "hit_round": r.hit_round,
                "lower": r.lower,
                "upper_main": _num(r.upper_main),
                "violations": _num(r.violations),
            }
            for r in rows
        ],
        "summary": summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_bounds(n: int, k: int, variant: str = "family") -> dict:
    """Lower/upper bound table for one (n, k), with spec'd flags and captions."""
    flags = []
    caption = None
    if variant == "family":
        if k < 2:
            raise ValueError("family variant needs k >= 2")
        lower, upper_main = turan_bounds(n, k)
        if k == 2:
            flags.append("last two inequalities only")
            caption = (
                "bipartite family: the trivial bound tau_E <= t(n,F) applies, "
                "with t(n,F) the F-free extremal number"
            )
    elif variant == "nc":
        if k < 1:
            raise ValueError("nc variant needs k >= 1")
        lower, upper_main = nc_theorem_bounds(n, k)
        if k == 1:
            flags.append("trivial game")
    else:
        raise ValueError("variant must be 'family' or 'nc'")
    return {
        "n": n,
        "k": k,
        "variant": variant,
        "lower": lower,
        "upper_main": _num(upper_main),
        "gap": _num(upper_main - lower),
        "flags": flags,
        "caption": caption,
    }


def format_bounds_text(report: dict) -> str:
    lines = [
        "n=%(n)d k=%(k)d variant=%(variant)s" % report,
        "lower       = %(lower)s" % report,
        "upper_main  = %(upper_main)s" % report,
        "gap         = %(gap)s" % report,
    ]
    for fl in report["flags"]:
        lines.append("flag: %s" % fl)
    if report["caption"]:
        lines.append("note: %s" % report["caption"])
    return "\n".join(lines) + "\n"


def parse_n_range(spec: str):
    """'6' | '6,8,10' | '6:30' | '6:30:2' -> list of ints (ranges inclusive)."""
    if ":" in spec:
        parts = [int(x) for x in spec.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError("bad range %r" % spec)
        return list(range(lo, hi + 1, step))
    return [int(x) for x in spec.split(",")]
