"""Experiment harness: property descriptors, seeded sweeps, bound reports.

A sweep plays `trials` matches per board size, writes one CSV row per match,
and appends a per-n summary block as comment lines. Identical configs
(including the master seed) produce byte-identical output: per-match seeds
are derived from (master seed, n, trial) via Python's string seeding, which
is stable across platforms.
"""

from __future__ import annotations

import io
import itertools
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
    GameRules,
    InducedSubgraphProperty,
    NotKColorableProperty,
    PropertyDetector,
    SubgraphProperty,
    _endpoints,
    play_match,
)
from .graphs import complete_graph, graph_from_name, graph_from_text, turan_bounds
from .regularity import _samples, jumbleg_margin, least_size_above
from .strategies import match_players

CSV_COLUMNS = "n,trial,seed,hit_round,lower,upper_main,violations"
MONITOR_PAIRS = 200  # (S, T) pairs the margin monitor samples per final board

# a claim code's sign in the monitor's e_B - e_M
_SIGN = np.array([0, 0, 0], dtype=np.int8)
_SIGN[BUILDER], _SIGN[OPPONENT] = 1, -1


def parse_property(descriptor: str) -> PropertyDetector:
    """Property DSL: edge | subgraph:<name> | induced:<name> | nc:<k> | family:<path>."""
    if descriptor == "edge":  # the family {K2}
        return SubgraphProperty([complete_graph(2)], descriptor=descriptor)
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
        if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
            raise ValueError("family file must be a nonempty JSON list of graph texts")
        return SubgraphProperty([graph_from_text(t) for t in texts], descriptor=descriptor)
    raise ValueError("unknown property descriptor: %r" % descriptor)


@dataclass
class SweepConfig:
    n_values: list
    trials: int
    avoider: str
    enforcer: str
    property_descriptor: str
    master_seed: int = 0
    eps: Fraction = Fraction(1, 10)
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


def margin_violation_fraction(n: int, codes, eps: Fraction, pairs: int, seed: int) -> Fraction:
    """Fraction of sampled (S,T) pairs violating e_B - e_M <= 2*eps|S||T| + 1
    on the board on n vertices with these claim codes, one byte per edge id
    (`Board.claims`, or a transcript's `final_codes()`), read as builder B
    and opponent M.

    Pair i is S + T = `rng.sample(range(n), 2*size)`, the i-th such draw from
    `random.Random(seed)` (as `_random_disjoint_pairs` draws pairs), taken
    straight from the generator's bits by `_samples`. Every pair's
    e_B - e_M is summed at once from one signed n x n matrix, +1 where the
    builder holds the edge and -1 where the opponent does."""
    size = monitor_set_size(n, eps)
    # margins are integers, so margin <= bound iff margin <= floor(bound)
    limit = math.floor(jumbleg_margin(0, 0, size, size, eps)[1])
    draws = _samples(random.Random(seed), range(n), 2 * size)
    picks = np.array(list(itertools.islice(draws, pairs)), dtype=np.intp)
    us, vs = (np.frombuffer(t, dtype=np.uint16) for t in _endpoints(n))
    signed = np.zeros((n, n), dtype=np.int8)
    signed[us, vs] = _SIGN.take(np.frombuffer(codes, dtype=np.int8))  # the upper triangle
    signed += signed.T
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
            lower, upper_main = turan_bounds(n, prop.chi)
            violations = margin_violation_fraction(
                n, transcript.final_codes(), cfg.eps, MONITOR_PAIRS, seed ^ 0xA5A5
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
        lower, upper_main = turan_bounds(n, prop.chi)
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


def sweep_to_csv(rows, summary) -> str:
    out = io.StringIO()
    out.write(CSV_COLUMNS + "\n")
    for r in rows:
        out.write(
            "%d,%d,%d,%d,%d,%s,%s\n"
            % (r.n, r.trial, r.seed, r.hit_round, r.lower, _num(r.upper_main), _num(r.violations))
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
        lower, upper_main = turan_bounds(n, k + 1)
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
    """'6' | '6,8,10' | '6:30' | '6:30:2' -> list of distinct ints (ranges
    inclusive, with a step of at least 1)."""
    if ":" in spec:
        parts = [int(x) for x in spec.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError("bad range %r" % spec)
        if step < 1:
            raise ValueError("range step must be >= 1 in %r" % spec)
        return list(range(lo, hi + 1, step))
    sizes = [int(x) for x in spec.split(",")]
    seen = set()
    for n in sizes:
        if n in seen:
            raise ValueError("repeated size %d in %r" % (n, spec))
        seen.add(n)
    return sizes
