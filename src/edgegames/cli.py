"""Command-line front end.

Subcommands: play, solve, sweep, verify, constants, bounds.
Exit codes: 0 success, 1 stdout closed by its reader, 2 validation error,
3 budget exhaustion. A process builds each parser once and, on its first
`main` call, freezes the heap it has loaded out of the garbage collector.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
from fractions import Fraction

from .engine import GAME_FIELDS, GameRules, IllegalMoveError, play_match
from .graphs import bits, load_graph, mask_of
# regularity, the largest module, compiles before harness loads numpy: with no
# cached bytecode the other order raised every benchmark run's peak RSS 0.5-0.8 MB
from .regularity import (
    ConstantSchedule,
    check_p1,
    check_p2,
    check_density_lemma,
    is_regular_pair,
    round_robin_partition,
    slicing_alpha,
    validate_constants,
    verify_slicing,
)
from .harness import (
    SweepConfig,
    format_bounds_text,
    parse_n_range,
    parse_property,
    report_bounds,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from .solver import solve_tau
from .strategies import match_players


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vertex_mask(spec: str | None, n: int) -> int:
    """The mask of the distinct vertices 0..n-1 listed in `spec`, checked
    before any bit is set, so a huge vertex costs no memory."""
    if spec is None:
        raise ValueError("--A and --B are required")
    vertices = [int(x) for x in spec.split(",")]
    if min(vertices) < 0:
        raise ValueError("negative vertex %d in %r" % (min(vertices), spec))
    if max(vertices) >= n:
        raise ValueError("vertex %d in %r is not in the %d-vertex graph" % (max(vertices), spec, n))
    seen = set()
    for v in vertices:
        if v in seen:
            raise ValueError("repeated vertex %d in %r" % (v, spec))
        seen.add(v)
    return mask_of(vertices)


def cmd_play(args) -> int:
    prop = parse_property(args.property)
    rules = GameRules(n=args.n, prop=prop)
    avoider, enforcer = match_players(args.avoider, args.enforcer, args.seed)
    transcript = play_match(
        avoider, enforcer, rules, max_rounds=args.max_rounds, seed=args.seed
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            transcript.to_jsonl(fh)
    else:
        transcript.to_jsonl(sys.stdout)
    return 0


def cmd_solve(args) -> int:
    prop = parse_property(args.property)
    rules = GameRules(n=args.n, prop=prop)
    start = time.perf_counter()
    result = solve_tau(rules, budget=args.budget)
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    payload = {
        "n": args.n,
        "property": args.property,
        **GAME_FIELDS,
        "value": result.t if result.value == "exact" else result.value,
        "nodes": result.nodes,
        "elapsed_ms": elapsed_ms,
    }
    _write(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 3 if result.value == "unknown" else 0


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        n_values=parse_n_range(args.n),
        trials=args.trials,
        avoider=args.avoider,
        enforcer=args.enforcer,
        property_descriptor=args.property,
        master_seed=args.seed,
        eps=Fraction(args.eps),
        max_rounds=args.max_rounds,
    )
    rows, summary = run_sweep(cfg)
    text = sweep_to_json(rows, summary) if args.format == "json" else sweep_to_csv(rows, summary)
    _write(text, args.out)
    return 0


def cmd_verify(args) -> int:
    G = load_graph(args.graph)
    if args.check == "p1":
        ok, mindeg = check_p1(G, Fraction(args.eps))
        payload = {"check": "p1", "passed": ok, "min_degree": mindeg}
    elif args.check == "p2":
        report = check_p2(
            G,
            Fraction(args.eps),
            mode=args.mode,
            trials=args.trials,
            seed=args.seed,
            set_size=args.set_size,
        )
        payload = {"check": "p2", **report.to_json()}
    elif args.check == "regular-pair":
        report = is_regular_pair(
            G,
            _vertex_mask(args.A, G.n),
            _vertex_mask(args.B, G.n),
            Fraction(args.alpha),
            mode=args.mode,
            trials=args.trials,
            seed=args.seed,
        )
        payload = {"check": "regular-pair", **report.to_json()}
    elif args.check == "density-lemma":
        if args.inner_size < 1:
            raise ValueError("--inner-size must be >= 1")
        outer = round_robin_partition(G.n, args.parts)
        inner = [mask_of(list(bits(part))[: args.inner_size]) for part in outer]
        rep = check_density_lemma(G, outer, inner, Fraction(args.E))
        payload = {
            "check": "density-lemma",
            "hypotheses_ok": rep.hypotheses_ok,
            "lhs": rep.lhs,
            "rhs_num": rep.rhs.numerator,
            "rhs_den": rep.rhs.denominator,
            "conclusion_ok": rep.conclusion_ok,
            "deviant_pairs": rep.deviant_pairs,
            "failures": rep.failures,
        }
    elif args.check == "slicing":
        alpha = Fraction(args.alpha)
        L0 = 1 if args.L0 is None else args.L0
        payload = {"check": "slicing"}
        if args.A or args.B:
            A, B = _vertex_mask(args.A, G.n), _vertex_mask(args.B, G.n)
            if args.L0 is not None and args.L0 != A.bit_count():
                raise ValueError("--L0 must equal |A| = %d when --A/--B are given" % A.bit_count())
            L0 = A.bit_count()
            violations, trials = verify_slicing(
                G, A, B, alpha, args.Li, args.Lj, trials=args.trials, seed=args.seed
            )
            payload.update(violations=violations, trials=trials)
        payload["alpha_prime"] = str(slicing_alpha(alpha, L0, args.Li, args.Lj))
    else:
        raise ValueError("unknown check %r" % args.check)
    _write(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_constants(args) -> int:
    schedule = ConstantSchedule(
        epsilon=Fraction(args.epsilon),
        E0=Fraction(args.e0),
        E1=Fraction(args.e1),
        eta=Fraction(args.eta),
        delta=Fraction(args.delta),
        gamma=Fraction(args.gamma),
        f=args.f,
        k=args.k,
        S0=args.s0,
        S1=args.s1,
        m=args.m,
    )
    valid, violations = validate_constants(
        schedule, n=args.n, strict_e1=args.strict_e1
    )
    _write(
        json.dumps({"valid": valid, "violations": violations}, sort_keys=True) + "\n",
        args.out,
    )
    return 0


def cmd_bounds(args) -> int:
    report = report_bounds(args.n, args.k, args.variant)
    if args.format == "json":
        _write(json.dumps(report, sort_keys=True) + "\n", args.out)
    else:
        _write(format_bounds_text(report), args.out)
    return 0


def _play_args(play: argparse.ArgumentParser) -> None:
    play.add_argument("--n", type=int, required=True)
    play.add_argument("--avoider", default="first")
    play.add_argument("--enforcer", default="first")
    play.add_argument("--property", default="edge")
    play.add_argument("--seed", type=int, default=0)
    play.add_argument("--max-rounds", type=int, default=None)
    play.add_argument("--out", default=None)
    play.set_defaults(func=cmd_play)


def _solve_args(solve: argparse.ArgumentParser) -> None:
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--property", default="edge")
    solve.add_argument("--budget", type=int, default=None)
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=cmd_solve)


def _sweep_args(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--n", required=True, help="e.g. 6:30, 6:30:2, or 6,10,14")
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--avoider", default="turan:2")
    sweep.add_argument("--enforcer", default="random")
    sweep.add_argument("--property", default="subgraph:K3")
    sweep.add_argument("--eps", default="1/10")
    sweep.add_argument("--max-rounds", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=cmd_sweep)


def _verify_args(verify: argparse.ArgumentParser) -> None:
    verify.add_argument(
        "check", choices=("p1", "p2", "regular-pair", "density-lemma", "slicing")
    )
    verify.add_argument("--graph", required=True, help="graph file or generator name")
    verify.add_argument("--eps", default="1/10")
    verify.add_argument("--alpha", default="1/3")
    verify.add_argument("--E", default="1/2")
    verify.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--set-size", type=int, default=None)
    verify.add_argument("--A", default=None, help="comma-separated vertices")
    verify.add_argument("--B", default=None)
    verify.add_argument("--parts", type=int, default=2)
    verify.add_argument("--inner-size", type=int, default=1)
    verify.add_argument("--L0", type=int, default=None, help="|A| when --A/--B are given, else 1")
    verify.add_argument("--Li", type=int, default=1)
    verify.add_argument("--Lj", type=int, default=1)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)


def _constants_args(constants: argparse.ArgumentParser) -> None:
    constants.add_argument("--epsilon", required=True)
    constants.add_argument("--e0", required=True)
    constants.add_argument("--e1", required=True)
    constants.add_argument("--eta", required=True)
    constants.add_argument("--delta", required=True)
    constants.add_argument("--gamma", required=True)
    constants.add_argument("--f", type=int, required=True)
    constants.add_argument("--k", type=int, required=True)
    constants.add_argument("--s0", type=int, required=True)
    constants.add_argument("--s1", type=int, required=True)
    constants.add_argument("--m", type=int, default=1)
    constants.add_argument("--n", type=int, default=None)
    constants.add_argument("--strict-e1", action="store_true")
    constants.add_argument("--out", default=None)
    constants.set_defaults(func=cmd_constants)


def _bounds_args(bounds: argparse.ArgumentParser) -> None:
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--k", type=int, required=True)
    bounds.add_argument("--variant", choices=("family", "nc"), default="family")
    bounds.add_argument("--format", choices=("text", "json"), default="text")
    bounds.add_argument("--out", default=None)
    bounds.set_defaults(func=cmd_bounds)


# name -> (help line, the function that adds the subcommand's arguments)
SUBCOMMANDS = {
    "play": ("play one match and emit a JSONL transcript", _play_args),
    "solve": (
        "exact game value by alpha-beta, memoized up to vertex relabelling for n <= 7",
        _solve_args,
    ),
    "sweep": ("seeded match sweep with CSV/JSON rows", _sweep_args),
    "verify": ("pseudo-randomness / regularity checks", _verify_args),
    "constants": ("validate a constant schedule", _constants_args),
    "bounds": ("lower/upper bound report", _bounds_args),
}


def build_parser(commands=SUBCOMMANDS) -> argparse.ArgumentParser:
    """The parser with the subparsers of `commands` (default: all of them).

    Usage lines name every subcommand whichever are built. A subset gets
    the metavar argparse would derive from all six; the full build keeps
    none, since argparse's "required" and "invalid choice" errors name the
    action by its metavar before its dest."""
    p = argparse.ArgumentParser(
        prog="edgegames",
        description="Avoider-Enforcer edge games on K_n: matches, exact values, "
        "pseudo-randomness and regularity verification, bound reports.",
    )
    full = len(commands) == len(SUBCOMMANDS)
    sub = p.add_subparsers(
        dest="command",
        required=True,
        metavar=None if full else "{%s}" % ",".join(SUBCOMMANDS),
    )
    for name in commands:
        help_line, add_args = SUBCOMMANDS[name]
        add_args(sub.add_parser(name, help=help_line))
    return p


_frozen = False  # a plain flag: gc.get_freeze_count() walks the frozen list


@functools.lru_cache(maxsize=None)
def _parser(names: tuple) -> argparse.ArgumentParser:
    return build_parser(names)


def main(argv=None) -> int:
    global _frozen
    if not _frozen:  # what is loaded now lives until exit: no collection need rescan it
        gc.freeze()
        _frozen = True
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the subparser named, or all of them for --help, a typo or no arguments
    named = tuple(argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS)
    args = _parser(named).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader left: the exit flush goes to /dev/null
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (ValueError, IllegalMoveError, OSError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
