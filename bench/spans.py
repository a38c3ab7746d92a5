"""Span tracing of edgegames from outside the package.

`install` replaces each public function or method that one layer calls in
another with a wrapper, under the name the caller looks it up by (for
example `edgegames.engine.contains_subgraph_with_edge`, not the definition
in `edgegames.graphs`). Each wrapper records one span: label, start, end
and the enclosing span. Spans stay in flat arrays until `layer_metrics`
reduces them. A span's self time is its duration minus its child spans.
The benchmark is single-threaded, so one stack of open spans suffices and
no span ever waits.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

# Label of the span whose self time should dominate each workload.
DOMINANT = {
    "match-jumbleg": "strategies.jumbleg",
    "sweep-c5": "graphs.embed",
    "solve-k3": "solver.canon",
    "verify-exact": "regularity.p2",
}


class Tracer:
    def __init__(self):
        self.labels = []
        self._ids = {}
        self.label_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.counts = Counter()  # counters read off arguments and results
        self.canon_keys = set()

    def wrap(self, label: str, fn, after=None):
        """`fn` wrapped in a span; `after(args, result)` updates counters."""
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        lid = self._ids[label]
        clock = time.perf_counter
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.label_of.append(lid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.end.append(0.0)
            open_spans.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_spans.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def totals(self):
        """{label: [calls, inclusive seconds, self seconds]}.

        Detector mask checks are split by caller: called by the solver they
        are `solver.detector`; called inside the engine's per-move check
        (`engine.detector`, whose time includes them) they are
        `engine.detector.masks`.
        """
        n = len(self.start)
        child = [0.0] * n
        labels = [self.labels[i] for i in self.label_of]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            label = labels[i]
            if label == "detector.masks":
                p = self.parent[i]
                by_solver = p >= 0 and labels[p] == "solver.solve_tau"
                label = "solver.detector" if by_solver else "engine.detector.masks"
            dur = self.end[i] - self.start[i]
            row = out.setdefault(label, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out


def install(tracer: Tracer) -> None:
    """Wrap every cross-layer call site of the loaded edgegames modules."""
    from edgegames import cli, engine, graphs, harness, regularity, solver, strategies

    counts = tracer.counts

    def found(args, result):
        counts["graphs.embed.found"] += result is not None

    def fallback(args, result):
        counts["strategies.turan.fallback"] += args[0].last_note == "fallback"

    def canon(args, result):
        tracer.canon_keys.add(result)

    def nodes(args, result):
        counts["solver.nodes"] += result.nodes

    def samples(key):
        def after(args, result):
            counts[key] += result.samples

        return after

    def written(args, result):
        counts["cli.output_bytes"] += len(args[0].encode())

    sites = [
        (engine, "contains_subgraph_with_edge", "graphs.embed", found),
        (engine, "contains_subgraph", "graphs.embed", found),
        (engine, "contains_induced", "graphs.embed", found),
        (graphs.Graph, "__init__", "graphs.graph_build", None),
        (engine, "greedy_coloring", "graphs.coloring", None),
        (engine, "is_k_colorable", "graphs.coloring", None),
        (engine, "chromatic_number", "graphs.coloring", None),
        (strategies, "edge_of", "graphs.edge_of", None),
        # harness imports edges_between inside the monitor, and
        # graphs.density calls it through the graphs module
        (graphs, "edges_between", "graphs.edges_between", None),
        (regularity, "edges_between", "graphs.edges_between", None),
        (engine, "apply_move", "engine.apply_move", None),
        (cli, "play_match", "engine.play_match", None),
        (harness, "play_match", "harness.play_match", None),
        (engine.Transcript, "to_jsonl", "engine.to_jsonl", None),
        (engine.PropertyDetector, "hit_after_state", "engine.detector", None),
        (strategies.JumbleGStrategy, "next_move", "strategies.jumbleg", None),
        (strategies.RandomStrategy, "next_move", "strategies.random", None),
        (strategies.TuranAvoiderStrategy, "next_move", "strategies.turan", fallback),
        (cli, "solve_tau", "solver.solve_tau", nodes),
        (solver, "canonical_claims", "solver.canon", canon),
        (cli, "check_p2", "regularity.p2", samples("regularity.p2.pairs")),
        (cli, "is_regular_pair", "regularity.regular_pair", samples("regularity.regular_pair.subpairs")),
        (harness, "jumbleg_margin", "regularity.jumbleg_margin", None),
        (cli, "run_sweep", "harness.run_sweep", None),
        (harness, "margin_violation_fraction", "harness.monitor", None),
        (cli, "sweep_to_csv", "harness.csv", None),
        (cli, "_write", "cli.write", written),
    ]
    detectors = [engine.PropertyDetector, *engine.PropertyDetector.__subclasses__()]
    sites += [
        (cls, "hit_after_masks", "detector.masks", None)
        for cls in detectors
        if "hit_after_masks" in vars(cls)
    ]
    for owner, attr, label, after in sites:
        setattr(owner, attr, tracer.wrap(label, getattr(owner, attr), after))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics by name. Layers a workload never enters read 0."""
    tot = tracer.totals()
    counts = tracer.counts

    def calls(*labels):
        return sum(tot.get(label, (0, 0.0, 0.0))[0] for label in labels)

    def secs(*labels):
        return sum(tot.get(label, (0, 0.0, 0.0))[1] for label in labels)

    def self_s(*labels):
        return sum(tot.get(label, (0, 0.0, 0.0))[2] for label in labels)

    m = {}

    def calls_and_time(name, label, per=None, per_unit="us_per_call"):
        m[name + ".calls"] = calls(label)
        m[name + ".s"] = secs(label)
        if per is not None:
            m[name + "." + per_unit] = 1e6 * _ratio(secs(label), calls(label))

    calls_and_time("graphs.embed", "graphs.embed")
    m["graphs.embed.found_ratio"] = _ratio(counts["graphs.embed.found"], calls("graphs.embed"))
    calls_and_time("graphs.graph_build", "graphs.graph_build")
    calls_and_time("graphs.coloring", "graphs.coloring")
    calls_and_time("graphs.edge_of", "graphs.edge_of")
    calls_and_time("graphs.edges_between", "graphs.edges_between")

    m["engine.moves"] = calls("engine.apply_move")
    m["engine.apply_move.s"] = secs("engine.apply_move")
    m["engine.apply_move.us_per_call"] = 1e6 * _ratio(secs("engine.apply_move"), calls("engine.apply_move"))
    m["engine.loop_self.s"] = self_s("engine.play_match", "harness.play_match")
    m["engine.to_jsonl.s"] = secs("engine.to_jsonl")
    calls_and_time("engine.detector", "engine.detector", per=True)

    for name in ("jumbleg", "random", "turan"):
        calls_and_time("strategies." + name, "strategies." + name, per=True, per_unit="us_per_move")
    m["strategies.turan.fallback_ratio"] = _ratio(
        counts["strategies.turan.fallback"], calls("strategies.turan")
    )

    m["solver.nodes"] = counts["solver.nodes"]
    m["solver.nodes_per_s"] = _ratio(counts["solver.nodes"], secs("solver.solve_tau"))
    calls_and_time("solver.canon", "solver.canon", per=True)
    m["solver.memo_size"] = len(tracer.canon_keys)
    canon_calls = calls("solver.canon")
    m["solver.memo_hit_ratio"] = 1 - len(tracer.canon_keys) / canon_calls if canon_calls else 0.0
    calls_and_time("solver.detector", "solver.detector")
    m["solver.self.s"] = self_s("solver.solve_tau")

    p2_pairs = counts["regularity.p2.pairs"]
    m["regularity.p2.pairs"] = p2_pairs
    m["regularity.p2.s"] = secs("regularity.p2")
    m["regularity.p2.pairs_per_s"] = _ratio(p2_pairs, secs("regularity.p2"))
    subpairs = counts["regularity.regular_pair.subpairs"]
    m["regularity.regular_pair.subpairs"] = subpairs
    m["regularity.regular_pair.s"] = secs("regularity.regular_pair")
    m["regularity.regular_pair.subpairs_per_s"] = _ratio(subpairs, secs("regularity.regular_pair"))
    calls_and_time("regularity.jumbleg_margin", "regularity.jumbleg_margin")

    m["harness.play.s"] = secs("harness.play_match")
    m["harness.monitor.s"] = secs("harness.monitor")
    m["harness.monitor.share"] = _ratio(secs("harness.monitor"), secs("harness.run_sweep"))
    m["harness.csv.s"] = secs("harness.csv")

    m["cli.output_bytes"] = counts["cli.output_bytes"]
    m["cli.write.s"] = secs("cli.write")
    m["trace.spans"] = len(tracer.start)
    return m


def self_time_shares(tracer: Tracer, wall_s: float) -> list:
    """(label, self seconds / traced wall) for every label, largest first."""
    rows = [(label, row[2] / wall_s) for label, row in tracer.totals().items()]
    return sorted(rows, key=lambda r: -r[1])
