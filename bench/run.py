"""Benchmark of the edgegames CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, and scratch files go to ./.bench_tmp (removed again at exit). The
workloads are in workloads.py and BENCHMARK.json.

Load shape: a closed loop with one client. Each iteration starts a fresh
interpreter (bench/child.py) that imports edgegames.cli and runs the
workload's CLI calls one after another in its single thread, so every
iteration pays for the package's lazy caches just as a CLI user does.

--trace 0 repeats iterations while another fits in S seconds (at least one);
iteration i takes its inputs from (seed, i). It reports, with tracing off:
  wall_s       median over iterations of the wall time of the CLI calls
  setup_s      median time from spawning an interpreter to edgegames.cli
               being imported, over SETUP_PROBES import-only interpreters
               and every iteration
  peak_rss_mb  largest peak RSS of an iteration's interpreter
Both times are in reference seconds. The speed of a shared machine drifts
by a quarter and more within minutes, and that drift, not the program,
dominated the spread of raw times between runs. So the benchmark pins
itself, and with it every interpreter it starts, to one CPU, and while an
interpreter runs it wakes every SAMPLE_EVERY_S to time a short fixed
pure-Python loop (burst) on that CPU. An iteration's wall time is scaled by
BURST_NOMINAL_S / (median burst time during that iteration), and setup_s by
BURST_NOMINAL_S / (median burst time of the run): seconds on a machine that
runs the burst in BURST_NOMINAL_S. The bursts take about 1% of the CPU from
the program; the raw times are printed too.
--trace 1 runs iteration 0 untraced and then traced, and reports the
per-layer metrics of spans.py (raw seconds), the tracing overhead (traced
minus untraced wall time, in reference seconds) and moves_per_s of the
untraced iteration.

Every output is checked (see workloads.py). A call fails on a nonzero exit,
an exception, or an output that fails its check; `failed`/`attempted`
count calls. The last line of stdout is the JSON result, with the metric
names and units that ./BENCHMARK.json declares; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import DOMINANT
from workloads import WORKLOADS, load_digests, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
SAMPLE_EVERY_S = 0.2
BURST_NOMINAL_S = 0.0021  # typical burst time on a shared 2-core x86-64 VM
CHILD_TIMEOUT_S = 170


def burst() -> float:
    """Seconds for a fixed pure-Python loop that never touches edgegames:
    how fast this CPU runs Python right now."""
    t = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t


def spawn(src: str, tmp: str, argvs: list, trace: bool) -> dict:
    """Run one fresh interpreter, timing bursts while it runs. Adds
    `setup_s` and `bursts` to its result."""
    spec, result = os.path.join(tmp, "spec.json"), os.path.join(tmp, "result.json")
    with open(spec, "w") as fh:
        json.dump({"src": src, "calls": argvs, "trace": trace}, fh)
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec, result]
    started = time.monotonic()
    bursts = []
    # the child's stdout joins our stderr: our stdout ends with the result line
    with subprocess.Popen(cmd, stdout=sys.stderr, env=env) as proc:
        while proc.poll() is None:
            if time.monotonic() - started > CHILD_TIMEOUT_S:
                proc.kill()
                raise subprocess.TimeoutExpired(cmd, CHILD_TIMEOUT_S)
            time.sleep(SAMPLE_EVERY_S)
            bursts.append(burst())
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    with open(result) as fh:
        out = json.load(fh)
    out["setup_s"] = out["ready"] - started
    out["bursts"] = bursts
    return out


class Checker:
    """Checks every call's output and counts attempted and failed calls."""

    def __init__(self, seed: int):
        self.digests = load_digests(seed)
        self.attempted = 0
        self.failed = 0

    def check(self, calls, result: dict, moves_of) -> int:
        """Moves in the outputs that passed (0 without `moves_of`)."""
        moves = 0
        for call, ran in zip(calls, result["calls"]):
            self.attempted += 1
            if ran["error"] or ran["rc"] != 0:
                problem = "exit %r %s" % (ran["rc"], ran["error"] or "")
            else:
                with open(call.out, "rb") as fh:
                    data = fh.read()
                os.remove(call.out)
                problem = self._problem(call, data)
            if problem:
                self.failed += 1
                print("FAILED %s: %s" % (call.key, problem), file=sys.stderr)
            elif moves_of is not None:
                moves += moves_of(data)
        return moves

    def _problem(self, call, data: bytes):
        recorded = self.digests.get(call.key)
        if recorded is not None and sha256(data) != recorded:
            return "sha256 %s, recorded %s" % (sha256(data), recorded)
        return call.check(data)


def iterate(workload, seed: int, i: int, checker, src, tmp, trace: bool):
    """Iteration i: its inputs, one fresh interpreter, the output checks.
    Returns the child's result and the moves its outputs hold."""
    calls = workload.calls(seed, i, tmp)
    res = spawn(src, tmp, [c.argv for c in calls], trace)
    return res, checker.check(calls, res, None if trace else workload.moves)


def scaled_wall(res: dict) -> float:
    """An iteration's wall time in reference seconds."""
    return res["wall_s"] * BURST_NOMINAL_S / statistics.median(res["bursts"])


def describe(name: str, values: list, unit: str) -> str:
    return "%-12s median %.6g %s (n=%d, min %.6g, max %.6g)" % (
        name, statistics.median(values), unit, len(values), min(values), max(values))


def measure(workload, seed, checker, src, tmp, seconds: int) -> dict:
    spawn(src, tmp, [], False)  # warm-up: byte-compiles the package once
    probes = [spawn(src, tmp, [], False) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    bursts = [b for p in probes for b in p["bursts"]]
    walls, scaled, rss, rates = [], [], [], []
    start = time.monotonic()
    while not walls or time.monotonic() - start + statistics.mean(walls) <= seconds:
        res, moves = iterate(workload, seed, len(walls), checker, src, tmp, False)
        print("iteration %d: wall %.4f s, median burst %.6f s (n=%d)"
              % (len(walls), res["wall_s"], statistics.median(res["bursts"]), len(res["bursts"])))
        walls.append(res["wall_s"])
        scaled.append(scaled_wall(res))
        setups.append(res["setup_s"])
        bursts += res["bursts"]
        rss.append(res["peak_rss_mb"])
        rates.append(moves / res["wall_s"])
    print(describe("raw wall_s", walls, "s"))
    print(describe("raw setup_s", setups, "s"))
    print(describe("burst", bursts, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    if workload.moves is not None:
        print(describe("raw moves/s", rates, "1/s"))
    setup_scale = BURST_NOMINAL_S / statistics.median(bursts)
    return {"wall_s": statistics.median(scaled), "setup_s": setup_scale * statistics.median(setups),
            "peak_rss_mb": max(rss)}


def trace(workload, seed, checker, src, tmp) -> dict:
    plain, moves = iterate(workload, seed, 0, checker, src, tmp, False)
    traced, _ = iterate(workload, seed, 0, checker, src, tmp, True)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(plain)
    layers["moves_per_s"] = moves / plain["wall_s"]
    for name, value in layers.items():
        print("%-40s %.6g" % (name, value))
    shares = traced["self_shares"]
    print("self-time shares: " + ", ".join("%s %.1f%%" % (label, 100 * s) for label, s in shares[:5]))
    dominant = DOMINANT[workload.name]
    verdict = "holds" if shares and shares[0][0] == dominant else "DOES NOT hold"
    print("dominant layer %s: %s" % (dominant, verdict))
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # see "reference seconds"
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "edgegames", "cli.py")):
        print("error: run from the root of an edgegames checkout (no src/edgegames here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in declared["workloads"]}[args.workload]
    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".bench_tmp"))
    try:
        checker = Checker(args.seed)
        print("workload %s, seed %d: %s" % (workload.name, args.seed, why))
        if args.trace:
            values = trace(workload, args.seed, checker, src, tmp)
        else:
            values = measure(workload, args.seed, checker, src, tmp, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:  # another run's scratch files are still there
            pass
    if set(values) != set(units):
        print("error: measured metrics differ from BENCHMARK.json in %s"
              % sorted(set(values) ^ set(units)), file=sys.stderr)
        return 1
    print("failed_frac    %d/%d" % (checker.failed, checker.attempted))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
