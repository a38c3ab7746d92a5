"""One fresh interpreter running a workload's CLI calls.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds `src` (the directory that contains the edgegames package), `calls`
(a list of argv lists for `edgegames.cli.main`) and `trace`. The calls run
one after another in this process's only thread. RESULT receives the moment
`edgegames.cli` finished importing (time.monotonic, comparable with the
parent's clock), each call's exit code and seconds, the wall time of all calls, the
peak RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """This process's peak resident set. ru_maxrss would also count the
    parent's RSS at spawn time, since the exec'd image inherits the high-water
    mark of the address space it replaced; VmHWM counts this image only."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import edgegames.cli as cli

    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit("edgegames was imported from %s, not %s" % (cli.__file__, src))

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        run = tracer.wrap("cli.main", cli.main)
    else:
        run = cli.main

    calls = []
    clock = time.perf_counter
    t0 = clock()
    for argv in spec["calls"]:
        t = clock()
        try:
            rc, error = run(argv), None
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc, error = exc.code, None
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
        calls.append({"argv": argv, "rc": rc, "s": clock() - t, "error": error})
    wall = clock() - t0

    result = {"ready": ready, "calls": calls, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["self_shares"] = spans.self_time_shares(tracer, wall)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
