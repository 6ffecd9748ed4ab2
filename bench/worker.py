"""One timed run of a workload, in the fresh interpreter run.py starts.

The run imports ckcenter from the checkout's src/, builds the workload's
inputs from the seed, warms up, then runs whole passes over the op list.
Each op is one in-process CLI command, `cli.main(argv)`, reading its graph
from stdin with stdout and stderr captured; its output is checked before
the next op starts.

Between ops the run clears algebra._default_special (an unbounded cache
keyed by graph) and collects garbage, outside the timed region, so every op
starts as a fresh `ckcenter` process would: no op is served from a cache
filled by an earlier op.

The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from check import check

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Warm-up graph: one edge between two vertices.
_TINY = '{"vertices": ["a", "b"], "edges": [{"id": "x", "src": "a", "dst": "b"}]}'


def import_ckcenter():
    """Import ckcenter from this checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import ckcenter
    import ckcenter.cli  # noqa: F401  (the package does not import its CLI)

    if Path(ckcenter.__file__).resolve().parent != SRC / "ckcenter":
        raise SystemExit(f"ckcenter imported from {ckcenter.__file__}, not {SRC}")
    return ckcenter


def run_op(cli, argv, graph_json: str) -> tuple[int | None, str, str, float]:
    """(exit code or None if it raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(graph_json)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except Exception:
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - t
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), seconds


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.ckcenter = import_ckcenter()
        self.ops = workloads.build(workload, seed)
        self.input_digest = workloads.input_digest(self.ops)
        self.pinned = None
        if seed == workloads.DEFAULT_SEED:
            self.pinned = json.loads((BENCH / "digests.json").read_text())[workload]
            if len(self.pinned) != len(self.ops):
                raise SystemExit(f"digests.json pins {len(self.pinned)} ops, workload has {len(self.ops)}")
        self.failures: list[list] = []
        self.stdout_bytes = 0
        self.refused = 0

    def warm_up(self) -> None:
        for argv in dict.fromkeys(op.argv for op in self.ops):
            run_op(self.ckcenter.cli, argv, _TINY)

    def run_pass(self, tracer=None) -> list[float]:
        """Per-op seconds for one pass over every op, in order."""
        clear_cache = self.ckcenter.algebra._default_special.cache_clear
        times = []
        self.stdout_bytes = self.refused = 0
        for i, op in enumerate(self.ops):
            clear_cache()
            gc.collect()
            if tracer is not None:
                tracer.op = i
            code, out, err, seconds = run_op(self.ckcenter.cli, op.argv, op.graph_json)
            times.append(seconds)
            self.stdout_bytes += len(out.encode())
            self.refused += code == 1
            reason = check(op, code, out, self.pinned[i] if self.pinned else None)
            if reason is not None:
                self.failures.append([i, op.family, " ".join(op.argv), reason, err[-300:]])
        return times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of whole passes to run, at least one; 0 for none")
    ap.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC when the parent started us")
    ap.add_argument("--spans", help="traced run: write spans here")
    args = ap.parse_args()

    runner = Runner(args.workload, args.seed)
    runner.warm_up()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    result = {"setup_s": setup_s, "input_digest": runner.input_digest, "ops": len(runner.ops)}

    if args.spans is None:
        # Whole passes only, and none that would end past the budget; a
        # budget of 0 measures set-up alone.
        passes = []
        started = time.perf_counter()
        while args.budget > 0:
            passes.append(runner.run_pass())
            elapsed = time.perf_counter() - started
            if elapsed * (len(passes) + 1) / len(passes) > args.budget:
                break
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from spans import Tracer

        untraced = sum(runner.run_pass())
        tracer = Tracer()
        tracer.install()
        traced = sum(runner.run_pass(tracer))
        tracer.write(args.spans)
        result.update(
            untraced_s=untraced,
            traced_s=traced,
            stdout_bytes=runner.stdout_bytes,
            refused=runner.refused,
            bindings=tracer.bindings,
        )
    result["attempted"] = len(runner.ops) * (2 if args.spans else len(result["passes"]))
    result["failures"] = runner.failures
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
