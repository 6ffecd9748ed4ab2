"""Self-test of the benchmark's correctness gate and tracing.

    python3 bench/selftest.py

Runs a few default-seed ops of each workload and shows that:
  - their real outputs pass the gate;
  - a corrupted pinned digest, a corrupted expectation, a corrupted stdout
    and an unexpected exit code are each counted as a failure;
  - after Tracer.install() no ckcenter namespace still binds an unwrapped
    public function, calls from center.py land in spans, and the metric
    names match BENCHMARK.json.
Exits 1 on the first broken claim.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import tempfile
from pathlib import Path

import workloads
from check import check
from worker import Runner, run_op

BENCH = Path(__file__).resolve().parent
OPS_PER_WORKLOAD = 4


def expect(claim: str, holds: bool) -> None:
    print(f"{'ok  ' if holds else 'FAIL'} {claim}")
    if not holds:
        sys.exit(1)


def gate() -> None:
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, workloads.DEFAULT_SEED)
        runner.ops = runner.ops[:OPS_PER_WORKLOAD]
        runner.pinned = runner.pinned[:OPS_PER_WORKLOAD]
        runner.run_pass()
        expect(f"{workload}: {OPS_PER_WORKLOAD} real outputs pass", not runner.failures)

        pinned = list(runner.pinned)
        runner.pinned[1] = "0" * 16
        runner.run_pass()
        expect(f"{workload}: a corrupted pinned digest is one failure", len(runner.failures) == 1)
        runner.pinned, runner.failures = pinned, []

        op = runner.ops[0]
        wrong = dataclasses.replace(op.expect, exit_code=op.expect.exit_code + 1)
        runner.ops[0] = dataclasses.replace(op, expect=wrong)
        runner.run_pass()
        expect(f"{workload}: an unexpected exit code is one failure", len(runner.failures) == 1)
        runner.ops[0], runner.failures = op, []

    structure = Runner("structure", workloads.DEFAULT_SEED)
    op = structure.ops[0]
    code, out, _, _ = run_op(structure.ckcenter.cli, op.argv, op.graph_json)
    wrong_type = dataclasses.replace(op, expect=dataclasses.replace(op.expect, c=op.expect.c + 1))
    expect("a corrupted expected center type fails", check(wrong_type, code, out) is not None)
    expect("a corrupted answer fails", check(op, code, out.replace("verified: yes", "verified: no")) is not None)

    generators = Runner("generators", workloads.DEFAULT_SEED)
    op = generators.ops[0]
    code, out, _, _ = run_op(generators.ckcenter.cli, op.argv, op.graph_json)
    dropped = re.sub(r" \+ \S+ \S+", "", out, count=1)
    expect("a generator missing one term fails", check(op, code, dropped) is not None)
    flipped = out.replace(" + ", " - ", 1)
    expect("a sign flip passes the structural checks", check(op, code, flipped) is None)
    expect("... but fails against the pinned digest",
           check(op, code, flipped, generators.pinned[0]) is not None)


def tracing() -> None:
    from spans import Tracer, layer_metrics, public_functions

    runner = Runner("generators", workloads.DEFAULT_SEED)
    ck = runner.ckcenter
    originals = {id(fn) for fn in public_functions().values()}
    tracer = Tracer()
    tracer.install()
    stale = [f"{name}.{attr}" for name, mod in sys.modules.items() if name.startswith("ckcenter")
             for attr, value in vars(mod).items() if id(value) in originals]
    expect(f"wrappers replaced {tracer.bindings} bindings, none left unwrapped", not stale)
    expect("ckcenter.center.multiply is wrapped", hasattr(ck.center.multiply, "__wrapped__"))

    runner.ops = runner.ops[:2]
    runner.pinned = runner.pinned[:2]
    runner.run_pass(tracer)
    expect("traced outputs still pass", not runner.failures)
    callers = {(fn, caller) for _, fn, caller in tracer.rows}
    expect("center's multiply calls land in spans", ("algebra.multiply", "center.compute_center") in callers)

    (BENCH / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
        path = Path(tmp) / "spans.json"
        tracer.write(path)
        metrics = layer_metrics(path)
    names = set(metrics) | {"cli.stdout_bytes", "cli.refused", "trace.overhead_s"}
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expect("per-layer metric names match BENCHMARK.json",
           names == {m["name"] for m in declared["per_layer"]})
    expect("verify time is recorded", metrics["center.verify_s"][0] > 0)


if __name__ == "__main__":
    gate()
    tracing()
    print("selftest passed")
