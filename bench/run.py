"""The ckcenter benchmark.

    python3 bench/run.py --workload structure --seed 7 --seconds 40 --trace 0

--trace 0 runs the workload in CHILDREN fresh interpreters one after the
other, each for --seconds / CHILDREN of whole passes over the op list, and
reports the end-to-end metrics.  --trace 1 runs one interpreter that makes
one untraced and one traced pass and reports the per-layer metrics derived
from the traced pass's spans.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines above it give the
same figures for people, with units, sample counts and the input manifest.
Without --workload, every workload is measured in turn, each with its own
report and result line.

One closed-loop client: each op starts when the previous one returns, and
nothing else runs beside it.  See README.md for the workloads and for
which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# Fresh interpreters per untraced run: CHILDREN time passes, and SETUP_ONLY
# more only set up, so that setup_s is a median of CHILDREN + SETUP_ONLY.
CHILDREN = 4
SETUP_ONLY = 5
DEADLINE_S = 170


class RunError(Exception):
    pass


def spawn(workload: str, seed: int, budget: float, deadline: float, spans_path=None) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", str(budget), "--t0", repr(t0)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for another interpreter")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _manifest(workload: str, seed: int, results: list[dict]) -> dict:
    digests = {r["input_digest"] for r in results}
    if len(digests) != 1:
        raise RunError(f"interpreters generated different inputs: {sorted(digests)}")
    return {"workload": workload, "seed": seed, "input_digest": digests.pop(),
            "ops": results[0]["ops"]}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list]:
    results = [spawn(workload, seed, seconds / CHILDREN, deadline) for _ in range(CHILDREN)]
    setups = [spawn(workload, seed, 0, deadline) for _ in range(SETUP_ONLY)]
    manifest = _manifest(workload, seed, results + setups)
    n = manifest["ops"]
    # Each op's best time over its passes: other tenants of the machine slow
    # down stretches of a second or more, and only ever add time.
    per_op = [min(p[i] for r in results for p in r["passes"]) for i in range(n)]
    reps = sum(len(r["passes"]) for r in results)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results + setups), "s", len(results + setups)),
        "ops_per_s": (n / sum(per_op), "ops/s", n),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms", n),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms", n),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB", CHILDREN),
    }
    manifest.update(interpreters=len(results + setups), passes=reps, per_op_best_ms=[t * 1e3 for t in per_op])
    return manifest, metrics, results


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict, list]:
    path = RESULTS / f"spans-{workload}.json"
    result = spawn(workload, seed, 0, deadline, spans_path=path)
    manifest = _manifest(workload, seed, [result])
    manifest.update(spans_file=str(path.relative_to(ROOT)), wrapped_bindings=result["bindings"])
    layer = spans.layer_metrics(path)
    layer["cli.stdout_bytes"] = (result["stdout_bytes"], "bytes")
    layer["cli.refused"] = (result["refused"], "count")
    layer["trace.overhead_s"] = (result["traced_s"] - result["untraced_s"], "s")
    metrics = {name: (value, unit, manifest["ops"]) for name, (value, unit) in layer.items()}
    return manifest, metrics, [result]


def shape_lines(m: dict) -> list[str]:
    """Shares of traced op time that the layer map in README.md predicts."""
    op = m["trace.op_s"][0] or 1.0
    return [
        f"  share lattice+cycles        {(m['hereditary.lattice_s'][0] + m['graphs.cycles_s'][0]) / op:.3f}",
        f"  share center_degree_bounded {m['algebra.center_degree_bounded_s'][0] / op:.3f}",
        f"  share verify+generator_build {(m['center.verify_s'][0] + m['algebra.generator_build_s'][0]) / op:.3f}",
    ]


def pin_digests() -> None:
    """Rewrite digests.json from the current program's output on the default
    seed, after checking every op against its construction."""
    from check import check, stdout_digest
    from worker import import_ckcenter, run_op

    cli = import_ckcenter().cli
    pinned = {}
    for workload in workloads.WORKLOADS:
        pinned[workload] = []
        for op in workloads.build(workload, workloads.DEFAULT_SEED):
            code, out, _, _ = run_op(cli, op.argv, op.graph_json)
            reason = check(op, code, out)
            if reason is not None:
                raise SystemExit(f"{workload} {op.family} {' '.join(op.argv)}: {reason}")
            pinned[workload].append(stdout_digest(out))
    (BENCH / "digests.json").write_text(json.dumps(pinned, indent=1) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload, print its report and result line; 0 if it ran."""
    deadline = time.monotonic() + DEADLINE_S
    try:
        if trace:
            manifest, metrics, results = traced(workload, seed, deadline)
        else:
            manifest, metrics, results = end_to_end(workload, seed, seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    print(f"workload {workload}  seed {seed}  trace {trace}  input sha256 {manifest['input_digest']}")
    print(f"ops per pass {manifest['ops']}  attempted {attempted}  failed {len(failures)}  "
          f"fail_frac {len(failures) / attempted:.4f} ratio")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit:6s} (n={samples})")
    if trace:
        print("\n".join(shape_lines(metrics)))
    for f in failures[:10]:
        print(f"  FAILED op {f[0]} {f[1]} `{f[2]}`: {f[3]} {f[4]}".rstrip())

    record = {"manifest": manifest, "attempted": attempted, "failures": failures,
              "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}}
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def main() -> int:
    # On SIGTERM, unwind so that subprocess.run kills and waits for the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description="ckcenter benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, help="default: each in turn")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-digests", action="store_true",
                    help="rewrite digests.json for the default seed and exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "ckcenter" / "__init__.py").is_file():
        print(f"error: no ckcenter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin_digests:
        pin_digests()
        return 0
    RESULTS.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        if run_one(workload, args.seed, args.seconds, args.trace):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
