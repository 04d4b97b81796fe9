"""diverseq benchmark: end-to-end cost of `cli.run` and per-layer costs.

    python3 bench/run.py --workload dp-engines --seed 1 --seconds 60 --trace 0

Builds the workload's instances from the seed and computes their expected
outcomes with the `oracle` module (outside all timing), then measures in
fresh worker processes (see worker.py):

  --trace 0  end-to-end metrics with tracing off: throughput, p50 and tail
             latency, the share of ops a guard refused, peak RSS of the
             worker, and set-up time (median of several worker starts);
  --trace 1  per-layer self times and counts from a traced run, overall and
             per engine, plus the tracing overhead.

The worker makes a fixed number of whole passes over the instance mix, so
every instance is timed once per pass. `--seconds` sets that number through
the workload's pass time on the reference machine (2 vCPU), so two commits
run with the same settings take their figures over the same number of
passes.

The end-to-end timings are best-of-N figures at a fixed machine speed. On
a shared 2-vCPU VM, Python runs up to 1.5x slower for seconds to minutes at
a time, the same for every op class and for a loop that uses no diverseq
code. The worker therefore times a fixed piece of pure-Python work after
every op, and each sample of a pass is multiplied by CAL_REF_MS over the
fastest of those times in the pass, which maps it to the speed at which the
same work takes CAL_REF_MS. The fastest follows an op that left the caches
warm, so it does not depend on the memory use of the ops measured. Over ten
seeds on that VM, this roughly halved the spread of throughput, p50 and
tail against unscaled figures. An instance's latency is its fastest scaled
sample of the N passes, since other processes only ever add time.
Throughput is the number of instances over the sum of those latencies,
refused ops included; p50 and tail are percentiles of them over the
instances. Each start-up is scaled the same way by the fastest of a few
calibration runs that its own process makes right after it. The record also holds the same figures unscaled, the speed of
each pass, and the closed loop's own figures: ops over elapsed time, and
p50 and tail over every timed op.

The metric names and units printed are the ones BENCHMARK.json lists. The
last line of stdout is one JSON object; a detailed record with provenance
goes to bench/out/. A wrong outcome exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9  # probe starts per run; setup_s is their median
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A start-up probe that runs longer than this has hung.
WORKER_GRACE_S = 30
# The whole run, the measuring worker included, ends within this many
# seconds, or fails.
RUN_LIMIT_S = 170
# The median over passes of a pass's fastest calibration time in worker.py,
# on the reference machine (2 vCPU).
CAL_REF_MS = 0.68
GATE_EXIT = 3  # worker.py's exit status for a wrong outcome


class BenchError(Exception):
    """The benchmark could not produce a valid result."""


class GateFailure(BenchError):
    """An op's outcome disagreed with its expected value."""


def rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n sorted values."""
    return max(1, -(-n * p // 100))


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it:
    (percentile, value, samples beyond)."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        r = int(rank(n, p))
        if n - r >= 10:
            return p, sorted_values[r - 1], n - r
    raise BenchError(f"only {n} answered instances; a tail needs at least 11")


def git_commit() -> str:
    """The checked-out commit, read without running git; "unknown" outside
    a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_manifest(work: Path, workload: str, seed: int, seconds: int, *,
                   trace: bool = False, tiny: bool = False) -> tuple[Path, list]:
    """Build the workload's inputs under `work` and write the manifest the
    worker reads: passes enough to fill `seconds` on the reference machine,
    at least one. Returns (manifest path, ops)."""
    if not (SRC / "diverseq" / "__init__.py").is_file():
        raise BenchError(f"no diverseq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    ops = workloads.build(workload, seed, str(work / "inputs"), tiny=tiny)
    order = list(range(len(ops)))
    random.Random(f"order/{workload}/{seed}").shuffle(order)
    # A traced pass runs every op twice.
    pass_s = workloads.WORKLOADS[workload]["pass_s"] * (2 if trace else 1)
    manifest = {
        "src": str(SRC), "bench": str(BENCH), "passes": max(1, round(seconds / pass_s)),
        "guard_codes": list(workloads.GUARD_CODES), "order": order,
        "spans_path": str(work / "spans.jsonl"),
        "ops": [workloads.op_json(op) for op in ops],
    }
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path, ops


def spawn(manifest: Path, role: str, result: Path,
          timeout: float) -> tuple[int, float, str]:
    """Run one worker to completion, killing it after `timeout` seconds;
    returns (exit code, seconds from spawn to "ready" or -1.0 if it never
    got ready, what it printed after "ready")."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(manifest), role, str(result)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    ready, rest = -1.0, ""
    try:
        if select.select([proc.stdout], [], [], timeout)[0] \
                and proc.stdout.readline().strip() == "ready":
            ready = time.perf_counter() - started
        rest = proc.communicate(timeout=max(0.0, started + timeout - time.perf_counter()))[0]
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return proc.returncode, ready, rest


def spawn_ok(manifest: Path, role: str, result: Path, timeout: float) -> tuple[float, str]:
    code, ready, rest = spawn(manifest, role, result, timeout)
    if code == GATE_EXIT:
        raise GateFailure(f"{role} worker: an outcome is wrong (see its message above)")
    if code != 0 or ready < 0:
        raise BenchError(f"{role} worker failed (exit {code})")
    return ready, rest


def best_of(samples: list, scale: list[float]) -> dict[int, float]:
    """Fastest sample per op index, each sample multiplied by its scale."""
    best: dict[int, float] = {}
    for (i, ms, _), factor in zip(samples, scale):
        best[i] = min(ms * factor, best.get(i, ms * factor))
    return best


def timings(best: dict[int, float], refusal_of: dict) -> dict:
    """Throughput, p50 and tail of per-instance latencies."""
    answered = sorted(ms for i, ms in best.items() if refusal_of[i] is None)
    p, tail_ms, beyond = tail(answered)
    return {"throughput_ops_s": len(best) / (sum(best.values()) / 1000.0),
            "latency_p50_ms": statistics.median(answered), "latency_tail_ms": tail_ms,
            "tail_percentile": p, "tail_samples_beyond": beyond,
            "latency_samples": len(answered)}


def end_to_end(result: dict, ops: list,
               setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    samples = result["samples"]
    per_pass = len(samples) // result["passes"]
    cal = result["calibration_ms"]
    # A pass's speed: how much faster than the reference the machine ran it.
    speed = [CAL_REF_MS / min(cal[start:start + per_pass])
             for start in range(0, len(samples), per_pass)]
    best = best_of(samples, [speed[n // per_pass] for n in range(len(samples))])
    refusal_of = {i: refusal for i, _, refusal in samples}
    scaled = timings(best, refusal_of)
    refused = [r for _, _, r in samples if r is not None]
    every = sorted(ms for _, ms, r in samples if r is None)
    every_p, every_tail_ms, every_beyond = tail(every)
    metrics = {
        **{name: scaled.pop(name)
           for name in ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms")},
        "fail_share": len(refused) / len(samples),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(ready * CAL_REF_MS / cal for ready, cal in setups),
    }
    by_class: dict[str, list[float]] = {}
    for i, ms in best.items():
        by_class.setdefault(ops[i].label, []).append(ms)
    detail = {
        **scaled,
        "passes_per_instance": result["passes"],
        "pass_speed": speed,
        "unscaled": timings(best_of(samples, [1.0] * len(samples)), refusal_of),
        "closed_loop": {
            "ops_s": len(samples) / result["elapsed_s"],
            "p50_ms": statistics.median(every),
            "tail_ms": every_tail_ms, "tail_percentile": every_p,
            "tail_samples_beyond": every_beyond, "samples": len(every),
        },
        "refusals": {code: refused.count(code) for code in sorted(set(refused))},
        "setup_samples_s": [ready for ready, _ in setups],
        "setup_calibration_ms": [cal for _, cal in setups],
        "per_class_median_ms": {k: statistics.median(v) for k, v in by_class.items()},
    }
    return metrics, detail


def per_layer(result: dict) -> tuple[dict, dict]:
    from tracing import engine_breakdown, layer_metrics

    records = result["records"]
    passes = result["passes"]
    metrics = layer_metrics(records, passes)
    engines = engine_breakdown(records, passes)
    for engine, values in engines.items():
        for name, value in values.items():
            metrics[f"{name}.{engine}"] = value
    untraced = sum(r["untraced_ms"] for r in records) / len(records)
    traced = sum(r["ms"] for r in records) / len(records)
    metrics["trace.overhead_ms"] = traced - untraced
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    detail = {"traced_ops": len(records), "untraced_op_ms": untraced, "traced_op_ms": traced,
              "by_engine": engines}
    return metrics, detail


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        built = time.perf_counter()
        manifest, ops = write_manifest(work, args.workload, args.seed, args.seconds,
                                       trace=bool(args.trace))
        build_s = time.perf_counter() - built
        import workloads  # importable now that write_manifest has set sys.path
        result_path = work / "result.json"
        if args.trace:
            spawn_ok(manifest, "trace", result_path,
                     RUN_LIMIT_S - (time.perf_counter() - started))
            shutil.copyfile(work / "spans.jsonl", OUT / f"{tag}-spans.jsonl")
            result = json.loads(result_path.read_text())
            metrics, detail = per_layer(result)
            names = spec["per_layer"]
        else:
            # (seconds to ready, the probe's calibration time) per start-up
            setups = [spawn_ok(manifest, "probe", result_path, WORKER_GRACE_S)
                      for _ in range(SETUP_SAMPLES)]
            setups = [(ready, float(cal)) for ready, cal in setups]
            spawn_ok(manifest, "main", result_path,
                     RUN_LIMIT_S - (time.perf_counter() - started))
            result = json.loads(result_path.read_text())
            metrics, detail = end_to_end(result, ops, setups)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    samples = result["samples"]
    out = {
        "correct": True,
        "attempted": len(samples),
        # A guard refusal is an expected outcome only for the ops sized to
        # provoke one; anywhere else it is a failed op.
        "failed": sum(1 for i, _, refusal in samples
                      if refusal is not None and not ops[i].guard_probe),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    record = {
        "provenance": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "loop": "closed, 1 client, whole passes over the mix",
            **workloads.describe(args.workload),
        },
        "passes": result["passes"], "elapsed_s": result["elapsed_s"],
        "ops_per_pass": len(ops), "input_build_s": build_s,
        "detail": detail, "metrics": metrics, "result": out,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    return out, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out, record = run(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return GATE_EXIT if isinstance(err, GateFailure) else 2
    print(json.dumps({key: record[key] for key in
                      ("provenance", "passes", "ops_per_pass", "elapsed_s", "detail")},
                     default=str))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
