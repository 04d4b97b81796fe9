"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

For each workload and two seeds, builds a tiny mix (one op per variant of
each class) and runs it once through a worker: every op must pass the gate.
Then it falsifies one expected value at a time (a diversity, a decision, the
answers a witness is checked against) and requires the worker to reject each
run with the gate's exit status. Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import GATE_EXIT, OUT, SRC, BenchError, spawn, write_manifest

SEEDS = (1, 2)


def corruptions(ops: list[dict]):
    """(description, index, changes) for expected values of answered ops.
    Op 0 is the worker's warm-up op; the others are checked in the loop."""
    answered = [i for i, op in enumerate(ops) if i > 0 and not op["guard_probe"]]
    i = answered[0]
    yield "diversity", i, {"diversity": (ops[i]["diversity"] or 0) + 1}
    yield "decision", i, {"decision": not ops[i]["decision"]}
    witnessed = [i for i in answered if ops[i]["witness"] and ops[i]["decision"]]
    if witnessed:
        i = witnessed[0]
        yield "witness answers", i, {"answers": ops[i]["answers"][:ops[i]["k"] - 1]}


def check_workload(workload: str, seed: int) -> list[str]:
    errors = []
    work = OUT / f"selftest-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest_path, _ = write_manifest(work, workload, seed, seconds=0, tiny=True)
        result = work / "result.json"
        code = spawn(manifest_path, "main", result, timeout=120)[0]
        if code != 0:
            errors.append(f"{workload} seed {seed}: clean run exited {code}")
        manifest = json.loads(manifest_path.read_text())
        for what, i, changes in corruptions(manifest["ops"]):
            bad = json.loads(json.dumps(manifest))
            bad["ops"][i].update(changes)
            bad_path = work / "corrupt.json"
            bad_path.write_text(json.dumps(bad))
            code = spawn(bad_path, "main", result, timeout=120)[0]
            status = "caught" if code == GATE_EXIT else f"NOT caught (exit {code})"
            print(f"  {workload} seed {seed}: corrupted {what} of op {i}: {status}")
            if code != GATE_EXIT:
                errors.append(f"{workload} seed {seed}: corrupted {what} not caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return errors


def main() -> int:
    sys.path.insert(0, str(SRC))
    try:
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"selftest: {err}", file=sys.stderr)
        return 2
    errors = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            try:
                errors += check_workload(workload, seed)
            except BenchError as err:
                errors.append(f"{workload} seed {seed}: {err}")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("selftest:", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
