"""Benchmark worker: one fresh Python process that runs one workload.

    python3 bench/worker.py MANIFEST ROLE RESULT

The manifest (written by run.py) lists the ops, the files they read and their
expected outcomes; the worker never sees the seed. Every role imports
diverseq, runs the first op once, untimed, as warm-up and prints "ready";
the parent takes the time from spawn to that line as set-up time.

  probe  after "ready", print the fastest of a few calibration_ms() runs:
         the machine's speed right after start-up.
  main   closed loop, one client: each op is one in-process `cli.run` call,
         timed with tracing off. The loop makes the manifest's fixed number
         of whole passes over the mix. After each op it times a fixed piece
         of pure-Python work, so the parent can tell how fast the machine
         ran at that moment.
  trace  the same loop, but each op runs twice, untraced and traced (order
         alternating), so the tracing overhead is a paired difference.

Every outcome is checked; a mismatch exits with status 3 and no result.
"""

from __future__ import annotations

import json
import resource
import sys
import time


PROBE_CALIBRATIONS = 10


class Mismatch(Exception):
    """An op's outcome disagrees with the expected one."""


def calibration_ms() -> float:
    """Time of a fixed piece of pure-Python work that uses no diverseq code:
    how fast this machine runs Python at this moment."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(4000):
        table[(i * 7919) % 10007] = table.get((i * 31) % 10007, 0) + i
    return (time.perf_counter() - started) * 1000.0


def check(op: dict, code: int, report: dict, guard_codes: tuple) -> str | None:
    """Validate one outcome. Returns the error code of a guard refusal, or
    None for an answered op; raises Mismatch otherwise."""
    where = f"{op['label']} ({op['query']}, k={op['k']}, d={op['d']}, {op['aggregator']})"
    if "error" in report:
        err = report["error"]
        if code == 2 and err["code"] in guard_codes:
            return err["code"]
        raise Mismatch(f"{where}: error {err['code']}: {err['message']}")
    want_code = 0 if op["decision"] else 1
    if code != want_code or report["decision"] != ("yes" if op["decision"] else "no"):
        raise Mismatch(f"{where}: decision {report['decision']} (exit {code}), "
                       f"expected {'yes' if op['decision'] else 'no'}")
    if report["diversity"] != op["diversity"]:
        raise Mismatch(f"{where}: diversity {report['diversity']}, expected {op['diversity']}")
    witness = report["witness"]
    if not (op["witness"] and op["decision"]):
        if witness is not None:
            raise Mismatch(f"{where}: unrequested witness")
        return None
    xs = op["free_vars"]
    rows = [tuple(answer[x] for x in xs) for answer in witness or ()]
    answers = {tuple(row) for row in op["answers"]}
    if len(rows) != op["k"] or not all(row in answers for row in rows):
        raise Mismatch(f"{where}: witness {rows} is not {op['k']} answers of the query")
    if not op["allow_duplicates"] and len(set(rows)) != len(rows):
        raise Mismatch(f"{where}: witness repeats an answer")
    distances = [sum(a != b for a, b in zip(rows[i], rows[j]))
                 for i in range(len(rows)) for j in range(i + 1, len(rows))]
    achieved = sum(distances) if op["aggregator"] == "sum" else min(distances)
    if achieved != op["diversity"]:
        raise Mismatch(f"{where}: witness reaches {achieved}, expected {op['diversity']}")
    return None


def main(argv: list[str]) -> int:
    manifest_path, role, result_path = argv
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    sys.path.insert(0, manifest["src"])
    from diverseq import cli

    ops = manifest["ops"]
    guard_codes = tuple(manifest["guard_codes"])
    configs = [
        cli.RunConfig(db_path=op["db"], query_path=op["query"], k=op["k"], d=op["d"],
                      aggregator=op["aggregator"], allow_duplicates=op["allow_duplicates"],
                      witness=op["witness"], output="json")
        for op in ops
    ]
    check(ops[0], *cli.run(configs[0]), guard_codes)
    print("ready", flush=True)
    if role == "probe":
        print(min(calibration_ms() for _ in range(PROBE_CALIBRATIONS)), flush=True)
        return 0

    tracer = None
    if role == "trace":
        sys.path.insert(0, manifest["bench"])
        from tracing import Tracer
        tracer = Tracer()

    order = manifest["order"]
    passes = manifest["passes"]
    samples = []  # (op index, ms untraced, refusal code or None)
    records = []  # traced: per-op record from the tracer
    calibration = []  # calibration_ms() right after each sample
    started = time.perf_counter()
    for pass_index in range(passes):
        for position, i in enumerate(order):
            traced_first = tracer is not None and (pass_index + position) % 2 == 1
            if traced_first:
                result, record = tracer.run_op(len(records), lambda: cli.run(configs[i]))
            t0 = time.perf_counter()
            code, report = cli.run(configs[i])
            ms = (time.perf_counter() - t0) * 1000.0
            refusal = check(ops[i], code, report, guard_codes)
            samples.append((i, ms, refusal))
            calibration.append(calibration_ms())
            if tracer is not None:
                if not traced_first:
                    result, record = tracer.run_op(len(records), lambda: cli.run(configs[i]))
                if check(ops[i], *result, guard_codes) != refusal:
                    raise Mismatch(f"{ops[i]['label']}: traced and untraced outcomes differ")
                record.update(op=i, error=refusal, untraced_ms=ms,
                              witness=ops[i]["witness"] and ops[i]["decision"])
                records.append(record)

    result = {
        "passes": passes,
        "elapsed_s": time.perf_counter() - started,
        "samples": samples,
        "calibration_ms": calibration,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["records"] = records
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        with open(manifest["spans_path"], "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in tracer.spans:
                handle.write(json.dumps({
                    "name": name, "start_ms": round((start - origin) * 1000.0, 4),
                    "end_ms": round((end - origin) * 1000.0, 4),
                    "parent": parent, "op": op_id,
                }) + "\n")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Mismatch as err:
        print(f"correctness gate: {err}", file=sys.stderr)
        sys.exit(3)
