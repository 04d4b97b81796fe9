"""Regenerate the golden corpus under tests/golden/, or check it for drift.

Usage: python3 tests/make_goldens.py [--check]

Each case gets db.facts, query.dq, config.json, and expected.json (the CLI's
canonical JSON output with the volatile timing field removed).

With --check nothing under tests/golden/ is written: every case is rebuilt in
a temporary directory and compared with the committed files. Each changed
run of lines, or each changed field of expected.json, is printed as
old -> new, and the exit code is 1 if anything changed. A changed witness
that lists the same answers in another slot order is marked as such.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(__file__))

from diverseq.cli import RunConfig, canonical_json, run
from diverseq.dbio import dump_database, dump_query
from golden_fixtures import GoldenCase, golden_cases

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def render_case(case: GoldenCase, work_dir: str) -> tuple[int, dict, dict[str, str]]:
    """(exit code, report, file name -> text) of one case, built in work_dir."""
    db_path = os.path.join(work_dir, "db.facts")
    query_path = os.path.join(work_dir, "query.dq")
    dump_database(case.db, db_path)
    dump_query(case.query, query_path)
    config = {
        "k": case.k,
        "d": case.d,
        "aggregator": case.aggregator,
        "witness": case.witness,
        "modes": list(case.modes),
    }
    code, report = run(RunConfig(
        db_path=db_path,
        query_path=query_path,
        k=case.k,
        d=case.d,
        aggregator=case.aggregator,
        witness=case.witness,
    ))
    if "error" in report:
        raise SystemExit(f"{case.name}: {report['error']}")
    files = {}
    for name in ("db.facts", "query.dq"):
        with open(os.path.join(work_dir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    files["config.json"] = json.dumps(config, indent=2, sort_keys=True) + "\n"
    files["expected.json"] = canonical_json(report, drop_volatile=True)
    return code, report, files


def _fields(report: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            out.update(_fields(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _same_answers(old: object, new: object) -> bool:
    """Whether two witnesses list the same answers, in any slot order."""
    if not (isinstance(old, list) and isinstance(new, list)):
        return False
    return sorted(map(canonical_json, old)) == sorted(map(canonical_json, new))


def _changes(name: str, old: str | None, new: str) -> list[str]:
    """Lines `name ...: old -> new` for what differs between two versions."""
    if old == new:
        return []
    if old is None:
        return [f"{name}: missing -> {new!r}"]
    if name == "expected.json":
        before, after = _fields(json.loads(old)), _fields(json.loads(new))
        return [
            f"{name} {field}: {json.dumps(before.get(field))} -> {json.dumps(after.get(field))}"
            + (" (same answers, another slot order)"
               if field == "witness" and _same_answers(before.get(field), after.get(field))
               else "")
            for field in sorted(before.keys() | after.keys())
            if before.get(field) != after.get(field)
        ]
    before, after = old.splitlines(), new.splitlines()
    matcher = difflib.SequenceMatcher(a=before, b=after, autojunk=False)
    return [
        f"{name} line {i1 + 1}: {before[i1:i2]!r} -> {after[j1:j2]!r}"
        for op, i1, i2, j1, j2 in matcher.get_opcodes() if op != "equal"
    ]


def drift() -> list[str]:
    """Every difference between the committed corpus and a fresh build."""
    found = []
    for case in golden_cases():
        with tempfile.TemporaryDirectory() as work:
            _, _, files = render_case(case, work)
        for name, new in files.items():
            path = os.path.join(GOLDEN_DIR, case.name, name)
            old = None
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    old = fh.read()
            found += [f"{case.name}/{line}" for line in _changes(name, old, new)]
    return found


def regenerate() -> None:
    for case in golden_cases():
        case_dir = os.path.join(GOLDEN_DIR, case.name)
        os.makedirs(case_dir, exist_ok=True)
        with tempfile.TemporaryDirectory() as work:
            code, report, files = render_case(case, work)
        for name, text in files.items():
            with open(os.path.join(case_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"{case.name}: exit={code} decision={report['decision']} "
              f"diversity={report['diversity']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print drift and exit 1 if there is any")
    if not parser.parse_args(argv).check:
        regenerate()
        return 0
    changes = drift()
    for line in changes:
        print(line)
    print(f"{len(changes)} change(s) from the committed goldens" if changes
          else "goldens match their generator")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
