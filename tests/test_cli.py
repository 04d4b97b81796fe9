import json
import os

import pytest

import diverseq
import make_goldens
from diverseq.cli import RunConfig, canonical_json, main, run
from diverseq.dbio import dump_database, dump_query, load_database
from diverseq.model import SUM, Database, diversity_of_set
from diverseq.queries import parse_query
from diverseq.structure import format_decomposition, tree_decompose
from golden_fixtures import golden_cases

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def write_fixture(tmp_path, db_rows, query_text):
    db = Database.from_rows(db_rows)
    db_path = tmp_path / "db.facts"
    query_path = tmp_path / "query.dq"
    dump_database(db, str(db_path))
    dump_query(parse_query(query_text), str(query_path))
    return str(db_path), str(query_path)


def base_config(db_path, query_path, **kw):
    defaults = dict(db_path=db_path, query_path=query_path, k=2, d=1,
                    aggregator="sum")
    defaults.update(kw)
    return RunConfig(**defaults)


def test_exit_codes(tmp_path):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(1,), (2,)], "R1": [(1, 0), (2, 0)]},
        "Q(v, x1) :- R(v), R1(v, x1).",
    )
    code, report = run(base_config(db_path, query_path, d=2))
    assert code == 1 and report["decision"] == "no"
    code, report = run(base_config(db_path, query_path, d=1))
    assert code == 0 and report["decision"] == "yes"
    code, report = run(base_config(db_path, "/nonexistent/query.dq"))
    assert code == 2 and "error" in report


def test_error_reports_are_machine_readable(tmp_path):
    db_path, query_path = write_fixture(
        tmp_path,
        {"R": [(1, 2)], "S": [(2, 1)], "T": [(1, 1)]},
        "Q(x, y, z) :- R(x, y), S(y, z), T(z, x).",
    )
    code, report = run(base_config(db_path, query_path, mode="acq"))
    assert code == 2
    assert report["error"]["code"] == "NotAcyclic"


def test_internal_error_exits_2(tmp_path, monkeypatch):
    from diverseq import acq

    db_path, query_path = write_fixture(
        tmp_path, {"R": [(1,), (2,)]}, "Q(v) :- R(v)."
    )

    def broken(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(acq, "solve_acq_sum", broken)
    code, report = run(base_config(db_path, query_path))
    assert code == 2
    error = report["error"]
    assert error["code"] == "InternalError"
    assert error["message"] == "RecursionError: maximum recursion depth exceeded"
    assert "in broken" in error["traceback"]


def test_table_cap_guard_surfaces(tmp_path):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(i,) for i in range(1, 9)]}, "Q(v) :- R(v)."
    )
    code, report = run(base_config(db_path, query_path, k=3, table_cap=4))
    assert code == 2 and report["error"]["code"] == "TableGuardExceeded"


def test_routing_auto(tmp_path):
    cases = [
        ({"R": [(1,), (2,)]}, "Q(v) :- R(v).", "sum", "acq-sum"),
        ({"R": [(1,), (2,)]}, "Q(v) :- R(v).", "min", "acq"),
        ({"R": [(1, 2)], "S": [(1,)]}, "Q(x) :- R(x, y), !S(x).", "sum", "cqneg"),
        ({"R": [(1,)], "S": [(2,)]}, "Q(x) :- R(x).\nQ(x) :- S(x).", "sum", "fo-kernel"),
        (
            {"R": [(1, 2)], "S": [(2, 1)], "T": [(1, 1)]},
            "Q(x, y, z) :- R(x, y), S(y, z), T(z, x).",
            "sum",
            "fo-kernel",
        ),
    ]
    for rows, text, aggregator, expected in cases:
        db_path, query_path = write_fixture(tmp_path, rows, text)
        _, report = run(base_config(db_path, query_path, d=0,
                                    aggregator=aggregator))
        assert report["routing"] == expected
        for item in (db_path, query_path):
            os.unlink(item)


def test_max_mode_reports_maximum(tmp_path):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(1,), (2,), (3,)]}, "Q(v) :- R(v)."
    )
    code, report = run(base_config(db_path, query_path, d=None, k=2))
    assert code == 0 and report["diversity"] == 1


def test_min_single_answer_serializes_null(tmp_path):
    db_path, query_path = write_fixture(tmp_path, {"R": [(1,)]}, "Q(v) :- R(v).")
    code, report = run(base_config(db_path, query_path, k=1, d=0,
                                   aggregator="min"))
    assert code == 0
    assert report["decision"] == "yes" and report["diversity"] is None


def test_witness_json_reverifies(tmp_path):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(1, 5), (2, 6), (3, 7)]}, "Q(x, y) :- R(x, y)."
    )
    code, report = run(base_config(db_path, query_path, d=2, witness=True))
    assert code == 0 and report["witness"] is not None
    db = load_database(db_path)
    from diverseq.model import Assignment

    answers = [
        Assignment({k: db.value(v) for k, v in item.items()})
        for item in report["witness"]
    ]
    assert diversity_of_set(SUM, answers, ("x", "y")) == report["diversity"]


def test_decomposition_flag(tmp_path):
    db_path, query_path = write_fixture(
        tmp_path,
        {"R": [(1, 1), (1, 2), (2, 1), (2, 2)], "S": [(1, 1)]},
        "Q(x, y) :- R(x, y), !S(x, y).",
    )
    td = tree_decompose(parse_query("Q(x, y) :- R(x, y), !S(x, y)."), "exact")
    td_path = tmp_path / "dec.txt"
    td_path.write_text(format_decomposition(td))
    code, report = run(base_config(
        db_path, query_path, d=2, aggregator="min",
        decomposition_path=str(td_path), mode="cqneg",
    ))
    assert code == 0 and report["decision"] == "yes"


@pytest.mark.parametrize("text, code", [
    ("node 0 bag x,y\nroot 5\n", "QuerySyntaxError"),  # the root is no node
    ("root 0\n", "QuerySyntaxError"),  # no node at all
    ("node 0 bag x,y,w\nroot 0\n", "ValueError"),  # w is not in the query
])
def test_bad_decomposition_file_is_a_typed_error(tmp_path, text, code):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(1, 1), (1, 2)], "S": [(1,)]}, "Q(x, y) :- R(x, y), !S(x).",
    )
    td_path = tmp_path / "dec.txt"
    td_path.write_text(text)
    exit_code, report = run(base_config(
        db_path, query_path, decomposition_path=str(td_path), mode="cqneg",
    ))
    assert exit_code == 2
    assert report["error"]["code"] == code
    assert "traceback" not in report["error"]


def test_csv_directory_matches_fact_file(tmp_path):
    rows = {"R": [(1,), (2,)], "R1": [(1, 0), (2, 0)]}
    db_path, query_path = write_fixture(
        tmp_path, rows, "Q(v, x1) :- R(v), R1(v, x1)."
    )
    csv_dir = tmp_path / "csvdb"
    csv_dir.mkdir()
    (csv_dir / "R.csv").write_text("1\n2\n")
    (csv_dir / "R1.csv").write_text("1,0\n2,0\n")
    assert load_database(str(csv_dir)) == load_database(db_path)
    _, from_facts = run(base_config(db_path, query_path, d=1))
    _, from_csv = run(base_config(str(csv_dir), query_path, d=1))
    assert from_facts["decision"] == from_csv["decision"]
    assert from_facts["diversity"] == from_csv["diversity"]


def test_cli_entrypoint_and_env_cap(tmp_path, monkeypatch, capsys):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(1,), (2,)]}, "Q(v) :- R(v)."
    )
    argv = ["--db", db_path, "--query", query_path, "--k", "2", "--d", "1",
            "--output", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decision"] == "yes"

    monkeypatch.setenv("DIVERSEQ_TABLE_CAP", "1")
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["code"] == "TableGuardExceeded"

    # A cap that is no integer is refused like a bad --d, not with a traceback.
    monkeypatch.setenv("DIVERSEQ_TABLE_CAP", "abc")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DIVERSEQ_TABLE_CAP" in captured.err and "'abc'" in captured.err


def test_d_max_via_argv(tmp_path, capsys):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(1,), (2,)]}, "Q(v) :- R(v)."
    )
    argv = ["--db", db_path, "--query", query_path, "--k", "2", "--d", "max",
            "--output", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["diversity"] == 1


def test_bad_k_rejected(tmp_path, capsys):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(1,)]}, "Q(v) :- R(v)."
    )
    argv = ["--db", db_path, "--query", query_path, "--k", "0", "--d", "1"]
    assert main(argv) == 2


def test_golden_corpus_bit_exact():
    for case in golden_cases():
        case_dir = os.path.join(GOLDEN_DIR, case.name)
        code, report = run(RunConfig(
            db_path=os.path.join(case_dir, "db.facts"),
            query_path=os.path.join(case_dir, "query.dq"),
            k=case.k, d=case.d, aggregator=case.aggregator,
            witness=case.witness,
        ))
        with open(os.path.join(case_dir, "expected.json"), encoding="utf-8") as fh:
            expected = fh.read()
        assert canonical_json(report, drop_volatile=True) == expected, case.name


def test_golden_files_match_their_generator():
    # db.facts, query.dq and config.json as well as expected.json
    assert make_goldens.drift() == []


def test_every_export_resolves():
    missing = [name for name in diverseq.__all__ if not hasattr(diverseq, name)]
    assert missing == []
    assert len(set(diverseq.__all__)) == len(diverseq.__all__)
