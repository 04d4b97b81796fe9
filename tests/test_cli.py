import json
import os
import time

import pytest

import diverseq
import make_goldens
from diverseq.cli import MODES, RunConfig, canonical_json, main, run
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


@pytest.mark.parametrize("db_rows, query_text, code", [
    ({"R": [(1,), (2,)]}, "Q(x) :- R(x), S(x).", "UnknownRelation"),
    # R(x, 3) matches no row, which must not hide the bad atom after it
    ({"R": [(1, 2)]}, "Q(x) :- R(x, 3), S(x).", "UnknownRelation"),
    ({"R": [(1, 2)]}, "Q(x) :- R(x).", "ArityMismatch"),
    ({"R": [(1, 2)], "S": [(1,)]}, "Q(x) :- R(x, 3), S(x, x).", "ArityMismatch"),
    ({}, "Q(x) :- R(x).", "UnknownRelation"),
])
def test_every_mode_refuses_an_ill_typed_instance_alike(tmp_path, db_rows, query_text, code):
    db_path, query_path = write_fixture(tmp_path, db_rows, query_text)
    for mode in MODES:
        status, report = run(base_config(db_path, query_path, mode=mode))
        assert (status, report.get("error", {}).get("code")) == (2, code), mode


@pytest.mark.parametrize("query_text, code", [
    ("Q(x) :- R(x, y), !S(x).", "UnknownRelation"),
    # R(x, 3) matches no row, so no binding reaches the negative literal
    ("Q(x) :- R(x, 3), !S(x).", "UnknownRelation"),
    ("Q(x) :- R(x, y), !R(x).", "ArityMismatch"),
    ("Q(x) :- R(x, 3), !R(x).", "ArityMismatch"),
])
def test_every_negation_mode_resolves_negative_literals_up_front(tmp_path, query_text, code):
    db_path, query_path = write_fixture(tmp_path, {"R": [(1, 2)]}, query_text)
    for mode in ("auto", "cqneg", "fo-kernel", "bruteforce"):
        status, report = run(base_config(db_path, query_path, k=1, d=0, mode=mode))
        assert (status, report.get("error", {}).get("code")) == (2, code), mode


def test_table_cap_guard_surfaces(tmp_path):
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(i,) for i in range(1, 9)]}, "Q(v) :- R(v)."
    )
    code, report = run(base_config(db_path, query_path, k=3, table_cap=4))
    assert code == 2 and report["error"]["code"] == "TableGuardExceeded"

    # cqneg refuses a six-variable bag above a one-variable leaf the same way.
    variables = [f"x{i}" for i in range(1, 7)]
    db_path, query_path = write_fixture(
        tmp_path, {"R": [(i,) for i in range(10)]},
        f"Q({', '.join(variables)}) :- " + ", ".join(f"R({v})" for v in variables) + ".",
    )
    td_path = tmp_path / "wide.td"
    td_path.write_text(f"node 0 bag {','.join(variables)}\nnode 1 bag x1\nedge 0 1\nroot 0\n")
    code, report = run(base_config(db_path, query_path, mode="cqneg", table_cap=1000,
                                   decomposition_path=str(td_path)))
    assert code == 2 and report["error"]["code"] == "TableGuardExceeded"


def test_large_k_is_refused_by_the_table_guard(tmp_path):
    # The guards count n^k slot tuples, or C(n + k - 1, k) without states,
    # and the C(k, 2) pairs of an entry, before building or printing any of
    # them: a k far past what a table can hold is refused at once. The k = 1
    # pass refuses a root whose C(n + k - 1, k) sorted k-tuples pass the cap
    # first, on either engine.
    fixtures = {}
    for rows in ([(1,)], [(1,), (2,)], [(v,) for v in range(5)]):
        (tmp_path / str(len(rows))).mkdir()
        fixtures[len(rows)] = write_fixture(tmp_path / str(len(rows)), {"R": rows},
                                            "Q(x) :- R(x).")
    cases = [
        (2, 20_000, "cqneg", False, "2 partial solutions, 2^20000 slot tuples"),
        (2, 20_000, "acq-sum", False, "2 partial solutions, 2^20000 slot tuples"),
        (2, 100_000_000, "cqneg", False, "sorted 100000000-tuples exceed 10000000 entries"),
        (2, 100_000_000, "acq", False, "sorted 100000000-tuples exceed 10000000 entries"),
        (2, 100_000_000, "acq-sum", True, "sorted 100000000-tuples exceed 10000000 entries"),
        (5, 100_000_000, "acq-sum", True, "sorted 100000000-tuples exceed 10000000 entries"),
        (1, 20_000, "acq-sum", False, "each entry's 20000 slots make 199990000 pairs"),
        (1, 20_000, "acq-sum", True, "each entry's 20000 slots make 199990000 pairs"),
        (1, 20_000, "cqneg", False, "each entry's 20000 slots make 199990000 pairs"),
    ]
    for rows, k, mode, duplicates, message in cases:
        code, report = run(base_config(*fixtures[rows], k=k, d=None, mode=mode,
                                       allow_duplicates=duplicates))
        assert code == 2 and report["error"]["code"] == "TableGuardExceeded", (k, mode)
        assert report["error"]["message"].endswith(message), (k, mode)


@pytest.mark.parametrize("mode", ["bruteforce", "fo-kernel"])
@pytest.mark.parametrize("k", [300, 20_000, 100_000_000])
def test_large_k_is_refused_by_the_search_budget(tmp_path, mode, k):
    # Each candidate set (bruteforce) or search node (fo-kernel) costs its
    # C(k, 2) pair distances against the budget, so a large k over two
    # answers is refused within the budget's worth of work, and a k whose
    # one set already costs more is refused before the search starts.
    db_path, query_path = write_fixture(tmp_path, {"R": [(1,), (2,)]}, "Q(x) :- R(x).")
    config = base_config(db_path, query_path, k=k, d=None, mode=mode,
                         allow_duplicates=True, output="json")
    start = time.perf_counter()
    code, report = run(config)
    assert time.perf_counter() - start < 2
    assert code == 2 and report["error"]["code"] == "CombinatorialBudgetExceeded"


def test_fo_kernel_join_past_the_budget_is_a_typed_refusal(tmp_path, capsys):
    # R and S pair each of 10 values with itself: the 4-cycle's join builds
    # 10 partial answers per step, 30 in all (the last R only filters), in
    # either body order; a budget of 29 refuses it with exit code 2.
    pairs = [(i, i) for i in range(10)]
    for body in ("R(x, y), S(z, w), S(y, z), R(w, x)", "R(x, y), S(y, z), S(z, w), R(w, x)"):
        db_path, query_path = write_fixture(tmp_path, {"R": pairs, "S": pairs},
                                            f"Q(x, y, z, w) :- {body}.")
        argv = ["--db", db_path, "--query", query_path, "--k", "2", "--d", "max",
                "--mode", "fo-kernel", "--output", "json"]
        assert main(argv + ["--budget", "29"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"code": "CombinatorialBudgetExceeded",
                         "message": "the answer join builds over 29 partial answers"}
        assert main(argv + ["--budget", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["diversity"] == 4


@pytest.mark.parametrize("body, rows_tried", [
    # R and S pair each of 10 values with itself. With S(z, w) second, every
    # (x, z) pair meets 10 rows of S(y, z): 10 + 100 + 1000 + 100 rows.
    ("R(x, y), S(z, w), S(y, z), R(w, x)", 1210),
    ("R(x, y), S(y, z), S(z, w), R(w, x)", 310),
])
def test_bruteforce_enumeration_past_the_budget_is_a_typed_refusal(tmp_path, capsys, body,
                                                                  rows_tried):
    # Each row the enumeration tries costs 1: one row short of the count is
    # refused with exit code 2, and the count answers as fo-kernel does.
    pairs = [(i, i) for i in range(10)]
    db_path, query_path = write_fixture(tmp_path, {"R": pairs, "S": pairs},
                                        f"Q(x, y, z, w) :- {body}.")
    argv = ["--db", db_path, "--query", query_path, "--k", "2", "--d", "max",
            "--witness", "--output", "json"]
    for budget in (9, rows_tried - 1):
        assert main(argv + ["--mode", "bruteforce", "--budget", str(budget)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == {
            "code": "CombinatorialBudgetExceeded",
            "message": f"the answer enumeration tries over {budget} rows"}
    assert main(argv + ["--mode", "bruteforce", "--budget", str(rows_tried)]) == 0
    brute = json.loads(capsys.readouterr().out)
    assert main(argv + ["--mode", "fo-kernel"]) == 0
    kernel = json.loads(capsys.readouterr().out)
    assert brute["diversity"] == kernel["diversity"] == 4
    assert brute["witness"] == kernel["witness"]


def test_repeated_head_variable_is_a_syntax_error(tmp_path, capsys):
    db_path, query_path = write_fixture(tmp_path, {"S": [(1,), (2,)]}, "Q(x) :- S(x).")
    with open(query_path, "w", encoding="utf-8") as handle:
        handle.write("Q(x, x) :- S(x).\n")
    argv = ["--db", db_path, "--query", query_path, "--k", "1", "--d", "0", "--output", "json"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "QuerySyntaxError", "message": "line 1, column 6: head term 'x' is repeated"}


def test_negative_guard_values_are_rejected(tmp_path, monkeypatch, capsys):
    db_path, query_path = write_fixture(tmp_path, {"R": [(1,), (2,)]}, "Q(v) :- R(v).")
    for field in ("table_cap", "budget"):
        with pytest.raises(ValueError, match="must be non-negative, got -1"):
            base_config(db_path, query_path, **{field: -1})
    argv = ["--db", db_path, "--query", query_path, "--k", "2", "--d", "1"]
    assert main(argv + ["--table-cap", "-5"]) == 2
    assert main(argv + ["--budget", "-1", "--mode", "bruteforce"]) == 2
    monkeypatch.setenv("DIVERSEQ_TABLE_CAP", "-5")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("must be non-negative") == 3


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


@pytest.mark.parametrize("mode, aggregator, duplicates, route", [
    ("auto", "sum", False, "acq-sum"),
    ("auto", "sum", True, "acq-sum"),
    ("auto", "min", False, "acq"),
    ("acq", "min", False, "acq"),
    ("acq-sum", "sum", False, "acq-sum"),
])
def test_an_acq_run_builds_one_join_tree(tmp_path, monkeypatch, mode, aggregator,
                                          duplicates, route):
    # The tree auto routing builds to choose acq is the one the solver
    # runs on; a run told its mode builds it in the solver. Either way one
    # GYO join tree per run, and the same answer.
    from diverseq import acq, cli

    calls = []

    def counted(original):
        def gyo(query):
            calls.append(query)
            return original(query)
        return gyo

    monkeypatch.setattr(cli, "gyo_join_tree", counted(cli.gyo_join_tree))
    monkeypatch.setattr(acq, "gyo_join_tree", counted(acq.gyo_join_tree))
    db_path, query_path = write_fixture(
        tmp_path, {"L": [(1,), (2,)], "E": [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]},
        "Q(x, y) :- L(y), E(x, y).")
    code, report = run(base_config(db_path, query_path, k=3, d=None, mode=mode,
                                   aggregator=aggregator, allow_duplicates=duplicates,
                                   witness=True))
    assert len(calls) == 1
    assert (code, report["routing"]) == (0, route)
    assert report["diversity"] == {"sum": 5, "min": 1}[aggregator]


@pytest.mark.parametrize("text", [
    "Q(x) :- R(x, y), S(x, 7).",
    "Q(x, y) :- R(x, y), !S(x, 7).",
    "Q(x, y) :- R(x, y), !S(y, 9).",
    "Q(x) :- R(x, 7).\nQ(x) :- S(x, 5).",
])
@pytest.mark.parametrize("mode", ["auto", "bruteforce"])
def test_a_constant_only_an_unnamed_relation_holds_changes_no_report(
        tmp_path, monkeypatch, text, mode):
    # 7 and 9 are values only of U, which no query names, so a run does not
    # intern them: a positive literal with one selects nothing and a
    # negated one holds, as when U's values are in the domain.
    from diverseq import cli, dbio

    db_path = tmp_path / "db.facts"
    db_path.write_text("U(7, 9).\nR(1, 2).\nR(2, 3).\nR(3, 3).\nS(1, 5).\nS(2, 6).\nU(9, 1).\n",
                       encoding="utf-8")
    query_path = tmp_path / "q.dq"
    query_path.write_text(text + "\n", encoding="utf-8")
    assert load_database(str(db_path), {"R", "S"}).value(7) is None
    config = base_config(str(db_path), str(query_path), k=2, d=None, mode=mode,
                         witness=True)
    names = []

    def load(path, relations=None):
        names.append(relations)
        return dbio.load_database(path, relations)

    monkeypatch.setattr(cli, "load_database", load)
    reports = [run(config)]
    assert names == [{"R", "S"}]
    monkeypatch.setattr(cli, "load_database", lambda path, names=None: dbio.load_database(path))
    reports.append(run(config))
    (code, report), (full_code, full_report) = reports
    assert code == full_code
    assert canonical_json(report, drop_volatile=True) == \
        canonical_json(full_report, drop_volatile=True)


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
    td = tree_decompose(parse_query("Q(x, y) :- R(x, y), !S(x, y)."))
    td_path = tmp_path / "dec.txt"
    td_path.write_text(format_decomposition(td))
    code, report = run(base_config(
        db_path, query_path, d=2, aggregator="min",
        decomposition_path=str(td_path), mode="cqneg",
    ))
    assert code == 0 and report["decision"] == "yes"


def test_written_empty_bag_is_read_back(tmp_path, capsys):
    # A query without variables decomposes into one empty bag, which
    # format_decomposition writes as `node 0 bag`.
    text = "Q() :- R(1, 2), !S(3)."
    db_path, query_path = write_fixture(tmp_path, {"R": [(1, 2)], "S": [(4,)]}, text)
    td_path = tmp_path / "dec.txt"
    td_path.write_text(format_decomposition(tree_decompose(parse_query(text))))
    argv = ["--db", db_path, "--query", query_path, "--k", "1", "--d", "0",
            "--decomposition", str(td_path), "--output", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decision"] == "yes" and report["routing"] == "cqneg"


@pytest.mark.parametrize("text, code", [
    ("node 0 bag x,y\nroot 5\n", "QuerySyntaxError"),  # the root is no node
    ("root 0\n", "QuerySyntaxError"),  # no node at all
    ("node 0 bag x,y,w\nroot 0\n", "ValueError"),  # w is not in the query
    # edges that close a cycle: refused, not cut to a spanning tree
    ("node 0 bag x,y\nnode 1 bag x\nnode 2 bag y\nroot 0\n"
     "edge 0 1\nedge 1 2\nedge 2 0\n", "QuerySyntaxError"),
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


@pytest.mark.parametrize("mode, text, code", [
    ("auto", None, "FileNotFoundError"),  # no file there
    ("auto", "garbage\n", "QuerySyntaxError"),
    ("auto", "valid", "ValueError"),  # a positive acyclic query: acq-sum
    ("acq", "valid", "ValueError"),
])
def test_decomposition_is_refused_off_the_cqneg_route(tmp_path, mode, text, code):
    # The file is read and parsed whenever it is given, and a route that
    # would ignore it is an error, not a silent "yes".
    db_path, query_path = write_fixture(tmp_path, {"R": [(1, 2), (2, 3)]}, "Q(x) :- R(x, y).")
    route = "acq-sum" if mode == "auto" else mode
    td_path = tmp_path / "dec.txt"
    if text == "valid":
        text = format_decomposition(tree_decompose(parse_query("Q(x) :- R(x, y).")))
    if text is not None:
        td_path.write_text(text)
    exit_code, report = run(base_config(
        db_path, query_path, k=1, d=0, mode=mode, decomposition_path=str(td_path),
    ))
    assert exit_code == 2
    assert report["error"]["code"] == code
    if code == "ValueError":
        assert f"routes to {route}" in report["error"]["message"]
    exit_code, report = run(base_config(db_path, query_path, k=1, d=0, mode=mode))
    assert exit_code == 0 and report["routing"] == route


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


def test_golden_check_marks_a_witness_in_another_slot_order():
    def report(witness, max_table=6):
        return canonical_json({"decision": "yes", "diversity": 1,
                               "stats": {"k": 2, "max_table": max_table},
                               "witness": witness})

    old = report([{"x": 1, "y": 2}, {"x": 2, "y": 1}])
    moved = report([{"y": 1, "x": 2}, {"x": 1, "y": 2}], max_table=5)
    assert make_goldens._changes("expected.json", old, moved) == [
        "expected.json stats.max_table: 6 -> 5",
        'expected.json witness: [{"x": 1, "y": 2}, {"x": 2, "y": 1}] -> '
        '[{"x": 2, "y": 1}, {"x": 1, "y": 2}] (same answers, another slot order)',
    ]
    for other in ([{"x": 1, "y": 2}, {"x": 1, "y": 2}], [{"x": 1, "y": 2}], None):
        (line,) = make_goldens._changes("expected.json", old, report(other))
        assert line.startswith("expected.json witness: ") and "slot order" not in line
    assert make_goldens._changes("expected.json", old, old) == []


def test_every_export_resolves():
    missing = [name for name in diverseq.__all__ if not hasattr(diverseq, name)]
    assert missing == []
    assert len(set(diverseq.__all__)) == len(diverseq.__all__)
