import ast
import json
import os
import re
import sys
import tokenize

from helpers import fresh_python

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "diverseq")
BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
# A word of text: what `\b` bounds in a regular expression.
WORD = re.compile(r"\w+")


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares `dependencies = []`: every absolute import in
    # the package must name a standard-library module. Relative imports stay
    # inside the package.
    stray = []
    for name in sorted(os.listdir(SRC_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC_DIR, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            stray.extend(
                f"{name}:{node.lineno}: {module}" for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names
            )
    assert stray == []


def test_package_has_no_unused_module_imports():
    # A module-level import must be used in the module or listed in its
    # `__all__`; a deletion that leaves one behind fails here.
    unused = []
    for name in sorted(os.listdir(SRC_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC_DIR, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        imported = {}  # bound name -> line
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{name}:{line}: {bound}" for bound, line in imported.items()
                      if bound not in used and bound not in exported)
    assert unused == []


def test_package_has_no_unreferenced_private_code():
    # A top-level function, class or name with one leading underscore is
    # private: nothing outside the package should need it. It must be named
    # somewhere in the package, or in the bench tracer that wraps it,
    # outside its own definition. A public top-level function or class must
    # be named, outside its own definition, by a package module other than
    # `__init__.py` (an export alone is no caller), by the benchmark, by a
    # demo or by the CI workflow: code that only tests call belongs in the
    # tests. A deletion that leaves code without a caller fails here.
    #
    # In Python code a name counts where it is an identifier token, so a
    # mention in a comment or a docstring is no caller. The tracer patches
    # attributes by name, so the words of its string constants count too;
    # the workflow is read as text.
    def names_of(path: str, strings: bool = False) -> list[tuple[int, str]]:
        """(line index, name) for each identifier token of a Python file,
        and for each word of its string constants when `strings`."""
        string_types = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
        with open(path, encoding="utf-8") as handle:
            tokens = list(tokenize.generate_tokens(handle.readline))
        found = []
        for token in tokens:
            if token.type == tokenize.NAME:
                found.append((token.start[0] - 1, token.string))
            elif strings and token.type in string_types:
                found.extend((token.start[0] - 1, word) for word in WORD.findall(token.string))
        return found

    def words_of(path: str) -> list[tuple[int, str]]:
        with open(path, encoding="utf-8") as handle:
            return [(i, word) for i, line in enumerate(handle) for word in WORD.findall(line)]

    package = {name: names_of(os.path.join(SRC_DIR, name))
               for name in sorted(os.listdir(SRC_DIR)) if name.endswith(".py")}
    tracer = names_of(os.path.join(BENCH_DIR, "tracing.py"), strings=True)
    private_users = {**package, "bench/tracing.py": tracer}
    public_users = {name: names for name, names in package.items() if name != "__init__.py"}
    for folder in ("bench", "demos"):
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            if name.endswith(".py"):
                public_users[f"{folder}/{name}"] = names_of(os.path.join(ROOT, folder, name))
    public_users["bench/tracing.py"] = tracer
    public_users["tier1.yml"] = words_of(os.path.join(ROOT, ".github", "workflows", "tier1.yml"))
    unreferenced = []
    for name in package:
        with open(os.path.join(SRC_DIR, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = range(node.lineno - 1, node.end_lineno)
            for defined in bound:
                if defined.startswith("__"):
                    continue
                if defined.startswith("_"):
                    users = private_users
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                else:
                    users = public_users
                if not any(word == defined
                           for other, names in users.items()
                           for i, word in names
                           if other != name or i not in own):
                    unreferenced.append(f"{name}:{node.lineno}: {defined}")
    assert unreferenced == []


def test_benchmark_tracer_finds_every_hook(monkeypatch):
    # The traced benchmark run (bench/tracing.py) wraps library functions by
    # name and raises MissingHook for a name the library no longer defines.
    # Installing it here catches a renamed hook in the test suite; uninstall
    # must put every original back.
    from diverseq import acq, cqneg, kernel

    monkeypatch.syspath_prepend(BENCH_DIR)
    from tracing import Tracer

    originals = (kernel.sols_atom, acq.dp_init, cqneg.BagSolver.leaf)
    tracer = Tracer()
    tracer.install()
    try:
        assert kernel.sols_atom is not originals[0]
    finally:
        tracer.uninstall()
    assert (kernel.sols_atom, acq.dp_init, cqneg.BagSolver.leaf) == originals


def test_traced_run_feeds_every_layer_metric(tmp_path, monkeypatch):
    # A traced benchmark run fails when a name the tracer wraps is gone
    # (MissingHook) or when a per-layer metric goes unfed although ops that
    # run its layer were answered ("metrics not produced"). Run one op per
    # variant of each workload class under the tracer, as the worker does,
    # and require every per-layer metric that BENCHMARK.json lists.
    from diverseq import cli

    monkeypatch.syspath_prepend(BENCH_DIR)
    import run as bench_run
    import worker
    import workloads
    from tracing import Tracer

    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        names = [metric["name"] for metric in json.load(handle)["per_layer"]]
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 1, str(tmp_path / workload), tiny=True)
        tracer, records = Tracer(), []
        for i, op in enumerate(ops):
            config = cli.RunConfig(db_path=op.db, query_path=op.query, k=op.k, d=op.d,
                                   aggregator=op.aggregator,
                                   allow_duplicates=op.allow_duplicates,
                                   witness=op.witness, output="json")
            result, record = tracer.run_op(i, lambda: cli.run(config))
            refusal = worker.check(workloads.op_json(op), *result, workloads.GUARD_CODES)
            # No untraced twin: the overhead metrics read 0, which is enough
            # to show they are produced.
            record.update(op=i, error=refusal, untraced_ms=record["ms"],
                          witness=op.witness and op.decision)
            records.append(record)
        metrics, _ = bench_run.per_layer({"records": records, "passes": 1})
        assert [name for name in names if name not in metrics] == [], workload


def test_tracer_labels_each_op_with_the_engine_that_ran(tmp_path, monkeypatch):
    # The tracer labels an op with the last solver entry point it wrapped,
    # so a solver that called another wrapped one would take its label.
    # Under the default budget auto answers these runs on the answer route.
    # A budget of 3 lets auto's first try join the three rows but stops
    # its search, which visits five nodes to find the one pair at distance
    # 2; the tracer has labelled that search, and the tree DP that then
    # answers takes the label.
    from diverseq import cli
    from diverseq.dbio import dump_database, dump_query
    from diverseq.errors import DEFAULT_BUDGET
    from diverseq.model import Database
    from diverseq.queries import parse_query

    monkeypatch.syspath_prepend(BENCH_DIR)
    from tracing import Tracer

    db_path = str(tmp_path / "db.facts")
    dump_database(Database.from_rows({"R": [(1, 2), (1, 4), (5, 2)], "S": [(9,)]}), db_path)
    paths = {}
    for name, text in (("plain", "Q(x, y) :- R(x, y)."), ("neg", "Q(x, y) :- R(x, y), !S(y).")):
        paths[name] = str(tmp_path / f"{name}.dq")
        dump_query(parse_query(text), paths[name])
    ops = [("plain", "min", False, 3, "acq"), ("plain", "sum", False, 3, "acq-sum"),
           ("plain", "sum", True, 3, "acq-sum-dup"), ("neg", "sum", False, 3, "cqneg"),
           ("plain", "sum", False, DEFAULT_BUDGET, "fo-kernel"),
           ("neg", "min", False, DEFAULT_BUDGET, "fo-kernel")]
    tracer = Tracer()
    for i, (query, aggregator, allow_duplicates, budget, engine) in enumerate(ops):
        config = cli.RunConfig(db_path=db_path, query_path=paths[query], k=2, d=1,
                               aggregator=aggregator, allow_duplicates=allow_duplicates,
                               witness=True, budget=budget)
        (code, report), record = tracer.run_op(i, lambda: cli.run(config))
        assert code == 0 and record["engine"] == engine, (engine, report, record["engine"])


def test_readme_library_snippet_runs_and_every_export_resolves():
    # The README's "Library" block, run as written in a new interpreter, so
    # the engine names it uses load on first use as they do for a user.
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
    lines = fresh_python(snippet + "import diverseq\n"
                         "print([n for n in diverseq.__all__ if not hasattr(diverseq, n)])\n")
    assert lines == ["True 1 ({v->1, x1->0}, {v->2, x1->0})", "[]"]


ENGINES = ("acq", "cqneg", "kernel", "oracle")


def loaded_after(code: str) -> tuple[list[str], set[str]]:
    """What `code` prints in a new interpreter, and the engine modules
    loaded when it is done."""
    lines = fresh_python(code + "\nimport sys\nprint(*sys.modules)\n")
    loaded = lines[-1].split()
    return lines[:-1], {name for name in ENGINES if f"diverseq.{name}" in loaded}


def test_cli_imports_only_the_engine_a_run_routes_to(tmp_path):
    (tmp_path / "db.facts").write_text("R(1).\nR(2).\nS(3).\n")
    (tmp_path / "union.dq").write_text("Q(x) :- R(x).\nQ(x) :- S(x).\n")
    (tmp_path / "acyclic.dq").write_text("Q(x) :- R(x).\n")

    def run(query: str, options: str = "") -> str:
        return ("from diverseq import cli\n"
                f"config = cli.RunConfig(db_path={str(tmp_path / 'db.facts')!r}, "
                f"query_path={str(tmp_path / query)!r}, k=2, d=1{options})\n"
                "print(cli.run(config)[1]['routing'])")

    assert loaded_after("from diverseq import cli") == ([], set())
    assert loaded_after(run("union.dq")) == (["fo-kernel"], {"kernel"})
    assert loaded_after(run("acyclic.dq", ", mode='acq-sum'")) == (["acq-sum"], {"acq"})
    # Auto tries the answer route first; under a budget of 1 its join runs
    # out, and the run goes on to acq.
    assert loaded_after(run("acyclic.dq")) == (["fo-kernel"], {"kernel"})
    assert loaded_after(run("acyclic.dq", ", budget=1")) == (["acq-sum"], {"acq", "kernel"})


def loaded_by(code: str) -> set[str]:
    """The modules `code` loads in a new interpreter, less those that
    were loaded before it ran (by `site`, for one)."""
    lines = fresh_python("import sys\nbefore = set(sys.modules)\n" + code +
                         "\nprint(*sorted(set(sys.modules) - before))\n")
    return set(lines[-1].split())


def test_cli_runs_load_neither_dataclasses_nor_csv(tmp_path):
    # Importing `dataclasses` costs its own imports (inspect, ast, dis,
    # tokenize, copy) and each decorated class an `exec` at every import;
    # `csv` is read only from CSV directories. The CLI module and a run on
    # any route load none of them, and a run on a CSV directory loads `csv`
    # when it reads one.
    (tmp_path / "db.facts").write_text("R(1).\nR(2).\nS(3).\n")
    (tmp_path / "csv").mkdir()
    (tmp_path / "csv" / "R.csv").write_text("1\n2\n")
    (tmp_path / "csv" / "S.csv").write_text("3\n")
    (tmp_path / "union.dq").write_text("Q(x) :- R(x).\nQ(x) :- S(x).\n")
    (tmp_path / "acyclic.dq").write_text("Q(x) :- R(x).\n")
    (tmp_path / "negation.dq").write_text("Q(x) :- R(x), !S(x).\n")
    (tmp_path / "negation.td").write_text("node 0 bag x\nroot 0\n")

    def run(db: str, query: str, routing: str = "fo-kernel", options: str = "") -> str:
        return ("from diverseq import cli\n"
                f"config = cli.RunConfig(db_path={str(tmp_path / db)!r}, "
                f"query_path={str(tmp_path / query)!r}, k=2, d=1, witness=True{options})\n"
                "code, report = cli.run(config)\n"
                f"assert (code, report['routing']) == (0, {routing!r}), report")

    td = str(tmp_path / "negation.td")
    routes = [
        ("union.dq", "fo-kernel", "", "kernel"),
        ("acyclic.dq", "fo-kernel", "", "kernel"),
        ("acyclic.dq", "acq", ", mode='acq'", "acq"),
        ("acyclic.dq", "acq-sum", ", mode='acq-sum', allow_duplicates=True", "acq"),
        ("negation.dq", "cqneg", ", mode='cqneg'", "cqneg"),
        ("negation.dq", "cqneg", f", mode='cqneg', decomposition_path={td!r}", "cqneg"),
        ("acyclic.dq", "bruteforce", ", mode='bruteforce'", "oracle"),
        # Auto's answer route runs out of budget, and the run goes on to acq.
        ("acyclic.dq", "acq-sum", ", budget=1", "acq"),
    ]
    slow = {"dataclasses", "inspect", "csv"}
    assert loaded_by("from diverseq import cli") & slow == set()
    for query, routing, options, engine in routes:
        loaded = loaded_by(run("db.facts", query, routing, options))
        assert f"diverseq.{engine}" in loaded and loaded & slow == set(), (routing, options)
    assert loaded_by(run("csv", "union.dq")) & slow == {"csv"}
