import ast
import json
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "diverseq")
BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


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
    # outside its own definition; a deletion that leaves it without a
    # caller fails here.
    texts = {}
    for name in sorted(os.listdir(SRC_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_DIR, name), encoding="utf-8") as handle:
                texts[name] = handle.read().splitlines()
    with open(os.path.join(BENCH_DIR, "tracing.py"), encoding="utf-8") as handle:
        texts["bench/tracing.py"] = handle.read().splitlines()
    unreferenced = []
    for name in sorted(n for n in texts if not n.startswith("bench/")):
        tree = ast.parse("\n".join(texts[name]), filename=name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = range(node.lineno - 1, node.end_lineno)
            for private in bound:
                if not private.startswith("_") or private.startswith("__"):
                    continue
                word = re.compile(rf"\b{re.escape(private)}\b")
                if not any(word.search(line)
                           for other, lines in texts.items()
                           for i, line in enumerate(lines)
                           if other != name or i not in own):
                    unreferenced.append(f"{name}:{node.lineno}: {private}")
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


def fresh_python(code: str) -> list[str]:
    """Run `code` in a new interpreter that imports the package from src/;
    returns its stdout lines."""
    path = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


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

    def run(query: str) -> str:
        return ("from diverseq import cli\n"
                f"config = cli.RunConfig(db_path={str(tmp_path / 'db.facts')!r}, "
                f"query_path={str(tmp_path / query)!r}, k=2, d=1)\n"
                "print(cli.run(config)[1]['routing'])")

    assert loaded_after("from diverseq import cli") == ([], set())
    assert loaded_after(run("union.dq")) == (["fo-kernel"], {"kernel"})
    assert loaded_after(run("acyclic.dq")) == (["acq-sum"], {"acq"})
