import ast
import json
import os
import sys

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
