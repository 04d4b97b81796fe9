import ast
import os
import sys

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "diverseq")
BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


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
