"""Every function, class and exported name in fdrelay has a caller outside the tests.

A definition counts as used when code in ``src/fdrelay`` reads it outside
its own definition (an import alone does not count), or when a benchmark
script under ``bench/`` does: as an attribute, as a name imported from
fdrelay, or as a string, the way the tracer binds functions by name.  The
benchmark scripts are only read.

A name in ``fdrelay.__all__`` must be read outside the module that defines
it, or by ``bench/``, or be the return type of an exported function: the
package exports what the CLI and the engines call and the types they return.
Only the Monte Carlo leg, ``mcsim``, imports numpy.  Each numerical rule
has one owner: the overflow of a power, sigma_R^2 and machine epsilon.
"""

import ast
from pathlib import Path

import fdrelay

_ROOT = Path(__file__).resolve().parents[1]
_DEFS = (ast.FunctionDef, ast.ClassDef)

# src/fdrelay as module stem -> top-level statements; bench as one tree per script
SRC = {p.stem: ast.parse(p.read_text()).body
       for p in sorted((_ROOT / "src" / "fdrelay").glob("*.py"))}
BENCH = [ast.parse(p.read_text()) for p in sorted((_ROOT / "bench").glob("*.py"))]

# name -> module stem of its top-level function or class
HOME = {stmt.name: stem for stem, body in SRC.items() for stmt in body if isinstance(stmt, _DEFS)}


def _reads(node):
    """Every name a node reads, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


# (module, top-level definition or None, name) for each name read in src
SRC_READS = [(stem, stmt.name if isinstance(stmt, _DEFS) else None, name)
             for stem, body in SRC.items() for stmt in body
             if not isinstance(stmt, (ast.Import, ast.ImportFrom))
             for name in _reads(stmt)]


def _bench_reads():
    reads = set()
    for tree in BENCH:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fdrelay"):
                reads.update(alias.name for alias in node.names)
    return reads


BENCH_READS = _bench_reads()


def test_every_definition_has_a_caller():
    unused = [f"{stem}.{stmt.name}" for stem, body in SRC.items() for stmt in body
              if isinstance(stmt, _DEFS) and stmt.name not in BENCH_READS
              and not any(n == stmt.name and (m, owner) != (stem, stmt.name)
                           for m, owner, n in SRC_READS)]
    assert not unused, f"defined in src/fdrelay but used only by tests: {unused}"


def test_every_export_has_a_caller():
    returned = {name for stem, body in SRC.items() for stmt in body
                if isinstance(stmt, ast.FunctionDef) and stmt.name in fdrelay.__all__
                and stmt.returns is not None for name in _reads(stmt.returns)}
    unused = [name for name in fdrelay.__all__
              if name not in BENCH_READS and name not in returned
              and not any(n == name and m not in (HOME.get(name), "__init__")
                          for m, _, n in SRC_READS)]
    assert not unused, f"exported by fdrelay but used only by tests or its own module: {unused}"


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_only_mcsim_imports_numpy():
    # the analytic leg and the scenario run on floats alone; walked, not
    # imported, because importing fdrelay imports mcsim
    importers = {stem for stem, body in SRC.items() for stmt in body
                 for node in ast.walk(stmt) if _imports_numpy(node)}
    assert importers == {"mcsim"}


def _catches_overflow(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id == "OverflowError" for n in names)


def test_each_rule_has_one_owner():
    # a power past the double range is decided by fading._pow_or_inf alone,
    # sigma_R^2 is summed once and machine epsilon is defined once
    handlers = [f"{stem}.{stmt.name}" for stem, body in SRC.items() for stmt in body
                if isinstance(stmt, _DEFS) and stmt.name != "_pow_or_inf"
                for node in ast.walk(stmt) if isinstance(node, ast.Try)
                and any(_catches_overflow(h) for h in node.handlers)
                and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
                        for part in node.body for sub in ast.walk(part))]
    assert not handlers, f"OverflowError caught around a power outside _pow_or_inf: {handlers}"
    noise = {"noise_antenna_var", "noise_conversion_var"}
    sums = [stem for stem, body in SRC.items() for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and {getattr(node.left, "attr", None), getattr(node.right, "attr", None)} == noise]
    assert len(sums) == 1, f"sigma_R^2 formed in {sums}"
    eps = [stem for stem, body in SRC.items() for stmt in body if isinstance(stmt, ast.Assign)
           for target in stmt.targets if getattr(target, "id", None) == "EPS"]
    assert eps == ["quadrature"], f"EPS defined in {eps}"
