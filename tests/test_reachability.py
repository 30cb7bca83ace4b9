"""Library code that only tests reach does not belong in src/, and only
errors.py reads files.

The scan reads src/moltr/*.py with ast. A definition counts as reached when
some module other than __init__ names it outside the definition's own body:
a module-level function or class by a Name in load context or an attribute
access, a method by an attribute access only, so a local variable or a
parameter of the same name (ndcg_at_k's primary_labels) does not reach it.
Imports and __init__'s exports do not count, since they only pass the name
on. Names are matched without their owner, so a method whose name is also
another attribute's (ParameterSet.copy beside ndarray.copy) counts as
reached and the scan cannot see it.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moltr"

# Reached only by perfbench/bench_layers.py TARGETS and the tests. They
# leave src/ once the benchmark traces train_runs (ROADMAP items 5 and 7).
BENCHMARK_ONLY = {
    "nn.backward",
    "nn.distill_loss",
    "distill.train_hard_only",
    "distill.train_scalarized_baseline",
    "evaluation.serve_with_boost",
    "evaluation.sxs_change_rate",
}


def definitions(tree):
    """(qualified name, name, node) of each module-level function or class
    and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def references(node, attributes_only: bool) -> Counter:
    """How often each name is read as an attribute under node, or, unless
    attributes_only, also loaded as a Name."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        or not attributes_only and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def parsed():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def unreached():
    trees = {module: tree for module, tree in parsed().items() if module != "__init__"}
    total = {method: sum((references(tree, method) for tree in trees.values()), Counter())
             for method in (False, True)}  # keyed by whether the definition is a method
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, name, node in definitions(tree)
            if not (total["." in qualname] - references(node, "." in qualname))[name]]


def test_src_holds_only_what_runs():
    # Equal, not a subset, so an allowance that stops being needed is dropped.
    assert set(unreached()) == BENCHMARK_ONLY


# Reading a file is errors.read_json's or errors.read_jsonl's job.
FILE_CALLS = {"open", "read_bytes", "read_text"}
DECODE_ERRORS = {"JSONDecodeError", "UnicodeDecodeError"}


def names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def file_readers():
    """The modules other than errors that open a file or catch a JSON or
    UTF-8 decoding error themselves."""
    return sorted(
        module for module, tree in parsed().items() if module != "errors" and any(
            isinstance(n, ast.Call) and names(n.func) & FILE_CALLS
            or isinstance(n, ast.ExceptHandler) and n.type and names(n.type) & DECODE_ERRORS
            for n in ast.walk(tree)
        )
    )


def test_only_errors_reads_files():
    assert file_readers() == []
