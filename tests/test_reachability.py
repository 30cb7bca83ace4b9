"""Library code that only tests reach does not belong in src/.

The scan reads src/moltr/*.py with ast. A definition counts as reached when
some module other than __init__ names it outside the definition's own body:
a Name in load context or an attribute access. Imports and __init__'s
exports do not count, since they only pass the name on.
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


def references(node) -> Counter:
    """How often each name is loaded, or read as an attribute, under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def unreached():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    total = sum(map(references, trees.values()), Counter())
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, name, node in definitions(tree)
            if not (total - references(node))[name]]


def test_src_holds_only_what_runs():
    # Equal, not a subset, so an allowance that stops being needed is dropped.
    assert set(unreached()) == BENCHMARK_ONLY
