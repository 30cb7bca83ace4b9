"""Library code that only tests reach does not belong in src/, and only
errors.py reads files.

The scan reads src/moltr/*.py with ast. A definition (a module-level
function or class, or a non-dunder method) counts as reached when code
that runs anyway names it, or the body of a definition already reached
does, repeating until nothing new is reached. Code that runs anyway is
module-level code, class bodies, bases, keywords and decorators, dunder
methods, and the bodies of the BENCHMARK_ONLY definitions. A reached class
does not reach its methods' bodies; each method is reached on its own.
A module-level function or class is named by a Name in load context or an
attribute access, a method by an attribute access only, so a local
variable or a parameter of the same name (ndcg_at_k's primary_labels)
does not reach it. __init__, imports and __init__'s exports do not count,
since they only pass the name on. Names are matched without their owner,
so a method whose name is also another attribute's (ParameterSet.copy
beside ndarray.copy) counts as reached and the scan cannot see it.
"""

import ast
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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, name, node) of each module-level function or class
    and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def always_run(tree):
    """The nodes of tree that run whether or not any definition is reached:
    module-level code, and each class's bases, keywords, decorators and body
    less its non-dunder methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from node.bases + node.keywords + node.decorator_list
            yield from (item for item in node.body if not (
                isinstance(item, ast.FunctionDef) and not is_dunder(item.name)))
        elif not isinstance(node, ast.FunctionDef):
            yield node


def references(node, attributes_only: bool) -> set:
    """The names read as an attribute under node, or, unless
    attributes_only, also loaded as a Name."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        or not attributes_only and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def parsed():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def unreached():
    trees = {module: tree for module, tree in parsed().items() if module != "__init__"}
    defs = [(f"{module}.{qualname}", name, node) for module, tree in trees.items()
            for qualname, name, node in definitions(tree)]
    named = {False: set(), True: set()}  # keyed by whether only attributes count
    read = [node for tree in trees.values() for node in always_run(tree)]
    read += [node for qualname, _, node in defs if qualname in BENCHMARK_ONLY]
    reached = set()
    while read:
        for node in read:
            for attributes_only in named:
                named[attributes_only] |= references(node, attributes_only)
        new = [(qualname, node) for qualname, name, node in defs if qualname not in reached
               and name in named[qualname.count(".") > 1]]
        reached.update(qualname for qualname, _ in new)
        # A class's own code ran already; only a function brings a new body.
        read = [node for _, node in new if isinstance(node, ast.FunctionDef)]
    return [qualname for qualname, _, _ in defs if qualname not in reached]


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
