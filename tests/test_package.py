"""The package's export list, no definition the package never names, and no
assert statement."""

import ast
from collections import Counter
from pathlib import Path

import ringcent


def test_every_export_is_defined_once_and_star_imports():
    missing = [name for name in ringcent.__all__ if not hasattr(ringcent, name)]
    assert missing == []
    repeated = [name for name, k in Counter(ringcent.__all__).items() if k > 1]
    assert repeated == []
    namespace = {}
    exec("from ringcent import *", namespace)
    assert set(ringcent.__all__) <= set(namespace)


def test_every_module_level_definition_is_named_in_the_package():
    # a helper or constant no code of the package names is dead weight;
    # tests and the benchmark do not count as callers, nor does the target
    # of an assignment, and dunders such as __all__ are exempt
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(ringcent.__file__).parent.glob("*.py"))]
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    defined = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined += [t.id for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name)]
    defined = [name for name in defined
               if not (name.startswith("__") and name.endswith("__"))]
    assert [name for name in defined if name not in named] == []


def test_no_module_has_an_assert_statement():
    # python -O strips asserts, so a self-check raises a RingError instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ringcent.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
