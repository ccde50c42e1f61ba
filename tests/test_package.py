import ast
import re
from pathlib import Path

import crossmap


def test_every_export_resolves():
    missing = [name for name in crossmap.__all__ if not hasattr(crossmap, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from crossmap import *", namespace)
    assert set(crossmap.__all__) <= set(namespace)


def test_readme_python_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})


def _budget_raises(tree: ast.AST) -> list:
    """The ``raise OutOfBudget(...)`` statements under ``tree``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", getattr(node.exc.func, "attr", None)) == "OutOfBudget"
    ]


def test_every_budget_error_is_raised_by_check_budget():
    # One function decides which counting runs may start; a second
    # statement of the budget check would drift from it.
    src = Path(crossmap.__file__).resolve().parent
    everywhere = [
        (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in _budget_raises(ast.parse(path.read_text(encoding="utf-8")))
    ]
    counting = ast.parse((src / "counting.py").read_text(encoding="utf-8"))
    check = next(
        node
        for node in counting.body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_budget"
    )
    inside = [("counting.py", node.lineno) for node in _budget_raises(check)]
    assert inside and everywhere == inside


VALUE_METHODS = ("__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__", "__delattr__")


def test_value_methods_live_only_on_the_record_base():
    # PartialPartition and ArcSet take their value semantics from one base;
    # a class that wrote its own copy would drift from it.
    src = Path(crossmap.__file__).resolve().parent
    defined = sorted(
        (name, path.name, cls.name)
        for path in sorted(src.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        for name in [node.name]
        if name in VALUE_METHODS
    )
    assert defined == sorted((name, "partition.py", "_Record") for name in VALUE_METHODS)
