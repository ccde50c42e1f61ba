import ast
import re
from pathlib import Path

import pytest

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


SRC = Path(crossmap.__file__).resolve().parent


def _name(node: ast.AST):
    return getattr(node, "id", getattr(node, "attr", None))


def _budget_raises(tree: ast.AST) -> list:
    """The ``raise OutOfBudget(...)`` statements under ``tree``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and _name(node.exc.func) == "OutOfBudget"
    ]


def _comparisons_of(constant: str):
    """A selector of the comparisons that read ``constant``."""
    return lambda tree: [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(_name(leaf) == constant for leaf in ast.walk(node))
    ]


def _assert_only_inside(select, places) -> None:
    """Every node ``select`` finds in the package lies in one of ``places``,
    (module, function) pairs, and each of them holds at least one."""
    everywhere = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in select(ast.parse(path.read_text(encoding="utf-8")))
    ]
    inside = []
    for module, name in places:
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        function = next(
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
        )
        found = [(module, node.lineno) for node in select(function)]
        assert found, f"{module}:{name} holds none"
        inside += found
    assert sorted(everywhere) == sorted(inside)


def test_every_budget_error_is_raised_by_check_budget():
    # One function decides how much work a counting run may start, and one
    # how much memory the bell-check bitmap may take; a second statement of
    # either check would drift from it.
    _assert_only_inside(
        _budget_raises, [("counting.py", "_check_budget"), ("counting.py", "_check_bitmap")]
    )


@pytest.mark.parametrize(
    "constant, place",
    [("MAX_N", ("partition.py", "_check_n")), ("ORACLE_MAX_ARCS", ("crossings.py", "_oracle"))],
)
def test_each_cap_is_compared_in_one_place(constant, place):
    # Objects, enumeration, the image of the bijection and every counting
    # run share one ground-set check; both oracles share one arc limit.
    _assert_only_inside(_comparisons_of(constant), [place])


def _calls_of(function: str):
    """A selector of the calls of ``function``."""
    return lambda tree: [
        node for node in ast.walk(tree) if isinstance(node, ast.Call) and _name(node.func) == function
    ]


def test_enumeration_route_has_one_entry():
    # count --parts N > 1, count_table (so oeis-check) and the reference
    # script count through the one cached function; a second entry would
    # enumerate the same (k, n, family) twice and drift from it.
    _assert_only_inside(_calls_of("_find_crossing"), [("counting.py", "_count_cached")])


def test_bell_check_bitmap_lives_in_counting():
    # The bitmap's layout (the word index's radix, the 16-bit word and the
    # rule that a block {b, n} counts b as absent) is one decision: the
    # weights, both searches and the allocation sit next to their one
    # caller, verify_eigensequence, and no other module knows them.
    names = ("_weights", "_reverse_keys", "_partial_keys")
    defined = sorted(
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in names
    )
    assert defined == sorted(("counting.py", name) for name in names)
    _assert_only_inside(
        _calls_of("_weights"), [("counting.py", "_reverse_keys"), ("counting.py", "_partial_keys")]
    )
    _assert_only_inside(_calls_of("cast"), [("counting.py", "verify_eigensequence")])


def _unchecked_builds(tree: ast.AST) -> list:
    """The ``object.__new__(PartialPartition)`` calls under ``tree``."""
    return [
        node
        for node in _calls_of("__new__")(tree)
        if _name(node.func.value) == "object"
        and [_name(arg) for arg in node.args] == ["PartialPartition"]
    ]


def test_only_three_builders_skip_the_label_check():
    # One function turns links into restricted-growth labels and builds the
    # partition unchecked; from_blocks, forward and reverse check their own
    # input and write links.  Every other partition goes through the
    # validating constructor.
    _assert_only_inside(_unchecked_builds, [("partition.py", "_labelled")])
    _assert_only_inside(
        _calls_of("_labelled"),
        [("partition.py", "from_blocks"), ("bijection.py", "forward"), ("bijection.py", "reverse")],
    )


VALUE_METHODS = ("__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__", "__delattr__")


def test_value_methods_live_only_on_the_record_base():
    # PartialPartition and ArcSet take their value semantics from one base;
    # a class that wrote its own copy would drift from it.
    defined = sorted(
        (name, path.name, cls.name)
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        for name in [node.name]
        if name in VALUE_METHODS
    )
    assert defined == sorted((name, "partition.py", "_Record") for name in VALUE_METHODS)


def _strings_with(text: str):
    """A selector of the string literals, docstrings aside, that contain ``text``."""

    def select(tree):
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and text in node.value
            and id(node) not in docstrings
        ]

    return select


@pytest.mark.parametrize(
    "text, place",
    [
        ("unknown arc mode", ("arcs.py", "_strict")),
        ("n must be >= 0", ("counting.py", "bell")),
        (".txt", ("oeis.py", "_bfile_name")),
        ("#2b6cb0", ("diagram.py", "render_overlay")),
        ("#000000", ("diagram.py", "render_overlay")),
    ],
    ids=["arc-modes", "bell-range", "bfile-name", "source-colour", "image-colour"],
)
def test_each_rule_has_one_home(text, place):
    # The two arc modes, Bell's range, the b-file name that the data files,
    # the cache and the OEIS URL share, and the overlay's default colours
    # are each written once; a second copy would have to be kept in step
    # with it by hand.
    _assert_only_inside(_strings_with(text), [place])


def test_cli_names_no_library_default():
    # The budget and the arc modes are defaults of the functions the
    # commands call: an option the user did not give is not passed at all.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    named = [
        (node.lineno, name)
        for node in ast.walk(tree)
        for name in [getattr(node, "name", None) or _name(node)]
        if name in ("DEFAULT_BUDGET", "CLASSICAL", "ENHANCED")
    ]
    assert named == []
