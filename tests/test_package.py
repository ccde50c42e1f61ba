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
