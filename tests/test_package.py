import crossmap


def test_every_export_resolves():
    missing = [name for name in crossmap.__all__ if not hasattr(crossmap, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from crossmap import *", namespace)
    assert set(crossmap.__all__) <= set(namespace)
