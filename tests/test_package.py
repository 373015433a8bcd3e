import mlc


def test_all_names_resolve():
    missing = [name for name in mlc.__all__ if not hasattr(mlc, name)]
    assert missing == []
    assert len(set(mlc.__all__)) == len(mlc.__all__)


def test_star_import_is_clean():
    namespace = {}
    exec("from mlc import *", namespace)
    assert set(mlc.__all__) <= namespace.keys()
