import ramseykit


def test_star_import_resolves_every_exported_name():
    # A stale `__all__` entry passes `import ramseykit` and fails only here.
    namespace: dict = {}
    exec("from ramseykit import *", namespace)
    assert len(set(ramseykit.__all__)) == len(ramseykit.__all__)
    assert set(ramseykit.__all__) <= namespace.keys()
