from pathlib import Path

import ramseykit


def test_star_import_resolves_every_exported_name():
    # A stale `__all__` entry passes `import ramseykit` and fails only here.
    namespace: dict = {}
    exec("from ramseykit import *", namespace)
    assert len(set(ramseykit.__all__)) == len(ramseykit.__all__)
    assert set(ramseykit.__all__) <= namespace.keys()


def test_console_script_entry_point():
    # A text match, since Python 3.10 has no tomllib.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'ramseykit = "ramseykit.cli:main"' in scripts.splitlines()
