"""The package namespace: every public name resolves lazily to its home module."""

import importlib
import subprocess
import sys

import pytest

import cheshire


def test_public_names_are_their_home_modules_objects():
    assert len(cheshire.__all__) == len(set(cheshire.__all__)) == 63
    for name in cheshire.__all__:
        obj = getattr(cheshire, name)
        assert obj.__module__.startswith("cheshire."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from cheshire import *", namespace)
    assert set(cheshire.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(cheshire, name) for name in cheshire.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cheshire.no_such_name  # noqa: B018
    assert getattr(cheshire, "no_such_name", None) is None


def test_import_loads_no_numpy_and_submodules_still_resolve():
    code = (
        "import sys, cheshire\n"
        "bare = 'numpy' in sys.modules\n"
        "from cheshire import hilbert\n"
        "print(bare, 'numpy' in sys.modules, hilbert.Ket is cheshire.Ket,\n"
        "      cheshire.scenarios.ScenarioId is cheshire.ScenarioId)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "True"]
