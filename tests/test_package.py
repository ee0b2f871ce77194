"""The package's top level republishes each library module's ``__all__``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import eqshares
from eqshares import axioms, model, pabulib, rules, stats, synth

LIBRARY_MODULES = (axioms, model, pabulib, rules, stats, synth)


def test_every_module_name_is_republished_as_the_same_object():
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(eqshares, name) is getattr(module, name), name


def test_all_is_exactly_the_module_names_without_duplicates():
    names = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert len(eqshares.__all__) == len(set(eqshares.__all__))
    assert sorted(eqshares.__all__) == sorted(names)


def test_wildcard_import_runs():
    namespace: dict[str, object] = {}
    exec("from eqshares import *", namespace)
    assert set(eqshares.__all__) <= namespace.keys()


def test_import_does_not_load_the_cli():
    src = str(Path(eqshares.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, eqshares; print('eqshares.cli' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True, timeout=120)
    assert result.stdout.strip() == "False"
