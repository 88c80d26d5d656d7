import subprocess
import sys

import pytest

import teleres
from teleres import criteria, linalg, oracle, states

MODULES = [linalg, states, criteria, oracle]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_of_a_module_is_the_same_object_in_teleres(module):
    assert [name for name in module.__all__ if not hasattr(teleres, name)] == []
    for name in module.__all__:
        assert getattr(teleres, name) is getattr(module, name), name


def test_each_public_name_is_declared_by_one_module_once():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))


def test_importing_teleres_leaves_the_cli_out():
    code = "import sys, teleres; print('teleres.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
