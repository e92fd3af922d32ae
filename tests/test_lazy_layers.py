"""The package executes a library layer on its first use.

Importing `dynamo` registers every layer unexecuted; a one-shot CLI command
executes only the layers it calls.  An unexecuted layer is still a
LazyLoader module object: its type is not `types.ModuleType`, and reading
any attribute would execute it, so the checks read only the type.
"""

import importlib
import inspect

import pytest

import dynamo
from conftest import run_python

# What the exact commands never call: elimination, sampling and the harness
UNCALLED = ("curves", "harness", "hypersurface", "mpoly", "measure")

_EXACT_COMMANDS = """
import io, sys, types
from dynamo.cli import run

def executed():
    return " ".join(n for n in sys.argv[2:]
                    if type(sys.modules["dynamo." + n]) is types.ModuleType)

m = sys.argv[1]
for argv in (["height", "--map", m, "--point", "2"],
             ["preper", "--map", m, "--point", "0"],
             ["orbit", "--map", m, "--point", "3"],
             ["periodic", "--map", m, "--period", "3"],
             ["classify", "--map", m]):
    assert run(argv, out=io.StringIO()) == 0, argv
print(executed())
assert run(["sample-measure", "--map", m, "--samples", "5", "--depth", "3"],
           out=io.StringIO()) == 0
print(executed())
"""


def test_exact_commands_leave_the_other_layers_unexecuted(tmp_path):
    basilica = tmp_path / "basilica.json"
    basilica.write_text('{"num": ["-1", "0", "1"]}')
    proc = run_python("-c", _EXACT_COMMANDS, str(basilica), *UNCALLED)
    assert proc.returncode == 0, proc.stderr
    # the last line shows the check sees a layer that did execute
    assert proc.stdout.splitlines() == ["", "measure"]


def test_exported_names_are_the_defining_layers_objects():
    assert sorted(dynamo.__all__) == sorted(dynamo._HOME)
    for name in dynamo.__all__:
        layer = importlib.import_module(f"dynamo.{dynamo._HOME[name]}")
        obj = getattr(dynamo, name)
        assert obj is getattr(layer, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == layer.__name__, name
    assert {*dynamo.__all__, *dynamo._LAYERS} <= set(dir(dynamo))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="^module 'dynamo' has no attribute 'nope'$"):
        dynamo.nope
    assert not hasattr(dynamo, "_fiber")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from dynamo import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(dynamo.__all__)
