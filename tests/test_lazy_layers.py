"""The package executes a library layer on its first use.

Importing `dynamo` registers every layer unexecuted; a one-shot CLI command
executes only the layers it calls, and `height`, `preper` and `orbit` never
import numpy.  An unexecuted layer is still a LazyLoader module object: its
type is not `types.ModuleType`, and reading any attribute would execute
it, so the checks read only the type.
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


_ONE_SHOT_COMMANDS = """
import io, sys
from dynamo.cli import run

m = sys.argv[1]
for argv in (["height", "--map", m, "--point", "2"],
             ["preper", "--map", m, "--point", "0"],
             ["orbit", "--map", m, "--point", "3"]):
    assert run(argv, out=io.StringIO()) == 0, argv
print("numpy" in sys.modules)
assert run(["periodic", "--map", m, "--period", "2"], out=io.StringIO()) == 0
print("numpy" in sys.modules)
"""


def test_one_shot_exact_commands_leave_numpy_unimported(tmp_path):
    # height, preper and orbit make only big-integer and Fraction steps;
    # the last line shows the check sees numpy once a command loads it
    basilica = tmp_path / "basilica.json"
    basilica.write_text('{"num": ["-1", "0", "1"]}')
    proc = run_python("-c", _ONE_SHOT_COMMANDS, str(basilica))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True"]


_SAMPLING_COMMANDS = """
import io, sys, types
import dynamo
from dynamo.cli import run

def executed():
    return " ".join(n for n in dynamo._LAYERS
                    if type(sys.modules["dynamo." + n]) is types.ModuleType)

m, diag = sys.argv[1:]
assert run(["sample-measure", "--map", m, "--samples", "5", "--depth", "3"],
           out=io.StringIO()) == 0
print(executed())
assert run(["compare-measures", "--hyp", diag, "--map", m, m, "--samples", "20",
            "--depth", "3"], out=io.StringIO()) == 0
print(executed())
"""


def test_sampling_commands_execute_the_sampling_layers_alone(tmp_path):
    # compare-measures executed harness and, through its imports, curves,
    # mpoly, exceptional and heights
    basilica = tmp_path / "basilica.json"
    basilica.write_text('{"num": ["-1", "0", "1"]}')
    diag = tmp_path / "diag.json"
    diag.write_text('{"n": 2, "multidegree": [1, 1], "terms": [{"exps": [1, 0], '
                    '"coeff": "1"}, {"exps": [0, 1], "coeff": "-1"}]}')
    proc = run_python("-c", _SAMPLING_COMMANDS, str(basilica), str(diag))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["errors modp projective roots measure",
                                        "errors modp projective roots hypersurface measure"]


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
