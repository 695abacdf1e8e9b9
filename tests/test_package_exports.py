"""Public-API parity of the lazily re-exporting package ``__init__``s.

Every name in a package's ``__all__`` must resolve to the object its
defining module holds, both in a fresh interpreter and after every
submodule of ``repro`` has been imported first.  The second case pins
exports that share their name with a submodule (``repro.netlist.simulate``,
``repro.sg.compose``): importing such a submodule rebinds the package
attribute to the module unless the package binds the export eagerly.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.smoke

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: ``python -c CHECK cold|warm PACKAGE...`` prints the broken exports
CHECK = r"""
import importlib, json, pkgutil, sys, types


def defining_binding(package, name, value):
    if isinstance(value, (type, types.FunctionType)):
        return getattr(sys.modules[value.__module__], value.__name__, None)
    # data: some other loaded repro module binds the same object
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro.") and module is not package:
            if vars(module).get(name) is value:
                return value
    return None


def problems(package_name):
    package = importlib.import_module(package_name)
    listed = dir(package)
    star = {}
    exec(f"from {package_name} import *", star)
    for name in package.__all__:
        value = getattr(package, name)
        where = f"{package_name}.{name}"
        if isinstance(value, types.ModuleType):
            yield f"{where} is the module {value.__name__}"
        elif defining_binding(package, name, value) is not value:
            yield f"{where} is not the object its defining module holds"
        if name not in listed:
            yield f"{where} missing from dir()"
        if star.get(name) is not value:
            yield f"{where} not bound by import *"


mode, package_names = sys.argv[1], sys.argv[2:]
if mode == "warm":
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
print(json.dumps([line for name in package_names for line in problems(name)]))
"""


def _packages():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


def _run(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    ).stdout


@pytest.mark.parametrize("package", _packages())
def test_exports_resolve_in_a_fresh_interpreter(package):
    assert json.loads(_run("-c", CHECK, "cold", package)) == []


def test_exports_resolve_after_every_submodule_is_imported():
    assert json.loads(_run("-c", CHECK, "warm", *_packages())) == []


def test_documented_imports_keep_working():
    out = _run(
        "-c",
        "from repro import synthesize_from_stg, parse_g\n"
        "from repro.pipeline import AnalysisContext, Pipeline, PipelineSpec\n"
        "from repro.netlist import simulate\n"
        "from repro.sg import compose\n"
        "print(callable(simulate), callable(compose), Pipeline.__name__)",
    )
    assert out.split() == ["True", "True", "Pipeline"]
