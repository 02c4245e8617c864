"""Least code, enforced: every def in src/qcheb is reached by a fixed set of
commands, or is on a short allowlist with the reason it is not.

The commands run in one fresh interpreter under sys.setprofile, installed
before qcheb is imported, so import-time code (the sequences' inner
functions) counts as reached.  The defs are found by code
object, from the modules' functions and class members (decorators unwrapped)
and the defs nested in them, so a decorated def is matched by its own code
and not by a line number.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from qcheb import families

ALLOWLIST = {
    "qkernel._poch_pole": "error path: a pole of (a;q)_n, n < 0",
    "qkernel.ParamPoint.__setattr__": "error path: a ParamPoint is immutable",
    "qkernel.ParamPoint.__repr__": "dunder: shown in tests and tracebacks",
    "analysis.SeriesContext.__repr__": "dunder: the parametrized test id",
    "polyring.Mat2.__eq__": "dunder: compares transfer matrices in tests",
    "polyring.Mat2.__repr__": "dunder: shown in tests and tracebacks",
    "polyring.XsPoly.terms": "read by perfbench/tracer.py",
}

FORMATS = ("text", "csv", "json")
MOMENT_FAMILIES = ("GEN_FIB", "GEN_LUCAS", "CARLITZ", "CLASSICAL")
COMMANDS = [
    (["verify", "--suite", "all", "--format", "json"], 0),
    (["verify", "--suite", "all", "--q", "1", "--format", "csv"], 0),
    (["verify", "--suite", "all", "--q=-1"], 0),
    (["verify", "--suite", "extended", "--max-n", "8"], 0),
    *((["gen", "--family", f.value, "--n", "5", "--q", "3/5", "--b", "3/7", "--format", fmt], 0)
      for f in families.FamilyId for fmt in FORMATS),
    *((["moments", "--family", f, "--n", "5", "--q", "2"], 0) for f in MOMENT_FAMILIES),
    (["moments", "--family", "GEN_FIB", "--n", "5", "--q", "2", "--format", "json"], 0),
    (["catalan", "--n", "6", "--q", "1/2"], 0),
    (["gen", "--family", "F_QB", "--n", "9", "--q", "2", "--b", "1/256"], 2),  # a pole
    (["gen", "--family", "T", "--n", "3", "--q", "1/0"], 2),  # not a rational
    # past the int-to-str digit limit: gen's digit check reduces by _lowest_terms
    (["gen", "--family", "T", "--n", "12", "--q=1/1" + "0" * 70], 2),
]

TRACER = r"""
import sys

reached = set()


def note(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


sys.setprofile(note)

import importlib, inspect, io, json, os, pkgutil, types

import qcheb
from qcheb import cli

codes = []
stderr, sys.stderr = sys.stderr, io.StringIO()
for argv in json.loads(sys.argv[1]):
    codes.append(cli.main(argv, out=io.StringIO()))
sys.stderr = stderr
sys.setprofile(None)

root = os.path.dirname(qcheb.__file__)
names = {}  # code object -> module-qualified name of its def


def add_code(code, name):
    if code.co_filename.startswith(root) and code not in names:
        names[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                add_code(const, f"{name}.<locals>.{const.co_name}")


def add(obj):
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        for f in (obj.fget, obj.fset, obj.fdel):
            if f:
                add(f)
        return
    obj = inspect.unwrap(obj) if callable(obj) else obj
    if isinstance(obj, types.FunctionType):
        mod = obj.__module__.rpartition(".")[2]
        add_code(obj.__code__, f"{mod}.{obj.__qualname__}")


modules = [qcheb, *(importlib.import_module(f"qcheb.{m.name}")
                    for m in pkgutil.iter_modules(qcheb.__path__))]
for module in modules:
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                add(member)
        else:
            add(obj)
print(json.dumps({
    "codes": codes,
    "defs": sorted(names.values()),
    "unreached": sorted(name for code, name in names.items() if code not in reached),
}))
"""


def test_every_def_is_reached_by_a_command_or_allowlisted():
    env = dict(os.environ, PYTHONPATH=str(Path(families.__file__).parents[1]))
    argvs = json.dumps([argv for argv, _ in COMMANDS])
    result = subprocess.run([sys.executable, "-c", TRACER, argvs], env=env,
                            capture_output=True, text=True, check=True, timeout=300)
    run = json.loads(result.stdout)
    assert run["codes"] == [code for _, code in COMMANDS]
    # it finds every def of the source, nested ones, methods and decorated ones too
    source = [ast.parse(path.read_text()) for path in Path(families.__file__).parent.glob("*.py")]
    assert len(run["defs"]) == sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for tree in source for node in ast.walk(tree)
    )
    assert {"qkernel.sequence.<locals>.fn", "qkernel.sequence.<locals>.members",
            "polyring.XsPoly._of", "qkernel.memo_scope"} <= set(run["defs"])
    assert set(ALLOWLIST) <= set(run["defs"]), "an allowlist entry names no def"
    unexpected = sorted(set(run["unreached"]) - set(ALLOWLIST))
    assert not unexpected, f"no command reaches these defs: {unexpected}"
