"""The benchmark tracer's contract with the package, and no test-only public code.

``bench/tracing.py`` wraps only plain functions that are defined in their
module and listed in its ``__all__``, and ``bench/jobs.py`` ``REACHED``
names the functions every traced round must call.  A refactor that turns
one of those names into an alias, a ``functools.partial`` or a private
helper would otherwise pass these tests and fail only under
``bench/run.py --trace 1``.  So would a refactor that stops calling one:
each name must still be loaded somewhere in the package outside its own def.

The same holds for every function in a layer module's ``__all__``: a public
function that no package code calls or passes is code kept for the tests
alone, and belongs in ``tests/`` or nowhere.  ``UNCALLED`` names the only
exceptions, each with its reason.  So does each parameter with a default:
one that no package call passes is an option only the tests set, and
``UNPASSED`` names the only exceptions.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOBS = ROOT / "bench" / "jobs.py"
PACKAGE = ROOT / "src" / "qlgburgers"
LAYERS = ("collision", "lattice", "experiments", "fdm", "analytic", "io", "cli")

# Public functions that no package code loads, and why each stays public.
UNCALLED = {
    "collision.jacobian_gap": "acceptance criterion 1 checks the closed-form Jacobian against omega",
    "experiments.shock_formation_step": "acceptance criterion 6c reads the step of shock formation",
    "experiments.shock_onset_step": "acceptance criterion 6c reads the shock onset step",
}

# Parameters with a default that no package call passes, and why each stays settable.
UNPASSED = {
    "cli.main.argv": "the console script calls main(); bench/run.py and the tests pass argv",
    "experiments.run_qlg_1d.stride": "the README's library quick start records a strided trace",
}

# What a package load passes to the function it names: every parameter when the
# function is passed as a value or called with a * or ** argument.
EVERY = None


def _reached():
    name = "_bench_jobs_under_test"
    spec = importlib.util.spec_from_file_location(name, JOBS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks its module up while building Job
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return sorted({qualname for names in module.REACHED.values() for qualname in names})


@pytest.mark.parametrize("qualname", _reached())
def test_reached_name_is_a_traceable_function(qualname):
    layer, fn_name = qualname.split(".")
    module = importlib.import_module(f"qlgburgers.{layer}")
    assert fn_name in module.__all__
    fn = getattr(module, fn_name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__


def _passed(call):
    """(positional count, keywords) that an ``ast.Call`` passes, or ``EVERY``."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
        kw.arg is None for kw in call.keywords
    ):
        return EVERY
    return len(call.args), frozenset(kw.arg for kw in call.keywords)


def _loads():
    """(module, name, inside a def of that name, passed) of every Name and Attribute load
    in the package, where ``passed`` is what a call of the name passes, or ``EVERY``.

    A function passed as a value counts as well as a call: the traced jobs
    reach some names through a table or an argument.
    """
    found = set()

    def visit(node, module, enclosing, passed=EVERY):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            found.add((module, name, name in enclosing, passed))
        for child in ast.iter_child_nodes(node):
            is_callee = isinstance(node, ast.Call) and child is node.func
            visit(child, module, enclosing, _passed(node) if is_callee else EVERY)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, frozenset())
    return found


LOADS = _loads()


def _loaded(qualname):
    """Whether some package module loads the function ``layer.name`` outside its own def."""
    layer, fn_name = qualname.split(".")
    return any(name == fn_name and not (module == layer and inside) for module, name, inside, _ in LOADS)


@pytest.mark.parametrize("qualname", _reached())
def test_reached_name_is_loaded_outside_its_def(qualname):
    assert _loaded(qualname), f"{qualname} is not called or passed anywhere in the package"


def _public_functions():
    names = []
    for layer in LAYERS:
        module = importlib.import_module(f"qlgburgers.{layer}")
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                names.append(f"{layer}.{name}")
    return names


def test_every_exception_is_a_public_function():
    assert set(UNCALLED) <= set(_public_functions())


@pytest.mark.parametrize("qualname", _public_functions())
def test_public_function_is_loaded_outside_its_def(qualname):
    assert _loaded(qualname) or qualname in UNCALLED, f"{qualname} is public, but only the tests use it"


def _defaulted_parameters():
    names = []
    for qualname in _public_functions():
        layer, fn_name = qualname.split(".")
        fn = getattr(importlib.import_module(f"qlgburgers.{layer}"), fn_name)
        for param in inspect.signature(fn).parameters.values():
            if param.default is not param.empty:
                names.append(f"{qualname}.{param.name}")
    return names


def _passed_by_package(qualname):
    """Whether some package call outside its def passes the parameter ``layer.function.name``."""
    layer, fn_name, param_name = qualname.split(".")
    fn = getattr(importlib.import_module(f"qlgburgers.{layer}"), fn_name)
    params = list(inspect.signature(fn).parameters.values())
    index = [p.name for p in params].index(param_name)
    by_position = params[index].kind is not inspect.Parameter.KEYWORD_ONLY
    for module, name, inside, passed in LOADS:
        if name != fn_name or (module == layer and inside):
            continue
        if passed is EVERY or param_name in passed[1] or (by_position and index < passed[0]):
            return True
    return False


def test_every_unpassed_entry_is_a_defaulted_parameter_no_package_call_passes():
    assert set(UNPASSED) <= set(_defaulted_parameters())
    assert not [qualname for qualname in UNPASSED if _passed_by_package(qualname)]


@pytest.mark.parametrize("qualname", _defaulted_parameters())
def test_defaulted_parameter_is_passed_by_package_code(qualname):
    assert _passed_by_package(qualname) or qualname in UNPASSED, (
        f"{qualname} has a default, but only the tests pass it"
    )
