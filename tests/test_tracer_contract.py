"""The benchmark tracer's contract with the package.

``bench/tracing.py`` wraps only plain functions that are defined in their
module and listed in its ``__all__``, and ``bench/jobs.py`` ``REACHED``
names the functions every traced round must call.  A refactor that turns
one of those names into an alias, a ``functools.partial`` or a private
helper would otherwise pass these tests and fail only under
``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "bench" / "jobs.py"


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
