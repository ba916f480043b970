"""The benchmark tracer binds library functions by name, so a rename or a
move that leaves a binding behind would only show in a traced benchmark
run. This reads the bindings without installing the tracer."""

import importlib.util
import inspect
import sys
from pathlib import Path

import crooked.cli  # noqa: F401  loads the modules the benchmark's commands run

TRACER = Path(__file__).resolve().parents[1] / "pipebench" / "tracer.py"


def _bindings() -> dict:
    spec = importlib.util.spec_from_file_location("tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BINDINGS


def _resolve(name: str) -> list:
    """The functions that `Tracer.install` would patch for name: a method on
    a class defined in a `crooked` module (`FieldCtx.__init__`), or a
    function of that name defined in one."""
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "crooked" or k.startswith("crooked."))]
    owner, _, attr = name.rpartition(".")
    if owner:
        classes = [vars(m).get(owner) for m in modules]
        return [vars(c)[attr] for c, m in zip(classes, modules)
                if isinstance(c, type) and c.__module__ == m.__name__ and attr in vars(c)]
    return [fn for fn in (vars(m).get(attr) for m in modules)
            if inspect.isfunction(fn) and fn.__module__.startswith("crooked.") and fn.__name__ == attr]


def test_every_tracer_binding_resolves_to_a_library_function():
    bindings = _bindings()
    unresolved = [name for name in bindings if not any(map(inspect.isfunction, _resolve(name)))]
    assert bindings and unresolved == []
