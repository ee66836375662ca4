"""The benchmark's tracer wraps jetsym functions by name; they must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_jetsym_function():
    traced = load_tracer().TRACED
    assert traced
    for dotted in traced:
        module_name, attr = dotted.split(".")
        module = importlib.import_module(f"jetsym.{module_name}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), dotted
        assert fn.__module__ == module.__name__, dotted
