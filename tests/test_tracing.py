"""The benchmark's tracer names library functions by module and attribute;
every name must still resolve, or a traced benchmark run would crash."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    traced = load_tracing().TRACED
    assert traced
    for span_name, module_name, attr, _ in traced:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{span_name}: {module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"{span_name}: {module_name}.{attr} is not callable"
