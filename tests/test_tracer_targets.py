"""Every callable the benchmark tracer wraps still exists in residua.

perfbench/tracer.py names its targets as (module, attribute path)
strings and looks them up only when a traced run starts, so a rename in
residua would otherwise surface as a KeyError in that run alone.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = sorted({target for table in (tracer.SPANS, tracer.COUNTS)
                  for targets in table.values() for target in targets})


@pytest.mark.parametrize("module, path", TARGETS)
def test_tracer_target_resolves(module, path):
    importlib.import_module("residua." + module)
    *_, func = tracer._resolve(module, path)
    assert callable(func)
