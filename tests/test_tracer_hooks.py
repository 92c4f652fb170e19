"""The benchmark tracer patches three methods by name on their classes.

perfbench/tracer.py wraps Field.generator and Field.mul and
ESet.__contains__ only when each is a plain function in its class
__dict__.  A property or functools.cached_property under one of these
names would be skipped without an error, and its per-layer metric would
read 0 on every workload.
"""

import importlib.util
import inspect
from pathlib import Path

from sumprodlab.fields import Field
from sumprodlab.sets import ESet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
HOOKED = {("fields", "Field", "generator"): Field,
          ("fields", "Field", "mul"): Field,
          ("sets", "ESet", "__contains__"): ESet}


def test_traced_methods_are_plain_functions():
    for (_, cls_name, meth), cls in HOOKED.items():
        assert cls.__name__ == cls_name
        assert inspect.isfunction(vars(cls).get(meth)), f"{cls_name}.{meth}"


def test_tracer_patches_these_methods():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = set(tracer.SPAN_METHODS) | {m[:3] for m in tracer.COUNTED_METHODS}
    assert set(HOOKED) <= patched
