"""The contract between appliq and the benchmark's probes.

``bench/probes.py`` replaces appliq module attributes to time and count
each layer, calls the reducers with ``collect_trace=True`` to read peak
term sizes from the trace, and walks nodes through ``vars(node)``, as
does ``bench/run._contains``.  A change that breaks one of these passes
the other tests and untraced runs, and fails only traced benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from appliq import cam, superc, syntax
from appliq.debruijn import encode
from appliq.reduction import Outcome
from appliq.ski import ski_compile
from appliq.syntax import parse


def _load_probes():
    path = Path(__file__).resolve().parent.parent / "bench" / "probes.py"
    spec = importlib.util.spec_from_file_location("bench_probes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probes = _load_probes()


def _entry_point(mod_name: str, attr: str):
    return getattr(importlib.import_module(f"appliq.{mod_name}"), attr)


@pytest.mark.parametrize("mod_name,attr,span", probes.ENTRY_POINTS)
def test_entry_point_is_callable(mod_name, attr, span):
    assert callable(_entry_point(mod_name, attr)), f"{mod_name}.{attr}"


_TERM = parse(r"(\x. x [4, (\x. x) 3]) +")
_REDUCER_INPUT = {
    "reduction.reduce": _TERM,
    "ski.reduce": ski_compile(_TERM),
    "cam.eval": cam.cam_compile(encode(_TERM)),
    "superc.reduce": superc.lift(_TERM),
}


@pytest.mark.parametrize("span", probes.REDUCERS)
def test_reducer_returns_trace_tuple(span):
    (mod_name, attr), = [(m, a) for m, a, s in probes.ENTRY_POINTS
                         if s == span]
    out = _entry_point(mod_name, attr)(_REDUCER_INPUT[span],
                                       collect_trace=True)
    assert isinstance(out, Outcome)
    assert type(out.trace) is tuple and out.trace


def _dataclasses():
    for module in (syntax, cam, superc):
        for cls in vars(module).values():
            if inspect.isclass(cls) and dataclasses.is_dataclass(cls) \
                    and cls.__module__ == module.__name__:
                yield pytest.param(cls, id=f"{module.__name__}.{cls.__name__}")


@pytest.mark.parametrize("cls", _dataclasses())
def test_node_fields_live_in_dict(cls):
    # ``__slots__`` anywhere in the class's bases would move fields out of
    # ``vars(node)``, where the probes look for children.
    assert cls.__dictoffset__ != 0, f"{cls.__name__} has no __dict__"
    slotted = [k.__name__ for k in cls.__mro__[:-1] if "__slots__" in vars(k)]
    assert not slotted, f"{cls.__name__}: __slots__ in {slotted}"
