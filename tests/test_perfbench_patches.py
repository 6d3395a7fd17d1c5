"""The benchmark's tracer patches names on treesweep modules and classes;
each one must still exist where the tracer looks for it."""

import importlib.util
from pathlib import Path

import treesweep
import treesweep.cli  # noqa: F401  (the package does not import cli)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve():
    tracer = _load_tracer()
    assert tracer.PATCHES
    for owner_name, attr, _ in tracer.PATCHES:
        owner = tracer._resolve(treesweep, owner_name)
        assert attr in vars(owner), f"{owner_name}.{attr}"
