"""The benchmark's layer tracer installs on the program as it stands.

A traced benchmark run (``perfbench/tracer.py``) wraps named functions
and methods of ``repro`` and restores them afterwards; a target that
was renamed or removed makes ``Tracer.install`` raise. Installing and
uninstalling here catches that in the test suite, not only in a traced
benchmark run.
"""

import importlib
import importlib.util
import pathlib

TRACER = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
          / "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    if owner_name is None:
        return getattr(module, attr)
    return getattr(module, owner_name).__dict__[attr]


def test_every_target_installs_and_uninstalls():
    tracer_module = load_tracer()
    targets = [target[:3] for target in tracer_module._TARGETS]
    originals = [current(*target) for target in targets]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert len(tracer._patches) == len(targets)
        for target, original in zip(targets, originals):
            assert current(*target) is not original, target
    finally:
        tracer.uninstall()
    for target, original in zip(targets, originals):
        assert current(*target) is original, target
