"""The benchmark tracer's seams into the library.

``perfbench/tracer.py`` wraps library functions by module attribute name,
so a renamed or moved function breaks every traced benchmark run.  This
test installs the tracer and takes it out again: install must find every
name it wraps, and uninstall must put back the very objects it replaced.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_seam_and_uninstall_restores_it():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        # The first patch of an attribute recorded the library's own object.
        originals = {}
        for owner, attr, original in tracer._patches:
            originals.setdefault((owner, attr), original)
        unwrapped = [attr for (owner, attr), original in originals.items()
                     if getattr(owner, attr) is original]
    finally:
        tracer.uninstall()
    assert originals and not unwrapped
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert not tracer._patches
