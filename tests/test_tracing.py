"""The per-layer tracer of the benchmark patches factorlab names from outside.

A name it wraps that is renamed or deleted breaks ``bench/run.py --trace 1``;
this test catches that without running the benchmark.
"""

import importlib.util
from pathlib import Path

import factorlab.cli  # noqa: F401  (install patches the cli names only once it is imported)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_patch():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert not tracer._patches
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    names = {attr for _, attr, _ in patched}
    assert {"decide_cover_partition_3", "decide_partition_condition_k", "link", "_load"} <= names
