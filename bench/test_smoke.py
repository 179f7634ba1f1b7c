"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of a checkout::

    python3 -m pytest bench/test_smoke.py -q

A tiny run makes one op of each kind for one pass.  The tests check that
every metric BENCHMARK.json names is emitted with its unit, that nothing
fails at this commit, and that a deliberately wrong answer is counted.
"""

import json

import pytest

import run

run.use_source_tree()

from factorlab import deciders, verification  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    metrics, attempted, failures, _ = run.run_workload(name, seed=1, seconds=0, trace=trace, smoke=True)
    assert attempted >= 1 and failures == []
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: unit for k, (_, unit) in metrics.items()}
    assert all(isinstance(value, float) for value, _ in metrics.values())


def _flip_verdict(real):
    def wrong(f):
        report = real(f)
        report.verdict = not report.verdict
        return report

    return wrong


def _drop_a_copy(real):
    def wrong(f, h, cap=verification.DEFAULT_CAP):
        result = real(f, h, cap)
        if result.certificate:
            result.certificate = result.certificate[1:]
        return result

    return wrong


def _inconclusive(real):
    def wrong(f, h, cap=verification.DEFAULT_CAP):
        result = real(f, h, cap)
        result.status = "inconclusive"
        return result

    return wrong


@pytest.mark.parametrize("name, module, attr, corrupt", [
    ("patterns", deciders, "decide_turan_zero_3", _flip_verdict),
    ("hosts", verification, "find_factor", _drop_a_copy),
    ("proofs", verification, "find_factor", _inconclusive),
])
def test_a_wrong_answer_raises_fail_ratio(monkeypatch, name, module, attr, corrupt):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    _, attempted, failures, _ = run.run_workload(name, seed=1, seconds=0, trace=False, smoke=True)
    assert 0 < len(failures) <= attempted
