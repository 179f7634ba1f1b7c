"""factorlab benchmark: one workload per run, as a closed loop with one client.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {patterns,hosts,proofs,cli} --seed N --seconds S --trace {0,1}

The run imports factorlab from ``src/`` of the checkout, builds the
workload's inputs from the seed, then runs whole passes over the workload's
op list, one op at a time, for about S seconds.  Every op's answer is
validated in the timed region; oracle and library comparisons run once per
distinct op afterwards.  A failed op counts in ``failed`` and ``fail_ratio``.

Times are wall times at the reference speed of the machine.  The host this
benchmark was written on (a few vCPUs of a shared machine) runs the same
code up to 1.7 times slower for seconds to minutes at a time.  So between
ops the run also times a fixed calibration unit that runs none of
factorlab's code, and scales each op's time by the unit's reference time
over its median time around that op.  Compute in this process and process
start-up slow by different amounts, so there are two units: a pure-Python
loop (``calibrate``) for the in-process workloads, and starting a bare
interpreter (``calibrate_spawn``) for ``cli`` and for set-up.  The unscaled
throughput is on the ``meta`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs passes
untraced for S/2 seconds, then the same passes with the tracer of
``tracing.py`` installed, and prints the per-layer metrics (per pass) and
``trace.overhead_ratio``.  The last line of stdout is the JSON result; the
lines before it give the run's metadata and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("patterns", "hosts", "proofs", "cli")
SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
CAL_EVERY_S = 0.025  # wall time between calibration units during a pass
CAL_WINDOW = 4  # an op's time is scaled by this many units before it and after it


def use_source_tree() -> None:
    if not (SRC / "factorlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no factorlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_workload(name: str, seed: int, workdir: Path, pins=None):
    use_source_tree()
    import workloads

    pins = pins or workloads.Pins.load()
    if name == "cli":
        from cli_workload import Cli

        return Cli(seed, pins, workdir)
    return {"patterns": workloads.Patterns, "hosts": workloads.Hosts, "proofs": workloads.Proofs}[name](seed, pins)


def calibrate() -> float:
    """Wall time of one calibration unit: small-tuple, set and integer work
    of the kind factorlab's searches do, but none of factorlab's code."""
    start = time.perf_counter()
    seen: dict = {}
    for perm in permutations(range(7), 3):
        key = tuple(sorted(perm))
        seen[key] = seen.get(key, 0) + 1
    total = 0
    for a in combinations(range(9), 3):
        sa = set(a)
        for b in ((0, 1, 2), (3, 4, 5), (6, 7, 8), (1, 4, 7)):
            total += len(sa.intersection(b))
    for i in range(3000):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate_spawn() -> float:
    """Wall time of starting a bare interpreter and waiting for it to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


class Unit(NamedTuple):
    """A calibration unit and its wall time at the reference speed: about its
    median on the 2-vCPU Xeon guest the baseline was measured on, in that
    machine's fast state."""

    time: Callable[[], float]
    reference_s: float
    repeat: int  # units timed at each calibration point

    def sample(self) -> list[float]:
        return [self.time() for _ in range(self.repeat)]

    def scale(self, samples: list[float]) -> float:
        """Factor that takes a time measured among these samples to the reference speed."""
        return self.reference_s / statistics.median(samples)


PYTHON_UNIT = Unit(calibrate, 0.00042, repeat=3)
SPAWN_UNIT = Unit(calibrate_spawn, 0.0135, repeat=1)


def measure_setup(name: str, seed: int, workdir: Path, repeats: int) -> float:
    """Median time from starting a fresh interpreter until its inputs are
    ready, each scaled by calibration units timed just before."""
    times = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(repeats):
        scale = SPAWN_UNIT.scale([SPAWN_UNIT.time() for _ in range(5)])
        start = time.monotonic()
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(workdir)],
                             env=env, capture_output=True, text=True, timeout=120, check=True).stdout
        times.append((float(out.split()[-1]) - start) * scale)
    return statistics.median(times)


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)  # scaled to the reference speed
    failures: list[tuple[str, str]] = field(default_factory=list)
    first_answers: dict[int, object] = field(default_factory=dict)
    ok_runs: dict[int, int] = field(default_factory=dict)
    pass_raw: list[float] = field(default_factory=list)  # each pass's op time, unscaled
    pass_scaled: list[float] = field(default_factory=list)  # each pass's op time, scaled
    passes: int = 0
    elapsed: float = 0.0

    @property
    def busy(self) -> float:
        """Op time of the run at the reference speed."""
        return sum(self.pass_scaled)


def measure(ops, seconds: float = 0.0, passes: int | None = None, unit: Unit = PYTHON_UNIT) -> Measurement:
    """Closed loop over whole passes of ``ops``: for exactly ``passes``
    passes, or for as many as fit in ``seconds`` (at least one; the last may
    end up to half a pass late).  The calibration ``unit`` runs at the start
    and end of a pass and between ops, every ``CAL_EVERY_S``; an op's time is
    scaled by the ``CAL_WINDOW`` units before it and after it, because the
    machine's speed can change within a pass."""
    m = Measurement()
    clock = time.perf_counter
    start = clock()
    while True:
        # cal_at[j] is the number of ops of the pass run before cals[j]
        pass_start, raw, cals = clock(), [], unit.sample()
        cal_at = [0] * len(cals)
        last_cal = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                answer = op.run()
                reason = op.check(answer)
            except Exception as exc:  # a raising op is a failed op, and the loop goes on
                answer, reason = None, f"raised {type(exc).__name__}: {exc}"
            dt = clock() - t0
            if reason is None and dt > OP_TIMEOUT_S:
                reason = f"took {dt:.1f} s"
            raw.append(dt)
            if reason is not None:
                m.failures.append((op.kind, reason))
            else:
                m.first_answers.setdefault(i, answer)
                m.ok_runs[i] = m.ok_runs.get(i, 0) + 1
            if clock() - last_cal >= CAL_EVERY_S:
                cals += unit.sample()
                cal_at += [i + 1] * unit.repeat
                last_cal = clock()
        cals += unit.sample()
        cal_at += [len(ops)] * unit.repeat
        after = (bisect_right(cal_at, i) for i in range(len(raw)))  # index of the first unit after op i
        scaled = [dt * unit.scale(cals[max(0, j - CAL_WINDOW):j + CAL_WINDOW]) for dt, j in zip(raw, after)]
        m.latencies.extend(scaled)
        m.pass_raw.append(sum(raw))
        m.pass_scaled.append(sum(scaled))
        m.passes += 1
        now = clock()
        m.elapsed = now - start
        if (m.passes >= passes) if passes is not None else (m.elapsed + (now - pass_start) / 2 >= seconds):
            return m


def reference_check(ops, runs: list[Measurement]) -> None:
    """Oracle and library comparisons, outside the timed region.  A wrong
    answer fails every run of its op."""
    for i, answer in runs[0].first_answers.items():
        ref = ops[i].reference
        if ref is None:
            continue
        try:
            reason = ref(answer)
        except Exception as exc:  # noqa: BLE001 - a crash in the reference counts as a failure
            reason = f"reference raised {type(exc).__name__}: {exc}"
        if reason is not None:
            for m in runs:
                m.failures.extend([(ops[i].kind, reason)] * m.ok_runs.get(i, 0))


def metadata(name: str, seed: int, seconds: float, trace: bool) -> dict:
    use_source_tree()
    import numpy
    import tomllib

    from factorlab import cli

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    with open(ROOT / "pyproject.toml", "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "factorlab": version,
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
        "denseness_workers": cli._workers(argparse.Namespace(workers=None)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (metrics, attempted, failed, notes)."""
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = measure_setup(name, seed, workdir, 1 if smoke else SETUP_REPEATS)
        wl = make_workload(name, seed, workdir)
        import workloads
        from tracing import layer_metrics

        ops = workloads.one_of_each(wl.ops) if smoke else wl.ops
        unit = SPAWN_UNIT if name == "cli" else PYTHON_UNIT
        if not trace:
            runs = [measure(ops, seconds, unit=unit)]
        else:
            base = measure(ops, seconds / 2, unit=unit)
            tracer = wl.start_trace()
            try:
                traced = measure(ops, passes=base.passes, unit=unit)
            finally:
                extra = wl.stop_trace()
            runs = [base, traced]
            extra["trace.overhead_ratio"] = traced.busy / base.busy
            metrics = {k: (v["value"], v["unit"]) for k, v in layer_metrics(tracer, traced.passes, extra).items()}
        reference_check(ops, runs)
        if not trace:
            m = runs[0]
            rss_kb = wl.peak_rss_kb if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            lat = m.latencies if len(m.latencies) > 1 else m.latencies * 2
            metrics = {
                "ops_per_s": ((len(m.latencies) - len(m.failures)) / m.busy, "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_kb / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(m.latencies) for m in runs)
    failures = [f for m in runs for f in m.failures]
    notes = {"ops": len(ops), "passes": [m.passes for m in runs], "samples": len(runs[0].latencies),
             "seconds_measured": [m.elapsed for m in runs],
             "unscaled_ops_per_s": [m.passes * len(ops) / sum(m.pass_raw) for m in runs],
             "pass_unscaled_ops_per_s": [round(len(ops) / raw, 3) for raw in runs[0].pass_raw],
             "pass_speed_scale": [round(b / a, 4) for a, b in zip(runs[0].pass_raw, runs[0].pass_scaled)]}
    return metrics, attempted, failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    meta = metadata(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, attempted, failures, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for kind, reason in failures[:20]:
        print(f"failed op {kind}: {reason}", file=sys.stderr)
    print("meta " + json.dumps({**meta, **notes}))
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload} {metric} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
