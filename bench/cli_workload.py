"""The cli workload: one fresh ``python -m factorlab.cli`` process per command.

This is the only workload that pays interpreter start, import, argparse,
file parsing and JSON output on every op.  Input files are written to a work
directory during set-up; every command's exit code and JSON report is
checked against the library and the oracles.  Under tracing the same
commands run through ``cli_shim.py``, which installs the tracer in the child
and writes its totals to a file the parent merges.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from factorlab import constructions, corpus, deciders, oracles, verification
from factorlab.hypergraph import Hypergraph, load_hypergraph
from tracing import Tracer
from workloads import Op, Pins, build_key, digest, random_graph, shadow_disjoint_sides, shadow_disjoint_sizes

BENCH = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60


def spawn(cmd, cwd: Path, env: dict, timeout: float = OP_TIMEOUT_S):
    """Run one process to completion; returns (start, exit code, stdout, stderr, peak RSS in KiB)."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss


class Cli:
    name = "cli"

    def __init__(self, seed: int, pins: Pins, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
        self.tracer: Tracer | None = None
        self.timings: list[dict[str, float]] = []
        self.peak_rss_kb = 0

        def write(name, h):
            (workdir / name).write_text(h.to_text())
            return h

        k222 = write("k222.hg", corpus.k222())
        edge = write("edge.hg", corpus.single_edge())
        pats = [write(f"p{i}.hg", Hypergraph(3, 6, random_graph(rng, 3, 6, m)))
                for i, m in enumerate((4, 7))]
        hosts = {}
        for name, variant, n, extra in (("host.hg", "gnp", 15, {"p": 0.5}), ("built.hg", "lemma51", 30, {}),
                                        ("dense.hg", "gnp", 20, {"p": 0.5})):
            sd = rng.randrange(2**32)
            hosts[name] = (build_key(variant, n=n, k=3, seed=sd, **extra),
                           write(name, _build(variant, n, sd, extra)))
        (workdir / "malformed.hg").write_text("3 4 1\n0 1 x\n")
        cseeds = [rng.randrange(2**32) for _ in range(4)]

        def host_pin(name):
            return lambda payload: pins.check(*hosts[name])

        def rooted(payload):
            return None if payload["report"]["total"] == 0 else "rooted count at z is not 0"

        self.ops = [
            self._op(["decide", "factor3", "k222.hg"], *_decision(k222, "factor3")),
            *[self._op(["decide", "turan-zero", f"p{i}.hg"], *_decision(p, "turan-zero"))
              for i, p in enumerate(pats)],
            self._op(["decide", "trans", "k222.hg", "--s", "2"], *_decision(k222, "trans")),
            self._op(["lattice", "k222.hg", "--s", "2"], _no_check, _lattice(k222)),
            self._op(["corpus", "list"], lambda out: None if json.loads(out) == sorted(corpus.NAMED)
                     else "corpus list differs", raw=True),
            self._op(["corpus", "k222"], lambda out: None if load_hypergraph(out) == k222
                     else "corpus graph differs", raw=True),
            *[self._op(["construct", variant, "--n", str(n), "--seed", str(sd), *flags],
                       *_construction(pins, variant, n, sd, extra))
              for (variant, n, flags, extra), sd in zip(
                  (("lemma51", 30, [], {}), ("obs62", 30, ["--s", "2"], {"s": 2}),
                   ("gnp", 30, ["--p", "0.5"], {"p": 0.5})), cseeds)],
            self._op(["verify", "factor", "--F", "edge.hg", "--H", "host.hg"],
                     _factor(edge, hosts["host.hg"][1]), host_pin("host.hg")),
            self._op(["verify", "cover", "--F", "edge.hg", "--H", "host.hg"],
                     _cover(edge, hosts["host.hg"][1])),
            self._op(["verify", "rooted", "--F", "k222.hg", "--H", "built.hg", "--w", "z"],
                     rooted, host_pin("built.hg")),
            self._op(["verify", "denseness", "--H", "dense.hg", "--p", "0.5", "--samples", "200",
                      "--seed", str(cseeds[3])], _no_check, _denseness(hosts["dense.hg"], cseeds[3], pins)),
            self._op(["decide", "factor3", "malformed.hg"], None, expect_code=2, kind="malformed input"),
        ]

    def _op(self, argv, check, reference=None, raw=False, expect_code=0, kind=None):
        """``check`` validates the parsed JSON report (or the raw stdout) in the
        timed region; ``reference`` compares it with the library or an oracle
        once, after the timed region."""

        def run():
            traced = self.tracer is not None
            trace_file = self.workdir / "trace.json"
            prefix = [str(BENCH / "cli_shim.py"), str(trace_file)] if traced else ["-m", "factorlab.cli"]
            start, code, out, err, rss = spawn([sys.executable, *prefix, *argv], self.workdir, self.env)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            if traced:
                self._record(start, json.loads(trace_file.read_text()))
            return code, out, err

        def parsed(out):
            return out if raw else json.loads(out)

        def validate(answer):
            code, out, err = answer
            if code != expect_code:
                return f"exit code {code}, expected {expect_code}: {err.strip()[-200:]}"
            if expect_code == 2:
                lines = err.strip().splitlines()
                ok = not out and len(lines) == 1 and lines[0].startswith("error:")
                return None if ok else "usage error is not one line on stderr"
            return check(parsed(out))

        return Op(kind or " ".join(argv[:2]), run, validate, reference and (lambda answer: reference(parsed(answer[1]))))

    def _record(self, spawned: float, trace: dict) -> None:
        stats = trace["stats"]
        load = stats.get("cli.load", (0, 0.0, 0.0))[1]
        emit = stats.get("cli.emit", (0, 0.0, 0.0))[1]
        self.timings.append({
            "cli.interpreter_ms": (trace["start"] - spawned) * 1e3,
            "cli.import_ms": (trace["imported"] - trace["start"]) * 1e3,
            "cli.load_ms": load * 1e3,
            "cli.command_ms": (trace["main_s"] - load - emit) * 1e3,
            "cli.emit_ms": emit * 1e3,
        })
        self.tracer.merge(stats, trace["counts"])

    def start_trace(self) -> Tracer:
        self.tracer = Tracer()
        return self.tracer

    def stop_trace(self) -> dict[str, float]:
        """Per-op medians of the phase times the shim recorded."""
        self.tracer = None
        names = self.timings[0] if self.timings else ()
        return {name: statistics.median(t[name] for t in self.timings) for name in names}


def _build(variant, n, sd, extra):
    if variant == "gnp":
        return constructions.random_uniform_hypergraph(n, 3, extra["p"], sd)
    params = constructions.ConstructionParams(n=n, k=3, seed=sd, s=extra.get("s"))
    build = constructions.construct_partite_coloring if variant == "lemma51" else constructions.construct_shadow_disjoint
    return build(params).hypergraph


def _no_check(payload):
    return None


def _decision(f, prop):
    """(check, reference): witnesses validate in the timed region; verdicts
    without a witness are compared with the oracles afterwards."""

    def check(payload):
        rep = payload["report"]
        if not rep["verdict"]:
            return None
        w = rep["witness"]
        if prop == "trans":
            reached = [sum(c * g[i] for c, g in w["combination"]) for i in (0, 1)]
            return None if reached == [1, -1] else "trans combination does not reach (1, -1)"
        ordering = w["ordering-coloring"] if prop == "factor3" else w
        ok = deciders.validate_shadow_coloring(f, ordering["ordering"], deciders.coloring_from_witness(ordering))
        if ok and prop == "factor3":
            cp = w["cover-partition"]
            ok = deciders.validate_cover_witness(f, cp["vstar"], cp["X"], cp["Y"])
        return None if ok else "witness fails validation"

    def reference(payload):
        rep = payload["report"]
        if prop == "trans":
            gens = [tuple(g) for g in rep["stats"]["generators"]]
            if gens != shadow_disjoint_sizes(f.n, f.edges, 2):
                return "trans generators differ from brute force"
            expected = oracles.bounded_combination_oracle(gens, (1, -1)) is not None
        else:
            expected = oracles.turan_zero_oracle(f)
            if prop == "factor3":
                expected = expected and oracles.cover_partition_oracle(f) is not None
        return None if rep["verdict"] == expected else "verdict disagrees with the oracle"

    return check, reference


def _lattice(f):
    def reference(payload):
        rep = payload["report"]
        if [tuple(g) for g in rep["generators"]] != shadow_disjoint_sizes(f.n, f.edges, 2):
            return "lattice generators differ from brute force"
        if rep["bipartition_count"] != len(shadow_disjoint_sides(f.n, f.edges, 2)):
            return "bipartition count differs from brute force"
        return None

    return reference


def _construction(pins, variant, n, sd, extra):
    """(check, reference): the output parses to an n-vertex 3-graph, and it is
    bit-identical to the library build with the same parameters."""
    key = build_key(variant, n=n, k=3, seed=sd, **extra)

    def check(payload):
        h = payload["hypergraph"]
        return None if (h["k"], h["n"], payload["seed"]) == (3, n, sd) else "wrong construction parameters"

    def reference(payload):
        h = Hypergraph(**payload["hypergraph"])
        if digest(h) != digest(_build(variant, n, sd, extra)):
            return "construct output differs from the library build"
        return pins.check(key, h)

    return check, reference


def _factor(f, h):
    def check(payload):
        rep = payload["report"]
        if rep["status"] != "found":
            return f"status {rep['status']}, expected found"
        cert = [tuple(phi) for phi in rep["certificate"]]
        return None if verification.validate_factor_certificate(f, h, cert) else "certificate fails validation"

    return check


def _cover(f, h):
    def check(payload):
        rep = payload["report"]
        for w, (cov, phi) in enumerate(zip(rep["covered"], rep["witnesses"])):
            if cov and (phi is None or w not in phi or not verification.validate_embedding(f, h, tuple(phi))):
                return f"cover witness for vertex {w} fails validation"
        return None if rep["verdict"] == all(rep["covered"]) else "cover verdict is not the conjunction"

    return check


def _denseness(host, sd, pins):
    """The command line's sampled deficit equals the library's, bit for bit."""
    key, h = host

    def reference(payload):
        if payload["report"]["worst_deficit"] != verification.estimate_denseness(h, 0.5, 200, sd).worst_deficit:
            return "sampled deficit differs from the library"
        return pins.check(key, h)

    return reference
