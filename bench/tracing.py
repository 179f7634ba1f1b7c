"""Per-layer tracing of factorlab from outside the package.

The tracer replaces public functions of each layer by wrappers, by patching
module and class attributes.  factorlab's own modules look these names up as
module globals (or through ``self`` for ``Hypergraph`` methods), so calls made
inside the package are caught too.  Nothing in ``src/`` knows about tracing.

Spans are kept in memory and folded on exit into per-name totals:
``calls``, inclusive time (time during which at least one span of the name
is open, so nested spans of one name are not counted twice) and self time
(a span's duration minus the time its child spans cover).  Counters are
recorded at the same boundaries.  Only the main thread is traced; calls made
from worker threads run unwrapped.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from math import comb
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> tuple[float, list[float]]:
        frame = [0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return perf_counter(), frame

    def _close(self, name: str, t0: float, frame: list[float]) -> None:
        dur = perf_counter() - t0
        self._stack.pop()
        self._depth[name] -= 1
        if self._stack:
            self._stack[-1][0] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        if not self._depth[name]:
            st[1] += dur
        st[2] += dur - frame[0]

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def wrap(self, name, fn, after=None, refused=None):
        """Span ``name`` around each call; ``after(args, result)`` records counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            t0, frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(name, t0, frame)
                if refused is not None and isinstance(exc, refused):
                    tracer.counts[name + ".refused"] += 1
                raise
            tracer._close(name, t0, frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        """Span ``name`` around each resumption of the generator ``fn`` returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if threading.get_ident() != tracer._main:
                    item = next(gen, _DONE)
                else:
                    t0, frame = tracer._open(name)
                    try:
                        item = next(gen, _DONE)
                    finally:
                        tracer._close(name, t0, frame)
                if item is _DONE:
                    return
                tracer.counts[name + ".yielded"] += 1
                if tracer.active("verification.copy_images"):
                    tracer.counts["verification.copy_images.embeddings"] += 1
                yield item

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def merge(self, stats: dict, counts: dict) -> None:
        """Add totals recorded by another process."""
        for name, (calls, incl, self_s) in stats.items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += self_s
        self.counts.update(counts)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


_DONE = object()


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every factorlab layer that is imported."""
    import sys

    from factorlab import constructions, deciders, hypergraph, lattice, verification

    count = tracer.counts
    wrap, patch = tracer.wrap, tracer.patch
    hg = hypergraph.Hypergraph

    # hypergraph ------------------------------------------------------------
    patch(hg, "__init__", wrap("hypergraph.init", hg.__init__))
    traced_link = wrap("hypergraph.link", hg.link)

    def link(self, vertices):
        cache = getattr(self, "_cache", None)
        before = len(cache) if cache is not None else 0
        result = traced_link(self, vertices)
        if cache is not None and len(cache) > before:
            count["hypergraph.link_keys"] += 1
        return result

    patch(hg, "link", link)
    patch(hg, "min_s_degree", wrap("hypergraph.min_s_degree", hg.min_s_degree))
    patch(hg, "is_k_partite", wrap("hypergraph.is_k_partite", hg.is_k_partite))
    patch(hypergraph, "load_hypergraph", wrap("hypergraph.load", hypergraph.load_hypergraph))

    # deciders --------------------------------------------------------------
    def nodes(key):
        def after(args, report):
            count[key] += report.stats.get("nodes", 0)

        return after

    patch(deciders, "decide_turan_zero_3", wrap(
        "deciders.turan_zero", deciders.decide_turan_zero_3, nodes("deciders.turan_zero.nodes")))
    patch(deciders, "decide_cover_partition_3", wrap(
        "deciders.cover_partition", deciders.decide_cover_partition_3))
    patch(deciders, "decide_partition_condition_k", wrap(
        "deciders.partition_k", deciders.decide_partition_condition_k,
        nodes("deciders.partition_k.nodes")))
    patch(deciders, "decide_linkdisjoint_kpartite", wrap(
        "deciders.kpartite_link", deciders.decide_linkdisjoint_kpartite,
        refused=deciders.PreconditionError))
    for attr in ("validate_shadow_coloring", "validate_cover_witness", "validate_partition_witness"):
        patch(deciders, attr, wrap("deciders.validate", getattr(deciders, attr)))

    # lattice ---------------------------------------------------------------
    def bipartitions(args, result):
        count["lattice.bipartitions"] += len(result)

    def generators(args, result):
        count["lattice.generators"] += len(result)

    patch(lattice, "enumerate_shadow_disjoint_bipartitions", wrap(
        "lattice.enumerate", lattice.enumerate_shadow_disjoint_bipartitions, bipartitions))
    patch(lattice, "size_generators", wrap("lattice.size_generators", lattice.size_generators, generators))
    for attr in ("lattice_contains", "shared_sum_contains"):
        patch(lattice, attr, wrap("lattice.membership", getattr(lattice, attr)))

    # constructions ---------------------------------------------------------
    def built(colouring: bool):
        def after(args, result):
            h = getattr(result, "hypergraph", result)
            count["constructions.kept"] += len(h.edges)
            count["constructions.ksets_computed"] += comb(h.n, h.k)
            if colouring:
                count["constructions.colouring_builds"] += 1

        return after

    def checked(args, result):
        if tracer.active("constructions.lemma51") or tracer.active("constructions.obs62"):
            count["constructions.checked_builds"] += 1

    patch(constructions, "construct_partite_coloring", wrap(
        "constructions.lemma51", constructions.construct_partite_coloring, built(True)))
    patch(constructions, "construct_shadow_disjoint", wrap(
        "constructions.obs62", constructions.construct_shadow_disjoint, built(True)))
    patch(constructions, "random_uniform_hypergraph", wrap(
        "constructions.gnp", constructions.random_uniform_hypergraph, built(False)))
    for attr in ("partite_structure_ok", "shadow_disjoint_ok"):
        patch(constructions, attr, wrap("constructions.check", getattr(constructions, attr), checked))

    # verification ----------------------------------------------------------
    def images(args, result):
        count["verification.copy_images.images"] += len(result[0])

    def factor(args, result):
        count["verification.factor.nodes"] += result.stats.get("nodes", 0)
        count["verification.factor." + result.status] += 1
        if tracer.active("verification.reachable"):
            count["verification.reachable.factor_calls"] += 1

    def samples(args, result):
        count["verification.denseness.samples"] += result.samples

    patch(verification, "iter_embeddings", tracer.wrap_generator(
        "verification.embeddings", verification.iter_embeddings))
    patch(verification, "copy_images", wrap("verification.copy_images", verification.copy_images, images))
    patch(verification, "find_cover", wrap("verification.cover", verification.find_cover))
    patch(verification, "rooted_copies", wrap("verification.rooted", verification.rooted_copies))
    patch(verification, "find_factor", wrap("verification.factor", verification.find_factor, factor))
    for attr in ("validate_factor_certificate", "validate_embedding"):
        patch(verification, attr, wrap("verification.certificate", getattr(verification, attr)))
    patch(verification, "count_reachable_sets", wrap(
        "verification.reachable", verification.count_reachable_sets))
    for attr in ("estimate_denseness", "estimate_S_denseness"):
        patch(verification, attr, wrap("verification.denseness.sampled", getattr(verification, attr), samples))
    patch(verification, "exact_denseness_small", wrap(
        "verification.denseness.exhaustive", verification.exact_denseness_small))

    # cli (only when the process runs the command line) ----------------------
    cli = sys.modules.get("factorlab.cli")
    if cli is not None:
        patch(cli, "load_hypergraph", wrap("hypergraph.load", cli.load_hypergraph))
        patch(cli, "_load", wrap("cli.load", cli._load))
        patch(cli, "_emit", wrap("cli.emit", cli._emit))
    return tracer


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.load_ms": "ms",
    "cli.command_ms": "ms",
    "cli.emit_ms": "ms",
    "hypergraph.init_s": "s",
    "hypergraph.init_calls": "count",
    "hypergraph.load_s": "s",
    "hypergraph.link_s": "s",
    "hypergraph.link_calls": "count",
    "hypergraph.link_hit_ratio": "ratio",
    "hypergraph.link_keys": "count",
    "hypergraph.min_s_degree_s": "s",
    "hypergraph.is_k_partite_s": "s",
    "deciders.turan_zero.s": "s",
    "deciders.turan_zero.nodes": "count",
    "deciders.turan_zero.vs_oracle": "ratio",
    "deciders.cover_partition.s": "s",
    "deciders.partition_k.s": "s",
    "deciders.partition_k.nodes": "count",
    "deciders.kpartite_link.s": "s",
    "deciders.kpartite_link.refused": "count",
    "deciders.validate.s": "s",
    "lattice.enumerate.s": "s",
    "lattice.bipartitions": "count",
    "lattice.bipartitions_per_generator": "ratio",
    "lattice.membership.s": "s",
    "constructions.lemma51.s": "s",
    "constructions.obs62.s": "s",
    "constructions.gnp.s": "s",
    "constructions.keep_ratio": "ratio",
    "constructions.check.s": "s",
    "constructions.checked_ratio": "ratio",
    "verification.embeddings.s": "s",
    "verification.embeddings.yielded": "count",
    "verification.copy_images.s": "s",
    "verification.copy_images.embeddings_per_image": "ratio",
    "verification.cover.s": "s",
    "verification.rooted.s": "s",
    "verification.certificate.s": "s",
    "verification.reachable.s": "s",
    "verification.reachable.factor_calls": "count",
    "verification.denseness.sampled_s": "s",
    "verification.denseness.samples_per_s": "1/s",
    "verification.factor.self_s": "s",
    "verification.factor.nodes": "count",
    "verification.factor.nodes_per_s": "1/s",
    "verification.factor.absent": "count",
    "verification.factor.found": "count",
    "verification.factor.inconclusive": "count",
    "verification.denseness.exhaustive_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, extra: dict[str, float]) -> dict[str, dict]:
    """Per-layer values per pass over the op list; ``extra`` supplies the
    metrics measured outside the tracer (cli timings, oracle ratio, overhead).

    A layer the workload never reaches reads 0.
    """
    t, c = tracer, tracer.counts
    per = 1.0 / passes
    values = {
        "hypergraph.init_s": t.inclusive("hypergraph.init") * per,
        "hypergraph.init_calls": t.calls("hypergraph.init") * per,
        "hypergraph.load_s": t.inclusive("hypergraph.load") * per,
        "hypergraph.link_s": t.inclusive("hypergraph.link") * per,
        "hypergraph.link_calls": t.calls("hypergraph.link") * per,
        "hypergraph.link_hit_ratio": 1.0 - _ratio(c["hypergraph.link_keys"], t.calls("hypergraph.link"))
        if t.calls("hypergraph.link") else 0.0,
        "hypergraph.link_keys": c["hypergraph.link_keys"] * per,
        "hypergraph.min_s_degree_s": t.inclusive("hypergraph.min_s_degree") * per,
        "hypergraph.is_k_partite_s": t.inclusive("hypergraph.is_k_partite") * per,
        "deciders.turan_zero.s": t.inclusive("deciders.turan_zero") * per,
        "deciders.turan_zero.nodes": c["deciders.turan_zero.nodes"] * per,
        "deciders.cover_partition.s": t.inclusive("deciders.cover_partition") * per,
        "deciders.partition_k.s": t.inclusive("deciders.partition_k") * per,
        "deciders.partition_k.nodes": c["deciders.partition_k.nodes"] * per,
        "deciders.kpartite_link.s": t.inclusive("deciders.kpartite_link") * per,
        "deciders.kpartite_link.refused": c["deciders.kpartite_link.refused"] * per,
        "deciders.validate.s": t.inclusive("deciders.validate") * per,
        "lattice.enumerate.s": t.inclusive("lattice.enumerate") * per,
        "lattice.bipartitions": c["lattice.bipartitions"] * per,
        "lattice.bipartitions_per_generator": _ratio(c["lattice.bipartitions"], c["lattice.generators"]),
        "lattice.membership.s": t.inclusive("lattice.membership") * per,
        "constructions.lemma51.s": t.inclusive("constructions.lemma51") * per,
        "constructions.obs62.s": t.inclusive("constructions.obs62") * per,
        "constructions.gnp.s": t.inclusive("constructions.gnp") * per,
        "constructions.keep_ratio": _ratio(c["constructions.kept"], c["constructions.ksets_computed"]),
        "constructions.check.s": t.inclusive("constructions.check") * per,
        "constructions.checked_ratio": _ratio(
            c["constructions.checked_builds"], c["constructions.colouring_builds"]),
        "verification.embeddings.s": t.inclusive("verification.embeddings") * per,
        "verification.embeddings.yielded": c["verification.embeddings.yielded"] * per,
        "verification.copy_images.s": t.inclusive("verification.copy_images") * per,
        "verification.copy_images.embeddings_per_image": _ratio(
            c["verification.copy_images.embeddings"], c["verification.copy_images.images"]),
        "verification.cover.s": t.inclusive("verification.cover") * per,
        "verification.rooted.s": t.inclusive("verification.rooted") * per,
        "verification.certificate.s": t.inclusive("verification.certificate") * per,
        "verification.reachable.s": t.inclusive("verification.reachable") * per,
        "verification.reachable.factor_calls": c["verification.reachable.factor_calls"] * per,
        "verification.denseness.sampled_s": t.inclusive("verification.denseness.sampled") * per,
        "verification.denseness.samples_per_s": _ratio(
            c["verification.denseness.samples"], t.inclusive("verification.denseness.sampled")),
        "verification.factor.self_s": t.self_time("verification.factor") * per,
        "verification.factor.nodes": c["verification.factor.nodes"] * per,
        "verification.factor.nodes_per_s": _ratio(
            c["verification.factor.nodes"], t.self_time("verification.factor")),
        "verification.factor.absent": c["verification.factor.absent"] * per,
        "verification.factor.found": c["verification.factor.found"] * per,
        "verification.factor.inconclusive": c["verification.factor.inconclusive"] * per,
        "verification.denseness.exhaustive_s": t.inclusive("verification.denseness.exhaustive") * per,
    }
    values.update(extra)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_METRICS.items()}
