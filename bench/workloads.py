"""The in-process workloads (patterns, hosts, proofs) and what they share.

A workload is a list of ops.  An op's ``run`` calls factorlab through module
attributes (so a tracer that patches them sees every call) and returns the
answer; ``check`` validates that answer inside the timed region, with the
``validate_*`` functions or a digest; ``reference`` compares it with an
oracle or a plain recomputation after the timed region.  Each returns None
when the answer is right and a reason otherwise.

Inputs come from ``random.Random(seed)`` only (construction seeds are drawn
from it too), so a seed fixes the inputs.  Pattern and host sizes are fixed
per workload; the seed picks the edges.  Every op builds its own
``Hypergraph`` from an edge list, so ops share no derived caches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from factorlab import constructions, corpus, deciders, lattice, oracles, verification
from factorlab.hypergraph import Hypergraph

import tracing

DIGESTS_FILE = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 1


class InProcess:
    """Trace hooks of a workload whose ops run in this process."""

    def start_trace(self) -> tracing.Tracer:
        self.tracer = tracing.install(tracing.Tracer())
        return self.tracer

    def stop_trace(self) -> dict[str, float]:
        """Uninstall the tracer; returns metrics measured outside it."""
        self.tracer.uninstall()
        return {}


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    reference: Callable[[Any], str | None] | None = None


def digest(h: Hypergraph) -> str:
    """SHA-256 of (k, n, sorted edges), independent of factorlab's own formats."""
    text = json.dumps([h.k, h.n, [list(e) for e in h.edges]], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build_key(variant: str, **params) -> str:
    return variant + ":" + ",".join(f"{k}={params[k]}" for k in sorted(params))


class Pins:
    """SHA-256 digests of the seeded builds made at the default seed.

    ``check`` fails a build whose key is pinned and whose digest differs, so
    seeded outputs must stay bit-identical; builds at other seeds are not
    pinned.  With ``record`` set, ``check`` records digests instead (this is
    how ``pin_digests.py`` writes the table).
    """

    def __init__(self, table: dict[str, str], record: bool = False):
        self.table = table
        self.record = record

    @classmethod
    def load(cls) -> "Pins":
        return cls(json.loads(DIGESTS_FILE.read_text()))

    def check(self, key: str, h: Hypergraph) -> str | None:
        if self.record:
            self.table[key] = digest(h)
            return None
        pinned = self.table.get(key)
        if pinned is not None and pinned != digest(h):
            return f"digest of {key} changed"
        return None


def random_graph(rng: random.Random, k: int, n: int, m: int) -> tuple:
    return tuple(sorted(rng.sample(list(combinations(range(n), k)), m)))


def one_of_each(ops: list[Op]) -> list[Op]:
    """The first op of every kind: the op list of a smoke run."""
    seen: set[str] = set()
    return [op for op in ops if not (op.kind in seen or seen.add(op.kind))]


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over groups, so every stretch of a pass has the same mix."""
    out: list[Op] = []
    for i in range(max(map(len, groups))):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# ---------------------------------------------------------------------------
# patterns: every decider on thousands of tiny patterns
# ---------------------------------------------------------------------------

# (k, n, m, patterns per cell): every cell gets the same number of patterns
# at every seed, so a seed changes which edges a pattern has but not the mix
# of sizes.  On 7 vertices the cells with 4 to 10 edges are left out: there a
# pattern's verdict, and with it its cost (1 to 150 ms), depends on the seed,
# which would make the workload's throughput depend on the seed.  The 6-vertex
# cells with 7 or more edges (all negative, 4-8 ms per turan-zero or factor3
# call) are large enough that those calls fill the ranks around the 90th
# percentile of a pass, so op_p90_ms does not sit on a steep stretch.
PATTERN_CELLS = (
    [(3, 5, m, 8) for m in range(1, 11)]
    + [(3, 6, m, 5) for m in range(1, 7)]
    + [(3, 6, m, 10) for m in range(7, 15)]
    + [(3, 7, m, 6) for m in (1, 2, 3, 11, 12, 15)]
    + [(4, 6, m, 4) for m in range(1, 9)]
    + [(4, 7, m, 4) for m in range(1, 9)]
)


def shadow_disjoint_sides(n, edges, s) -> list[int]:
    """Side A (as a bitmask) of every s-shadow-disjoint bipartition, by trying all 2^n."""
    sets = [set(e) for e in edges]
    out = []
    for mask in range(1 << n):
        counts = [sum(1 for v in e if mask >> v & 1) for e in edges]
        if all(counts[i] == counts[j] or len(sets[i] & sets[j]) < s
               for i in range(len(edges)) for j in range(i + 1, len(edges))):
            out.append(mask)
    return out


def shadow_disjoint_sizes(n, edges, s) -> list[tuple[int, int]]:
    sizes = {bin(mask).count("1") for mask in shadow_disjoint_sides(n, edges, s)}
    return [(a, n - a) for a in sorted(sizes)]


def _kpartition(k, n, edges) -> bool:
    """Is there a k-colouring of the vertices with every edge rainbow (all k^n tried)?"""
    for colour in product(range(k), repeat=n - 1):
        colour = (0,) + colour
        if all(len({colour[v] for v in e}) == k for e in edges):
            return True
    return False


def _star_ok(edges, vstar) -> bool:
    with_v = [set(e) for e in edges if vstar in e]
    without = [set(e) for e in edges if vstar not in e]
    return all(len(a & b) <= 1 for a in with_v for b in without)


class PatternOracles:
    """Oracle verdicts per pattern, computed once per run outside the timed region."""

    VERDICTS = {
        "turan-zero": lambda f: oracles.turan_zero_oracle(f),
        "cover-partition": lambda f: oracles.cover_partition_oracle(f) is not None,
        "partition-k": lambda f: oracles.partition_condition_oracle(f) is not None,
    }

    def __init__(self):
        self.cache: dict = {}

    def verdict(self, name: str, pattern) -> bool:
        key = (name, pattern)
        if key not in self.cache:
            self.cache[key] = self.VERDICTS[name](Hypergraph(*pattern))
        return self.cache[key]


def _pattern_ops(pattern, orc: PatternOracles) -> list[Op]:
    k, n, edges = pattern

    def decide(module, attr, *extra):
        # looked up at call time, so a tracer's patch of the attribute is seen
        return lambda: getattr(module, attr)(Hypergraph(k, n, edges), *extra)

    def negative(*names):
        # positive verdicts carry a witness, already validated in the timed region
        def ref(rep):
            if rep.verdict or not all(orc.verdict(name, pattern) for name in names):
                return None
            return "negative verdict disagrees with the oracle"

        return ref

    def check_tz(rep):
        if not rep.verdict:
            return None
        w = rep.witness
        ok = deciders.validate_shadow_coloring(
            Hypergraph(k, n, edges), w["ordering"], deciders.coloring_from_witness(w))
        return None if ok else "ordering witness fails validation"

    def check_cp(rep, w=None):
        if not rep.verdict:
            return None
        w = w or rep.witness
        ok = deciders.validate_cover_witness(Hypergraph(k, n, edges), w["vstar"], w["X"], w["Y"])
        return None if ok else "cover-partition witness fails validation"

    def check_f3(rep):
        if not rep.verdict:
            return None
        w = rep.witness
        ok = deciders.validate_shadow_coloring(
            Hypergraph(k, n, edges), w["ordering-coloring"]["ordering"],
            deciders.coloring_from_witness(w["ordering-coloring"]))
        return check_cp(rep, w["cover-partition"]) if ok else "ordering witness fails validation"

    def check_pk(rep):
        if not rep.verdict:
            return None
        ok = deciders.validate_partition_witness(Hypergraph(k, n, edges), rep.witness["vstar"], rep.witness["parts"])
        return None if ok else "partition witness fails validation"

    def run_kp():
        try:
            return deciders.decide_linkdisjoint_kpartite(Hypergraph(k, n, edges))
        except deciders.PreconditionError:
            return "refused"

    def check_kp(rep):
        if rep == "refused" or not rep.verdict:
            return None
        parts = [set(p) for p in rep.witness["partition"]]
        ok = (len(parts) == k and sorted(v for p in parts for v in p) == list(range(n))
              and all(len(set(e) & p) == 1 for e in edges for p in parts)
              and _star_ok(edges, rep.witness["vstar"]))
        return None if ok else "k-partite witness fails validation"

    def ref_kp(rep):
        if rep == "refused":
            return "refused a k-partite graph" if _kpartition(k, n, edges) else None
        if rep.verdict:
            return None
        if not _kpartition(k, n, edges) or any(_star_ok(edges, v) for v in range(n)):
            return "negative verdict is wrong"
        return None

    def trans_ops(s):
        def check(rep):
            if not rep.verdict:
                return None
            combo = rep.witness["combination"]
            total = (sum(c * g[0] for c, g in combo), sum(c * g[1] for c, g in combo))
            gens = {tuple(g) for g in rep.stats["generators"]}
            ok = total == (1, -1) and all(tuple(g) in gens for _, g in combo)
            return None if ok else "trans combination does not reach (1, -1)"

        def ref(rep):
            gens = [tuple(g) for g in rep.stats["generators"]]
            if gens != shadow_disjoint_sizes(n, edges, s):
                return "trans generators differ from brute force"
            if not rep.verdict and oracles.bounded_combination_oracle(gens, (1, -1)) is not None:
                return "negative trans verdict has a combination"
            return None

        return Op(f"trans-s{s}", decide(lattice, "decide_trans", s), check, ref)

    ops = []
    if k == 3:
        ops += [
            Op("turan-zero", decide(deciders, "decide_turan_zero_3"), check_tz, negative("turan-zero")),
            Op("cover-partition", decide(deciders, "decide_cover_partition_3"), check_cp,
               negative("cover-partition")),
            Op("factor3", decide(deciders, "decide_factor_3"), check_f3, negative("turan-zero", "cover-partition")),
        ]
    ops += [
        Op("partition-k", decide(deciders, "decide_partition_condition_k"), check_pk, negative("partition-k")),
        Op("kpartite-link", run_kp, check_kp, ref_kp),
        trans_ops(2),
    ]
    if k == 4:
        ops.append(trans_ops(3))
    return ops


class Patterns(InProcess):
    name = "patterns"

    def __init__(self, seed: int, pins: Pins):
        rng = random.Random(seed)
        self.patterns = [(k, n, random_graph(rng, k, n, m))
                         for k, n, m, count in PATTERN_CELLS for _ in range(count)]
        rng.shuffle(self.patterns)
        self.oracles = PatternOracles()
        self.ops = [op for p in self.patterns for op in _pattern_ops(p, self.oracles)]

    def stop_trace(self) -> dict[str, float]:
        """Also times turan-zero against its oracle on this run's 3-graphs, untraced."""
        super().stop_trace()
        dec = orc = 0.0
        for k, n, edges in self.patterns:
            if k != 3:
                continue
            t0 = perf_counter()
            deciders.decide_turan_zero_3(Hypergraph(k, n, edges))
            t1 = perf_counter()
            oracles.turan_zero_oracle(Hypergraph(k, n, edges))
            dec, orc = dec + t1 - t0, orc + perf_counter() - t1
        return {"deciders.turan_zero.vs_oracle": dec / orc}


# ---------------------------------------------------------------------------
# hosts: seeded builds and questions whose answers come early
# ---------------------------------------------------------------------------


def _partite_ok(edges, n, k, z) -> bool:
    """Plain check of the partite guarantee with the default part sizes."""
    sizes = constructions.default_partite_sizes(n, k)
    part, start = {}, 0
    for i, size in enumerate(sizes):
        for v in range(start, start + size):
            part[v] = i
        start += size

    def vector(e):
        return tuple(sum(1 for v in e if part[v] == i) for i in range(k))

    if any(z in e and vector(e) != (1,) * k for e in edges):
        return False
    return all(vector(a) == vector(b) for a, b in combinations(edges, 2) if len(set(a) & set(b)) >= 2)


def _shadow_ok(edges, x_size, s) -> bool:
    def inx(e):
        return sum(1 for v in e if v < x_size)

    return all(inx(a) == inx(b) for a, b in combinations(edges, 2) if len(set(a) & set(b)) >= s)


class Hosts(InProcess):
    name = "hosts"

    LEMMA51_N = (30, 36, 60, 90)
    OBS62 = ((30, 3), (60, 3), (30, 4), (45, 4))
    GNP = ((20, 0.5), (30, 0.5), (40, 0.3))
    DENSENESS_SAMPLES = 300

    def __init__(self, seed: int, pins: Pins):
        rng = random.Random(seed)
        self.pins = pins

        def cseed():
            return rng.randrange(2**32)

        def sampled(n, m):
            # m edges drawn uniformly, so the host's size, and the cost of a
            # question on it, is the same at every seed; not a factorlab build,
            # so it has no pinned digest
            return None, Hypergraph(3, n, random_graph(rng, 3, n, m))

        def lemma51(n):
            sd = cseed()
            return build_key("lemma51", n=n, k=3, seed=sd), constructions.construct_partite_coloring(
                constructions.ConstructionParams(n=n, k=3, seed=sd)).hypergraph

        builds = [self._lemma51_build(n, cseed()) for n in self.LEMMA51_N]
        builds += [self._obs62_build(n, k, cseed()) for n, k in self.OBS62]
        builds += [self._gnp_build(n, p, cseed()) for n, p in self.GNP]

        edge, loose, cherry, k222 = corpus.single_edge(), corpus.loose_path(), corpus.cherry(), corpus.k222()
        questions = [self._factor_op(f, sampled(n, m)) for f, n, m in (
            (edge, 30, 2030), (edge, 30, 2030), (loose, 15, 137), (cherry, 15, 137))]
        # K222 covers on lemma51 hosts cost about 30 ms at n = 24 but 0.1-0.6 s
        # at n = 36, depending on the seed.  Sixteen n = 24 covers (eight here,
        # eight more below) fill the ranks around the median of a pass, so
        # op_p50_ms does not depend on which of several differently priced ops
        # happens to sit there, and little on the seed.
        questions += [self._cover_op(k222, lemma51(24)) for _ in range(8)]
        host = lemma51(45)
        questions += [self._rooted_op(k222, u, host) for u in range(k222.n)]
        questions.append(self._min_degree_op(sampled(30, 2030)))
        questions += self._denseness_ops(sampled(30, 2030), cseed())
        questions += [self._reachable_op(f, sampled(n, m)) for f, n, m in (
            (edge, 12, 110), (edge, 14, 146), (edge, 12, 88), (loose, 12, 66))]
        # Four min-degree questions of one steady cost fill the ranks around
        # the 90th percentile of a pass, between the builds and find_factor
        # calls above them and the ops below.  Three more cheap reachability
        # questions balance them below the median.  These and the extra covers
        # are drawn last, so that the earlier inputs, and the digests pinned
        # for them, do not depend on them.
        questions += [self._min_degree_op(sampled(30, 2030)) for _ in range(3)]
        questions += [self._reachable_op(f, sampled(n, m)) for f, n, m in (
            (edge, 12, 110), (edge, 12, 88), (loose, 12, 66))]
        questions += [self._cover_op(k222, lemma51(24)) for _ in range(8)]
        self.ops = interleave([builds, questions])

    def _question(self, kind, host, run, check, ref=None):
        """An op on a fresh copy of a set-up host; a built host's digest is checked afterwards."""
        key, h = host

        def reference(answer):
            return (ref and ref(answer)) or (key and self.pins.check(key, h))

        return Op(kind, lambda: run(Hypergraph(h.k, h.n, h.edges)), check, reference)

    # builds ----------------------------------------------------------------

    def _lemma51_build(self, n, sd):
        key = build_key("lemma51", n=n, k=3, seed=sd)
        params = constructions.ConstructionParams(n=n, k=3, seed=sd)

        def check(built):
            h = built.hypergraph
            return "wrong shape" if (built.z, h.n, h.k) != (n - 1, n, 3) else self.pins.check(key, h)

        def ref(built):
            return None if _partite_ok(built.hypergraph.edges, n, 3, n - 1) else "partite guarantee violated"

        return Op("build-lemma51", lambda: constructions.construct_partite_coloring(params), check, ref)

    def _obs62_build(self, n, k, sd):
        key = build_key("obs62", n=n, k=k, s=2, seed=sd)
        params = constructions.ConstructionParams(n=n, k=k, s=2, seed=sd)

        def check(built):
            h = built.hypergraph
            return "wrong shape" if (h.n, h.k) != (n, k) else self.pins.check(key, h)

        def ref(built):
            x = len(built.partition.parts[0])
            return None if _shadow_ok(built.hypergraph.edges, x, 2) else "shadow disjointness violated"

        return Op("build-obs62", lambda: constructions.construct_shadow_disjoint(params), check, ref)

    def _gnp_build(self, n, p, sd):
        key = build_key("gnp", n=n, k=3, p=p, seed=sd)
        return Op("build-gnp", lambda: constructions.random_uniform_hypergraph(n, 3, p, sd),
                  lambda h: "wrong shape" if (h.n, h.k) != (n, 3) else self.pins.check(key, h))

    # questions -------------------------------------------------------------

    def _factor_op(self, f, host):
        h = host[1]

        def check(res):
            if res.status != "found":
                return f"status {res.status}, expected found"
            ok = verification.validate_factor_certificate(f, h, res.certificate)
            return None if ok else "factor certificate fails validation"

        return self._question("find-factor", host, lambda g: verification.find_factor(f, g), check)

    def _cover_op(self, f, host):
        h = host[1]

        def check(rep):
            if rep.covered[h.n - 1]:
                return "special vertex z is covered"
            for w, (cov, phi) in enumerate(zip(rep.covered, rep.witnesses)):
                if cov and (phi is None or w not in phi or not verification.validate_embedding(f, h, phi)):
                    return f"cover witness for vertex {w} fails validation"
            return None

        return self._question("find-cover", host, lambda g: verification.find_cover(f, g), check)

    def _rooted_op(self, f, root, host):
        def check(res):
            return None if res.count == 0 and not res.truncated else "rooted count at z is not 0"

        return self._question("rooted-copies", host, lambda g: verification.rooted_copies(f, root, g, g.n - 1), check)

    def _min_degree_op(self, host):
        h = host[1]

        def ref(value):
            degree = dict.fromkeys(combinations(range(h.n), 2), 0)
            for e in h.edges:
                for pair in combinations(e, 2):
                    degree[pair] += 1
            return None if value == min(degree.values()) else "min 2-degree differs from a plain count"

        return self._question("min-s-degree", host, lambda g: g.min_s_degree(2), lambda v: None, ref)

    def _denseness_ops(self, host, sd):
        """Sampled deficits with the command line's default worker count."""
        from factorlab import cli

        h = host[1]
        workers = cli._workers(argparse.Namespace(workers=None))
        samples, p = self.DENSENESS_SAMPLES, 0.5

        def check(est):
            return None if est.samples == samples and -1 <= est.worst_deficit <= 1 else "deficit out of range"

        def ref(est):
            # one worker, and the singleton family, must both reproduce the deficit bit for bit
            one = verification.estimate_denseness(h, p, samples, sd, workers=1)
            return None if one.worst_deficit == est.worst_deficit else "sampled deficit differs from one worker"

        return [
            self._question("denseness", host, lambda g: verification.estimate_denseness(
                g, p, samples, sd, workers=workers), check, ref),
            self._question("S-denseness", host, lambda g: verification.estimate_S_denseness(
                g, p, [[1], [2], [3]], samples, sd, workers=workers), check, ref),
        ]

    def _reachable_op(self, f, host):
        h = host[1]

        def ref(count):
            rest = [w for w in range(h.n) if w not in (0, 1)]
            expected = 0
            for ws in combinations(rest, f.n - 1):
                expected += all(oracles.factor_oracle(f, h.induced((x,) + ws)[0]) for x in (0, 1))
            return None if count == expected else f"reachable count {count}, oracle {expected}"

        return self._question("reachable", host, lambda g: verification.count_reachable_sets(g, f, 0, 1),
                              lambda c: None, ref)


# ---------------------------------------------------------------------------
# proofs: "absent" answers that need the whole search tree
# ---------------------------------------------------------------------------


def space_barrier(rng, n, a, p):
    """Every edge meets A, |A| = a: every copy of a connected F meets A, so
    there is no F-factor when a < n / v(F)."""
    A = set(rng.sample(range(n), a))
    return tuple(e for e in combinations(range(n), 3) if A & set(e) and rng.random() < p), A


def parity_barrier(rng, n, a, p):
    """|A| = a is odd and every edge meets A in 0 or 2 vertices: no perfect matching."""
    A = set(rng.sample(range(n), a))
    return tuple(e for e in combinations(range(n), 3) if len(A & set(e)) % 2 == 0 and rng.random() < p), A


class Proofs(InProcess):
    name = "proofs"

    # (barrier, pattern, n, |A|, p, copies per pass); each is absent by its argument:
    # space: every copy of an edge or a loose path meets A, so n/v(F) > |A| copies
    # cannot be disjoint; parity: every edge meets the odd set A evenly.  With
    # p = 1 the search tree has the same size at every seed.  The sixteen
    # loose-path proofs at n = 10 (56 nodes each) fill the ranks around the
    # median of a pass, so op_p50_ms does not depend on the p < 1 hosts.
    BARRIERS = (
        ("space", "edge", 15, 4, 1.0, 1),
        ("parity", "edge", 15, 7, 1.0, 1),
        ("space", "edge", 12, 3, 1.0, 4),
        ("parity", "edge", 12, 5, 1.0, 4),
        ("space", "edge", 18, 5, 0.3, 2),
        ("parity", "edge", 18, 9, 0.3, 2),
        ("space", "edge", 15, 4, 0.5, 2),
        ("parity", "edge", 15, 7, 0.5, 2),
        ("space", "loose", 10, 1, 1.0, 16),
    )
    OBS62 = ((30, 11), (30, 11), (24, 9), (24, 9))  # (n, |X|) with |X| odd and both sides >= n/3
    # Exhaustive denseness costs the same at every seed for a given n.  The
    # four n = 11 hosts fill the ranks around the 90th percentile of a pass,
    # so op_p90_ms does not sit on the step between two cost tiers.
    EXHAUSTIVE_N = (10, 11, 11, 11, 11, 12)

    def __init__(self, seed: int, pins: Pins):
        rng = random.Random(seed)
        self.pins = pins
        patterns = {"edge": corpus.single_edge(), "loose": corpus.loose_path()}
        groups: list[list[Op]] = []
        for kind, pname, n, a, p, copies in self.BARRIERS:
            make = space_barrier if kind == "space" else parity_barrier
            groups.append([self._barrier_op(kind, patterns[pname], n, *make(rng, n, a, p)) for _ in range(copies)])
        group = []
        for n, x in self.OBS62:
            sd = rng.randrange(2**32)
            key = build_key("obs62", n=n, k=3, s=2, part_sizes=f"{x}+{n - x}", seed=sd)
            h = constructions.construct_shadow_disjoint(
                constructions.ConstructionParams(n=n, k=3, s=2, seed=sd, part_sizes=(x, n - x))).hypergraph
            group.append(self._obs62_op(key, h, x))
        groups.append(group)
        group = []
        for n in self.EXHAUSTIVE_N:
            sd = rng.randrange(2**32)
            key = build_key("gnp", n=n, k=3, p=0.45, seed=sd)
            group.append(self._exhaustive_op(key, constructions.random_uniform_hypergraph(n, 3, 0.45, sd), sd))
        groups.append(group)
        self.ops = interleave(groups)

    @staticmethod
    def _absent(res):
        return None if res.status == "absent" else f"status {res.status} on a barrier host"

    def _barrier_op(self, kind, f, n, edges, A):
        def ref(res):
            if kind == "space":
                ok = len(A) * f.n < n and all(A & set(e) for e in edges)
            else:
                ok = len(A) % 2 == 1 and all(len(A & set(e)) % 2 == 0 for e in edges)
            return None if ok else "host is not a barrier"

        return Op(f"{kind}-{'edge' if f.n == 3 else 'loose'}",
                  lambda: verification.find_factor(f, Hypergraph(3, n, edges)), self._absent, ref)

    def _obs62_op(self, key, h, x):
        k222 = corpus.k222()

        def ref(res):
            # every 2-shadow-disjoint bipartition of K222 has an even side, and a
            # copy pulls back H's bipartition, so an odd |X| cannot be covered
            even = all(a % 2 == 0 for a, _ in shadow_disjoint_sizes(6, k222.edges, 2))
            if not (even and x % 2 == 1 and _shadow_ok(h.edges, x, 2)):
                return "obs62 host is not a parity barrier"
            return self.pins.check(key, h)

        return Op("parity-obs62", lambda: verification.find_factor(k222, Hypergraph(h.k, h.n, h.edges)), self._absent, ref)

    def _exhaustive_op(self, key, h, sd):
        p = 0.5

        def check(est):
            return None if est.mode == "exhaustive" and 0 <= est.worst_deficit <= 1 else "bad exhaustive report"

        def ref(est):
            sampled = verification.estimate_denseness(h, p, 200, sd, workers=1)
            if est.worst_deficit < sampled.worst_deficit:
                return "exhaustive deficit below the sampled one"
            return self.pins.check(key, h)

        return Op("exhaustive-denseness", lambda: verification.exact_denseness_small(Hypergraph(h.k, h.n, h.edges), p),
                  check, ref)
