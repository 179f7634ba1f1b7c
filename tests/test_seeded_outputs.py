"""Golden-output gate: the SHA-256 of every answer on a seeded corpus.

Each section below lists the answers of one layer on fixed seeded inputs, as
JSON, and ``seeded_outputs.json`` pins the digest of each section.  A change
meant to keep every answer passes this gate unchanged; a change meant to
alter answers regenerates the pins, and says which and why in CHANGES.md:

    PYTHONPATH=src python tests/test_seeded_outputs.py --pin

Timings (``time_s``) are dropped before hashing; everything else a report
carries, search statistics included, is pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from factorlab import cli, constructions, deciders, lattice, verification
from factorlab.corpus import NAMED, cherry, k4_minus, k222, loose_path, single_edge
from factorlab.hypergraph import Hypergraph

PINS = Path(__file__).with_name("seeded_outputs.json")


def _random_graph(rng: random.Random, k: int, n: int, p: float) -> Hypergraph:
    return Hypergraph(k, n, [e for e in combinations(range(n), k) if rng.random() < p])


def corpus() -> list[Hypergraph]:
    """Seeded 3- and 4-graphs on 4-7 vertices, at three densities each."""
    rng = random.Random(20211)
    return [_random_graph(rng, k, n, p)
            for k in (3, 4) for n in range(4, 8) for p in (0.2, 0.45, 0.7) for _ in range(3)]


def host_pairs() -> list[tuple[Hypergraph, Hypergraph]]:
    """Seeded (pattern, host) pairs with hosts of up to 14 vertices."""
    rng = random.Random(20212)
    edge4 = Hypergraph(4, 4, [(0, 1, 2, 3)])
    tight4 = Hypergraph(4, 5, [(0, 1, 2, 3), (1, 2, 3, 4)])
    plan = [(single_edge(), 3, n, p) for n, p in ((6, 0.5), (9, 0.25), (12, 0.15), (14, 0.1))]
    plan += [(f, 3, n, p) for f in (loose_path(), cherry()) for n, p in ((10, 0.2), (12, 0.3))]
    plan += [(k4_minus(), 3, n, p) for n, p in ((8, 0.5), (12, 0.3))]
    plan += [(k222(), 3, n, p) for n, p in ((6, 0.8), (12, 0.35))]
    plan += [(f, 4, n, p) for f in (edge4, tight4) for n, p in ((8, 0.3), (12, 0.05))]
    return [(f, _random_graph(rng, k, n, p)) for f, k, n, p in plan]


def _strip_times(obj):
    if isinstance(obj, dict):
        return {key: _strip_times(val) for key, val in obj.items() if key != "time_s"}
    if isinstance(obj, list):
        return [_strip_times(val) for val in obj]
    return obj


def _answer(call, *args):
    """A decider's report without timings, or the error it raised."""
    try:
        return _strip_times(call(*args).to_json_obj())
    except ValueError as exc:  # PreconditionError included
        return [type(exc).__name__, str(exc)]


DECIDERS = [
    deciders.decide_turan_zero_3,
    deciders.decide_cover_partition_3,
    deciders.decide_factor_3,
    deciders.decide_partition_condition_k,
    deciders.decide_linkdisjoint_kpartite,
]


def section_deciders() -> list:
    out = []
    for f in corpus():
        out.append([_answer(decide, f) for decide in DECIDERS])
        out.append([_answer(lattice.decide_trans, f, s) for s in range(2, f.k)])
    return out


def section_copy_images() -> list:
    out = []
    for f, h in host_pairs():
        for cap in (verification.DEFAULT_CAP, 5):
            images, truncated = verification.copy_images(f, h, cap)
            out.append([list(images.items()), truncated])
    return out


def section_factor() -> list:
    out = []
    for f, h in host_pairs():
        for cap in (verification.DEFAULT_CAP, 5):
            res = verification.find_factor(f, h, cap)
            out.append([res.status, res.certificate, res.stats, res.refutation])
    return out


def section_cover() -> list:
    out = []
    for f, h in host_pairs():
        rep = verification.find_cover(f, h)
        out.append([rep.covered, rep.witnesses, rep.verdict])
    return out


def section_rooted() -> list:
    out = []
    for f, h in host_pairs():
        for vstar in range(f.n):
            for w in (0, h.n - 1):
                for cap in (verification.DEFAULT_CAP, 3):
                    res = verification.rooted_copies(f, vstar, h, w, cap)
                    out.append([res.count, res.truncated])
    return out


def section_reachable() -> list:
    return [[verification.count_reachable_sets(h, f, u, v) for u, v in ((0, 1), (h.n - 1, 2))]
            for f, h in host_pairs()]


def section_denseness() -> list:
    """Exhaustive reports of seeded 3-graphs on 0-12 vertices at p on both
    sides of their density, and sampled reports of the plain estimator and of
    two directed families."""
    rng = random.Random(20213)
    out = []
    for n in range(13):
        for density in ((0.3, 0.7) if n < 10 else (0.3,)):
            h = _random_graph(rng, 3, n, density)
            out.append([verification.exact_denseness_small(h, p).to_json_obj() for p in (0.01, 0.1, 0.5, 0.9)])
    for n in (4, 8, 12):
        h = _random_graph(rng, 3, n, 0.4)
        for p in (0.1, 0.5, 0.9):
            out.append(verification.estimate_denseness(h, p, 30, seed=n).to_json_obj())
            for family in ([[1], [2], [3]], [[1, 2], [3]]):
                out.append(verification.estimate_S_denseness(h, p, family, 30, seed=n).to_json_obj())
    return out


def _run_cli(argv: list[str], tmp: str) -> list:
    """Exit code, stdout without timings and stderr of one in-process run,
    with each input file under ``tmp`` named by its base name.  A flag value
    its parser refuses exits 2 from argument parsing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    prefix = str(Path(tmp)) + "/"
    text = out.getvalue().replace(prefix, "")
    with contextlib.suppress(ValueError):
        text = json.dumps(_strip_times(json.loads(text)), indent=2)
    return [code, text, err.getvalue().replace(prefix, "")]


def section_cli() -> list:
    """``decide`` for every property and ``lattice`` for every s, on one
    graph of each size and density of the seeded corpus and the named graphs."""
    graphs = corpus()[::3] + [build() for build in NAMED.values()]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pattern.hg"
        for f in graphs:
            path.write_text(f.to_text())
            for prop in cli.DECIDERS:
                for s in ([None] if prop != "trans" else range(2, f.k)):
                    extra = [] if s is None else ["--s", str(s)]
                    out.append(_run_cli(["decide", prop, str(path), *extra], tmp))
            for s in range(2, f.k):
                out.append(_run_cli(["lattice", str(path), "--s", str(s)], tmp))
    return out


def section_constructions() -> list:
    """Seeded lemma51 and obs62 builds, with default and explicit part sizes,
    and binomial builds: edges, z, partition, palette size and base colours,
    the last replayed from the build's seeded draw."""
    out = []
    plans = [(constructions.construct_partite_coloring, k, None, n, sizes)
             for k, n, sizes in ((3, 10, None), (3, 10, (4, 5, 1)), (4, 12, None), (4, 12, (3, 4, 4, 1)))]
    plans += [(constructions.construct_shadow_disjoint, k, s, n, sizes)
              for k, s, n, sizes in ((3, 2, 10, None), (3, 2, 10, (4, 6)), (4, 2, 12, None),
                                     (4, 2, 12, (5, 7)), (4, 3, 12, None), (4, 3, 12, (7, 5)))]
    for build, k, s, n, sizes in plans:
        for seed in (0, 7):
            built = build(constructions.ConstructionParams(n=n, k=k, seed=seed, s=s, part_sizes=sizes))
            r = 2 if s is None else s
            colours = constructions._seeded_draw(
                comb(n, r), seed, lambda rng, count: rng.integers(0, built.palette_size, size=count))
            out.append([built.hypergraph.to_json_obj(), built.z, built.partition.to_json_obj(),
                        built.palette_size, [[list(t), c] for t, c in zip(combinations(range(n), r), colours)]])
    for k, n, p in ((3, 9, 0.3), (4, 9, 0.2), (3, 12, 0.05)):
        out.append(constructions.random_uniform_hypergraph(n, k, p, seed=n).to_json_obj())
    return out


def section_cli_commands() -> list:
    """``verify cover|factor|rooted|denseness|exhaustive-denseness`` and ``construct`` runs on
    seeded (pattern, host) pairs, with the usage errors that exit 2."""
    pairs = host_pairs()
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        pattern, host, other = (str(Path(tmp) / name) for name in ("F.hg", "H.hg", "other.hg"))
        for f, h in (pairs[0], pairs[4], pairs[8], pairs[12]):
            Path(pattern).write_text(f.to_text())
            Path(host).write_text(h.to_text())
            pair = ["--F", pattern, "--H", host]
            for argv in (["cover", *pair], ["cover", *pair, "--expect", "true"],
                         ["factor", *pair], ["factor", *pair, "--cap", "5", "--expect", "found"],
                         ["rooted", *pair, "--w", "z"], ["rooted", *pair, "--w", "0", "--vstar", "0"],
                         ["rooted", *pair, "--w", "1", "--cap", "2", "--expect", "2"],
                         ["denseness", "--H", host, "--p", "0.3", "--samples", "20", "--seed", "3"],
                         ["denseness", "--H", host, "--p", "0.3", "--samples", "20",
                          "--family", "[[1, 2], [3]]"],
                         ["rooted", *pair, "--w", "0", "--vstar", str(f.n)],
                         ["rooted", *pair, "--w", str(h.n)], ["rooted", *pair, "--w", "-1"],
                         ["cover", *pair, "--expect", "yes"], ["factor", *pair, "--expect", "true"],
                         ["rooted", *pair, "--w", "0", "--expect", "-1"]):
                out.append(_run_cli(["verify", *argv], tmp))
        Path(other).write_text(pairs[0][1].to_text())  # a 3-graph host for the 4-graph pattern
        out.append(_run_cli(["verify", "factor", "--F", pattern, "--H", other], tmp))
        out.append(_run_cli(["verify", "rooted", "--F", pattern, "--H", other, "--w", "0"], tmp))
        Path(host).write_text(_random_graph(random.Random(20214), 3, 6, 0.4).to_text())
        out.append(_run_cli(["verify", "exhaustive-denseness", "--H", host, "--p", "0.2"], tmp))
        for argv in (["obs62", "--n", "10", "--s", "2", "--part-sizes", "4,6"],
                     ["obs62", "--n", "10", "--k", "4", "--s", "3", "--part-sizes", "5,5"],
                     ["obs62", "--n", "10", "--s", "2", "--part-sizes", "2,8"],
                     ["obs62", "--n", "10", "--s", "2", "--part-sizes", "4,x"],
                     ["lemma51", "--n", "9", "--part-sizes", "3,5,1"],
                     ["gnp", "--n", "8", "--p", "0.25"]):
            out.append(_run_cli(["construct", *argv, "--seed", "5"], tmp))
    return out


SECTIONS = {
    "deciders": section_deciders,
    "copy_images": section_copy_images,
    "factor": section_factor,
    "cover": section_cover,
    "rooted": section_rooted,
    "reachable": section_reachable,
    "denseness": section_denseness,
    "cli": section_cli,
    "constructions": section_constructions,
    "cli_commands": section_cli_commands,
}


def digest(name: str) -> str:
    return hashlib.sha256(json.dumps(SECTIONS[name]()).encode()).hexdigest()


@pytest.mark.parametrize("name", list(SECTIONS))
def test_seeded_outputs_unchanged(name):
    assert digest(name) == json.loads(PINS.read_text())[name]


def test_searches_read_nothing_their_validators_read(monkeypatch):
    """Every decider of the ``deciders`` section answers as pinned with
    ``forced_coloring`` and ``Hypergraph.link`` made to raise: the validators
    read them, so a search that read them would check itself."""
    def refuse(*args):
        raise AssertionError("a search read what its validator reads")

    monkeypatch.setattr(deciders, "forced_coloring", refuse)
    monkeypatch.setattr(Hypergraph, "link", refuse)
    assert digest("deciders") == json.loads(PINS.read_text())["deciders"]


def test_every_refutation_of_the_corpus_validates():
    """Each turan-zero or factor3 refutation of the ``deciders`` and ``cli``
    inputs passes ``validate_turan_zero_refutation``."""
    refuted = 0
    for f in corpus() + [build() for build in NAMED.values()]:
        if f.k != 3:
            continue
        for decide in (deciders.decide_turan_zero_3, deciders.decide_factor_3):
            report = decide(f)
            if report.refutation is not None:
                assert not report.verdict
                assert deciders.validate_turan_zero_refutation(f, report.refutation)
                refuted += 1
    assert refuted > 20


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        raise SystemExit("usage: python tests/test_seeded_outputs.py --pin")
    PINS.write_text(json.dumps({name: digest(name) for name in SECTIONS}, indent=1) + "\n")
    print(f"pinned {len(SECTIONS)} digests in {PINS.name}")
