"""Command-line front end.

Machine-readable JSON goes to stdout (or ``--out``), a one-line human summary
to stderr.  Exit codes: 0 the command ran and decided/verified, 1 an
``--expect`` value was not met, 2 usage or input errors.  Every JSON payload
embeds the parameters and seeds needed to replay the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions, corpus, deciders, lattice, verification
from .hypergraph import DensenessParams, FormatError, Hypergraph, load_hypergraph

EXIT_OK = 0
EXIT_EXPECT = 1
EXIT_USAGE = 2

# The deciders, the lattice enumerator and the copy searches recurse once per
# pattern vertex, so a larger pattern would exhaust the interpreter's
# recursion limit (1000 frames by default).
PATTERN_VERTEX_LIMIT = 256


def _workers(args) -> int:
    # Sampling runs on the calling thread; this stays only because the
    # benchmark (bench/run.py, bench/workloads.py) still asks for the count.
    return 1


def _check_seed(seed: int) -> None:
    # numpy's own error for a negative seed names neither the flag nor the value.
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def _load(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as handle:
        return load_hypergraph(handle)


def _load_pattern(path: str) -> Hypergraph:
    f = _load(path)
    if f.n > PATTERN_VERTEX_LIMIT:
        raise ValueError(f"pattern has {f.n} vertices; patterns above {PATTERN_VERTEX_LIMIT} are refused")
    return f


def _emit(args, payload: dict, summary: str) -> None:
    text = json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    print(summary, file=sys.stderr)


def _envelope(command: str, params: dict, report: dict) -> dict:
    return {"command": command, "params": params, "seed": params.get("seed"), "report": report}


# ---------------------------------------------------------------------------


def _decide_trans(f: Hypergraph, s: int | None):
    if s is None:
        raise ValueError("decide trans requires --s")
    return lattice.decide_trans(f, s)


# Property -> decider(f, s).  Names are looked up at call time, so wrappers
# patched onto the modules after import are still called.
DECIDERS = {
    "turan-zero": lambda f, s: deciders.decide_turan_zero_3(f),
    "kpartite-link": lambda f, s: deciders.decide_linkdisjoint_kpartite(f),
    "cover-partition": lambda f, s: deciders.decide_cover_partition_3(f),
    "factor3": lambda f, s: deciders.decide_factor_3(f),
    "partition-k": lambda f, s: deciders.decide_partition_condition_k(f),
    "trans": _decide_trans,
}


def cmd_decide(args) -> int:
    f = _load_pattern(args.file)
    report = DECIDERS[args.property](f, args.s)
    params = {"property": args.property, "file": args.file, "s": args.s, "seed": None}
    _emit(args, _envelope("decide", params, report.to_json_obj()),
          f"{args.property}: verdict={report.verdict}")
    if args.expect is not None and report.verdict != (args.expect == "true"):
        return EXIT_EXPECT
    return EXIT_OK


def cmd_lattice(args) -> int:
    f = _load_pattern(args.file)
    gens = lattice.size_generators(f, args.s)
    lat = lattice.lattice_from_generators(gens)
    bips = lattice.enumerate_shadow_disjoint_bipartitions(f, args.s)
    report = {
        "s": args.s,
        "generators": [list(g) for g in gens],
        "basis": [list(b) for b in lat.basis],
        "bipartition_count": len(bips),
    }
    params = {"file": args.file, "s": args.s, "seed": None}
    _emit(args, _envelope("lattice", params, report),
          f"lattice: {len(gens)} generators, basis {report['basis']}")
    return EXIT_OK


def _parse_part_sizes(raw: str | None) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"--part-sizes must be comma-separated integers, got {raw!r}") from exc


def _colouring_params(args, params, s) -> dict:
    return {"n": args.n, "k": args.k, "s": s,
            "part_sizes": list(params.part_sizes) if params.part_sizes else None}


def _construct_lemma51(args, params):
    built = constructions.construct_partite_coloring(params)
    return built.hypergraph, _colouring_params(args, params, None), {
        "z": built.z, "partition": built.partition.to_json_obj(), "palette_size": built.palette_size}


def _construct_obs62(args, params):
    if args.s is None:
        raise ValueError("construct obs62 requires --s")
    built = constructions.construct_shadow_disjoint(params)
    return built.hypergraph, _colouring_params(args, params, args.s), {
        "z": None, "partition": built.partition.to_json_obj(), "palette_size": built.palette_size}


def _construct_gnp(args, params):
    if args.p is None:
        raise ValueError("construct gnp requires --p")
    h = constructions.random_uniform_hypergraph(args.n, args.k, args.p, args.seed)
    return h, {"n": args.n, "k": args.k, "p": args.p}, {"z": None, "partition": None, "palette_size": None}


# Variant -> builder(args, params) returning (hypergraph, recorded params,
# the z / partition / palette_size fields of the sidecar).
CONSTRUCTIONS = {
    "lemma51": _construct_lemma51,
    "obs62": _construct_obs62,
    "gnp": _construct_gnp,
}


def cmd_construct(args) -> int:
    _check_seed(args.seed)
    params = constructions.ConstructionParams(
        n=args.n, k=args.k, seed=args.seed, s=args.s,
        part_sizes=_parse_part_sizes(args.part_sizes),
    )
    h, recorded, fields = CONSTRUCTIONS[args.variant](args, params)
    sidecar = {"variant": args.variant, "params": recorded, "seed": args.seed, **fields}

    if args.out:
        base = Path(args.out)
        hg_path = base.with_suffix(".hg") if base.suffix == "" else base
        sidecar_path = hg_path.with_suffix(hg_path.suffix + ".json")
        hg_path.write_text(h.to_text(), encoding="utf-8")
        sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
        print(json.dumps({"hypergraph_file": str(hg_path), "sidecar_file": str(sidecar_path),
                          **sidecar}, indent=2))
    else:
        print(json.dumps({"hypergraph": h.to_json_obj(), **sidecar}, indent=2))
    print(f"{args.variant}: n={h.n} k={h.k} m={len(h.edges)} seed={args.seed}", file=sys.stderr)
    return EXIT_OK


def _resolve_w(token: str, h: Hypergraph) -> int:
    # The partite construction always places its special vertex last.
    if token == "z":
        return h.n - 1
    return int(token)


def cmd_verify(args) -> int:
    params: dict = {"task": args.task, "seed": getattr(args, "seed", None)}
    mismatch = False

    if args.task in ("cover", "factor", "rooted"):
        if not args.pattern or not args.host:
            raise ValueError(f"verify {args.task} requires --F and --H")
        f, h = _load_pattern(args.pattern), _load(args.host)
        if f.k != h.k:
            raise ValueError(f"uniformity mismatch: F has k={f.k}, H has k={h.k}")
        if args.cap < 1:
            raise ValueError(f"--cap must be at least 1, got {args.cap}")
        params.update({"F": args.pattern, "H": args.host, "cap": args.cap})

    if args.task == "cover":
        rep = verification.find_cover(f, h)
        report = {
            "verdict": rep.verdict,
            "covered": rep.covered,
            "uncovered": [w for w, c in enumerate(rep.covered) if not c],
            "witnesses": [list(phi) if phi else None for phi in rep.witnesses],
        }
        summary = f"cover: verdict={rep.verdict}"
        if args.expect is not None:
            mismatch = rep.verdict != (args.expect == "true")
    elif args.task == "factor":
        res = verification.find_factor(f, h, cap=args.cap)
        report = {
            "status": res.status,
            "certificate": [list(phi) for phi in res.certificate] if res.certificate else None,
            "stats": res.stats,
        }
        summary = f"factor: {res.status}"
        if args.expect is not None:
            mismatch = res.status != args.expect
    elif args.task == "rooted":
        if args.w is None:
            raise ValueError("verify rooted requires --w")
        w = _resolve_w(args.w, h)
        params["w"] = w
        roots = [args.vstar] if args.vstar is not None else list(range(f.n))
        counts = {}
        truncated = False
        for root in roots:
            res = verification.rooted_copies(f, root, h, w, cap=args.cap)
            counts[str(root)] = res.count
            truncated = truncated or res.truncated
        total = sum(counts.values())
        report = {"w": w, "counts": counts, "total": total, "truncated": truncated}
        summary = f"rooted: total={total} at w={w}"
        if args.expect is not None:
            mismatch = total != int(args.expect)
    elif args.task == "denseness":
        if not args.host:
            raise ValueError("verify denseness requires --H")
        h = _load(args.host)
        if args.p is None or not 0 < args.p < 1:
            raise ValueError(f"verify denseness requires --p in (0, 1), got {args.p}")
        if args.mu is not None:
            # validates the definitional (p, mu) ranges; recorded for replay
            DensenessParams(p=args.p, mu=args.mu)
        params.update({"H": args.host, "p": args.p, "mu": args.mu,
                       "samples": args.samples, "mode": args.mode, "family": args.family})
        if args.mode == "sampled":
            _check_seed(args.seed)
        if args.mode == "exhaustive":
            est = verification.exact_denseness_small(h, args.p)
        elif args.family is not None:
            try:
                family = json.loads(args.family)
            except json.JSONDecodeError as exc:
                raise ValueError(f"--family is not JSON: {exc}") from exc
            est = verification.estimate_S_denseness(h, args.p, family, args.samples, args.seed)
        else:
            est = verification.estimate_denseness(h, args.p, args.samples, args.seed)
        report = est.to_json_obj()
        summary = f"denseness: worst_deficit={est.worst_deficit:.6g} ({est.mode})"
    else:  # pragma: no cover
        raise ValueError(f"unknown task {args.task}")

    _emit(args, _envelope("verify", params, report), summary)
    return EXIT_EXPECT if mismatch else EXIT_OK


def cmd_corpus(args) -> int:
    if args.name == "list":
        print(json.dumps(sorted(corpus.NAMED)))
        return EXIT_OK
    h = corpus.by_name(args.name)
    if args.out:
        Path(args.out).write_text(h.to_text(), encoding="utf-8")
        print(json.dumps({"name": args.name, "file": args.out, **h.to_json_obj()}, indent=2))
    else:
        sys.stdout.write(h.to_text())
    print(f"corpus {args.name}: n={h.n} m={len(h.edges)}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorlab",
        description="Decide factor/cover criteria, build seeded constructions, "
        "and verify cover/factor/denseness claims on small hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path instead of stdout")

    p_decide = sub.add_parser("decide", help="decide a membership property of a pattern graph")
    p_decide.add_argument("property", choices=list(DECIDERS))
    p_decide.add_argument("file")
    p_decide.add_argument("--s", type=int, help="shadow order for trans")
    p_decide.add_argument("--expect", choices=["true", "false"])
    common(p_decide)
    p_decide.set_defaults(func=cmd_decide)

    p_lat = sub.add_parser("lattice", help="emit shadow-disjoint bipartition generators and basis")
    p_lat.add_argument("file")
    p_lat.add_argument("--s", type=int, required=True)
    common(p_lat)
    p_lat.set_defaults(func=cmd_lattice)

    p_con = sub.add_parser("construct", help="build a seeded instance")
    p_con.add_argument("variant", choices=list(CONSTRUCTIONS))
    p_con.add_argument("--n", type=int, required=True)
    p_con.add_argument("--k", type=int, default=3)
    p_con.add_argument("--s", type=int)
    p_con.add_argument("--p", type=float)
    p_con.add_argument("--seed", type=int, required=True)
    p_con.add_argument("--part-sizes", help="comma-separated explicit part sizes")
    common(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="run a ground-truth verification task")
    p_ver.add_argument("task", choices=["cover", "factor", "denseness", "rooted"])
    p_ver.add_argument("--F", dest="pattern", help="pattern hypergraph file")
    p_ver.add_argument("--H", dest="host", help="host hypergraph file")
    p_ver.add_argument("--w", help="host vertex for rooted counts; 'z' means the last vertex")
    p_ver.add_argument("--vstar", type=int, help="restrict rooted counts to one pattern root")
    p_ver.add_argument("--p", type=float, help="target density for denseness")
    p_ver.add_argument("--mu", type=float, help="recorded slack (informational)")
    p_ver.add_argument("--samples", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cap", type=int, default=verification.DEFAULT_CAP,
                       help="factor: most copies (one per Aut(F) class) listed before the answer "
                       "is inconclusive; rooted: most labelled embeddings counted per root")
    p_ver.add_argument("--mode", choices=["sampled", "exhaustive"], default="sampled")
    p_ver.add_argument("--family", help="JSON list of index subsets for directed denseness")
    p_ver.add_argument("--expect", help="expected outcome; mismatch exits 1")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cor = sub.add_parser("corpus", help="emit a named built-in graph ('list' to enumerate)")
    p_cor.add_argument("name")
    p_cor.add_argument("--out")
    p_cor.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, deciders.PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
