"""Command-line front end.

Machine-readable JSON goes to stdout (or ``--out``), a one-line human summary
to stderr.  Exit codes: 0 the command ran and decided/verified, 1 an
``--expect`` value was not met, 2 usage or input errors.  Every JSON payload
embeds the parameters and seeds needed to replay the run.  Each property,
variant and task has its own parser holding only the flags it reads, so a
flag it would ignore exits 2; each flag's value is checked by its ``type``
there, and command bodies check only what needs a loaded file.

Each command imports the library modules it uses in its own body, after it
has read its input files, so a process loads only those modules (and none
when an input is refused); a wrapper patched onto a module's attribute is
still the function a command calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .hypergraph import DEFAULT_CAP, Hypergraph, load_hypergraph

EXIT_OK = 0
EXIT_EXPECT = 1
EXIT_USAGE = 2

# No pattern search recurses, and `verify factor`'s symmetry breaking keeps
# one floor per pattern vertex: a one-edge pattern into itself takes 2 ms and
# 0.07 MB at 256 vertices, and 9-12 ms and 0.65 MB at 1024 (traced peak;
# 2-vCPU Xeon).  What still grows with the pattern: trans and lattice count
# isolated vertices' sides by binomials but walk every bipartition of the
# rest (exponential time, flat memory, for a pattern without isolated
# vertices), and turan-zero and partition-k backtrack.
PATTERN_VERTEX_LIMIT = 256


def _workers(args) -> int:
    # Sampling runs on the calling thread; this stays only because the
    # benchmark (bench/run.py, bench/workloads.py) still asks for the count.
    return 1


def _flag_type(name: str, convert, valid=None, wanted: str = ""):
    """An argparse ``type`` that converts a flag's text and refuses a value
    ``valid`` rejects, so the parser that declares the flag checks it.

    A text ``convert`` cannot read gets argparse's own "invalid <name> value"
    line, a rejected value "must be <wanted>"; both exit 2 with one line.
    """

    def parse(raw: str):
        try:
            value = convert(raw)
        except RecursionError:  # JSON nested past the interpreter's limit
            raise argparse.ArgumentTypeError(f"invalid {name} value: nested too deeply") from None
        if valid is not None and not valid(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {raw}")
        return value

    parse.__name__ = name
    return parse


# Seeds and rooted counts; numpy's own error for a negative seed names
# neither the flag nor the value.
_NON_NEGATIVE = _flag_type("int", int, lambda v: v >= 0, "non-negative")
_POSITIVE = _flag_type("int", int, lambda v: v >= 1, "at least 1")
_PROBABILITY = _flag_type("float", float, lambda v: 0 < v < 1, "in (0, 1)")
_PART_SIZES = _flag_type("comma-separated int", lambda raw: tuple(int(tok) for tok in raw.split(",")))
# A list only: JSON null would read as "no family" and run the uniform estimator.
_FAMILY = _flag_type("JSON", json.loads, lambda v: isinstance(v, list), "a JSON list")


def _load(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as handle:
        return load_hypergraph(handle)


def _load_pattern(path: str) -> Hypergraph:
    f = _load(path)
    if f.n > PATTERN_VERTEX_LIMIT:
        raise ValueError(f"pattern has {f.n} vertices; patterns above {PATTERN_VERTEX_LIMIT} are refused")
    return f


def _write(args, text: str) -> None:
    """``text`` and a newline to ``--out`` when given, else to stdout."""
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _emit(args, payload: dict, summary: str) -> None:
    _write(args, json.dumps(payload, indent=2))
    print(summary, file=sys.stderr)


def _envelope(command: str, params: dict, report: dict) -> dict:
    return {"command": command, "params": params, "seed": params.get("seed"), "report": report}


# ---------------------------------------------------------------------------


# Property -> (home module, decider name); only trans reads the shadow order
# s.  The decider is looked up on its module at call time, so a wrapper
# patched onto the module after import is still called.
DECIDERS = {
    "turan-zero": ("deciders", "decide_turan_zero_3"),
    "kpartite-link": ("deciders", "decide_linkdisjoint_kpartite"),
    "cover-partition": ("deciders", "decide_cover_partition_3"),
    "factor3": ("deciders", "decide_factor_3"),
    "partition-k": ("deciders", "decide_partition_condition_k"),
    "trans": ("lattice", "decide_trans"),
}


def cmd_decide(args) -> int:
    f = _load_pattern(args.file)
    s = getattr(args, "s", None)
    home, name = DECIDERS[args.property]
    # ``__import__`` rather than importlib, so ``python -X importtime`` lists it.
    decide = getattr(__import__(f"{__package__}.{home}", fromlist=[name]), name)
    report = decide(f) if s is None else decide(f, s)
    params = {"property": args.property, "file": args.file, "s": s, "seed": None}
    _emit(args, _envelope("decide", params, report.to_json_obj()),
          f"{args.property}: verdict={report.verdict}")
    if args.expect is not None and report.verdict != (args.expect == "true"):
        return EXIT_EXPECT
    return EXIT_OK


def cmd_lattice(args) -> int:
    f = _load_pattern(args.file)
    from . import lattice

    sizes = lattice.bipartition_sizes(f, args.s)
    gens = [(a, f.n - a) for a in sizes]
    lat = lattice.lattice_from_generators(gens)
    report = {
        "s": args.s,
        "generators": [list(g) for g in gens],
        "basis": [list(b) for b in lat.basis],
        "bipartition_count": sum(sizes.values()),
    }
    params = {"file": args.file, "s": args.s, "seed": None}
    _emit(args, _envelope("lattice", params, report),
          f"lattice: {len(gens)} generators, basis {report['basis']}")
    return EXIT_OK


def _colouring(constructions, build, args, s: int | None):
    params = constructions.ConstructionParams(
        n=args.n, k=args.k, seed=args.seed, s=s, part_sizes=args.part_sizes)
    built = build(params)
    recorded = {"n": args.n, "k": args.k, "s": s,
                "part_sizes": list(params.part_sizes) if params.part_sizes else None}
    return built.hypergraph, recorded, {
        "z": built.z, "partition": built.partition.to_json_obj(), "palette_size": built.palette_size}


def _construct_gnp(constructions, args):
    h = constructions.random_uniform_hypergraph(args.n, args.k, args.p, args.seed)
    return h, {"n": args.n, "k": args.k, "p": args.p}, {"z": None, "partition": None, "palette_size": None}


# Variant -> builder(constructions module, args) returning (hypergraph,
# recorded params, the z / partition / palette_size fields of the sidecar).
# Builders are looked up on the module at call time, as in DECIDERS.
CONSTRUCTIONS = {
    "lemma51": lambda c, args: _colouring(c, c.construct_partite_coloring, args, None),
    "obs62": lambda c, args: _colouring(c, c.construct_shadow_disjoint, args, args.s),
    "gnp": _construct_gnp,
}


def cmd_construct(args) -> int:
    from . import constructions

    h, recorded, fields = CONSTRUCTIONS[args.variant](constructions, args)
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
    try:
        w = h.n - 1 if token == "z" else int(token)
    except ValueError:
        raise ValueError(f"--w must be a host vertex id or 'z', got {token!r}") from None
    if not 0 <= w < h.n:
        raise ValueError(f"--w must be a host vertex in [0, {h.n}), got {token!r}")
    return w


def cmd_verify(args) -> int:
    params: dict = {"task": args.task, "seed": getattr(args, "seed", None)}
    mismatch = False

    if args.task.endswith("denseness"):
        h = _load(args.host)
        from . import verification

        params.update({"H": args.host, "p": args.p})
        if args.task == "exhaustive-denseness":
            est = verification.exact_denseness_small(h, args.p)
        else:
            params.update({"samples": args.samples, "family": args.family})
            if args.family is None:
                est = verification.estimate_denseness(h, args.p, args.samples, args.seed)
            else:
                est = verification.estimate_S_denseness(h, args.p, args.family, args.samples, args.seed)
        _emit(args, _envelope("verify", params, est.to_json_obj()),
              f"denseness: worst_deficit={est.worst_deficit:.6g} ({est.mode})")
        return EXIT_OK

    f, h = _load_pattern(args.pattern), _load(args.host)
    if f.k != h.k:
        raise ValueError(f"uniformity mismatch: F has k={f.k}, H has k={h.k}")
    from . import verification

    params.update({"F": args.pattern, "H": args.host})
    if args.task != "cover":  # cover takes no cap: it stops at the first copy through each vertex
        params["cap"] = args.cap

    if args.task == "cover":
        rep = verification.find_cover(f, h)
        report = {
            "verdict": rep.verdict,
            "covered": rep.covered,
            "uncovered": [w for w, c in enumerate(rep.covered) if not c],
            "witnesses": [list(phi) if phi else None for phi in rep.witnesses],
        }
        summary = f"cover: verdict={rep.verdict}"
        mismatch = args.expect is not None and rep.verdict != (args.expect == "true")
    elif args.task == "factor":
        res = verification.find_factor(f, h, cap=args.cap)
        report = {
            "status": res.status,
            "certificate": [list(phi) for phi in res.certificate] if res.certificate else None,
            "refutation": res.refutation,
            "stats": res.stats,
        }
        summary = f"factor: {res.status}"
        mismatch = args.expect is not None and res.status != args.expect
    else:  # rooted
        w = _resolve_w(args.w, h)
        if args.vstar is not None and not 0 <= args.vstar < f.n:
            raise ValueError(f"--vstar must be a pattern vertex in [0, {f.n}), got {args.vstar}")
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
        mismatch = args.expect is not None and total != args.expect

    _emit(args, _envelope("verify", params, report), summary)
    return EXIT_EXPECT if mismatch else EXIT_OK


def cmd_corpus(args) -> int:
    from . import corpus

    if args.name == "list":
        _write(args, json.dumps(sorted(corpus.NAMED)))
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one line and exit 2.

    ``add_subparsers`` builds the subcommand parsers of the same class.  No
    parser reads a prefix of a flag as the flag, so a flag of another variant
    (``--s`` where ``--seed`` is meant) is refused, not taken for a local one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="factorlab",
        description="Decide factor/cover criteria, build seeded constructions, "
        "and verify cover/factor/denseness claims on small hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.add_argument("--out", help="write the JSON report to this path instead of stdout")
        p.set_defaults(func=func)

    def variants(command, dest, names, func, summary):
        """One parser per property, variant or task of ``command``."""
        group = sub.add_parser(command, help=summary).add_subparsers(dest=dest, required=True)
        parsers = {name: group.add_parser(name) for name in names}
        for p in parsers.values():
            common(p, func)
        return parsers

    decide = variants("decide", "property", DECIDERS, cmd_decide,
                      "decide a membership property of a pattern graph")
    for p in decide.values():
        p.add_argument("file")
        p.add_argument("--expect", choices=["true", "false"])
    decide["trans"].add_argument("--s", type=int, required=True, help="shadow order")

    p_lat = sub.add_parser("lattice", help="emit shadow-disjoint bipartition generators and basis")
    p_lat.add_argument("file")
    p_lat.add_argument("--s", type=int, required=True)
    common(p_lat, cmd_lattice)

    construct = variants("construct", "variant", CONSTRUCTIONS, cmd_construct, "build a seeded instance")
    for name, p in construct.items():
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--seed", type=_NON_NEGATIVE, required=True)
        if name != "gnp":
            p.add_argument("--part-sizes", type=_PART_SIZES, help="comma-separated explicit part sizes")
    construct["obs62"].add_argument("--s", type=int, required=True, help="order of the coloured sets")
    construct["gnp"].add_argument("--p", type=float, required=True, help="edge probability")

    verify = variants("verify", "task", ["cover", "factor", "rooted", "denseness", "exhaustive-denseness"],
                      cmd_verify, "run a ground-truth verification task")
    for task in ("cover", "factor", "rooted"):
        verify[task].add_argument("--F", dest="pattern", required=True, help="pattern hypergraph file")
        verify[task].add_argument("--H", dest="host", required=True, help="host hypergraph file")
    for task, outcomes in (("cover", ["true", "false"]), ("factor", ["found", "absent", "inconclusive"])):
        verify[task].add_argument("--expect", choices=outcomes, help="expected outcome; mismatch exits 1")
    verify["factor"].add_argument("--cap", type=_POSITIVE, default=DEFAULT_CAP,
                                  help="most copies (one per Aut(F) class) listed before the answer "
                                  "is inconclusive")
    rooted = verify["rooted"]
    rooted.add_argument("--w", required=True, help="host vertex; 'z' means the last vertex")
    rooted.add_argument("--vstar", type=int, help="restrict the counts to one pattern root")
    rooted.add_argument("--cap", type=_POSITIVE, default=DEFAULT_CAP,
                        help="most labelled embeddings counted per root")
    rooted.add_argument("--expect", type=_NON_NEGATIVE, help="expected total count; mismatch exits 1")
    for task in ("denseness", "exhaustive-denseness"):
        verify[task].add_argument("--H", dest="host", required=True, help="host hypergraph file")
        verify[task].add_argument("--p", type=_PROBABILITY, required=True, help="target density in (0, 1)")
    dense = verify["denseness"]
    dense.add_argument("--samples", type=_POSITIVE, default=1000)
    dense.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    dense.add_argument("--family", type=_FAMILY, help="JSON list of index subsets for directed denseness")

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
    except (ValueError, OSError) as exc:  # FormatError and PreconditionError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
