import argparse
import json
import os
import re
import shlex
import signal
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import factorlab
from factorlab import Hypergraph, load_hypergraph, validate_factor_certificate, validate_refutation
from factorlab.cli import PATTERN_VERTEX_LIMIT, build_parser, main
from factorlab.constructions import partite_structure_ok
from factorlab.corpus import by_name, k222
from factorlab.hypergraph import MAX_VERTICES, Partition


@pytest.fixture
def k222_file(tmp_path):
    path = tmp_path / "k222.hg"
    path.write_text(k222().to_text())
    return str(path)


@pytest.fixture
def k6_file(tmp_path):
    from factorlab.corpus import complete

    path = tmp_path / "k6.hg"
    path.write_text(complete(6, 3).to_text())
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.hg"
    path.write_text(by_name("single-edge").to_text())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def within(seconds, fn, *args):
    """fn(*args), raising TimeoutError instead of hanging once ``seconds`` pass."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def parser_rejects(capsys, argv, message):
    """argparse exits 2 with a one-line error starting with ``message``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"error: {message}") and len(out.err.splitlines()) == 1


class TestDecide:
    def test_factor3_k222(self, capsys, k222_file):
        code, out, err = run(capsys, ["decide", "factor3", k222_file])
        payload = json.loads(out)
        assert code == 0
        assert payload["report"]["verdict"] is False
        assert payload["command"] == "decide" and "seed" in payload
        assert "verdict=False" in err

    def test_turan_zero_edge(self, capsys, edge_file):
        code, out, _ = run(capsys, ["decide", "turan-zero", edge_file])
        assert code == 0 and json.loads(out)["report"]["verdict"] is True

    def test_trans_requires_s(self, capsys, k222_file):
        parser_rejects(capsys, ["decide", "trans", k222_file], "the following arguments are required: --s")

    def test_trans_with_s(self, capsys, k222_file):
        code, out, _ = run(capsys, ["decide", "trans", "--s", "2", k222_file])
        report = json.loads(out)["report"]
        assert code == 0 and report["verdict"] is False
        assert report["stats"]["generators"] == [[0, 6], [2, 4], [4, 2], [6, 0]]

    def test_expect_mismatch_exits_1(self, capsys, k222_file):
        code, _, _ = run(capsys, ["decide", "factor3", k222_file, "--expect", "true"])
        assert code == 1
        code, _, _ = run(capsys, ["decide", "factor3", k222_file, "--expect", "false"])
        assert code == 0

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("3 3 1\n0 1 1\n")
        code, _, err = run(capsys, ["decide", "factor3", str(bad)])
        assert code == 2 and "repeated vertex" in err

    def test_wrong_uniformity_exits_2(self, capsys, tmp_path):
        f4 = tmp_path / "f4.hg"
        f4.write_text("4 4 1\n0 1 2 3\n")
        code, _, err = run(capsys, ["decide", "factor3", str(f4)])
        assert code == 2 and "3-graphs" in err

    def test_float_vertex_in_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 3, "n": 3, "edges": [[0, 1.5, 2]]}')
        code, _, err = run(capsys, ["decide", "factor3", str(bad)])
        assert code == 2 and "integers" in err and "Traceback" not in err

    def test_kpartite_link_refuses_odd_cycle(self, capsys, tmp_path):
        triangle = tmp_path / "triangle.hg"
        triangle.write_text("2 3 3\n0 1\n0 2\n1 2\n")
        code, _, err = run(capsys, ["decide", "kpartite-link", str(triangle)])
        assert code == 2 and "not k-partite" in err and "Traceback" not in err

    def test_kpartite_link_on_a_path(self, capsys, tmp_path):
        path = tmp_path / "path.hg"
        path.write_text("2 3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, ["decide", "kpartite-link", str(path)])
        assert code == 0 and json.loads(out)["report"]["verdict"] is True

    def test_out_file(self, capsys, tmp_path, k222_file):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["decide", "factor3", k222_file, "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["report"]["verdict"] is False


class TestLatticeCommand:
    def test_generators_and_basis(self, capsys, k222_file):
        code, out, _ = run(capsys, ["lattice", k222_file, "--s", "2"])
        report = json.loads(out)["report"]
        assert code == 0
        assert report["generators"] == [[0, 6], [2, 4], [4, 2], [6, 0]]
        assert report["bipartition_count"] == 8

    def test_lists_bipartitions_once(self, capsys, monkeypatch, k222_file):
        from factorlab import lattice

        listings = []
        listing = lattice.enumerate_shadow_disjoint_bipartitions

        def counted(f, s):
            listings.append(s)
            return listing(f, s)

        monkeypatch.setattr(lattice, "enumerate_shadow_disjoint_bipartitions", counted)
        code, _, _ = run(capsys, ["lattice", k222_file, "--s", "2"])
        assert code == 0 and listings == [2]


class TestConstruct:
    def test_lemma51_files_and_sidecar(self, capsys, tmp_path):
        base = str(tmp_path / "built")
        code, out, _ = run(
            capsys, ["construct", "lemma51", "--n", "15", "--k", "3", "--seed", "1", "--out", base]
        )
        assert code == 0
        meta = json.loads(out)
        h = load_hypergraph((tmp_path / "built.hg").read_text())
        sidecar = json.loads((tmp_path / "built.hg.json").read_text())
        assert sidecar["seed"] == 1 and sidecar["variant"] == "lemma51"
        assert sidecar["z"] == 14 == meta["z"]
        partition = Partition(tuple(tuple(p) for p in sidecar["partition"]))
        assert partite_structure_ok(h, sidecar["z"], partition)

    def test_gnp_stdout(self, capsys):
        code, out, _ = run(
            capsys, ["construct", "gnp", "--n", "8", "--k", "3", "--p", "0.5", "--seed", "3"]
        )
        payload = json.loads(out)
        assert code == 0 and payload["hypergraph"]["n"] == 8
        assert payload["seed"] == 3

    def test_infeasible_params_exit_2(self, capsys):
        code, _, err = run(capsys, ["construct", "lemma51", "--n", "4", "--k", "3", "--seed", "1"])
        assert code == 2 and "part sizes" in err

    def test_obs62_requires_s(self, capsys):
        parser_rejects(capsys, ["construct", "obs62", "--n", "12", "--k", "3", "--seed", "1"],
                       "the following arguments are required: --s")


class TestVerify:
    def test_factor_certificate(self, capsys, edge_file, k6_file):
        code, out, _ = run(capsys, ["verify", "factor", "--F", edge_file, "--H", k6_file])
        report = json.loads(out)["report"]
        assert code == 0 and report["status"] == "found"
        assert len(report["certificate"]) == 2

    def test_factor_expect(self, capsys, edge_file, k6_file):
        code, _, _ = run(
            capsys, ["verify", "factor", "--F", edge_file, "--H", k6_file, "--expect", "absent"]
        )
        assert code == 1

    @pytest.mark.parametrize("n, edges, kind", [
        # every edge meets {0, 1, 2} in 0 or 2 vertices
        (6, [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)], "lattice"),
        # every edge meets {0, 1}, and 3 * 2 < 9
        (9, [e for e in combinations(range(9), 3) if e[0] < 2], "space"),
        # 1 and 2 each lie in one edge, and the two meet: absent through the exact cover
        (6, [(0, 1, 4), (0, 3, 4), (0, 3, 5), (2, 3, 4)], None),
    ])
    def test_factor_refutation(self, capsys, edge_file, tmp_path, n, edges, kind):
        host = tmp_path / "host.hg"
        host.write_text(Hypergraph(3, n, edges).to_text())
        argv = ["verify", "factor", "--F", edge_file, "--H", str(host), "--expect", "absent"]
        code, out, _ = run(capsys, argv)
        report = json.loads(out)["report"]
        assert code == 0 and report["certificate"] is None
        if kind is None:
            assert report["refutation"] is None and report["stats"]["nodes"] > 0
        else:
            assert report["refutation"]["kind"] == kind and report["stats"]["nodes"] == 0
            assert validate_refutation(by_name("single-edge"), Hypergraph(3, n, edges), report["refutation"])

    def test_found_factor_has_no_refutation(self, capsys, edge_file, k6_file):
        report = json.loads(run(capsys, ["verify", "factor", "--F", edge_file, "--H", k6_file])[1])["report"]
        assert report["status"] == "found" and report["refutation"] is None

    @pytest.mark.parametrize("task, expect, code", [
        ("cover", "true", 0), ("cover", "false", 1), ("factor", "found", 0),
        ("factor", "inconclusive", 1), ("rooted", "60", 0), ("rooted", "59", 1),
    ])
    def test_expect_outcomes(self, capsys, edge_file, k6_file, task, expect, code):
        argv = ["verify", task, "--F", edge_file, "--H", k6_file, *rooted_at(task, "0"), "--expect", expect]
        assert run(capsys, argv)[0] == code

    def test_cover(self, capsys, edge_file, tmp_path):
        host = tmp_path / "host.hg"
        host.write_text("3 4 1\n0 1 2\n")
        code, out, _ = run(capsys, ["verify", "cover", "--F", edge_file, "--H", str(host)])
        report = json.loads(out)["report"]
        assert code == 0 and report["verdict"] is False and report["uncovered"] == [3]

    def test_rooted_with_z_token(self, capsys, k222_file, tmp_path):
        code, out, _ = run(
            capsys,
            ["construct", "lemma51", "--n", "15", "--k", "3", "--seed", "1",
             "--out", str(tmp_path / "host")],
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            ["verify", "rooted", "--F", k222_file, "--H", str(tmp_path / "host.hg"), "--w", "z"],
        )
        report = json.loads(out)["report"]
        assert code == 0 and report["total"] == 0 and report["w"] == 14

    def test_rooted_cap_beyond_index_range(self, capsys, edge_file, k6_file):
        code, out, _ = run(capsys, ["verify", "rooted", "--F", edge_file, "--H", k6_file,
                                    "--w", "0", "--cap", str(10**23)])
        report = json.loads(out)["report"]
        assert code == 0 and report["total"] == 60 and not report["truncated"]

    def test_uniformity_mismatch(self, capsys, edge_file, tmp_path):
        f4 = tmp_path / "f4.hg"
        f4.write_text("4 4 1\n0 1 2 3\n")
        code, _, err = run(capsys, ["verify", "factor", "--F", edge_file, "--H", str(f4)])
        assert code == 2 and "mismatch" in err

    def test_denseness_sampled(self, capsys, tmp_path):
        host = tmp_path / "host.hg"
        from factorlab.constructions import random_uniform_hypergraph

        host.write_text(random_uniform_hypergraph(10, 3, 0.5, 3).to_text())
        code, out, _ = run(
            capsys,
            ["verify", "denseness", "--H", str(host), "--p", "0.5",
             "--samples", "50", "--seed", "9"],
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["report"]["mode"] == "sampled"
        assert payload["report"]["seed"] == 9
        assert payload["params"]["samples"] == 50

    def test_exhaustive_denseness_echoes_only_what_it_reads(self, capsys, tmp_path):
        from factorlab.constructions import random_uniform_hypergraph
        from factorlab.verification import exact_denseness_small

        h = random_uniform_hypergraph(7, 3, 0.5, 4)
        host = tmp_path / "host.hg"
        host.write_text(h.to_text())
        code, out, _ = run(capsys, ["verify", "exhaustive-denseness", "--H", str(host), "--p", "0.3"])
        payload = json.loads(out)
        assert code == 0 and payload["seed"] is None
        assert payload["params"] == {"task": "exhaustive-denseness", "seed": None, "H": str(host), "p": 0.3}
        assert payload["report"] == exact_denseness_small(h, 0.3).to_json_obj()

    def test_denseness_exhaustive_and_family_agree(self, capsys, tmp_path):
        host = tmp_path / "host.hg"
        from factorlab.constructions import random_uniform_hypergraph

        host.write_text(random_uniform_hypergraph(8, 3, 0.5, 4).to_text())
        code, out, _ = run(capsys, ["verify", "exhaustive-denseness", "--H", str(host), "--p", "0.5"])
        exact = json.loads(out)["report"]["worst_deficit"]
        code2, out2, _ = run(
            capsys,
            ["verify", "denseness", "--H", str(host), "--p", "0.5", "--samples", "30",
             "--seed", "2", "--family", "[[1],[2],[3]]"],
        )
        sampled = json.loads(out2)["report"]["worst_deficit"]
        assert code == code2 == 0 and exact >= sampled - 1e-9


def rooted_at(task, w):
    """The ``--w`` flag where the task reads it: only ``verify rooted`` does."""
    return ["--w", w] if task == "rooted" else []


def run_rejected(capsys, argv, fragment):
    """Exit 2 with a one-line error naming ``fragment``, never a traceback,
    whether the flag's parser or the command refuses it."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert fragment in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


class TestRejectedFlags:
    """Each bad flag value exits 2 with a one-line error, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["decide", "trans", "x.hg", "--s", "abc"], "argument --s: invalid int value: 'abc'"),
        (["verify", "factor", "--cap", "1.5"], "argument --cap: invalid int value: '1.5'"),
        (["verify", "denseness", "--H", "x.hg", "--p", "0.5", "--mode", "exhaustive"],
         "unrecognized arguments: --mode exhaustive"),
        (["decide", "turan-zero"], "the following arguments are required: file"),
        (["corpus", "list", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_argparse_errors(self, capsys, argv, message):
        parser_rejects(capsys, argv, message)

    @pytest.mark.parametrize("argv", [
        ["construct", "gnp", "--n", "6", "--p", "0.5", "--seed", "1", "--s", "2"],
        ["construct", "lemma51", "--n", "9", "--seed", "1", "--p", "3,5,1"],
    ], ids=["s-is-not-seed", "p-is-not-part-sizes"])
    def test_flag_prefix_of_a_local_flag(self, capsys, argv):
        # --s of obs62 prefixes --seed, --p of gnp prefixes --part-sizes
        parser_rejects(capsys, argv, "unrecognized arguments")

    def test_rooted_without_w(self, capsys, k222_file):
        parser_rejects(capsys, ["verify", "rooted", "--F", k222_file, "--H", k222_file],
                       "the following arguments are required: --w")

    def test_rooted_w_not_a_vertex(self, capsys, k222_file):
        run_rejected(capsys, ["verify", "rooted", "--F", k222_file, "--H", k222_file, "--w", "abc"],
                     "--w must be a host vertex id or 'z'")

    @pytest.mark.parametrize("task, expect", [
        ("cover", "maybe"), ("cover", "found"), ("factor", "fnd"), ("factor", "true"),
        ("rooted", "abc"), ("rooted", "-1"),
        pytest.param("rooted", "9" * 5000, id="rooted-past-digit-limit"),
    ])
    def test_verify_expect_outside_outcomes(self, capsys, edge_file, k6_file, task, expect):
        run_rejected(capsys, ["verify", task, "--F", edge_file, "--H", k6_file, *rooted_at(task, "0"),
                              "--expect", expect], "--expect")

    @pytest.mark.parametrize("flag, argv", [
        ("--w", ["--w", "-1"]), ("--w", ["--w", "6"]),
        ("--vstar", ["--w", "0", "--vstar", "7"]), ("--vstar", ["--w", "0", "--vstar", "-1"]),
    ])
    def test_rooted_vertex_out_of_range(self, capsys, edge_file, k6_file, flag, argv):
        run_rejected(capsys, ["verify", "rooted", "--F", edge_file, "--H", k6_file, *argv], flag)

    @pytest.mark.parametrize("family", ["[" * 100000, "[[1" + "0" * 5000 + "]]"],
                             ids=["deep", "long-int"])
    def test_denseness_family_beyond_json_limits(self, capsys, k222_file, family):
        run_rejected(capsys, ["verify", "denseness", "--H", k222_file, "--p", "0.5",
                              "--samples", "2", "--family", family], "--family")

    def test_denseness_refuses_expect(self, capsys, k222_file):
        parser_rejects(capsys, ["verify", "denseness", "--H", k222_file, "--p", "0.5",
                                "--samples", "2", "--expect", "0"], "unrecognized arguments: --expect 0")

    @pytest.mark.parametrize("argv", [["--samples", "5"], ["--seed", "9"], ["--mode", "exhaustive"]])
    def test_exhaustive_denseness_refuses_sampling_flags(self, capsys, k222_file, argv):
        parser_rejects(capsys, ["verify", "exhaustive-denseness", "--H", k222_file, "--p", "0.5", *argv],
                       f"unrecognized arguments: {' '.join(argv)}")

    def test_denseness_exhaustive_refuses_family(self, capsys, k222_file):
        parser_rejects(capsys, ["verify", "exhaustive-denseness", "--H", k222_file, "--p", "0.5",
                                "--family", "[[1],[2],[3]]"], "unrecognized arguments: --family")

    def test_denseness_on_empty_host(self, capsys, tmp_path):
        empty = tmp_path / "empty.hg"
        empty.write_text("3 0 0\n")
        run_rejected(capsys, ["verify", "denseness", "--H", str(empty), "--p", "0.5"],
                     "at least one vertex")

    @pytest.mark.parametrize("p", ["7", "0", "1", "-0.5"])
    def test_denseness_p_outside_unit_interval(self, capsys, k222_file, p):
        run_rejected(capsys, ["verify", "denseness", "--H", k222_file, "--p", p], "(0, 1)")

    def test_denseness_without_p(self, capsys, k222_file):
        parser_rejects(capsys, ["verify", "denseness", "--H", k222_file],
                       "the following arguments are required: --p")

    def test_denseness_samples_below_one(self, capsys):
        # refused before the host file is opened
        run_rejected(capsys, ["verify", "denseness", "--H", "missing.hg", "--p", "0.5", "--samples", "0"],
                     "argument --samples: must be at least 1, got 0")

    @pytest.mark.parametrize("task", ["factor", "rooted"])
    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_cap_below_one(self, capsys, edge_file, k6_file, task, cap):
        argv = ["verify", task, "--F", edge_file, "--H", k6_file, *rooted_at(task, "0"), "--cap", cap]
        run_rejected(capsys, argv, "--cap")

    @pytest.mark.parametrize("argv", [
        ["construct", "lemma51", "--n", "10"],
        ["construct", "obs62", "--n", "10", "--s", "2"],
        ["construct", "gnp", "--n", "10", "--p", "0.5"],
        ["verify", "denseness", "--p", "0.5", "--samples", "2"],
        ["verify", "denseness", "--p", "0.5", "--samples", "2", "--family", "[[1],[2],[3]]"],
    ], ids=["lemma51", "obs62", "gnp", "denseness", "denseness-family"])
    def test_negative_seed(self, capsys, k222_file, argv):
        if argv[0] == "verify":
            argv = argv + ["--H", k222_file]
        run_rejected(capsys, argv + ["--seed", "-3"], "argument --seed: must be non-negative, got -3")


class TestSizeBounds:
    """Inputs too large to hold or to recurse over exit 2 with one line."""

    @pytest.mark.parametrize("text", [
        f"3 {MAX_VERTICES + 1} 0\n",
        "3 10000000000 0\n",
        json.dumps({"k": 3, "n": MAX_VERTICES + 1, "edges": []}),
    ])
    def test_vertex_count_over_loader_limit(self, capsys, tmp_path, text):
        path = tmp_path / "huge.hg"
        path.write_text(text)
        run_rejected(capsys, ["decide", "turan-zero", str(path)], "exceeds the limit")

    @pytest.fixture
    def big_pattern(self, tmp_path):
        path = tmp_path / "big.hg"
        path.write_text(f"3 {PATTERN_VERTEX_LIMIT + 1} 1\n0 1 2\n")
        return str(path)

    @pytest.mark.parametrize("prop", ["turan-zero", "kpartite-link", "cover-partition",
                                      "factor3", "partition-k", "trans"])
    def test_decide_refuses_big_pattern(self, capsys, big_pattern, prop):
        shadow = ["--s", "2"] if prop == "trans" else []
        run_rejected(capsys, ["decide", prop, big_pattern, *shadow], "refused")

    def test_lattice_refuses_big_pattern(self, capsys, big_pattern):
        run_rejected(capsys, ["lattice", big_pattern, "--s", "2"], "refused")

    @pytest.mark.parametrize("task", ["cover", "factor", "rooted"])
    def test_verify_refuses_big_pattern(self, capsys, big_pattern, k6_file, task):
        run_rejected(capsys, ["verify", task, "--F", big_pattern, "--H", k6_file, *rooted_at(task, "0")],
                     "refused")

    def test_pattern_at_the_limit_is_answered(self, capsys, tmp_path):
        path = tmp_path / "limit.hg"
        path.write_text(f"3 {PATTERN_VERTEX_LIMIT} 1\n0 1 2\n")
        for argv in (["decide", "turan-zero", str(path)], ["decide", "partition-k", str(path)],
                     ["decide", "kpartite-link", str(path)],
                     ["verify", "cover", "--F", str(path), "--H", str(path)]):
            code, out, err = run(capsys, argv)
            assert code == 0 and "Traceback" not in err

    def test_factor_search_deeper_than_the_recursion_limit(self, capsys, tmp_path, edge_file):
        # a perfect matching on 3300 vertices: the search goes 1100 choices deep
        path = tmp_path / "matching.hg"
        path.write_text("3 3300 1100\n" + "".join(f"{v} {v + 1} {v + 2}\n" for v in range(0, 3300, 3)))
        code, out, err = run(capsys, ["verify", "factor", "--F", edge_file, "--H", str(path)])
        assert code == 0 and "Traceback" not in err
        report = json.loads(out)["report"]
        assert report["status"] == "found"
        certificate = [tuple(phi) for phi in report["certificate"]]
        assert validate_factor_certificate(by_name("single-edge"), load_hypergraph(path.read_text()), certificate)

    @pytest.mark.parametrize("argv", [
        ["construct", "lemma51", "--n", "200000", "--seed", "1"],
        ["construct", "obs62", "--n", "100000", "--s", "2", "--seed", "1"],
        ["construct", "gnp", "--n", "100000", "--p", "0.1", "--seed", "1"],
    ])
    def test_construct_over_draw_limit(self, capsys, argv):
        run_rejected(capsys, argv, "exceeds the limit")

    @pytest.mark.parametrize("family", ['[1]', '[["a"]]', '{"x":1}', '[[]]', '[[true]]', '"12"', '[[1.0]]', '[1',
                                        'null'])
    def test_denseness_refuses_malformed_family(self, capsys, k222_file, family):
        run_rejected(capsys, ["verify", "denseness", "--H", k222_file, "--p", "0.5",
                              "--samples", "2", "--family", family], "family")

    def test_sampled_denseness_refuses_uniformity_above_six(self, capsys, tmp_path):
        # 12! orderings per sample: refused before the first draw
        host = tmp_path / "k12.hg"
        host.write_text("12 12 0\n")
        run_rejected(capsys, ["verify", "denseness", "--H", str(host), "--p", "0.5"], "k=12")

    @pytest.mark.parametrize("text", [
        f"{MAX_VERTICES + 1} 1 0\n",
        json.dumps({"k": MAX_VERTICES + 1, "n": 1, "edges": []}),
    ], ids=["text", "json"])
    def test_uniformity_over_loader_limit(self, capsys, tmp_path, text):
        path = tmp_path / "wide.hg"
        path.write_text(text)
        run_rejected(capsys, ["decide", "partition-k", str(path)], "uniformity")

    @pytest.mark.parametrize("prop", ["partition-k", "kpartite-link"])
    def test_wide_edgeless_pattern_is_answered(self, capsys, tmp_path, prop):
        # no part-assignment table grows with k (a k^2 one took 11 s here)
        path = tmp_path / "wide.hg"
        path.write_text("12000 1 0\n")
        code, out, _ = within(1.0, run, capsys, ["decide", prop, str(path)])
        assert code == 0 and json.loads(out)["report"]["verdict"] is True

    def test_directed_denseness_over_dense_array_limit(self, capsys, tmp_path):
        host = tmp_path / "empty.hg"
        host.write_text("3 3000 0\n")
        run_rejected(capsys, ["verify", "denseness", "--H", str(host), "--p", "0.5", "--samples", "1",
                              "--family", "[[1],[2],[3]]"], "cells")


class TestCorpus:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["corpus", "list"])
        names = json.loads(out)
        assert code == 0 and "k222" in names and "single-edge" in names

    def test_emit_text(self, capsys):
        code, out, _ = run(capsys, ["corpus", "single-edge"])
        assert code == 0 and load_hypergraph(out) == by_name("single-edge")

    def test_write_file(self, capsys, tmp_path):
        target = tmp_path / "cherry.hg"
        code, out, _ = run(capsys, ["corpus", "cherry", "--out", str(target)])
        assert code == 0 and load_hypergraph(target.read_text()) == by_name("cherry")

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, ["corpus", "nope"])
        assert code == 2 and "unknown corpus graph" in err


# Run in a fresh interpreter: import the package, block numpy (importing a
# module that sys.modules maps to None raises ImportError), run each
# numpy-free argv through cli.main, then unblock it and run the argvs that
# draw or estimate.
NUMPY_GATE = """
import contextlib, io, json, sys

import factorlab, factorlab.cli


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = factorlab.cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


free, drawing = json.loads(sys.argv[1])
imported = "numpy" in sys.modules
sys.modules["numpy"] = None
try:
    import numpy
    blocked = False
except ImportError:
    blocked = True
free = [run(argv) for argv in free]
del sys.modules["numpy"]
drawing = [run(argv) for argv in drawing]
print(json.dumps({"imported": imported, "blocked": blocked, "free": free,
                  "drawing": drawing, "loaded": "numpy" in sys.modules}))
"""


def untimed(text: str):
    """A JSON stdout without its ``time_s`` fields; any other text as is."""
    def strip(obj):
        if isinstance(obj, dict):
            return {key: strip(val) for key, val in obj.items() if key != "time_s"}
        return [strip(val) for val in obj] if isinstance(obj, list) else obj

    try:
        return strip(json.loads(text))
    except ValueError:
        return text


class TestNumpyOnlyWhereUsed:
    """Only the seeded builders and the denseness estimators import numpy;
    every other command runs, with the same output, when it cannot."""

    @pytest.fixture(scope="class")
    def gate(self, tmp_path_factory):
        from factorlab.corpus import complete

        root = tmp_path_factory.mktemp("numpy-gate")
        texts = {"k222": k222().to_text(), "edge": by_name("single-edge").to_text(),
                 "k6": complete(6, 3).to_text(), "malformed": "3 4 2\n0 1 2\n"}
        path = {}
        for name, text in texts.items():
            path[name] = str(root / f"{name}.hg")
            Path(path[name]).write_text(text)
        pair = ["--F", path["edge"], "--H", path["k6"]]
        free = [["decide", prop, path["k222"], *(["--s", "2"] if prop == "trans" else [])]
                for prop in ("turan-zero", "kpartite-link", "cover-partition", "factor3", "partition-k", "trans")]
        free += [["lattice", path["k222"], "--s", "2"], ["corpus", "list"], ["corpus", "k222"],
                 ["verify", "factor", *pair], ["verify", "cover", *pair], ["verify", "rooted", *pair, "--w", "0"],
                 ["decide", "factor3", path["malformed"]]]
        drawing = [["construct", "gnp", "--n", "6", "--p", "0.5", "--seed", "3"],
                   ["verify", "denseness", "--H", path["k222"], "--p", "0.5", "--samples", "5", "--seed", "1"]]
        src = str(Path(factorlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", NUMPY_GATE, json.dumps([free, drawing])],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        return free, json.loads(done.stdout)

    def test_numpy_free_commands_match_the_unblocked_run(self, capsys, gate):
        free, result = gate
        assert not result["imported"] and result["blocked"]
        assert len(free) == len(result["free"]) == 13
        for argv, (code, out, _) in zip(free, result["free"]):
            expected = run(capsys, argv)
            assert (code, untimed(out)) == (expected[0], untimed(expected[1])), argv
        code, out, err = result["free"][-1]
        assert code == 2 and out == "" and err.startswith("error: ") and len(err.splitlines()) == 1

    def test_builders_and_estimators_load_numpy(self, gate):
        _, result = gate
        assert result["loaded"]
        (gnp_code, gnp, _), (dense_code, dense, _) = result["drawing"]
        assert gnp_code == dense_code == 0
        assert json.loads(gnp)["hypergraph"]["edges"] == [
            [0, 1, 2], [0, 1, 3], [0, 2, 3], [0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 4, 5], [1, 2, 3], [1, 2, 5],
            [2, 3, 4], [3, 4, 5]]
        assert json.loads(dense)["report"]["worst_deficit"] == 0.06018518518518518


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``factorlab`` lines of README's CLI code block and the inline
    ``factorlab ...`` examples of its CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("factorlab ")]
    return lines + re.findall(r"`(factorlab [^`]+)`", section)


def readme_flag_table() -> dict[str, set[tuple[str, bool]]]:
    """README's per-variant flag table: command -> {(flag, required)}, with
    bold marking the required flags."""
    rows = re.findall(r"^\| `([^`]+)`( \(other properties\))? \| (.+) \|$",
                      README.read_text(encoding="utf-8"), re.M)
    return {command + other: {(cell.strip("*`"), cell.startswith("**")) for cell in flags.split(", ")}
            for command, other, flags in rows}


def sub_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parser_flags(parser: argparse.ArgumentParser) -> set[tuple[str, bool]]:
    """(flag or positional, required) of each argument but ``--help`` and ``--out``."""
    return {(a.option_strings[0] if a.option_strings else a.dest, a.required)
            for a in parser._actions if a.dest not in ("help", "out")}


def test_readme_commands_parse():
    """Every README example parses with the per-variant parsers; none is run,
    so no file is opened.  Each row of the flag table holds exactly the flags
    of its parsers, required ones in bold."""
    commands = readme_commands()
    assert len(commands) >= 15 and any("--expect" in c for c in commands)
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command, comments=True)
        try:
            args = parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")
        assert callable(args.func), command

    table = readme_flag_table()
    commands = sub_parsers(parser)
    leaves = {"lattice": commands["lattice"]}
    for command in ("decide", "construct", "verify"):
        leaves.update({f"{command} {name}": p for name, p in sub_parsers(commands[command]).items()})
    for name, p in leaves.items():
        row = name if name in table else name.split()[0] + " (other properties)"
        assert table.get(row) == parser_flags(p), name
    assert set(table) <= set(leaves) | {"decide (other properties)"}
