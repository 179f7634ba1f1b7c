import json

import pytest

from factorlab import load_hypergraph
from factorlab.cli import PATTERN_VERTEX_LIMIT, main
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
        code, _, err = run(capsys, ["decide", "trans", k222_file])
        assert code == 2 and "requires --s" in err

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
        code, _, _ = run(capsys, ["construct", "obs62", "--n", "12", "--k", "3", "--seed", "1"])
        assert code == 2


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

    def test_denseness_exhaustive_and_family_agree(self, capsys, tmp_path):
        host = tmp_path / "host.hg"
        from factorlab.constructions import random_uniform_hypergraph

        host.write_text(random_uniform_hypergraph(8, 3, 0.5, 4).to_text())
        code, out, _ = run(
            capsys,
            ["verify", "denseness", "--H", str(host), "--p", "0.5", "--mode", "exhaustive"],
        )
        exact = json.loads(out)["report"]["worst_deficit"]
        code2, out2, _ = run(
            capsys,
            ["verify", "denseness", "--H", str(host), "--p", "0.5", "--samples", "30",
             "--seed", "2", "--family", "[[1],[2],[3]]"],
        )
        sampled = json.loads(out2)["report"]["worst_deficit"]
        assert code == code2 == 0 and exact >= sampled - 1e-9


def run_rejected(capsys, argv, fragment):
    """Exit 2 with a one-line error naming ``fragment``, never a traceback."""
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert fragment in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


class TestRejectedFlags:
    """Each bad flag value exits 2 with a one-line error, never a traceback."""

    def test_rooted_without_w(self, capsys, k222_file):
        run_rejected(capsys, ["verify", "rooted", "--F", k222_file, "--H", k222_file],
                     "requires --w")

    def test_denseness_on_empty_host(self, capsys, tmp_path):
        empty = tmp_path / "empty.hg"
        empty.write_text("3 0 0\n")
        run_rejected(capsys, ["verify", "denseness", "--H", str(empty), "--p", "0.5"],
                     "at least one vertex")

    @pytest.mark.parametrize("p", ["7", "0", "1", "-0.5"])
    def test_denseness_p_outside_unit_interval(self, capsys, k222_file, p):
        run_rejected(capsys, ["verify", "denseness", "--H", k222_file, "--p", p], "(0, 1)")

    def test_denseness_without_p(self, capsys, k222_file):
        run_rejected(capsys, ["verify", "denseness", "--H", k222_file], "requires --p")

    @pytest.mark.parametrize("task", ["factor", "rooted"])
    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_cap_below_one(self, capsys, edge_file, k6_file, task, cap):
        argv = ["verify", task, "--F", edge_file, "--H", k6_file, "--w", "0", "--cap", cap]
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
        run_rejected(capsys, argv + ["--seed", "-3"], "--seed must be non-negative, got -3")


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
        run_rejected(capsys, ["decide", prop, big_pattern, "--s", "2"], "refused")

    def test_lattice_refuses_big_pattern(self, capsys, big_pattern):
        run_rejected(capsys, ["lattice", big_pattern, "--s", "2"], "refused")

    @pytest.mark.parametrize("task", ["cover", "factor", "rooted"])
    def test_verify_refuses_big_pattern(self, capsys, big_pattern, k6_file, task):
        run_rejected(capsys, ["verify", task, "--F", big_pattern, "--H", k6_file, "--w", "0"],
                          "refused")

    def test_pattern_at_the_limit_is_answered(self, capsys, tmp_path):
        path = tmp_path / "limit.hg"
        path.write_text(f"3 {PATTERN_VERTEX_LIMIT} 1\n0 1 2\n")
        for argv in (["decide", "turan-zero", str(path)], ["decide", "partition-k", str(path)],
                     ["decide", "kpartite-link", str(path)],
                     ["verify", "cover", "--F", str(path), "--H", str(path)]):
            code, out, err = run(capsys, argv)
            assert code == 0 and "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ["construct", "lemma51", "--n", "200000", "--seed", "1"],
        ["construct", "obs62", "--n", "100000", "--s", "2", "--seed", "1"],
        ["construct", "gnp", "--n", "100000", "--p", "0.1", "--seed", "1"],
    ])
    def test_construct_over_draw_limit(self, capsys, argv):
        run_rejected(capsys, argv, "exceeds the limit")

    @pytest.mark.parametrize("family", ['[1]', '[["a"]]', '{"x":1}', '[[]]', '[[true]]', '"12"', '[[1.0]]', '[1'])
    def test_denseness_refuses_malformed_family(self, capsys, k222_file, family):
        run_rejected(capsys, ["verify", "denseness", "--H", k222_file, "--p", "0.5",
                              "--samples", "2", "--family", family], "family")

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
