"""CLI surface: outputs, exit codes, and worker-count determinism."""

import json

import pytest

from treelab import branching, cli, rng, rwre, trees
from treelab.branching import branching_number
from treelab.cli import main
from treelab.networks import homogeneous_conductance
from treelab.ratecalc import Distribution
from treelab.trees import TreeSpec

HOM2_DOC = {"schema": 1, "kind": "homogeneous", "b": 2}
A_LAW_DOC = {"schema": 1, "support": [0.5, 0.75], "weights": [0.5, 0.5]}
X_LAW_DOC = {"schema": 1, "support": [0.0, 1.0], "weights": [0.5, 0.5]}
ZERO_LAW_DOC = {"schema": 1, "support": [0.0, 2.0], "weights": [0.5, 0.5]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("hom2", HOM2_DOC), ("a_law", A_LAW_DOC),
                      ("x_law", X_LAW_DOC), ("zero_law", ZERO_LAW_DOC)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


class TestOutputs:
    def test_rate_p(self, files, capsys):
        assert main(["rate", "--dist", files["a_law"], "--op", "p"]) == 0
        out = capsys.readouterr().out
        assert "0.625" in out and "1" in out

    def test_rate_dual_gap(self, files, capsys):
        assert main(["rate", "--dist", files["a_law"], "--op", "dual"]) == 0
        gap_line = [l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("# gap")][0]
        assert float(gap_line.split("=")[1]) <= 1e-6

    def test_classify_json(self, files, capsys, tmp_path):
        out_path = str(tmp_path / "report.json")
        assert main(["classify", "--tree", files["hom2"], "--dist",
                     files["a_law"], "--depth", "20", "--out", out_path]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["regime"] == "Transient"
        on_disk = json.loads(open(out_path).read())
        assert on_disk == printed

    def test_tree_levels_csv(self, files, tmp_path, capsys):
        out_path = str(tmp_path / "levels.csv")
        assert main(["tree", "--tree", files["hom2"], "--depth", "5",
                     "--out", out_path, "--format", "csv"]) == 0
        lines = open(out_path).read().splitlines()
        assert lines[0] == "level,count"
        assert lines[-1] == "5,32"

    def test_percolate_columns(self, files, capsys):
        assert main(["percolate", "--tree", files["hom2"], "--q",
                     "0.5:0.75:0.25", "--depth", "20", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split()
        assert header == ["q", "depth", "survival", "mc_survival", "mc_stderr"]

    def test_fpp_report_json(self, files, tmp_path, capsys):
        out_path = str(tmp_path / "fpp.json")
        assert main(["fpp", "--tree", files["hom2"], "--dist", files["x_law"],
                     "--depth", "8", "--seeds", "3", "--ygrid", "0:1:0.5",
                     "--format", "json", "--out", out_path]) == 0
        doc = json.loads(open(out_path).read())
        assert doc["schema"] == 1 and len(doc["b_values"]) == 3

    def test_walk_escape(self, files, capsys):
        assert main(["walk", "--tree", files["hom2"], "--dist", files["a_law"],
                     "--depth", "8", "--escape-depth", "8", "--seeds", "2",
                     "--trials", "100"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out.splitlines()[0]


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["rate", "--dist", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rate", "--dist", str(bad)]) == 2

    def test_resource_cap_exit(self, files):
        assert main(["tree", "--tree", files["hom2"], "--depth", "40"]) == 3

    def test_unsupported_case_exit(self, files):
        assert main(["conductance", "--tree", files["hom2"], "--dist",
                     files["zero_law"], "--depth", "6"]) == 4

    def test_walk_step_cap_exit(self, files, monkeypatch, capsys):
        monkeypatch.setattr(rwre, "_STEP_CAP", 1)
        assert main(["walk", "--tree", files["hom2"], "--dist", files["a_law"],
                     "--depth", "6", "--escape-depth", "3",
                     "--trials", "10"]) == 3
        assert "resource cap:" in capsys.readouterr().err

    def test_missing_tree_field_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "no_b.json"
        spec.write_text(json.dumps({"kind": "homogeneous"}))
        assert main(["tree", "--tree", str(spec), "--depth", "3"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'b'" in err

    @pytest.mark.parametrize("doc", [
        {"kind": "homogeneous", "b": "x"},
        {"kind": "explicit", "parents": "ab"},
        {"kind": "galton_watson", "seed": "s",
         "offspring": {"schema": 1, "support": [1, 2], "weights": [0.5, 0.5]}},
    ], ids=["b", "parents", "seed"])
    def test_malformed_tree_value_is_config_error(self, tmp_path, capsys, doc):
        spec = tmp_path / "bad_value.json"
        spec.write_text(json.dumps(doc))
        assert main(["tree", "--tree", str(spec), "--depth", "3"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_parent_list_token_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "parents.txt"
        spec.write_text("0 0 x 1\n")
        assert main(["tree", "--tree", str(spec), "--depth", "3"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["abc", "0:a:1"])
    def test_malformed_grid_is_config_error(self, files, capsys, grid):
        assert main(["fpp", "--tree", files["hom2"], "--dist", files["x_law"],
                     "--depth", "3", "--ygrid", grid]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_weight_is_config_error(self, tmp_path, capsys):
        law = tmp_path / "bad_weights.json"
        law.write_text(json.dumps({"support": [1, 2], "weights": ["a", 0.5]}))
        assert main(["rate", "--dist", str(law)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_string_condition_flag_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "gw.json"
        spec.write_text(json.dumps({
            "kind": "galton_watson", "seed": 3, "condition_nonextinct": "false",
            "offspring": {"support": [0, 1, 2], "weights": [0.5, 0.25, 0.25]}}))
        assert main(["tree", "--tree", str(spec), "--depth", "6"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "condition_nonextinct" in err

    def test_library_key_error_is_not_a_config_error(self, files, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "build_truncation", broken)
        with pytest.raises(KeyError):
            main(["tree", "--tree", files["hom2"], "--depth", "3"])

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_worker_count_does_not_change_bytes(self, files, tmp_path, fmt):
        outs = []
        for tag, workers in (("a", "1"), ("b", "4")):
            path = tmp_path / f"out_{fmt}_{tag}"
            assert main(["fpp", "--tree", files["hom2"], "--dist",
                         files["x_law"], "--depth", "8", "--seeds", "6",
                         "--ygrid", "0:1:0.25", "--seed", "5",
                         "--workers", workers, "--format", fmt,
                         "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_conductance_workers(self, files, tmp_path):
        outs = []
        for tag, workers in (("a", "1"), ("b", "3")):
            path = tmp_path / f"cond_{tag}.csv"
            assert main(["conductance", "--tree", files["hom2"], "--dist",
                         files["a_law"], "--depth", "8", "--seeds", "7",
                         "--seed", "11", "--workers", workers,
                         "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("b,law", [
        (2, A_LAW_DOC),
        (3, {"schema": 1, "support": [1e-200, 1e-3, 1e200], "weights": [0.3, 0.4, 0.3]}),
    ])
    def test_conductance_rows_are_streaming_values(self, tmp_path, b, law):
        spec_path, law_path = tmp_path / "spec.json", tmp_path / "law.json"
        spec_path.write_text(json.dumps({"schema": 1, "kind": "homogeneous", "b": b}))
        law_path.write_text(json.dumps(law))
        outs = []
        for workers in ("1", "3"):
            path = tmp_path / f"cond_{workers}.json"
            assert main(["conductance", "--tree", str(spec_path), "--dist",
                         str(law_path), "--depth", "7", "--seeds", "6",
                         "--seed", "11", "--workers", workers, "--format", "json",
                         "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        spec, dist = TreeSpec.homogeneous(b), Distribution.from_json(law)
        for row in json.loads(outs[0])["rows"]:
            value = homogeneous_conductance(spec, dist, 7,
                                            rng.derive(11, row["replicate"]))
            assert row["conductance"].hex() == value.hex()

    def test_rerun_identical(self, files, tmp_path):
        paths = []
        for tag in ("x", "y"):
            path = tmp_path / f"walk_{tag}.csv"
            assert main(["walk", "--tree", files["hom2"], "--dist",
                         files["a_law"], "--depth", "6", "--steps", "500",
                         "--seeds", "4", "--seed", "3", "--out", str(path)]) == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_percolate_proof_workers(self, files, tmp_path):
        outs = []
        for tag, workers in (("a", "1"), ("b", "3")):
            path = tmp_path / f"proof_{tag}.csv"
            assert main(["percolate", "--tree", files["hom2"], "--dist",
                         files["x_law"], "--depth", "8", "--proof", "fpp",
                         "--k", "2", "--y", "0.6", "--seeds", "5", "--seed", "4",
                         "--workers", workers, "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ["fpp", "--ygrid", "0:1:0.5"],
        ["percolate", "--proof", "fpp", "--k", "2"],
        ["percolate", "--proof", "rwre", "--k", "2", "--y", "0.6"],
    ], ids=["fpp", "proof-fpp", "proof-rwre"])
    def test_workers_reach_the_pool(self, files, monkeypatch, argv):
        calls = []
        replicated = cli._replicated

        def spy(fn, count, workers):
            calls.append((count, workers))
            return replicated(fn, count, workers)

        monkeypatch.setattr(cli, "_replicated", spy)
        law = files["a_law"] if "rwre" in argv else files["x_law"]
        assert main(argv + ["--tree", files["hom2"], "--dist", law,
                            "--depth", "6", "--seeds", "4",
                            "--workers", "3"]) == 0
        assert calls == [(4, 3)]


# a complete binary tree of depth 6 as a literal parent table
BINARY6_PARENTS = [(v - 1) // 2 for v in range(1, 2**7 - 1)]


class TestBuildOnce:
    """Each command materializes its truncation once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = trees.build_truncation

        def spy(spec, depth, **kwargs):
            calls.append((spec.kind, depth))
            return real(spec, depth, **kwargs)

        for module in (cli, branching, rwre):
            monkeypatch.setattr(module, "build_truncation", spy)
        return calls

    def test_tree_branching(self, files, builds, capsys):
        assert main(["tree", "--tree", files["hom2"], "--depth", "8",
                     "--branching"]) == 0
        assert builds == [("homogeneous", 8)]
        assert "# branching_lo" in capsys.readouterr().out

    def test_classify_explicit(self, files, builds, tmp_path, capsys):
        spec = tmp_path / "binary6.json"
        spec.write_text(json.dumps({"kind": "explicit",
                                    "parents": BINARY6_PARENTS}))
        assert main(["classify", "--tree", str(spec), "--dist",
                     files["a_law"], "--depth", "6"]) == 0
        assert builds == [("explicit", 6)]
        report = json.loads(capsys.readouterr().out)
        assert report["branching"]["exact"] is False

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_contracted_tree_keeps_uncontracted_branching(self, files, tmp_path,
                                                          capsys, fmt):
        # --branching estimates on the depth-8 tree, not on its 2-contraction,
        # so the output is the contraction's plus the estimate from the spec
        common = ["tree", "--tree", files["hom2"], "--depth", "8",
                  "--contract", "2", "--format", fmt]
        plain, with_br = tmp_path / f"plain.{fmt}", tmp_path / f"br.{fmt}"
        assert main(common + ["--out", str(plain)]) == 0
        plain_out = capsys.readouterr().out
        assert main(common + ["--branching", "--out", str(with_br)]) == 0
        br_out = capsys.readouterr().out
        est = branching_number(TreeSpec.homogeneous(2), 8, 0.05)
        extra = {"branching_lo": est.lo, "branching_hi": est.hi,
                 "branching_inconclusive": est.inconclusive}
        assert br_out == plain_out + "".join(
            f"# {k} = {cli._fmt(v)}\n" for k, v in extra.items())
        if fmt == "csv":
            assert with_br.read_bytes() == plain.read_bytes()
        else:
            doc = json.loads(plain.read_text())
            doc["summary"].update(extra)
            assert with_br.read_text() == json.dumps(
                doc, sort_keys=True, default=cli._fmt) + "\n"
