"""CLI surface: outputs, exit codes, and worker-count determinism."""

import json

import numpy as np
import pytest

from treelab import branching, cli, fpp, rng, rwre, trees
from treelab.branching import branching_number
from treelab.cli import main
from treelab.networks import (effective_conductance, homogeneous_conductance,
                              sample_environment)
from treelab.ratecalc import Distribution
from treelab.trees import TreeSpec

HOM2_DOC = {"schema": 1, "kind": "homogeneous", "b": 2}
A_LAW_DOC = {"schema": 1, "support": [0.5, 0.75], "weights": [0.5, 0.5]}
X_LAW_DOC = {"schema": 1, "support": [0.0, 1.0], "weights": [0.5, 0.5]}
ZERO_LAW_DOC = {"schema": 1, "support": [0.0, 2.0], "weights": [0.5, 0.5]}
X_INF_LAW_DOC = {"schema": 1, "support": [1.0, "inf"], "weights": [0.5, 0.5]}
WIDE_LAW_DOC = {"schema": 1, "support": [1e-200, 1e-3, 1e200], "weights": [0.3, 0.4, 0.3]}
GW_DOC = {"schema": 1, "kind": "galton_watson", "seed": 7, "condition_nonextinct": True,
          "offspring": {"schema": 1, "support": [1, 2, 3], "weights": [0.3, 0.4, 0.3]}}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("hom2", HOM2_DOC), ("a_law", A_LAW_DOC),
                      ("x_law", X_LAW_DOC), ("zero_law", ZERO_LAW_DOC),
                      ("x_inf", X_INF_LAW_DOC)):
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

    def test_negative_zero_q_prints_zero(self, files, capsys):
        outs = []
        for q in ("0,0.5", "-0,0.5"):
            assert main(["percolate", "--tree", files["hom2"], f"--q={q}",
                         "--depth", "6"]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
        assert outs[1].out.splitlines()[1].split()[0] == "0"

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


def _strict_json(path):
    """The document at path, refusing the Infinity, -Infinity and NaN
    tokens that RFC 8259 does not allow."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


class TestStrictJson:
    @pytest.mark.parametrize("case", ["gamma", "fpp", "proof-depth0", "classify",
                                      "conductance"])
    def test_documents_write_non_finite_values_as_strings(self, files, tmp_path,
                                                          capsys, case):
        x12 = tmp_path / "x12.json"  # times 1 and 2: no S_v <= n / 2
        x12.write_text(json.dumps({"schema": 1, "support": [1.0, 2.0],
                                   "weights": [0.5, 0.5]}))
        argv, check = {
            "gamma": (["rate", "--dist", files["x_law"], "--op", "gamma",
                       "--a", "0.25,1.5"],
                      lambda doc: doc["rows"][1]["value"] == "-inf"),
            "fpp": (["fpp", "--tree", files["hom2"], "--dist", str(x12),
                     "--depth", "6", "--ygrid", "0.5,1.5"],
                    lambda doc: (doc["rows"][0]["count"] == 0
                                 and doc["rows"][0]["exponent"] == "-inf"
                                 and doc["predicted_exponents"][0] == "-inf")),
            "proof-depth0": (["percolate", "--tree", files["hom2"], "--depth", "0",
                              "--proof", "rwre", "--dist", files["a_law"]],
                             lambda doc: (doc["rows"][0]["q_hat"] == "nan"
                                          and doc["summary"]["mean_q_hat"] == "nan")),
            "classify": (["classify", "--tree", files["hom2"], "--dist",
                          files["a_law"]],
                         lambda doc: doc["regime"] == "Transient"),
            "conductance": (["conductance", "--tree", files["hom2"], "--dist",
                             files["a_law"], "--depth", "6", "--seeds", "2"],
                            lambda doc: len(doc["rows"]) == 2),
        }[case]
        out = str(tmp_path / "out.json")
        assert main(argv + ["--format", "json", "--out", out]) == 0
        assert check(_strict_json(out))

    def test_law_reads_back_its_own_infinite_atom(self):
        law = Distribution((0.5, float("inf")), (0.25, 0.75))
        text = json.dumps(law.to_json(), allow_nan=False)
        assert json.loads(text)["support"] == [0.5, "inf"]
        back = Distribution.from_json(json.loads(text))
        assert back.support == law.support and back.weights == law.weights


class TestRateSummaryColumns:
    ARGV = ["--op", "summary", "--y", "0.2,0.5", "--z", "0.5", "--a", "1.5,3"]

    def test_table_keeps_every_column(self, files, capsys):
        assert main(["rate", "--dist", files["x_law"]] + self.ARGV) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["op", "value", "arg", "y", "z", "a"]
        assert lines[-1].split() == ["gamma", "-inf", "3"]

    def test_csv_leaves_missing_cells_blank(self, files, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        assert main(["rate", "--dist", files["x_law"]] + self.ARGV
                    + ["--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "op,value,arg,y,z,a"
        assert [line.split(",")[0] for line in lines[1:]] == \
            ["p", "dual", "m", "m", "m_inverse", "gamma", "gamma"]
        assert lines[3] == "m,0.8246924442,,0.2,,"
        assert lines[-1] == "gamma,-inf,,,,3"


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["rate", "--dist", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rate", "--dist", str(bad)]) == 2

    @pytest.mark.parametrize("argv", [["rate", "--dist", "{}.json"],
                                      ["tree", "--tree", "{}.json", "--depth", "3"],
                                      ["tree", "--tree", "{}.txt", "--depth", "3"]])
    def test_non_utf8_file_is_config_error(self, tmp_path, capsys, argv):
        path = str(tmp_path / "bytes")
        argv = [arg.format(path) for arg in argv]
        with open(argv[2], "wb") as fh:
            fh.write(bytes(range(128, 256)) * 4)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and argv[2] in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_bad_branching_tol_is_config_error(self, files, capsys, tol):
        assert main(["tree", "--tree", files["hom2"], "--depth", "8",
                     "--branching", f"--tol={tol}"]) == 2
        assert capsys.readouterr().err == \
            "config error: tol must be positive and finite\n"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_classify_tol_is_config_error(self, files, capsys, tol):
        # p*br is exactly 1 for the point law 1/2 on hom2: tol -1 printed
        # Transient and nan Recurrent, with exit 0
        half = files["dir"] / "half.json"
        half.write_text(json.dumps({"schema": 1, "support": [0.5], "weights": [1.0]}))
        for law in (str(half), files["a_law"]):
            assert main(["classify", "--tree", files["hom2"], "--dist", law,
                         f"--tol={tol}"]) == 2
            assert capsys.readouterr() == ("", "config error: tol must be finite and >= 0\n")

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bad_contract_is_config_error(self, files, capsys, k):
        # --contract 0 once printed the uncontracted tree with exit 0
        assert main(["tree", "--tree", files["hom2"], "--depth", "4",
                     f"--contract={k}"]) == 2
        assert capsys.readouterr() == ("", "config error: k must be >= 1\n")

    def test_resource_cap_exit(self, files):
        assert main(["tree", "--tree", files["hom2"], "--depth", "40"]) == 3

    @pytest.mark.parametrize("cap", ["abc", "-5", "0"])
    def test_bad_vertex_cap_is_config_error(self, files, capsys, monkeypatch, cap):
        monkeypatch.setenv("TREELAB_VERTEX_CAP", cap)
        assert main(["tree", "--tree", files["hom2"], "--depth", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "TREELAB_VERTEX_CAP" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ["conductance"],
        ["walk", "--steps", "10"],
        ["percolate", "--proof", "rwre"],
    ], ids=["conductance", "walk", "proof-rwre"])
    def test_unsupported_case_exit(self, files, capsys, argv, workers):
        assert main(argv + ["--tree", files["hom2"], "--dist", files["zero_law"],
                            "--depth", "6", "--seeds", "3",
                            "--workers", workers]) == 4
        assert capsys.readouterr().err.startswith("unsupported case: ")

    @pytest.mark.parametrize("argv, err", [
        (["--dist", "x_inf"], "law must have finite real support"),
        (["--dist", "x_inf", "--workers", "2"], "law must have finite real support"),
        ([], "--dist is required for this op"),
    ], ids=["inf-time", "inf-time-workers", "no-law"])
    def test_proof_fpp_config_error(self, files, capsys, argv, err):
        argv = [files.get(a, a) for a in argv]
        assert main(["percolate", "--proof", "fpp", "--tree", files["hom2"],
                     "--depth", "6", "--seeds", "3"] + argv) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"

    @pytest.mark.parametrize("y", ["nan", "-inf", "inf", "-1"])
    def test_bad_proof_fpp_y_is_config_error(self, files, capsys, y):
        # nan and -inf once printed q_hat = 0 with exit 0
        assert main(["percolate", "--proof", "fpp", "--tree", files["hom2"],
                     "--dist", files["x_law"], "--depth", "6", f"--y={y}"]) == 2
        assert capsys.readouterr() == ("", "config error: y must be finite and >= 0\n")

    @pytest.mark.parametrize("argv", [
        ["rate", "--dist", "x_law", "--op", "m", "--y", "nan"],
        ["fpp", "--tree", "hom2", "--dist", "x_law", "--depth", "6", "--ygrid", "nan"],
    ], ids=["rate-m", "fpp"])
    def test_nan_y_is_config_error(self, files, capsys, argv):
        # rate_m(law, nan) was 1: rate printed it, fpp predicted exponent log 2
        assert main([files.get(a, a) for a in argv]) == 2
        assert capsys.readouterr() == ("", "config error: y must not be NaN\n")

    def test_walk_step_cap_exit(self, files, monkeypatch, capsys):
        monkeypatch.setattr(rwre, "_STEP_CAP", 1)
        assert main(["walk", "--tree", files["hom2"], "--dist", files["a_law"],
                     "--depth", "6", "--escape-depth", "3",
                     "--trials", "10"]) == 3
        assert "resource cap:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tree"],
        ["conductance", "--dist", "a_law"],
        ["walk", "--dist", "a_law"],
        ["fpp", "--dist", "x_law", "--ygrid", "0.5"],
    ], ids=["tree", "conductance", "walk", "fpp"])
    def test_count_past_the_digit_limit_is_a_resource_cap(self, files, capsys, argv):
        # the budget message once raised ValueError formatting 2**20001 - 1,
        # a number past Python's int-to-str digit limit
        assert main(argv[:1] + ["--tree", files["hom2"], "--depth", "20000"]
                    + [files.get(a, a) for a in argv[1:]]) == 3
        assert capsys.readouterr() == ("", (
            "resource cap: truncation needs at least 2**20000 vertices, over the "
            "budget of 67108864 (raise via TREELAB_VERTEX_CAP)\n"))

    @pytest.mark.parametrize("doc, last", [
        (HOM2_DOC, 1023),
        ({"schema": 1, "kind": "homogeneous", "b": 3}, 646),
        ({"schema": 1, "kind": "spine_with_leaves"}, 1023),
    ], ids=["hom2", "hom3", "spine"])
    def test_classify_past_double_level_counts_is_config_error(self, files, tmp_path,
                                                               capsys, doc, last):
        # float(b)**k and the spine's leaf counts raised OverflowError
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["classify", "--tree", str(spec), "--dist", files["a_law"]]
        for depth in (last + 1, last + 77):
            assert main(argv + ["--depth", str(depth)]) == 2
            assert capsys.readouterr() == ("", (
                f"config error: depth must be <= {last} on this tree: level "
                f"{last + 1} has more vertices than a double holds\n"))
        assert main(argv + ["--depth", str(last)]) == 0

    @pytest.mark.parametrize("argv, err", [
        (["fpp", "x_law", "--bigm=-1"], "the per-edge bound must be finite and >= 0"),
        (["fpp", "x_law", "--bigm=-inf"], "the per-edge bound must be finite and >= 0"),
        (["fpp", "x_law", "--bigm=inf"], "the per-edge bound must be finite and >= 0"),
        (["fpp", "x_law", "--bigm=nan"], "the per-edge bound must be finite and >= 0"),
        (["rwre", "a_law", "--eps=inf"], "eps must lie in (0, inf)"),
        (["rwre", "a_law", "--eps=nan"], "eps must lie in (0, inf)"),
        (["rwre", "a_law", "--eps=0"], "eps must lie in (0, inf)"),
        (["rwre", "a_law", "--eps=-1"], "eps must lie in (0, inf)"),
    ])
    def test_bad_proof_bound_is_config_error(self, files, capsys, argv, err):
        # --bigm=-1 and --eps inf once printed q_hat = 0 with exit 0
        proof, law, flag = argv
        assert main(["percolate", "--proof", proof, "--tree", files["hom2"],
                     "--dist", files[law], "--depth", "6", "--seeds", "2", flag]) == 2
        assert capsys.readouterr() == ("", f"config error: {err}\n")

    def test_negative_zero_bound_is_zero(self, files, capsys):
        outs = []
        for bigm in ("0", "-0"):
            assert main(["percolate", "--proof", "fpp", "--tree", files["hom2"],
                         "--dist", files["x_law"], "--depth", "6", "--seeds", "2",
                         f"--bigm={bigm}"]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]

    EXTREME_GRIDS = {
        "across-the-double-range": ([1e-300, 1e300], [
            "--y=1e-300,1e299,4.9e299", "--z=0.5000001,0.9",
            "--a=5.1e299,9.99999e299"]),
        "wide-symmetric": ([-1e6, 1e6], [
            "--y=-999999.9999999,-1,0", "--z=0.5000000001,1",
            "--a=1e-9,999999.9999999"]),
    }

    @pytest.mark.parametrize("law, op", [
        ("across-the-double-range", op)
        for op in ("p", "dual", "m", "minv", "gamma", "summary")
    ] + [("wide-symmetric", op) for op in ("m", "minv", "gamma", "summary")])
    def test_rate_ops_succeed_on_extreme_laws(self, tmp_path, capsys, law, op):
        support, grids = self.EXTREME_GRIDS[law]
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"schema": 1, "support": support,
                                    "weights": [0.5, 0.5]}))
        assert main(["rate", "--dist", str(path), "--op", op] + grids) == 0

    def test_trapping_walk_reaches_the_step_cap(self, files, tmp_path, capsys):
        # ratios 1e-80 and 1e80 trap the walker between a vertex and a child
        trap = tmp_path / "trap.json"
        trap.write_text(json.dumps({"schema": 1, "support": [1e-80, 1e80],
                                    "weights": [0.5, 0.5]}))
        assert main(["walk", "--tree", files["hom2"], "--dist", str(trap),
                     "--depth", "8", "--escape-depth", "4",
                     "--trials", "5"]) == 3
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
        err = capsys.readouterr().err
        assert "config error" in err and str(spec) in err

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

    def test_out_of_memory_is_a_resource_cap(self, files, capsys, monkeypatch):
        # a vertex array numpy cannot allocate, with no real allocation
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 EiB for an array")

        monkeypatch.setattr(cli, "effective_conductance", no_memory)
        assert main(["conductance", "--tree", files["hom2"], "--dist",
                     files["a_law"], "--depth", "4"]) == 3
        assert capsys.readouterr() == ("", (
            "resource cap: out of memory: Unable to allocate 4.00 EiB for an "
            "array\n"))

    def test_library_key_error_is_not_a_config_error(self, files, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "build_truncation", broken)
        with pytest.raises(KeyError):
            main(["tree", "--tree", files["hom2"], "--depth", "3"])

    @pytest.mark.parametrize("argv", [
        ["conductance", "--dist", "a_law", "--depth", "4"],
        ["flow", "--dist", "a_law", "--depth", "4"],
        ["walk", "--dist", "a_law", "--depth", "4", "--escape-depth", "2"],
        ["walk", "--dist", "a_law", "--depth", "4", "--steps", "10"],
        ["fpp", "--dist", "x_law", "--depth", "4", "--ygrid", "0.5"],
        ["percolate", "--proof", "rwre", "--dist", "a_law", "--depth", "4"],
        ["percolate", "--proof", "fpp", "--dist", "x_law", "--depth", "4"],
    ], ids=["conductance", "flow", "walk-escape", "walk-steps", "fpp",
            "proof-rwre", "proof-fpp"])
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_is_config_error(self, files, capsys, argv, seeds):
        argv = [files.get(a, a) for a in argv]
        assert main(argv + ["--tree", files["hom2"], "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: need at least one seed\n"
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fpp_without_extendable_frontier_is_config_error(self, files, tmp_path,
                                                             capsys, fmt):
        # a finite table has no ray, so neither B_n nor its rate m1(1/br) exists
        spec = tmp_path / "finite.json"
        spec.write_text(json.dumps({"kind": "explicit",
                                    "parents": [0, 0, 1, 1, 2, 3, 3, 5],
                                    "extendable": []}))
        out_path = tmp_path / f"fpp.{fmt}"
        assert main(["fpp", "--tree", str(spec), "--dist", files["x_law"],
                     "--depth", "4", "--ygrid", "0.5", "--format", fmt,
                     "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: level 4 has no vertices with "
                                "extendable lineage\n")
        assert captured.out == "" and not out_path.exists()

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


@pytest.mark.parametrize("argv", [
    ["tree", "--tree", "hom2", "--depth", "8", "--branching"],
    ["rate", "--dist", "a_law", "--op", "dual"],
    ["classify", "--tree", "hom2", "--dist", "a_law", "--depth", "8"],
    ["flow", "--tree", "hom2", "--dist", "a_law", "--depth", "8", "--seeds", "5"],
    ["walk", "--tree", "hom2", "--dist", "a_law", "--depth", "8",
     "--escape-depth", "4", "--trials", "50", "--seeds", "4"],
    ["walk", "--tree", "hom2", "--dist", "a_law", "--depth", "8",
     "--steps", "300", "--seeds", "4"],
    ["percolate", "--tree", "hom2", "--q", "0.6:0.8:0.1", "--depth", "8",
     "--trials", "40"],
], ids=["tree-branching", "rate", "classify", "flow", "walk-escape",
        "walk-steps", "percolate-trials"])
def test_workers_do_not_change_json(files, tmp_path, argv):
    """Every subcommand that accepts --workers, including those that ignore it."""
    argv = [files.get(a, a) for a in argv]
    outs = []
    for workers in ("1", "3"):
        path = tmp_path / f"out_{workers}.json"
        assert main(argv + ["--seed", "11", "--workers", workers,
                            "--format", "json", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


class TestFillPolicy:
    """What one replicate draws and sweeps: each whole-tree draw of
    `Distribution.sample_values` (its id count) and each `Tree.sweep_down`
    (its op, and whether it folds its input in place)."""

    DEPTH = 8
    V = 2 ** (DEPTH + 1) - 1

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        draw, sweep = Distribution.sample_values, trees.Tree.sweep_down

        def draw_spy(law, key, counters, out=None, image=None):
            calls.append(("draw", len(counters)))
            return draw(law, key, counters, out=out, image=image)

        def sweep_spy(tree, vals, op=np.add, out=None):
            calls.append(("sweep", op.__name__, out is vals))
            return sweep(tree, vals, op, out)

        monkeypatch.setattr(Distribution, "sample_values", draw_spy)
        monkeypatch.setattr(trees.Tree, "sweep_down", sweep_spy)
        return calls

    @pytest.mark.parametrize("w", [[], ["--w", "0.9"]], ids=["flow", "weighted"])
    def test_flow_sums_a_fresh_draw_in_place(self, files, calls, capsys,
                                             monkeypatch, w):
        envs = []

        def recording(*args):
            envs.append(sample_environment(*args))
            return envs[-1]

        monkeypatch.setattr(cli, "sample_environment", recording)
        assert main(["flow", "--tree", files["hom2"], "--dist", files["a_law"],
                     "--depth", str(self.DEPTH)] + w) == 0
        assert calls == [("draw", self.V - 1), ("sweep", "add", True)]
        assert envs[0]._log_a is None and envs[0]._log_c is not None

    def test_fpp_sums_a_fresh_draw_in_place(self, files, calls, capsys):
        assert main(["fpp", "--tree", files["hom2"], "--dist", files["x_law"],
                     "--depth", str(self.DEPTH), "--ygrid", "0.5"]) == 0
        assert calls == [("draw", self.V - 1), ("sweep", "add", True)]

    def test_proof_fpp_draws_the_times_alone(self, files, calls, capsys):
        # the only sweep is the reached set of the contraction
        assert main(["percolate", "--proof", "fpp", "--tree", files["hom2"],
                     "--dist", files["x_law"], "--depth", str(self.DEPTH),
                     "--k", "2"]) == 0
        assert calls == [("draw", self.V - 1), ("sweep", "logical_and", False)]


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

        for module in (cli, branching, fpp, rwre, trees):
            monkeypatch.setattr(module, "build_truncation", spy)
        return calls

    @pytest.fixture
    def no_vertex_arrays(self, monkeypatch):
        """A read of `parent` or `extendable` on a `HomogeneousLevels` fails."""
        def unread(tree):
            raise AssertionError("read a vertex array")

        for name in ("parent", "extendable"):
            monkeypatch.setattr(trees.HomogeneousLevels, name, property(unread))

    def test_homogeneous_conductance_builds_nothing(self, files, builds, capsys,
                                                    no_vertex_arrays, tmp_path):
        # the b-ary layout answers every read of conductance by arithmetic,
        # on the double and the log path alike: no vertex array is built
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(WIDE_LAW_DOC))
        for law in (files["a_law"], str(wide)):
            for workers in ("1", "2"):
                assert main(["conductance", "--tree", files["hom2"], "--dist", law,
                             "--depth", "8", "--seeds", "3",
                             "--workers", workers]) == 0
        assert builds == [("homogeneous", 8)] * 4

    @pytest.mark.parametrize("argv", [
        ["walk", "--dist", "a_law", "--escape-depth", "4", "--trials", "50"],
        ["walk", "--dist", "a_law", "--steps", "300"],
        ["fpp", "--dist", "x_law", "--ygrid", "0.3:1.0:0.1"],
    ], ids=["walk-escape", "walk-steps", "fpp"])
    def test_homogeneous_walk_and_fpp_build_nothing(self, files, builds, capsys,
                                                    no_vertex_arrays, argv):
        # kernel rows, the exit test, the sums S and the lineage mask are
        # all arithmetic on the b-ary layout
        argv = [files.get(a, a) for a in argv]
        for workers in ("1", "2"):
            assert main(argv + ["--tree", files["hom2"], "--depth", "8",
                                "--seeds", "3", "--workers", workers]) == 0
        assert builds == [("homogeneous", 8)] * 2

    @pytest.mark.parametrize("argv,built", [
        (["tree", "--branching"], [("homogeneous", 12)]),
        (["classify", "--dist", "a_law"], []),
    ], ids=["tree-branching", "classify"])
    def test_homogeneous_branching_and_classify_build_nothing(
            self, files, builds, capsys, no_vertex_arrays, argv, built):
        # the half-depth truncation of the branching estimate is the
        # shallower b-ary layout; classify counts levels in closed form
        argv = [files.get(a, a) for a in argv]
        assert main(argv + ["--tree", files["hom2"], "--depth", "12"]) == 0
        assert builds == built

    @pytest.mark.parametrize("argv", [
        ["tree", "--contract", "2"],
        ["percolate", "--proof", "rwre", "--dist", "a_law", "--k", "2"],
        ["percolate", "--proof", "fpp", "--dist", "x_law", "--k", "2"],
    ], ids=["tree-contract", "proof-rwre", "proof-fpp"])
    def test_homogeneous_contractions_build_nothing(self, files, builds, capsys,
                                                    no_vertex_arrays, argv):
        # contract_k climbs the b-ary layout by arithmetic and passes its
        # frontier through, and the proof folds climb it the same way
        argv = [files.get(a, a) for a in argv]
        assert main(argv + ["--tree", files["hom2"], "--depth", "8"]) == 0
        assert builds == [("homogeneous", 8)]

    def test_family_conductance_builds_once(self, files, builds, tmp_path, capsys):
        spec = tmp_path / "gw.json"
        spec.write_text(json.dumps(GW_DOC))
        assert main(["conductance", "--tree", str(spec), "--dist",
                     files["a_law"], "--depth", "8", "--seeds", "3"]) == 0
        assert builds == [("galton_watson", 8)]

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


def _plain_tree(spec: TreeSpec, depth: int) -> trees.Tree:
    """The truncation as a plain `Tree`: bincount child sums, and the ground
    read from its `frontier` flags."""
    t = trees.build_truncation(spec, depth)
    return trees.Tree(parent=t.parent, frontier=t.extendable[t.level_slice(depth)],
                      level_offsets=t.level_offsets)


class TestHomogeneousConductance:
    """`conductance` on a homogeneous spec reads the arithmetic
    `HomogeneousLevels`; its output is a plain built tree's, byte for
    byte."""

    def _run(self, argv, capsys) -> tuple[str, bytes]:
        out = argv[argv.index("--out") + 1]
        assert main(argv) == 0
        with open(out, "rb") as fh:
            return capsys.readouterr().out, fh.read()

    @pytest.mark.parametrize("ground", [None, "3"])
    @pytest.mark.parametrize("law", [A_LAW_DOC, WIDE_LAW_DOC], ids=["a2", "wide"])
    @pytest.mark.parametrize("b,depth", [(1, 12), (2, 8), (3, 5)])
    def test_bytes_match_the_built_tree(self, tmp_path, capsys, monkeypatch,
                                        b, depth, law, ground):
        spec_path, law_path = tmp_path / "spec.json", tmp_path / "law.json"
        spec_path.write_text(json.dumps({"schema": 1, "kind": "homogeneous", "b": b}))
        law_path.write_text(json.dumps(law))
        argvs = [["conductance", "--tree", str(spec_path), "--dist", str(law_path),
                  "--depth", str(depth), "--seeds", "5", "--seed", "11",
                  "--workers", workers, "--format", fmt,
                  "--out", str(tmp_path / f"out_{workers}.{fmt}")]
                 + (["--ground-depth", ground] if ground else [])
                 for workers in ("1", "3") for fmt in ("json", "csv")]
        streamed = [self._run(argv, capsys) for argv in argvs]
        monkeypatch.setattr(cli, "build_truncation", _plain_tree)
        assert [self._run(argv, capsys) for argv in argvs] == streamed

        tree = _plain_tree(TreeSpec.homogeneous(b), depth)
        dist = Distribution.from_json(law)
        ground_depth = int(ground) if ground else None
        rows = json.loads(streamed[0][1])["rows"]
        assert [row["conductance"].hex() for row in rows] == [
            effective_conductance(tree, sample_environment(tree, dist, rng.derive(11, i)),
                                  ground_depth).hex()
            for i in range(5)]

    def test_vertex_cap_checked_before_any_draw(self, files, capsys, monkeypatch):
        monkeypatch.setenv("TREELAB_VERTEX_CAP", "1000")
        assert main(["tree", "--tree", files["hom2"], "--depth", "10"]) == 3
        want = capsys.readouterr()

        def no_draw(*args):
            raise AssertionError("drew an environment over the vertex budget")

        monkeypatch.setattr(cli, "sample_environment", no_draw)
        assert main(["conductance", "--tree", files["hom2"], "--dist",
                     files["a_law"], "--depth", "10"]) == 3
        assert capsys.readouterr() == want
        assert want.err == ("resource cap: truncation needs 2047 vertices, over the "
                            "budget of 1000 (raise via TREELAB_VERTEX_CAP)\n")

    @pytest.mark.parametrize("depth, err", [
        ("0", "conductance needs truncation depth >= 1"),
        ("-1", "depth must be >= 0"),
    ])
    def test_depth_errors(self, files, capsys, depth, err):
        assert main(["conductance", "--tree", files["hom2"], "--dist",
                     files["a_law"], f"--depth={depth}"]) == 2
        assert capsys.readouterr() == ("", f"config error: {err}\n")


@pytest.mark.parametrize("ground", [None, "3"])
def test_conductance_of_an_extinct_family_tree_is_zero(files, tmp_path, capsys, ground):
    # the root has no children: an empty level's child sums were int64, and
    # the ratio step's in-place divide raised a numpy casting error
    doc = {"schema": 1, "kind": "galton_watson", "seed": 0,
           "offspring": {"schema": 1, "support": [0, 1], "weights": [0.5, 0.5]}}
    assert trees.build_truncation(TreeSpec.from_json(doc), 6).level_sizes().tolist() == \
        [1, 0, 0, 0, 0, 0, 0]
    spec = tmp_path / "extinct.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["conductance", "--tree", str(spec), "--dist", files["a_law"],
                 "--depth", "6", "--seeds", "2", "--format", "json", "--out", str(out)]
                + (["--ground-depth", ground] if ground else [])) == 0
    assert [row["conductance"] for row in json.loads(out.read_text())["rows"]] == [0.0, 0.0]
