import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from mmspace import (
    PointCloud,
    build_ground_metric,
    euclidean_matrix,
    fermat_distance_matrix,
    read_cloud_csv,
    read_matrix_bin,
    write_cloud_csv,
    write_matrix_bin,
    write_matrix_csv,
)
from mmspace import cli, space
from mmspace.cli import main

from helpers import random_space, relaxation_geodesics


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_line_cloud(path, coords):
    write_cloud_csv(path, PointCloud(np.asarray(coords, dtype=float)[:, None], 1))


class TestSampleAndDist:
    def test_pipeline(self, tmp_path, capsys):
        cloud = tmp_path / "c.csv"
        dist = tmp_path / "d.csv"
        code, out = run_cli(
            capsys, "sample", "--generator", "interval", "--n", "12", "--out", str(cloud)
        )
        assert code == 0 and "n=12" in out
        code, out = run_cli(
            capsys, "dist", "--method", "euclid", "--in", str(cloud), "--out", str(dist)
        )
        assert code == 0
        assert dist.exists()

    def test_fermat_scaled(self, tmp_path, capsys):
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [0.0, 1.0, 2.0])
        out_plain = tmp_path / "plain.csv"
        out_scaled = tmp_path / "scaled.csv"
        code, _ = run_cli(
            capsys, "dist", "--method", "fermat", "--alpha", "2.0",
            "--in", str(cloud), "--out", str(out_plain), "--intrinsic-dim", "1",
        )
        assert code == 0
        code, _ = run_cli(
            capsys, "dist", "--method", "fermat", "--alpha", "2.0", "--scaled",
            "--in", str(cloud), "--out", str(out_scaled), "--intrinsic-dim", "1",
        )
        assert code == 0
        from mmspace import read_matrix_csv

        _, plain = read_matrix_csv(out_plain)
        _, scaled = read_matrix_csv(out_scaled)
        assert np.allclose(scaled, 3.0 * plain)  # n^(alpha-1) = 3

    def test_isomap_needs_eps(self, tmp_path, capsys):
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [0.0, 0.5, 1.2])
        code, _ = run_cli(
            capsys, "dist", "--method", "isomap", "--in", str(cloud),
            "--out", str(tmp_path / "d.csv"),
        )
        assert code == 2

    def test_isomap_disconnected_exit_4(self, tmp_path, capsys):
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [0.0, 0.5, 1.2])
        code, _ = run_cli(
            capsys, "dist", "--method", "isomap", "--eps", "0.6",
            "--in", str(cloud), "--out", str(tmp_path / "d.csv"),
        )
        assert code == 4

    def test_diffusion_spectrum_out(self, tmp_path, capsys):
        cloud = tmp_path / "c.csv"
        write_cloud_csv(cloud, PointCloud(np.zeros((4, 2)) + np.arange(4)[:, None], 2))
        spec = tmp_path / "spec.json"
        code, _ = run_cli(
            capsys, "dist", "--method", "diffusion", "--sigma", "1.0",
            "--in", str(cloud), "--out", str(tmp_path / "d.csv"),
            "--spectrum-out", str(spec),
        )
        assert code == 0
        doc = json.loads(spec.read_text())
        assert doc["eigenvalues"][0] == pytest.approx(0.0, abs=1e-10)
        for warn in doc["gap_warnings"]:
            assert len(warn) == 3

    @pytest.mark.parametrize(
        "flags, library",
        [
            (["--method", "euclid"], lambda c: build_ground_metric(c, "euclid")),
            (["--method", "isomap", "--eps", "2.5"], lambda c: build_ground_metric(c, "isomap", {"eps": 2.5})),
            # n = 30 leaves the shared default of min(n, 10) eigenpairs
            (["--method", "diffusion", "--sigma", "0.4"], lambda c: build_ground_metric(c, "diffusion", {"sigma": 0.4})),
            (
                ["--method", "diffusion", "--sigma", "0.4", "--k", "4", "--t", "2"],
                lambda c: build_ground_metric(c, "diffusion", {"sigma": 0.4, "embed_k": 4, "t": 2.0}),
            ),
            (["--method", "fermat", "--alpha", "3", "--scaled"], lambda c: build_ground_metric(c, "fermat", {"alpha": 3.0})),
            (["--method", "fermat", "--alpha", "3"], lambda c: fermat_distance_matrix(c, 3.0)),
        ],
    )
    def test_dist_matches_library(self, tmp_path, capsys, flags, library):
        cloud_path = tmp_path / "c.csv"
        code, _ = run_cli(capsys, "sample", "--generator", "gaussian", "--dim", "2", "--n", "30", "--out", str(cloud_path))
        assert code == 0
        out = tmp_path / "cli.bin"
        code, _ = run_cli(capsys, "dist", *flags, "--in", str(cloud_path), "--out", str(out))
        assert code == 0
        lib = tmp_path / "lib.bin"
        write_matrix_bin(lib, library(read_cloud_csv(cloud_path)))
        assert out.read_bytes() == lib.read_bytes()

    def test_graph_size_limit_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(space, "MAX_GRAPH_POINTS", 3)
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [0.0, 0.5, 1.0, 1.5])
        for flags in (
            ["--method", "fermat"],
            ["--method", "isomap", "--eps", "1.0"],
            ["--method", "euclid"],
            ["--method", "diffusion", "--sigma", "1.0"],
        ):
            code, _ = run_cli(capsys, "dist", *flags, "--in", str(cloud), "--out", str(tmp_path / "d.csv"))
            assert code == 3

    # a warning would escape to stderr beside the error, so it fails the test
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [["--method", "euclid"], ["--method", "fermat", "--alpha", "2"]])
    def test_overflowing_matrix_exits_2(self, tmp_path, capsys, flags):
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [1e308, -1e308, 0.0])
        out = tmp_path / "d.csv"
        code = main(["dist", *flags, "--in", str(cloud), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflow" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags,want", [
        (["--method", "euclid"], 0),
        (["--method", "isomap", "--eps", "1e201"], 0),
        # the Fermat weight at alpha = 2 is the square itself
        (["--method", "fermat", "--alpha", "2"], 2),
    ])
    def test_distance_whose_square_overflows(self, tmp_path, capsys, flags, want):
        # cdist squares the gap 1e200; the distance itself is a finite float
        cloud = tmp_path / "c.csv"
        write_cloud_csv(cloud, PointCloud(np.array([[0.0, 0.0], [1e200, 0.0]])))
        out = tmp_path / "d.bin"
        code = main(["dist", *flags, "--in", str(cloud), "--out", str(out)])
        assert code == want
        if want == 0:
            assert np.array_equal(read_matrix_bin(out), [[0.0, 1e200], [1e200, 0.0]])
        else:
            assert "overflow" in capsys.readouterr().err and not out.exists()

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "dist", "--method", "euclid", "--in", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "d.csv"),
        )
        assert code == 2


class TestKmeans:
    def space_file(self, tmp_path):
        path = tmp_path / "m.csv"
        m = np.array(
            [[0.0, 0.1, 10.0, 10.1], [0.1, 0.0, 9.9, 10.0],
             [10.0, 9.9, 0.0, 0.1], [10.1, 10.0, 0.1, 0.0]]
        )
        m = np.minimum(m, m.T)
        write_matrix_csv(path, ["a", "b", "c", "d"], m)
        return path

    def test_exact(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "kmeans", "--space", str(self.space_file(tmp_path)), "--k", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "exact"
        assert doc["k"] == 2
        assert len(doc["minimizers"]) == 4  # 2x2 symmetric ties
        assert doc["objective"] == pytest.approx(2.0 * 0.25 * 0.1**2)

    def test_pam_matches_exact(self, tmp_path, capsys):
        space = self.space_file(tmp_path)
        _, exact_out = run_cli(capsys, "kmeans", "--space", str(space), "--k", "2")
        code, pam_out = run_cli(
            capsys, "kmeans", "--space", str(space), "--k", "2", "--pam",
            "--restarts", "3",
        )
        assert code == 0
        assert json.loads(pam_out)["objective"] == pytest.approx(
            json.loads(exact_out)["objective"]
        )

    def test_budget_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        space, _ = random_space(rng, 30, uniform=True)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, space.labels, space.dist)
        code, _ = run_cli(
            capsys, "kmeans", "--space", str(path), "--k", "10", "--budget", "100"
        )
        assert code == 3

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code, text = run_cli(
            capsys, "kmeans", "--space", str(self.space_file(tmp_path)),
            "--k", "1", "--out", str(out),
        )
        assert code == 0 and f"wrote {out}" in text
        doc = json.loads(out.read_text())
        assert doc["minimizer_labels"]


class TestVoronoi:
    def test_cells_and_enlargement(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        write_matrix_csv(path, ["x", "y", "z"], m)
        code, out = run_cli(
            capsys, "voronoi", "--space", str(path), "--centers", "0,2",
            "--delta", "2.0",
        )
        assert code == 0
        doc = json.loads(out)
        # the middle point ties at distance 1 to both centers
        assert doc["cells"]["0"] == [0, 1]
        assert doc["cells"]["2"] == [1, 2]
        assert doc["enlarged"]["0"] == [0, 1, 2]
        assert set(doc["thresholds"]) == {"0", "2"}


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    def test_every_exit_0_stdout_is_strict_json(self, tmp_path, capsys):
        line = tmp_path / "m.csv"
        write_matrix_csv(line, ["x", "y", "z"], np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
        groups = []
        for i, center in enumerate((0.0, 5.0, 10.0)):
            groups.append(str(tmp_path / f"g{i}.csv"))
            write_line_cloud(groups[-1], np.random.default_rng(i).normal(center, 0.1, size=6))
        commands = [
            ["validate", "--in", str(line)],
            ["wkmeans", "--groups", *groups, "--k", "2"],
            ["fpp", "--dim", "2", "--law", "det:1", "--t", "3"],
        ]
        for k in ("1", "2", "3"):
            commands += [["kmeans", "--space", str(line), "--k", k], ["kmeans", "--space", str(line), "--k", k, "--pam"]]
        for centers in ("1", "0,2"):
            voronoi = ["voronoi", "--space", str(line), "--centers", centers]
            commands += [voronoi, voronoi + ["--delta", "0.5"]]
        for argv in commands:
            code, out = run_cli(capsys, *argv)
            assert code == 0, argv
            doc = json.loads(out, parse_constant=refuse_constant)
            if argv[0] == "voronoi" and argv[4] == "1":
                # one center's cell is the whole space: its threshold is inf in the library
                assert doc["thresholds"] == {"1": None}


class TestWkmeans:
    def test_central_medoid(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        paths = []
        for i, center in enumerate((0.0, 5.0, 10.0)):
            path = tmp_path / f"g{i}.csv"
            write_line_cloud(path, rng.normal(center, 0.1, size=12))
            paths.append(str(path))
        code, out = run_cli(
            capsys, "wkmeans", "--groups", *paths, "--k", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["minimizers"] == [[1]]
        assert doc["minimizer_labels"] == [["g1.csv"]]


# sha256 of the stdout of `mm fpp`, frozen from the all-pairs Dijkstra
# shape_defect; the exp:1 command runs the track only
FPP_STDOUT_SHA256 = [
    ("--dim 1 --law det:0.1 --t 2,4.5", "f06f1d65a3a32789a4a029a08d589b3df5dbe2230160bdbf113d5e9284393934"),
    ("--dim 1 --law det:1 --t 7", "1a4e8664aa7d33593d364c7f4b9834887949942b22a948cfd2bc911fc335ab79"),
    ("--dim 2 --law det:0.25 --t 2,4", "fd8b4b80a974b362b149a5018188eaa44f7109f0e0c53765fd3d7aaa16e27f84"),
    ("--dim 2 --law det:0.1 --t 1.5 --shell 0", "2ab299b1fc5af0c3269a11bdfb4de5798bb69e09d9e4d11adf17e939332eb1af"),
    ("--dim 2 --law det:1 --t 3,9 --p 1", "c17fee82398d28d16480a2a87c399ce43456b74f191e20e120c63098b9fa1b98"),
    ("--dim 3 --law det:0.25 --t 1.5", "622c31f6feb0f5bf8dc8c57e0c5a2a53d8e9e40e138b94a5dfe33aa8f55f4c6d"),
    ("--dim 3 --law det:1 --t 3,4", "8d8df80fcb0e22f013702e311ceb9137ff33f1c1158c55d06100b5c887c65a4d"),
    ("--dim 3 --law det:0.1 --t 0.7", "418b67ae50c06fa0e4b91686ad602fab20ca5e4e175a1dc9e970213ee12e6f54"),
    ("--dim 2 --law exp:1 --t 3,5 --seed 3", "12b33ea699d062c6127e0c63f50d10a359a552074e186c30bcbbb71cfb2fc268"),
    # frozen when each t grew its own ball and the det balls came from Dijkstra
    ("--dim 1 --law exp:1 --t 5,10,20 --seed 2", "c19a6d504bbb11709c55c33dca96dc44d428081ccc35ae525ce93652bdce38a7"),
    ("--dim 2 --law exp:1 --t 2,4,6 --seed 1 --shell 0", "2534940d1f9fa642e96b14a70d6cb1ac1d06334f03837b468942b4b5b4eea8ce"),
    ("--dim 2 --law exp:1 --t 3,5,8 --seed 4", "7e1a2416d5ede423a62e8d07685e4b90474566d9bbaad3718900bf602fd2dfa0"),
    ("--dim 3 --law exp:1 --t 1.5,2.5 --seed 4", "4aa6eaa9233006fc851a1277aadde69987eddee782126c15cb57cc03dc32874d"),
    ("--dim 1 --law unif:0.5,1.5 --t 4,9 --shell 0 --seed 5", "284c6edf8391108018256c3a0d3e179412358932c01fb721b35ce2176f585811"),
    ("--dim 2 --law unif:0.5,1.5 --t 3,5 --seed 2", "311c9b21f292b9c5d94ac4c35a96eab0ca5d895e0f8cd42ef8198f1c375ee1ff"),
    ("--dim 3 --law unif:0.5,1.5 --t 2,3 --seed 1 --p 1", "9ea34f06ac6175e2ab7aa40c9de582a6dc2392ec0c064f0f816ba13e2f7a2921"),
    ("--dim 2 --law exp:1 --t 5,8,10 --budget 12000 --seed 7", "cdcc9603bc17eb62c5b2a331a91c498996afb9dc113a47eb14dae49a4e383a49"),
    ("--dim 2 --law det:0.25 --t 8", "00adba9ce0c7dd21f191605f27b66c4aaa350698909af329ee53a922402231dc"),
    ("--dim 2 --law det:0.3 --t 1,2.5,4 --shell 0", "6c7779901dcddf4ebc22bc9fd96b2791bd0420db9fb57b4be27fdfa5fc84067b"),
    ("--dim 3 --law det:2 --t 8,10 --p 3", "50b4f9d0b66eb8eee2744df0054b670a695ba8b3e1c990545b0045ec98d71e41"),
]


class TestFpp:
    @pytest.mark.parametrize("args,digest", FPP_STDOUT_SHA256, ids=[a for a, _ in FPP_STDOUT_SHA256])
    def test_stdout_bytes_are_frozen(self, capsys, args, digest):
        code, out = run_cli(capsys, "fpp", *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic_law(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "fpp", "--dim", "2", "--law", "det:1", "--t", "3",
            "--shell", "0.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["law"] == "deterministic(1.0)"
        entry = doc["track"][0]
        assert entry["ball_size"] == 13
        assert entry["barycenters"] == [[0.0, 0.0]]
        assert entry["metric_defect"] == pytest.approx(0.0, abs=1e-12)
        assert entry["covering_defect"] == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_random_law_has_no_defect_fields(self, capsys):
        code, out = run_cli(
            capsys, "fpp", "--dim", "2", "--law", "exp:1", "--t", "2,3", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert [e["t"] for e in doc["track"]] == [2.0, 3.0]
        assert "metric_defect" not in doc["track"][0]

    @pytest.mark.parametrize("times", ["-1", "2,inf", "0", "nan", "abc", "2,,3"])
    def test_bad_t_is_named(self, capsys, times):
        code = main(["fpp", "--dim", "2", "--law", "exp:1", "--t", times, "--shell", "0.2"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --t must be comma separated positive finite times, got {times!r}\n"
        )

    @pytest.mark.parametrize("shell", ["nan", "-0.1", "inf"])
    def test_bad_shell_is_named(self, capsys, shell):
        code = main(["fpp", "--dim", "2", "--law", "exp:1", "--t", "3", "--shell", shell])
        assert code == 2
        assert capsys.readouterr().err == f"error: --shell must be a finite real number >= 0, got {float(shell)!r}\n"

    @pytest.mark.parametrize("seed", [str(1 << 63), str(-(1 << 63) - 1)])
    def test_seed_past_int64_is_named(self, capsys, seed):
        code = main(["fpp", "--dim", "2", "--law", "exp:1", "--t", "3", "--seed", seed])
        assert code == 2
        assert capsys.readouterr().err == f"error: seed must be an integer in the int64 range, got {seed}\n"

    def test_budget_exit_3(self, capsys):
        code = main(["fpp", "--dim", "2", "--law", "exp:1", "--t", "50", "--budget", "100"])
        assert code == 3
        assert capsys.readouterr().err == "error: |B(t)| exceeds the all-pairs budget 100\n"


class TestQuantizeCmd:
    def test_two_centers(self, tmp_path, capsys):
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [0.0, 0.1, -0.1, 10.0, 10.1])
        code, out = run_cli(
            capsys, "quantize", "--in", str(cloud), "--n", "2", "--restarts", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["centers"][0][0] == pytest.approx(0.0, abs=1e-6)
        assert doc["centers"][1][0] == pytest.approx(10.05, abs=1e-6)
        assert doc["masses"] == pytest.approx([0.6, 0.4])

    # a warning would escape to stderr before the error, so it fails the test
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_cost_exits_2(self, tmp_path, capsys):
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [-1e160, 0.0, 5e159, 1e160])
        code = main(["quantize", "--in", str(cloud), "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: the quantization cost is not finite on any restart; the samples are too large to quantize\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_cost_at_p3_exits_2(self, tmp_path, capsys):
        # p != 2 moves each center by Nelder-Mead on a cost that overflows
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [-1e160, 0.0, 5e159, 1e160])
        code = main(["quantize", "--in", str(cloud), "--n", "2", "--p", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: the quantization cost is not finite on any restart; the samples are too large to quantize\n"
        )


class TestNet:
    def test_admissibility_flip(self, capsys):
        code, out = run_cli(capsys, "net", "--points", "200", "--eps", "0.3")
        assert code == 0
        doc = json.loads(out)
        assert doc["admissible"] is False
        assert doc["net_radius"] == pytest.approx(math.pi / 200.0)
        assert doc["sup_defect"] < 1e-12
        code, out = run_cli(capsys, "net", "--points", "200", "--eps", "0.5")
        assert json.loads(out)["admissible"] is True

    def test_unknown_space(self, capsys):
        code, _ = run_cli(capsys, "net", "--space", "sphere", "--points", "10", "--eps", "0.5")
        assert code == 2


class TestExperimentCmd:
    def test_run(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[data]\ngenerator = interval\n"
            "[kmeans]\nk = 1\n"
            "[run]\nsizes = 10 20\ntrials = 2\nseed = 0\n"
        )
        out_dir = tmp_path / "results"
        code, out = run_cli(
            capsys, "experiment", "--config", str(config), "--out", str(out_dir)
        )
        assert code == 0
        assert "rows=4 failed=0" in out
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "summary.json").exists()

    def test_reference_of_wrong_dimension_exit_2(self, tmp_path, capsys):
        # a 2-D reference against a 1-D cloud must not broadcast into numbers
        config = tmp_path / "exp.ini"
        config.write_text(
            "[data]\ngenerator = interval\n"
            "[kmeans]\nk = 1\n"
            "[run]\nsizes = 10 20\ntrials = 1\nreference = 0.25 0.5\n"
        )
        code, _ = run_cli(capsys, "experiment", "--config", str(config), "--out", str(tmp_path / "r"))
        assert code == 2

    def test_empty_reference_cell_exit_2(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[data]\ngenerator = interval\n"
            "[kmeans]\nk = 2\n"
            "[run]\nsizes = 10 20\ntrials = 1\nreference = 0.25; 5.0\n"
        )
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "reference center 1 (5.0) is nearest to no point of the n=20 cloud in trial 0" in err


class TestValidate:
    @pytest.mark.parametrize("argv", [("validate", "--in"), ("kmeans", "--k", "1", "--space")])
    def test_empty_binary_matrix_exit_2(self, tmp_path, capsys, argv):
        # a file no writer makes: the writers refuse a 0 x 0 matrix
        path = tmp_path / "e.bin"
        path.write_bytes(b"MMSP" + struct.pack("<Q", 0))
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {path}: empty matrix file\n"

    def test_pass_and_fail(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        write_matrix_csv(good, ["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
        code, out = run_cli(capsys, "validate", "--in", str(good))
        assert code == 0
        assert json.loads(out)["passes"] is True

        bad = tmp_path / "bad.csv"
        write_matrix_csv(
            bad, ["a", "b", "c"],
            np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]),
        )
        code, out = run_cli(capsys, "validate", "--in", str(bad))
        assert code == 2
        doc = json.loads(out)
        assert doc["passes"] is False
        assert doc["witnesses"]["triangle"] == [0, 2, 1]

    @pytest.mark.parametrize("value, message", [
        ("0", "MM_THREADS must be >= 1"),
        ("two", "MM_THREADS must be an integer, got 'two'"),
    ])
    @pytest.mark.parametrize("argv", [
        ("validate", "--in"),
        ("kmeans", "--k", "2", "--space"),
        ("kmeans", "--k", "2", "--pam", "--space"),
        ("voronoi", "--centers", "0,3", "--space"),
    ])
    def test_bad_thread_cap_exit_2_at_any_size(self, tmp_path, capsys, monkeypatch, argv, value, message):
        # n = 5 is far below every fork crossover, and the cap is still checked
        path = tmp_path / "m.csv"
        x = np.arange(5.0)
        write_matrix_csv(path, [str(i) for i in range(5)], np.abs(x[:, None] - x[None, :]))
        monkeypatch.setenv("MM_THREADS", value)
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_space_json(self, tmp_path, capsys):
        from mmspace import write_space

        rng = np.random.default_rng(1)
        space, _ = random_space(rng, 6)
        path = tmp_path / "s.json"
        write_space(path, space)
        code, out = run_cli(capsys, "validate", "--in", str(path))
        assert code == 0


# bytes that do not decode as UTF-8
NOT_UTF8 = b"0,\xff\r\n"
EXPERIMENT = ["experiment", "--config", "{d}/e.ini", "--out", "{d}/r"]
KMEANS_JSON = ["kmeans", "--k", "1", "--space", "{d}/s.json"]
ONE_POINT = b"a\r\n0.0\r\n"
# a 3-point line whose squared distances overflow, and a 3-point matrix whose
# entries leave no room for the triangle pass's differences
HUGE_LINE = b"a,b,c\r\n0.0,1e+200,2e+200\r\n1e+200,0.0,1e+200\r\n2e+200,1e+200,0.0\r\n"
HUGE_TRIANGLE = b"a,b,c\r\n0.0,1.7e+308,1.7e+308\r\n1.7e+308,0.0,1.7e+308\r\n1.7e+308,1.7e+308,0.0\r\n"
# a 76-byte binary matrix whose header claims n points
def claiming(n):
    return b"MMSP" + struct.pack("<Q", n) + bytes(64)
# a header of 100,000 labels over 100,000 rows of 8 fields: the line count of
# a 100,000-point matrix in a file far too small to hold one
WIDE_HEADER = b",".join([b"a"] * 100_000) + b"\r\n" + b"0,0,0,0,0,0,0,0\r\n" * 100_000
# (id, argv, files written first, text the one error line holds); {d} is the test's directory
FRONT_DOOR = [
    ("sample-centers", ["sample", "--generator", "mixture", "--n", "5", "--centers", "a b", "--out", "{d}/c.csv"], {},
     "bad centers 'a b': could not convert string to float: 'a'"),
    ("sample-scales", ["sample", "--generator", "mixture", "--n", "5", "--centers", "0", "--scales", "x", "--out", "{d}/c.csv"], {},
     "bad scales 'x': could not convert string to float: 'x'"),
    ("data-dim", EXPERIMENT, {"e.ini": b"[data]\ngenerator = gaussian\ndim = two\n"},
     "bad config value: bad dim 'two': invalid literal for int() with base 10: 'two'"),
    ("data-centers", EXPERIMENT, {"e.ini": b"[data]\ngenerator = mixture\ncenters = 0 0, 1 1\n"},
     "bad config value: bad centers '0 0, 1 1': could not convert string to float: '0,'"),
    ("data-scales", EXPERIMENT, {"e.ini": b"[data]\ngenerator = mixture\ncenters = 0\nscales = x\n"},
     "bad config value: bad scales 'x'"),
    ("metric-alpha", EXPERIMENT, {"e.ini": b"[metric]\nmethod = fermat\nalpha = x\n"},
     "bad config value: could not convert string to float: 'x'"),
    ("metric-eps", EXPERIMENT, {"e.ini": b"[metric]\nmethod = isomap\neps = wide\n"},
     "bad config value: could not convert string to float: 'wide'"),
    ("metric-knn", EXPERIMENT, {"e.ini": b"[metric]\nmethod = fermat\nknn = 2.5\n"},
     "bad config value: invalid literal for int() with base 10: '2.5'"),
    ("run-reference", EXPERIMENT, {"e.ini": b"[run]\nreference = a b\n"},
     "bad config value: could not convert string to float: 'a'"),
    ("run-reference-empty", EXPERIMENT, {"e.ini": b"[run]\nreference =\n"},
     "reference_centers must be a nonempty (n, D) array"),
    ("data-generator", EXPERIMENT, {"e.ini": b"[data]\ngenerator = circel\n"}, "unknown generator 'circel'"),
    ("metric-method", EXPERIMENT, {"e.ini": b"[metric]\nmethod = isomapp\n"}, "unknown ground method 'isomapp'"),
    ("diffusion-sigma", ["dist", "--method", "diffusion", "--sigma", "1e-300", "--in", "{d}/c.csv", "--out", "{d}/d.csv"],
     {"c.csv": b"0.0\n0.5\n1.0\n"}, "sigma is out of range: 2 sigma^2 = 0.0 in float64, got sigma = 1e-300"),
    ("matrix-validate", ["validate", "--in", "{d}/m.csv"], {"m.csv": NOT_UTF8}, "{d}/m.csv: not utf-8 text"),
    ("matrix-kmeans", ["kmeans", "--k", "1", "--space", "{d}/m.csv"], {"m.csv": NOT_UTF8}, "{d}/m.csv: not utf-8 text"),
    ("matrix-voronoi", ["voronoi", "--centers", "0", "--space", "{d}/m.csv"], {"m.csv": NOT_UTF8}, "{d}/m.csv: not utf-8 text"),
    ("bin-claims-1e5", ["validate", "--in", "{d}/m.bin"], {"m.bin": claiming(100_000)}, "{d}/m.bin: truncated matrix payload"),
    ("bin-claims-2-31", ["validate", "--in", "{d}/m.bin"], {"m.bin": claiming(2**31)}, "{d}/m.bin: truncated matrix payload"),
    ("bin-claims-kmeans", ["kmeans", "--k", "1", "--space", "{d}/m.bin"], {"m.bin": claiming(100_000)},
     "{d}/m.bin: truncated matrix payload"),
    ("matrix-wide-header", ["validate", "--in", "{d}/m.csv"], {"m.csv": WIDE_HEADER}, "{d}/m.csv: ragged matrix rows"),
    ("cloud-dist", ["dist", "--method", "euclid", "--in", "{d}/c.csv", "--out", "{d}/d.csv"], {"c.csv": NOT_UTF8},
     "{d}/c.csv: not utf-8 text"),
    ("cloud-quantize", ["quantize", "--in", "{d}/c.csv", "--n", "1"], {"c.csv": NOT_UTF8}, "{d}/c.csv: not utf-8 text"),
    ("cloud-wkmeans", ["wkmeans", "--groups", "{d}/c.csv", "--k", "1"], {"c.csv": NOT_UTF8}, "{d}/c.csv: not utf-8 text"),
    ("space-validate", ["validate", "--in", "{d}/s.json"], {"s.json": b'{"labels": ["\xff"]}'}, "{d}/s.json: not utf-8 text"),
    ("space-kmeans", ["kmeans", "--k", "1", "--space", "{d}/s.json"], {"s.json": b'{"labels": ["\xff"]}'},
     "{d}/s.json: not utf-8 text"),
    ("config", EXPERIMENT, {"e.ini": b"[run]\nsizes = 10 # \xff\n"}, "{d}/e.ini: not utf-8 text"),
    ("space-not-object", KMEANS_JSON, {"s.json": b"5"}, "{d}/s.json: expected a JSON object, got int"),
    ("space-labels", KMEANS_JSON, {"s.json": b'{"labels": 5, "weights": [1.0], "dist_ref": "m.csv"}', "m.csv": ONE_POINT},
     "{d}/s.json: labels must be a JSON array"),
    ("space-dist-ref", KMEANS_JSON, {"s.json": b'{"labels": ["a"], "weights": [1.0], "dist_ref": 7}'},
     "{d}/s.json: dist_ref must be a JSON string"),
    ("space-nan-weight", KMEANS_JSON,
     {"s.json": b'{"labels": ["a", "b"], "weights": [NaN, 1.0], "dist_ref": "m.csv"}', "m.csv": b"a,b\r\n0.0,1.0\r\n1.0,0.0\r\n"},
     "weights must be finite and nonnegative"),
    ("sample-ragged-centers", ["sample", "--generator", "mixture", "--n", "5", "--centers", "0 1; 2", "--out", "{d}/c.csv"], {},
     "bad centers '0 1; 2': mixture centers must be a nonempty (n, D) array"),
    ("data-ragged-centers", EXPERIMENT, {"e.ini": b"[data]\ngenerator = mixture\ncenters = 0 1; 2\n"},
     "bad centers '0 1; 2': mixture centers must be a nonempty (n, D) array"),
    ("run-ragged-reference", EXPERIMENT, {"e.ini": b"[run]\nreference = 0 1; 2\n"},
     "reference_centers must be a nonempty (n, D) array"),
    ("kmeans-p-nan", EXPERIMENT, {"e.ini": b"[kmeans]\np = nan\n"}, "p must be a real number >= 1, got nan"),
    ("kmeans-restarts", EXPERIMENT, {"e.ini": b"[kmeans]\nsolver = pam\nrestarts = 0\n"}, "restarts must be >= 1"),
    ("voronoi-delta-nan", ["voronoi", "--centers", "0", "--delta", "nan", "--space", "{d}/m.csv"], {"m.csv": ONE_POINT},
     "delta must be a finite real number >= 0, got nan"),
    ("voronoi-delta-inf", ["voronoi", "--centers", "0", "--delta", "inf", "--space", "{d}/m.csv"], {"m.csv": ONE_POINT},
     "delta must be a finite real number >= 0, got inf"),
    ("validate-room-asymmetric", ["validate", "--in", "{d}/m.csv"], {"m.csv": b"a,b\r\n0.0,1.7e308\r\n-1.7e308,0.0\r\n"},
     "matrix is too large: 4 x its largest entry overflows float64"),
    ("validate-room-symmetric", ["validate", "--in", "{d}/m.csv"], {"m.csv": HUGE_TRIANGLE},
     "matrix is too large: 4 x its largest entry overflows float64"),
    ("kmeans-power-overflows", ["kmeans", "--k", "2", "--space", "{d}/m.csv"], {"m.csv": HUGE_LINE},
     "dist to the power p = 2.0 is too large: 4 x its largest entry overflows float64"),
    ("kmeans-pam-power-overflows", ["kmeans", "--k", "2", "--pam", "--space", "{d}/m.csv"], {"m.csv": HUGE_LINE},
     "dist to the power p = 2.0 is too large: 4 x its largest entry overflows float64"),
    ("wkmeans-power-overflows", ["wkmeans", "--groups", "{d}/a.csv", "{d}/b.csv", "--k", "1"],
     {"a.csv": b"0.0\r\n1e+200\r\n", "b.csv": b"2e+200\r\n3e+200\r\n"},
     "ground metric to the power p = 2.0 is too large: 4 x its largest entry overflows float64"),
    ("dist-fermat-power", ["dist", "--method", "fermat", "--alpha", "2", "--in", "{d}/c.csv", "--out", "{d}/d.csv"],
     {"c.csv": b"0.0\n" + repr(2.0**511).encode() + b"\n"},
     "Fermat edge lengths to the power p = 2.0 is too large: 4 x its largest entry overflows float64"),
    ("validate-tol-nan", ["validate", "--tol", "nan", "--in", "{d}/m.csv"], {"m.csv": ONE_POINT},
     "tol must be a finite real number >= 0, got nan"),
    ("validate-tol-negative", ["validate", "--tol", "-1", "--in", "{d}/m.csv"], {"m.csv": ONE_POINT},
     "tol must be a finite real number >= 0, got -1.0"),
]


class TestFrontDoor:
    @pytest.mark.parametrize("argv, files, message", [c[1:] for c in FRONT_DOOR], ids=[c[0] for c in FRONT_DOOR])
    def test_bad_input_exits_2_with_one_error_line(self, tmp_path, capsys, argv, files, message):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        with warnings.catch_warnings():
            # a warning numpy prints on the way to the error is a failure too
            warnings.simplefilter("error")
            code = main([a.format(d=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert message.format(d=tmp_path) in captured.err
        # a bad config fails before any trial runs
        assert not (tmp_path / "r" / "results.csv").exists()

    @pytest.mark.parametrize(
        "name, binary", [(".bin", False), ("m.bin", True), ("m.csv", False), ("m.bin.csv", False), (".json", False)]
    )
    def test_matrix_is_read_in_the_format_it_was_written(self, tmp_path, capsys, name, binary):
        cloud = tmp_path / "c.csv"
        write_line_cloud(cloud, [0.0, 1.0, 3.0])
        out = tmp_path / name
        assert run_cli(capsys, "dist", "--method", "euclid", "--in", str(cloud), "--out", str(out))[0] == 0
        assert out.read_bytes().startswith(b"MMSP") == binary
        code, report = run_cli(capsys, "validate", "--in", str(out))
        assert code == 0 and json.loads(report)["passes"] is True
        assert run_cli(capsys, "kmeans", "--space", str(out), "--k", "1")[0] == 0


# Prints "<step> <module>..." with the lazily loaded scipy subpackages after
# `import mmspace.cli` and after each tiny in-process job; each loading step
# runs in a forked copy, so it starts from the modules the others left.
# wkmeans on line groups is certified by the monotone coupling and loads no
# transport solver; the 12- and 10-point circle groups fall back to one.
IMPORT_CONTRACT = r"""
import contextlib, io, os, sys, traceback

import mmspace.cli

def report(step):
    print(step, *sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules), flush=True)

def mm(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert mmspace.cli.main(list(argv)) == 0, argv

def forked(step, call):
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            call()
            report(step)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0, step

report("import")
with open("e.ini", "w") as fh:
    fh.write("[data]\ngenerator = interval\n[kmeans]\nk = 1\n[run]\nsizes = 8 10\ntrials = 2\nseed = 0\n")
steps = [
    ("sample", "--generator", "circle", "--n", "12", "--out", "c.csv"),
    ("sample", "--generator", "circle", "--n", "10", "--seed", "1", "--out", "g.csv"),
    ("sample", "--generator", "interval", "--n", "9", "--out", "i.csv"),
    ("sample", "--generator", "interval", "--n", "6", "--seed", "1", "--out", "j.csv"),
    ("dist", "--method", "isomap", "--eps", "1.0", "--in", "c.csv", "--out", "d.csv"),
    ("dist", "--method", "fermat", "--in", "c.csv", "--out", "f.bin"),
    ("dist", "--method", "diffusion", "--sigma", "0.5", "--in", "c.csv", "--out", "s.csv"),
    ("validate", "--in", "d.csv"),
    ("kmeans", "--space", "d.csv", "--k", "2"),
    ("kmeans", "--space", "f.bin", "--k", "2", "--pam"),
    ("voronoi", "--space", "d.csv", "--centers", "0,6"),
    ("quantize", "--in", "c.csv", "--n", "3"),
    ("net", "--points", "20", "--eps", "0.5"),
    ("fpp", "--dim", "2", "--law", "exp:1", "--t", "2,3"),
    ("experiment", "--config", "e.ini", "--out", "r"),
]
for argv in steps:
    mm(*argv)
report("jobs")
forked("quantize-p1", lambda: mm("quantize", "--in", "c.csv", "--n", "3", "--p", "1"))
forked("wkmeans-line", lambda: mm("wkmeans", "--groups", "i.csv", "j.csv", "--k", "1"))
forked("wkmeans", lambda: mm("wkmeans", "--groups", "c.csv", "g.csv", "--k", "1"))
forked("gaussian", lambda: mmspace.gaussian_fermat_distance_1d(0.0, 1.0, 2.0))
"""


class TestImportContract:
    def test_scipy_optimize_and_integrate_load_only_when_called(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, MM_THREADS="2", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_CONTRACT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "import",
            "jobs",
            "quantize-p1 scipy.optimize",
            "wkmeans-line",
            "wkmeans scipy.optimize",
            "gaussian scipy.integrate scipy.optimize",
        ]


class TestDeterminism:
    def test_repeat_run_identical(self, tmp_path, capsys):
        cloud = tmp_path / "c.csv"
        run_cli(capsys, "sample", "--generator", "circle", "--n", "15", "--out", str(cloud))
        first = cloud.read_bytes()
        run_cli(capsys, "sample", "--generator", "circle", "--n", "15", "--out", str(cloud))
        assert cloud.read_bytes() == first

        code, out_a = run_cli(capsys, "net", "--points", "50", "--eps", "0.5")
        code, out_b = run_cli(capsys, "net", "--points", "50", "--eps", "0.5")
        assert out_a == out_b

    def test_unknown_command_systemexit(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestSharedParser:
    def run(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_per_process_prints_what_a_fresh_one_does(self, tmp_path, capsys, monkeypatch):
        cloud, dist = str(tmp_path / "c.csv"), str(tmp_path / "d.csv")
        session = [
            ["sample", "--generator", "circle", "--n", "12", "--seed", "3", "--out", cloud],
            ["dist", "--method", "euclid", "--in", cloud, "--out", dist],
            ["kmeans", "--space", dist, "--k", "2", "--p", "1.5"],
            ["kmeans", "--space", dist, "--k", "2", "--pam", "--restarts", "3"],
            ["kmeans", "--space", dist, "--k", "2", "--bogus"],
            ["validate", "--in", dist],
            ["voronoi", "--space", dist, "--centers", "0,5"],
            ["fpp", "--dim", "2", "--law", "det:0.5", "--t", "2,3"],
            ["fpp", "--dim", "2", "--law", "exp:1", "--t", "9", "--budget", "20"],
            ["net", "--points", "20", "--eps", "0.5"],
            ["fpp", "--help"],
            ["--help"],
            ["frobnicate"],
        ]
        shared = [self.run(capsys, argv) for argv in session]
        assert cli.build_parser() is cli.build_parser()
        fresh = []
        for argv in session:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(self.run(capsys, argv))
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 2]
        assert "unrecognized arguments: --bogus" in shared[4][2]
        assert shared[10][1].startswith("usage: mm fpp")


@st.composite
def dist_runs(draw):
    """(points, flags) for `mm dist --method isomap|fermat` on 2-40 points in
    2-D or 3-D: uniform, collinear or cocircular, with exact duplicates,
    copies 1e-9 away, eps values from far below the diameter (disconnected)
    to above it, alpha in {1, 1.5, 2, 3}, and knn in and out of range."""
    dim = draw(st.sampled_from([2, 3]))
    coord = st.floats(-1.0, 1.0, allow_nan=False, width=32)
    kind = draw(st.sampled_from(["uniform", "collinear", "cocircular"]))
    if kind == "uniform":
        pts = np.array(draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=30)))
    elif kind == "collinear":
        ts = np.array(draw(st.lists(coord, min_size=1, max_size=30)))
        origin, direction = (np.array(draw(st.tuples(*[coord] * dim))) for _ in range(2))
        pts = origin + ts[:, None] * direction
    else:
        angles = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=30)))
        pts = np.zeros((angles.size, dim))
        pts[:, 0], pts[:, 1] = np.cos(angles), np.sin(angles)
        pts *= draw(st.floats(0.1, 2.0))
    index = st.integers(0, len(pts) - 1)
    copies = pts[draw(st.lists(index, max_size=5))]
    near = pts[draw(st.lists(index, max_size=5))] + np.array([1e-9] + [0.0] * (dim - 1))
    pts = np.vstack([pts, copies, near])
    assume(2 <= len(pts) <= 40)
    pts = pts[draw(st.permutations(range(len(pts))))]
    e = euclidean_matrix(pts)
    if draw(st.booleans()):
        diam = float(e.max())
        eps = draw(st.sampled_from([1.01, 0.6, 0.3, 0.1, 1e-6])) * (diam if diam > 0 else 1.0)
        # an eps one rounding away from a distance would test the edge rule,
        # not the paths
        assume(np.all(np.abs(e - eps) > 1e-9 * eps))
        return pts, ["--method", "isomap", "--eps", repr(eps)]
    flags = ["--method", "fermat", "--alpha", repr(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])))]
    knn = draw(st.none() | st.integers(1, 4) | st.integers(0, len(pts) + 1))
    return pts, flags + ([] if knn is None else ["--knn", str(knn)])


def dist_oracle(pts, flags):
    """The matrix of `mm dist` by edge relaxation in plain Python; inf where
    the graph does not connect.  knn edges join each distinct point to its
    knn nearest distinct points, in the builder's stable order, so ties pick
    the same neighbours."""
    opts = dict(zip(flags[::2], flags[1::2]))
    if opts["--method"] == "isomap":
        eps = float(opts["--eps"])
        return relaxation_geodesics(pts, lambda length: length if length <= eps else None)
    alpha = float(opts["--alpha"])
    adjacent = None
    if "--knn" in opts:
        knn = int(opts["--knn"])
        _, first, vertex = np.unique(pts, axis=0, return_index=True, return_inverse=True)
        vertex = np.argsort(np.argsort(first, kind="stable"), kind="stable")[vertex.ravel()]
        uniq = pts[np.sort(first)]
        near = np.argsort(euclidean_matrix(uniq), axis=1, kind="stable")[:, 1 : knn + 1]
        picks = {(a, b) for a in range(len(uniq)) for b in near[a].tolist()}

        def adjacent(i, j):
            a, b = vertex[i], vertex[j]
            return a == b or (a, b) in picks or (b, a) in picks

    return relaxation_geodesics(pts, lambda length: length**alpha, adjacent)


@settings(max_examples=150, deadline=None)
@given(run=dist_runs())
def test_mm_dist_graph_methods_fuzz(run):
    pts, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        cloud, out = Path(tmp) / "c.csv", Path(tmp) / "d.bin"
        write_cloud_csv(cloud, PointCloud(pts))
        with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(["dist", *flags, "--in", str(cloud), "--out", str(out)])
        err = stderr.getvalue()
        event(f"{' '.join(flags[:2])}{' --knn' if '--knn' in flags else ''} exit {code}")
        assert code in (0, 2, 3, 4), (code, err)
        assert all(line.startswith("error: ") for line in err.splitlines())
        m = len(np.unique(pts, axis=0))
        opts = dict(zip(flags[::2], flags[1::2]))
        if "--knn" in opts and m > 1 and not 1 <= int(opts["--knn"]) < m:
            assert code == 2 and "knn must be in" in err
            return
        want = dist_oracle(pts, flags)
        if not np.all(np.isfinite(want)):
            assert code == 4 and "components" in err
            return
        assert code == 0 and err == "" and stdout.getvalue().startswith("wrote ")
        d = read_matrix_bin(out)
    np.testing.assert_allclose(d, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(d, d.T)
