import hashlib
import json
import math

import numpy as np
import pytest

from mmspace import (
    PointCloud,
    build_ground_metric,
    fermat_distance_matrix,
    read_cloud_csv,
    read_matrix_bin,
    write_cloud_csv,
    write_matrix_bin,
    write_matrix_csv,
)
from mmspace import geodesic
from mmspace.cli import main

from helpers import random_space


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
        monkeypatch.setattr(geodesic, "MAX_GRAPH_POINTS", 3)
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
        assert capsys.readouterr().err == f"error: --shell must be finite and >= 0, got {float(shell)!r}\n"

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
        path = tmp_path / "e.bin"
        write_matrix_bin(path, np.zeros((0, 0)))
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
