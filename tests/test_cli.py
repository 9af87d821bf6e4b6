import filecmp
from pathlib import Path

import numpy as np
import pytest

from rcpca import load_block, build_blockset, sample_cov
from rcpca.cli import RunConfig, _build_run_config, build_parser, main

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"
DEMO_BLOCKS = f"{DEMO / 'process.csv'},{DEMO / 'quality.csv'}"


def run_demo(out, *extra):
    return main([
        "run",
        "--blocks", DEMO_BLOCKS,
        "--ids", "process,quality",
        "--id-column",
        "--preset", "consensus_pca",
        "--scale", "unit",
        "--out", str(out),
        *extra,
    ])


class TestRun:
    def test_demo_dataset_succeeds(self, tmp_path):
        out = tmp_path / "out"
        assert run_demo(out) == 0
        expected = [
            "manifest.txt",
            "rank1_blocks.csv",
            "rank1_components.csv",
            "rank1_trace.csv",
            "rank1_variable_correlations.csv",
            "rank1_weights_process.csv",
            "rank1_weights_quality.csv",
            "rank1_weights_superblock.csv",
        ]
        for name in expected:
            assert (out / name).exists(), name
        manifest = (out / "manifest.txt").read_text()
        assert "converged = true" in manifest
        assert "achieved_rank = 1" in manifest

    def test_missing_block_file_exits_2(self, tmp_path, capsys):
        code = main([
            "run", "--blocks", "nope_missing.csv", "--m", "2",
            "--tau", "1", "--tau-super", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "nope_missing.csv" in capsys.readouterr().err

    def test_preset_and_m_are_mutually_exclusive(self, tmp_path, capsys):
        code = main([
            "run", "--blocks", DEMO_BLOCKS, "--id-column",
            "--preset", "consensus_pca", "--m", "3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "fixes m = 2" in capsys.readouterr().err

    def test_preset_and_tau_are_mutually_exclusive(self, tmp_path):
        code = main([
            "run", "--blocks", DEMO_BLOCKS, "--id-column",
            "--preset", "consensus_pca", "--tau", "1,1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_free_m_preset_requires_m(self, tmp_path):
        code = main([
            "run", "--blocks", DEMO_BLOCKS, "--id-column",
            "--preset", "redundancy_blocks", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert run_demo_redundancy(tmp_path / "ok") == 0

    def test_duplicate_ids_rejected(self, tmp_path):
        code = main([
            "run", "--blocks", DEMO_BLOCKS, "--ids", "same,same",
            "--id-column", "--preset", "consensus_pca",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_explicit_run_requires_full_spec(self, tmp_path):
        code = main([
            "run", "--blocks", DEMO_BLOCKS, "--id-column", "--m", "2",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_demo(out1, "--init", "random", "--seed", "7") == 0
        assert run_demo(out2, "--init", "random", "--seed", "7") == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert filecmp.cmp(f1, f2, shallow=False), f1.name

    def test_manifest_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert run_demo(out) == 0
        manifest = dict(
            line.split(" = ", 1)
            for line in (out / "manifest.txt").read_text().splitlines()
        )
        m = float(manifest["m"])
        blocks = [
            load_block(p, id=i, scale=True, id_column=True)
            for p, i in zip(DEMO_BLOCKS.split(","), ["process", "quality"])
        ]
        bs = build_blockset(blocks)
        weights = {}
        for bid in ["process", "quality"]:
            rows = (out / f"rank1_weights_{bid}.csv").read_text().splitlines()[1:]
            weights[bid] = np.array([float(r.split(",")[1]) for r in rows])
        comp_rows = (out / "rank1_components.csv").read_text().splitlines()[1:]
        y_super = np.array([float(r.split(",")[-1]) for r in comp_rows])
        psi = sum(
            sample_cov(block.matrix @ weights[block.id], y_super) ** m
            for block in bs.blocks
        )
        assert psi == pytest.approx(float(manifest["rank1_psi_final"]), rel=1e-9)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"blocks = {DEMO_BLOCKS}\n"
            "ids = process,quality\n"
            "id_column = true\n"
            "preset = consensus_pca\n"
            "scale = unit\n"
            "components = 1\n"
            f"out = {tmp_path / 'from_file'}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_file" / "manifest.txt").exists()
        override = tmp_path / "override"
        assert main(["run", "--config", str(cfg), "--out", str(override)]) == 0
        assert (override / "manifest.txt").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["run", "--config", str(cfg)]) == 1

    def test_config_file_sets_every_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "blocks = a.csv, b.csv\n"
            "ids = x,y  # trailing comment\n"
            "preset = sumcor\n"
            "split = 2\n"
            "m = 3\n"
            "tau = 0.5, 1\n"
            "tau_super = 0.25\n"
            "scale = unit\n"
            "delimiter = tab\n"
            "id_column = yes\n"
            "epsilon = 1e-8\n"
            "max_iter = 50\n"
            "init = file\n"
            "init_file = v0.txt\n"
            "seed = 4\n"
            "starts = 3\n"
            "deflate = own\n"
            "components = 2\n"
            "out = results\n"
            "strict = on\n"
            "assert = full\n"
        )
        args = build_parser().parse_args(["run", "--config", str(cfg)])
        assert _build_run_config(args) == RunConfig(
            blocks=["a.csv", "b.csv"], ids=["x", "y"], preset="sumcor", split=2,
            m=3.0, tau=[0.5, 1.0], tau_super=0.25, scale="unit", delimiter="tab",
            id_column=True, epsilon=1e-8, max_iter=50, init="file",
            init_file="v0.txt", seed=4, starts=3, deflate="own", components=2,
            out="results", strict=True, assert_level="full",
        )
        args = build_parser().parse_args(
            ["run", "--config", str(cfg), "--seed", "9", "--tau", "0.1"]
        )
        overridden = _build_run_config(args)
        assert (overridden.seed, overridden.tau, overridden.strict) == (9, [0.1], True)

    @pytest.mark.parametrize("line", ["tau = a,b", "seed = x"])
    def test_unparsable_config_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["run", "--config", str(cfg)]) == 1
        key = line.split(" ")[0]
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {key!r}"), err

    def test_deflation_writes_higher_ranks(self, tmp_path):
        out = tmp_path / "out"
        code = run_demo(out, "--deflate", "own", "--components", "2")
        assert code == 0
        assert (out / "rank2_components.csv").exists()
        assert "rank2_psi_final" in (out / "manifest.txt").read_text()

    def test_strict_flags_non_convergence(self, tmp_path):
        code = run_demo(tmp_path / "o", "--max-iter", "1", "--epsilon", "1e-30",
                        "--init", "random", "--strict")
        assert code == 3

    def test_init_file(self, tmp_path):
        vec = tmp_path / "v0.txt"
        vec.write_text("\n".join(["0.3"] * 9) + "\n")
        assert run_demo(tmp_path / "o", "--init", "file", "--init-file", str(vec)) == 0

    def test_internal_assertion_exits_4(self, tmp_path, monkeypatch):
        import rcpca.cli as cli
        from rcpca.errors import InternalAssertionError

        def boom(*args, **kwargs):
            raise InternalAssertionError("criterion decreased")

        monkeypatch.setattr(cli, "extract", boom)
        assert run_demo(tmp_path / "o") == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_init_file_must_be_finite(self, tmp_path, capsys, bad):
        vec = tmp_path / "v0.txt"
        vec.write_text("\n".join([bad] + ["0.3"] * 8) + "\n")
        assert run_demo(tmp_path / "o", "--init", "file", "--init-file", str(vec)) == 2
        err = capsys.readouterr().err
        assert f"start-vector file {vec} must hold finite numbers" in err, err

    def test_split_with_fixed_preset_exits_1(self, tmp_path, capsys):
        assert run_demo(tmp_path / "o", "--split", "1") == 1
        assert "takes no split" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_split_with_explicit_run_exits_1(self, tmp_path, capsys):
        code = main([
            "run", "--blocks", DEMO_BLOCKS, "--id-column",
            "--m", "2", "--tau", "1", "--tau-super", "1", "--split", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "--split" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mixed_preset_needs_split(self, tmp_path):
        common = ["run", "--blocks", DEMO_BLOCKS, "--id-column", "--scale", "unit",
                  "--preset", "mixed_carroll"]
        assert main([*common, "--out", str(tmp_path / "o")]) == 1
        assert main([*common, "--split", "1", "--out", str(tmp_path / "ok")]) == 0
        assert "tau_blocks = 0,1" in (tmp_path / "ok" / "manifest.txt").read_text()

    def test_bad_tau_flag_message(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["run", "--tau", "a"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tau: expected comma-separated numbers, got 'a'" in err, err

    @pytest.mark.parametrize(
        "flag, value", [("--scale", "log"), ("--delimiter", "semicolon"),
                        ("--init", "zeros"), ("--deflate", "none"), ("--assert", "all")],
    )
    def test_flag_choices_are_enforced(self, capsys, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, value])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [("scale = log", "--scale must be none or unit, got 'log'"),
         ("delimiter = semicolon", "--delimiter must be comma or tab, got 'semicolon'"),
         ("init = zeros", "--init must be eigen, random or file, got 'zeros'")],
    )
    def test_config_choices_are_enforced(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"blocks = {DEMO_BLOCKS}\npreset = consensus_pca\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize(
        "extra, message",
        [(("--starts", "0"), "--starts must be at least 1"),
         (("--max-iter", "0"), "--max-iter must be at least 1"),
         (("--epsilon", "0"), "--epsilon must be positive, got 0.0"),
         (("--epsilon", "-1"), "--epsilon must be positive, got -1.0"),
         (("--init", "random", "--seed", "-1"), "--seed must be non-negative, got -1")],
    )
    def test_solver_values_are_checked(self, tmp_path, capsys, extra, message):
        assert run_demo(tmp_path / "o", *extra) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "extra, shown",
        [(("--m", "0.5", "--tau", "1", "--tau-super", "1"), "0.5"),
         (("--m", "nan", "--tau", "1", "--tau-super", "1"), "nan"),
         (("--m", "inf", "--tau", "1", "--tau-super", "1"), "inf"),
         (("--m", "nan", "--preset", "redundancy_blocks"), "nan")],
    )
    def test_m_is_checked(self, tmp_path, capsys, extra, shown):
        code = main(["run", "--blocks", DEMO_BLOCKS, "--id-column", *extra,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: --m must be a finite number >= 1, got {shown}\n"
        assert not (tmp_path / "o").exists()

    def test_block_file_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1,2\ncaf\xe9,3\n4,5\n")
        code = main(["run", "--blocks", f"{DEMO / 'process.csv'},{bad}", "--id-column",
                     "--preset", "consensus_pca", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: block 'bad': the file is not UTF-8 text"), err

    def test_config_file_not_utf8_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"preset = caf\xe9\n")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"configuration error: config file {cfg} is not UTF-8 text; save it as UTF-8\n"
        )

    def test_explicit_tau_run(self, tmp_path):
        code = main([
            "run", "--blocks", DEMO_BLOCKS, "--ids", "process,quality",
            "--id-column", "--scale", "unit",
            "--m", "2", "--tau", "0.5", "--tau-super", "0.5",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0


def run_demo_redundancy(out):
    return main([
        "run", "--blocks", DEMO_BLOCKS, "--ids", "process,quality",
        "--id-column", "--preset", "redundancy_blocks", "--m", "3",
        "--scale", "unit", "--out", str(out),
    ])


class TestExplain:
    def test_mode_pair(self, capsys):
        assert main(["explain", "A", "B"]) == 0
        out = capsys.readouterr().out
        assert "Redundancy analysis" in out

    def test_preset_with_citation(self, capsys):
        assert main(["explain", "sumcor"]) == 0
        out = capsys.readouterr().out
        assert "Horst" in out
        assert "Mode B" in out

    def test_unknown_name_exits_1(self, capsys):
        assert main(["explain", "nosuch"]) == 1
        assert "nosuch" in capsys.readouterr().err

    def test_catalog_listing(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "consensus_pca" in out
        assert "mode selection guide" in out
        assert "no optimization problem" in out
