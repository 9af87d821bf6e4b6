import dataclasses
import filecmp
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import sample_cov
from rcpca import SolverConfig, build_blockset, extract, load_block, preset
from rcpca.cli import _OPTIONS, RunConfig, _build_run_config, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "data" / "demo"
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

    def test_config_keys_are_the_run_config_fields(self):
        # each key doubles as its RunConfig field and argparse destination
        assert [f.name for f in dataclasses.fields(RunConfig)] == list(_OPTIONS)

    def test_readme_lists_every_config_key(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"`--config` reads a flat .*?\(keys: (.*?);", text, re.S)
        assert listed, "README no longer describes the --config keys"
        assert re.findall(r"`(\w+)`", listed.group(1)) == list(_OPTIONS)

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
        )
        args = build_parser().parse_args(["run", "--config", str(cfg)])
        assert _build_run_config(args) == RunConfig(
            blocks=["a.csv", "b.csv"], ids=["x", "y"], preset="sumcor", split=2,
            m=3.0, tau=[0.5, 1.0], tau_super=0.25, scale="unit", delimiter="tab",
            id_column=True, epsilon=1e-8, max_iter=50, init="file",
            init_file="v0.txt", seed=4, starts=3, deflate="own", components=2,
            out="results", strict=True,
        )
        args = build_parser().parse_args(
            ["run", "--config", str(cfg), "--seed", "9", "--tau", "0.1"]
        )
        overridden = _build_run_config(args)
        assert (overridden.seed, overridden.tau, overridden.strict) == (9, [0.1], True)

    @pytest.mark.parametrize("text, message", [
        ("blocks\n", "{cfg}:1: expected 'key = value'"),
        ("# comment\n\nstrict = maybe\n", "config key 'strict': expected a boolean, got 'maybe'"),
    ], ids=["no_equals_sign", "unreadable_boolean"])
    def test_config_line_faults(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message.format(cfg=cfg)}\n"

    def test_config_booleans_read_off(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("id_column = OFF\nstrict = off\n")
        config = _build_run_config(build_parser().parse_args(["run", "--config", str(cfg)]))
        assert (config.id_column, config.strict) == (False, False)
        config = _build_run_config(
            build_parser().parse_args(["run", "--config", str(cfg), "--strict"])
        )
        assert (config.id_column, config.strict) == (False, True)

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

    @pytest.mark.parametrize("extra, reason", [
        (("--max-iter", "1", "--epsilon", "1e-30", "--init", "random"),
         r"rank 1 reached max_iter \(1 iterations\)"),
    ], ids=["max_iter"])
    def test_non_convergence_names_the_stop_reason(self, tmp_path, capsys, extra, reason):
        assert run_demo(tmp_path / "o", *extra) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(f"warning: did not converge: {reason}\n", err), err

    def test_init_file(self, tmp_path):
        vec = tmp_path / "v0.txt"
        vec.write_text("\n".join(["0.3"] * 9) + "\n")
        assert run_demo(tmp_path / "o", "--init", "file", "--init-file", str(vec)) == 0
        # the manifest names the file, so that the run can be repeated from it
        lines = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
        at = lines.index("init = file")
        assert lines[at + 1:at + 3] == [f"init_file = {vec}", "seed = 0"]

    def test_own_superblock_weights_restart_the_run(self, tmp_path):
        # a file start holds superblock weights, so a run's own restart it at its
        # solution, here on a Mode B superblock
        common = ["run", "--blocks", DEMO_BLOCKS, "--id-column", "--scale", "unit",
                  "--preset", "hierarchical_pca"]
        assert main([*common, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "rank1_weights_superblock.csv").read_text().splitlines()
        vec = tmp_path / "w.txt"
        vec.write_text("\n".join(row.rsplit(",", 1)[1] for row in rows[1:]) + "\n")
        assert main([*common, "--init", "file", "--init-file", str(vec),
                     "--out", str(tmp_path / "warm")]) == 0
        manifest = (tmp_path / "warm" / "manifest.txt").read_text().splitlines()
        assert "rank1_iterations = 1" in manifest

    @pytest.mark.parametrize("extra", [(), ("--init", "random")], ids=["eigen", "random"])
    def test_manifest_names_no_start_file_without_one(self, tmp_path, extra):
        assert run_demo(tmp_path / "o", *extra) == 0
        keys = [line.split(" = ")[0]
                for line in (tmp_path / "o" / "manifest.txt").read_text().splitlines()]
        assert keys[keys.index("init"):keys.index("init") + 2] == ["init", "seed"]
        assert "init_file" not in keys

    @pytest.mark.parametrize("text, message", [
        (b"1\nx\n", "data error: start-vector file {vec} must hold numbers"),
        (b"0\n" * 9, "error: every start failed; last failure: start vector is zero"),
        (b"1\n2\n3\n", "data error: start vector has length 3, expected 9"),
        (b"0.3\n" * 8 + b"0.3\xe9\n",
         "data error: start-vector file {vec} is not UTF-8 text; save it as UTF-8"),
    ], ids=["not_numeric", "all_zero", "wrong_length", "not_utf8"])
    def test_start_file_faults_exit_2(self, tmp_path, capsys, text, message):
        vec = tmp_path / "v0.txt"
        vec.write_bytes(text)
        assert run_demo(tmp_path / "o", "--init", "file", "--init-file", str(vec)) == 2
        assert capsys.readouterr().err == message.format(vec=vec) + "\n"
        assert not (tmp_path / "o").exists()

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
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "argument --tau: expected comma-separated numbers, got 'a'" in err, err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--deflate", "none"], "argument --deflate: invalid choice: 'none'"),
        (["run", "--m", "abc"], "argument --m: invalid float value: 'abc'"),
        (["run", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["bad_choice", "bad_number", "unknown_flag"])
    def test_parser_errors_exit_1(self, capsys, argv, message):
        # 2 is the data-error code
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--scale", "log"), ("--delimiter", "semicolon"),
                        ("--init", "zeros"), ("--deflate", "none")],
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
         (("--init", "random", "--seed", "-1"), "--seed must be non-negative, got -1"),
         (("--init", "file"), "--init file needs --init-file PATH"),
         (("--components", "0"), "--components must be at least 1"),
         (("--init-file", "v0.txt"),
          "--init-file is read only with --init file, got --init eigen; add --init file"),
         (("--init", "random", "--init-file", "v0.txt"),
          "--init-file is read only with --init file, got --init random; add --init file")],
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

    @pytest.mark.parametrize("argv, message", [
        (["--preset", "consensus_pca"], "no block files given (--blocks f1.csv,f2.csv)"),
        (["--blocks", DEMO_BLOCKS, "--ids", "process", "--preset", "consensus_pca"],
         "1 ids for 2 block files"),
        (["--blocks", DEMO_BLOCKS, "--tau", "1", "--tau-super", "1"],
         "pass either --preset or an explicit --m with --tau/--tau-super"),
        (["--blocks", DEMO_BLOCKS, "--m", "2", "--tau", "1,1,1", "--tau-super", "1"],
         "3 tau values for 2 blocks"),
        (["--blocks", DEMO_BLOCKS, "--m", "2", "--tau", "1.5", "--tau-super", "1"],
         "tau must lie in [0, 1], got 1.5"),
        (["--blocks", DEMO_BLOCKS, "--m", "2", "--tau", "1", "--tau-super", "-0.5"],
         "tau must lie in [0, 1], got -0.5"),
        (["--blocks", DEMO_BLOCKS, "--ids", "a/b,c", "--preset", "consensus_pca"],
         "block ids must be names without a path separator, got ['a/b', 'c']"),
        (["--blocks", DEMO_BLOCKS, "--ids", "a,c/", "--preset", "consensus_pca"],
         "block ids must be names without a path separator, got ['a', 'c/']"),
    ], ids=["no_blocks", "ids_count", "no_preset_no_m", "tau_count", "tau_above_1",
            "tau_super_below_0", "id_with_a_separator", "id_ending_in_a_separator"])
    def test_run_specification_faults_exit_1(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(["run", *argv, "--id-column", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/o"])
    def test_out_under_an_existing_file_exits_1(self, tmp_path, capsys, monkeypatch, out):
        import rcpca.cli as cli

        monkeypatch.setattr(cli, "load_block", None)  # no block is read
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run_demo(tmp_path / out) == 1
        assert capsys.readouterr().err == (
            f"configuration error: --out {tmp_path / out} is a file or lies under one; "
            "name a directory\n"
        )
        assert taken.read_text() == "not a directory\n"

    def test_extract_warnings_go_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--blocks", DEMO_BLOCKS, "--id-column", "--scale", "unit",
                     "--preset", "hierarchical_pca", "--deflate", "own", "--components", "9",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: requested 9 components but the smallest block rank is 4; returning 4\n"
            "warning: own-component deflation with a Mode B superblock: orthogonality "
            "guarantees are weakened; check the correlations of the ranks' components\n"
        )
        assert captured.out == f"wrote 4 rank(s) to {out}\n"

    def test_block_file_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1,2\ncaf\xe9,3\n4,5\n")
        code = main(["run", "--blocks", f"{DEMO / 'process.csv'},{bad}", "--id-column",
                     "--preset", "consensus_pca", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: block 'bad': the file is not UTF-8 text"), err

    def test_block_cell_over_the_csv_field_limit_exits_2(self, tmp_path, capsys):
        long = tmp_path / "long.csv"
        long.write_text("x,y\n1,2\n3," + "0" * 200_000 + "4\n5,6\n", encoding="utf-8")
        code = main(["run", "--blocks", str(long), "--preset", "consensus_pca",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: block 'long': row 3: field larger than field limit"), err

    def test_config_file_not_utf8_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"preset = caf\xe9\n")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"configuration error: config file {cfg} is not UTF-8 text; save it as UTF-8\n"
        )

    def test_block_file_that_is_a_directory_exits_2(self, tmp_path, capsys):
        folder = tmp_path / "block.csv"
        folder.mkdir()
        code = main(["run", "--blocks", f"{DEMO / 'process.csv'},{folder}", "--id-column",
                     "--preset", "consensus_pca", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: block file not found or not a file: {folder}\n"

    def test_init_file_that_is_a_directory_exits_2(self, tmp_path, capsys):
        folder = tmp_path / "v0"
        folder.mkdir()
        assert run_demo(tmp_path / "o", "--init", "file", "--init-file", str(folder)) == 2
        err = capsys.readouterr().err
        assert err == f"data error: start-vector file not found or not a file: {folder}\n"
        assert not (tmp_path / "o").exists()

    def test_config_that_is_a_directory_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: config file not found or not a file: {tmp_path}\n"

    def test_explicit_tau_run(self, tmp_path):
        code = main([
            "run", "--blocks", DEMO_BLOCKS, "--ids", "process,quality",
            "--id-column", "--scale", "unit",
            "--m", "2", "--tau", "0.5", "--tau-super", "0.5",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0


class TestWideRun:
    """Blocks with more columns than rows run end to end."""

    @pytest.fixture(scope="class")
    def wide_blocks(self, tmp_path_factory):
        rng = np.random.default_rng(21)
        factor = rng.standard_normal(30)
        paths = []
        for k in range(3):
            data = np.outer(factor, rng.standard_normal(200)) + rng.standard_normal((30, 200))
            path = tmp_path_factory.mktemp("wide") / f"block{k + 1}.csv"
            header = ",".join(f"b{k + 1}_v{j}" for j in range(200))
            np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.10g")
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize(
        "name", ["consensus_pca", "hierarchical_pca", "gcca_carroll", "sumcor"]
    )
    def test_wide_blocks_exit_0(self, wide_blocks, tmp_path, name):
        out = tmp_path / "out"
        code = main(["run", "--blocks", ",".join(wide_blocks), "--scale", "unit",
                     "--preset", name, "--out", str(out)])
        assert code == 0
        comp_rows = (out / "rank1_components.csv").read_text().splitlines()[1:]
        y_cli = np.array([float(r.split(",")[-1]) for r in comp_rows])
        bs = build_blockset([load_block(p, scale=True) for p in wide_blocks])
        entry = preset(name)
        lib = extract(bs, entry.selector(3), SolverConfig(m=entry.m), 1)
        y_lib = lib.solutions[0].y_super
        cos = abs(y_cli @ y_lib) / (np.linalg.norm(y_cli) * np.linalg.norm(y_lib))
        assert cos >= 1 - 1e-8


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

    def test_mixed_preset(self, capsys):
        assert main(["explain", "mixed_carroll"]) == 0
        assert capsys.readouterr().out == (
            "mixed_carroll\n"
            "  m:               2.0\n"
            "  block tau:       0 for the first --split blocks, 1 for the rest\n"
            "  superblock tau:  0 (Mode B)\n"
            "  citation:        Carroll (1968b)\n"
            "  notes:           correlation criterion for the first `split` blocks, "
            "covariance for the rest\n"
        )

    def test_mode_names(self, capsys):
        assert main(["explain", "m1_ab"]) == 0
        out = capsys.readouterr().out
        assert "  block tau:       1 (Mode A)\n  superblock tau:  0 (Mode B)\n" in out

    def test_three_names_exit_1(self, capsys):
        assert main(["explain", "A", "B", "A"]) == 1
        assert capsys.readouterr().err == (
            "configuration error: explain takes a preset name or a mode pair like: explain A B\n"
        )

    def test_unknown_name_exits_1(self, capsys):
        assert main(["explain", "nosuch"]) == 1
        assert "nosuch" in capsys.readouterr().err

    def test_catalog_listing(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "consensus_pca" in out
        assert "mode selection guide" in out
        assert "no optimization problem" in out
