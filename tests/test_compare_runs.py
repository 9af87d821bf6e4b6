import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"


def compare(a, b, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b), *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def write_run(root, name, files):
    out = root / name
    out.mkdir()
    for fname, text in files.items():
        (out / fname).write_text(text)
    return out


BASE = {
    "rank1_blocks.csv": "block,cov,cor\nx,1.5,0.25\ny,2,0.5\n",
    "manifest.txt": "m = 2\nconverged = true\n",
}


def test_identical_runs_pass_at_zero_tolerance(tmp_path):
    a, b = write_run(tmp_path, "a", BASE), write_run(tmp_path, "b", BASE)
    code, out = compare(a, b)
    assert code == 0
    assert "0 of 2 common files differ" in out


def test_numeric_difference_is_measured_against_rtol(tmp_path):
    a = write_run(tmp_path, "a", BASE)
    b = write_run(tmp_path, "b", {**BASE, "rank1_blocks.csv": "block,cov,cor\nx,1.5,0.25\ny,2.000000002,0.5\n"})
    code, out = compare(a, b, "--rtol", "1e-8")
    assert code == 0
    assert "rank1_blocks.csv: largest relative difference 1e-09" in out
    assert "  cov: 1e-09 (line 3: 2 vs 2.000000002)" in out
    code, _ = compare(a, b, "--rtol", "1e-10")
    assert code == 1


def test_non_numeric_and_missing_files_fail(tmp_path):
    a = write_run(tmp_path, "a", BASE)
    b = write_run(tmp_path, "b", {"manifest.txt": "m = 2\nconverged = false\n"})
    code, out = compare(a, b, "--rtol", "1")
    assert code == 1
    assert "rank1_blocks.csv: only in" in out
    assert "line 2 cell 2: 'true' vs 'false'" in out


def test_manifest_values_are_named_by_their_key(tmp_path):
    a = write_run(tmp_path, "a", {"manifest.txt": "m = 2\nrank1_psi_final = 4\n"})
    b = write_run(tmp_path, "b", {"manifest.txt": "m = 2\nrank1_psi_final = 3\n"})
    code, out = compare(a, b, "--rtol", "0.5")
    assert code == 0
    assert "  rank1_psi_final: 0.25 (line 2: 4 vs 3)" in out


def test_one_number_written_two_ways_is_a_difference(tmp_path):
    a = write_run(tmp_path, "a", {"x.csv": "v\n0\n"})
    b = write_run(tmp_path, "b", {"x.csv": "v\n-0\n"})
    code, out = compare(a, b, "--rtol", "1")
    assert code == 1
    assert "line 2 cell 1: '0' vs '-0'" in out
