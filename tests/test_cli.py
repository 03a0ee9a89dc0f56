"""The command-line interface: output formats, config/manifest round trips,
parameter precedence, and exit codes."""

import json
import math

import pytest

from c4containers import UniformHypergraph, count_Fnm_c4, n_nm, phi_log
from c4containers.cli import main

pytestmark = pytest.mark.filterwarnings("ignore:parameter floor binds")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_single_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--m", "4")
    assert code == 0
    assert out.splitlines()[-1] == "4,4,12"


def test_enumerate_full_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#") and ln[0].isdigit()]
    assert len(rows) == 7  # m = 0..6
    assert rows[0] == "4,0,1"
    assert rows[-1] == "4,6,1"
    total = sum(int(r.split(",")[2]) for r in rows)
    assert total == sum(count_Fnm_c4(4, m) for m in range(7))


def test_enumerate_n8(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "8", "--m", "26")
    assert code == 0
    assert out.splitlines()[-1] == "8,26,168"
    code, out, _ = run(capsys, "enumerate", "--n", "8")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(rows) == 29
    assert sum(int(r.split(",")[2]) for r in rows) == 40_091_516


def test_count_split_single_ell(capsys):
    code, out, _ = run(capsys, "count-split", "--n", "20", "--m", "20", "--ell", "4")
    assert code == 0
    assert out.strip() == str(n_nm(20, 20, 4))


def test_count_split_prints_every_digit_of_a_huge_count(capsys):
    # 48791 digits, far past the 4300-digit int/str conversion limit
    code, out, _ = run(capsys, "count-split", "--n", "2000", "--m", "50000", "--ell", "148")
    assert code == 0
    digits = out.strip()
    assert len(digits) > 4300 and digits.isdigit()
    want = math.comb(148 * (2000 - 148), 50000 - math.comb(148, 2))
    got = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        got = got * 10 ** len(chunk) + int(chunk)
    assert got == want


def test_count_split_grid_row(capsys):
    code, out, _ = run(capsys, "count-split", "--n", "10000", "--m", "200000")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,m,ell_nm,ell_star,logN_star,logN_lower_tail,logN_upper_tail"
    fields = lines[2].split(",")
    assert fields[0] == "10000" and fields[1] == "200000"
    assert float(fields[4]) >= float(fields[5])


def test_phi_exact_value(capsys):
    code, out, _ = run(capsys, "phi", "--n", "6", "--m", "5", "--p", "0.3", "--exact")
    assert code == 0
    row = out.splitlines()[-1].split(",")
    assert row[:4] == ["6", "5", "0.3", "exact"]
    assert float(row[4]) == pytest.approx(phi_log(6, 5, 0.3, "exact").value, rel=1e-6)
    assert any("fitted" in ln for ln in out.splitlines() if ln.startswith("#"))


def test_phi_requires_mode(capsys):
    code, _, err = run(capsys, "phi", "--n", "6", "--m", "5", "--p", "0.3")
    assert code == 3
    assert "mode" in err


def test_sampler_rows_reproducible(capsys):
    args = ("sampler", "--n", "30", "--m", "35", "--seed", "7", "--runs", "3",
            "--max-attempts", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    rows = [ln for ln in first.splitlines() if not ln.startswith("#")]
    assert rows[0] == "run,seed,accepted,attempts,m_prime,surplus_removed,graph6"
    body = rows[1:]
    assert len(body) == 3
    seeds = [ln.split(",")[1] for ln in body]
    assert len(set(seeds)) == 3  # per-run seeds are derived, not repeated


def test_tree_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "tree.txt"
    code, stdout, _ = run(
        capsys, "tree", "--n", "7", "--m", "18", "--out", str(out)
    )
    assert code == 0
    assert "covered=" in stdout
    text = out.read_text()
    assert text.splitlines()[0].startswith("# node_id")
    assert "# covered=" in text

    manifest = (tmp_path / "tree.txt.manifest").read_text()
    assert "command = tree" in manifest
    assert "n = 7" in manifest and "m = 18" in manifest

    summary = json.loads((tmp_path / "tree.txt.summary.json").read_text())
    assert summary["covered"] == summary["total_members"]


def test_manifest_rerun_is_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    run(capsys, "count-split", "--n", "50000", "--m", "1000000", "--out", str(out1))
    out2 = tmp_path / "b.csv"
    code, _, _ = run(
        capsys,
        "--config",
        str(tmp_path / "a.csv.manifest"),
        "--out",
        str(out2),
    )
    assert code == 0
    assert out2.read_text() == out1.read_text()


def test_cli_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = enumerate\nn = 4\nm = 3\n")
    code, out, _ = run(capsys, "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[-1].startswith("4,3,")
    code, out, _ = run(capsys, "--config", str(cfg), "--m", "4")
    assert code == 0
    assert out.splitlines()[-1] == "4,4,12"


def test_manifest_with_a_removed_key_still_replays(tmp_path, capsys):
    # manifests written before --threads was removed carry "threads = 1"
    cfg = tmp_path / "old.manifest"
    cfg.write_text("command = enumerate\nn = 4\nm = 4\nseed = 0\nthreads = 1\nversion = 0.1.0\n")
    code, out, _ = run(capsys, "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[-1] == "4,4,12"


def test_containers_rows_are_valid(tmp_path, capsys):
    h = UniformHypergraph(0, 2, 4, [((), (0, 1)), ((), (2, 3))])
    path = tmp_path / "h.txt"
    path.write_text(h.to_text())
    code, out, _ = run(
        capsys, "containers", "--input", str(path),
        "--K", "8", "--b", "2", "--m", "4", "--r", "2",
    )
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
    # members of F_{<=4}(H): all 0/1 vectors avoiding 11 on (0,1) and (2,3)
    assert len(rows) == 9
    for row in rows:
        assignment, s0, s1, cylinder = row.split(",")
        assert len(assignment) == 4 and len(cylinder) == 4
        for token, bit in zip(cylinder, assignment):
            if token in "01":
                assert token == bit  # the assignment lies in its container
        ones = {i for i, b in enumerate(assignment) if b == "1"}
        if s1:
            assert {int(v) for v in s1.split("+")} <= ones


def test_stability_probe_reports_selection(capsys):
    code, out, _ = run(
        capsys, "stability-probe", "--n", "7", "--m", "10"
    )
    assert code == 0
    report = json.loads(out)
    assert report["leaf"]["is_leaf"] is False
    sel = report["selection"]
    assert sel["status"] == "selected"
    assert sel["case"] == 3
    assert sel["ell"] == 4
    assert sel["hypothesis_ok"] is False
    assert sel["min_K"] > report["params"]["K"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert main([]) == 2
    capsys.readouterr()


def test_scale_error_exit_4(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "9")
    assert code == 4
    assert "scale" in err


def test_precondition_error_exit_3(capsys):
    code, _, err = run(capsys, "phi", "--n", "6", "--m", "5", "--p", "1.5", "--exact")
    assert code == 3
    assert "precondition" in err


def test_missing_config_file_exit_3(capsys):
    code, _, err = run(capsys, "--config", "/nonexistent/path.cfg")
    assert code == 3


def assert_precondition_exit(code, err):
    assert code == 3
    assert "error (precondition)" in err


CONTAINERS = ("containers", "--K", "8", "--b", "2", "--m", "4", "--r", "2")
PROBE = ("stability-probe", "--n", "7", "--m", "10")


@pytest.mark.parametrize("command", [CONTAINERS, PROBE])
def test_missing_input_file_exit_3(tmp_path, capsys, command):
    code, _, err = run(capsys, *command, "--input", str(tmp_path / "absent.txt"))
    assert_precondition_exit(code, err)


def test_pregraph_with_a_bare_n_line_exit_3(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("n\nM 0 1\n")
    code, _, err = run(capsys, *PROBE, "--input", str(path))
    assert_precondition_exit(code, err)


def test_pregraph_with_a_loop_exit_3(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("n 7\nM 0 0\n")
    code, _, err = run(capsys, *PROBE, "--input", str(path))
    assert_precondition_exit(code, err)


def test_hypergraph_with_a_bad_vertex_exit_3(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("0 2 4\n1 | | 0 x\n")
    code, _, err = run(capsys, *CONTAINERS, "--input", str(path))
    assert_precondition_exit(code, err)


def test_non_numeric_config_value_exit_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = enumerate\nn = abc\n")
    code, _, err = run(capsys, "--config", str(cfg))
    assert_precondition_exit(code, err)


def test_count_split_regime_error_maps_to_precondition(capsys):
    # the grid path needs m in the fixed-point window
    code, _, err = run(capsys, "count-split", "--n", "100", "--m", "50")
    assert code == 3
