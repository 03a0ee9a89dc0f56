"""The command-line interface: output formats, config/manifest round trips,
parameter precedence, and exit codes."""

import decimal
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import c4containers
from c4containers import (
    Assignment,
    Constraint,
    UniformHypergraph,
    build_container,
    check_container_hypothesis,
    complete_pregraph,
    count_Fnm_c4,
    n_nm,
    normalize_parameters,
    phi_log,
)
from c4containers.cli import _COMMANDS, _build_parser, _decimal_str, main

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


@pytest.mark.parametrize("m", ["40", "29", "-1"])
def test_enumerate_refuses_an_out_of_range_m_before_any_work(capsys, monkeypatch, m):
    from c4containers import cli, oracle

    calls = []
    for mod, name in ((oracle, "_layer"), (cli, "fnm_table"), (cli, "count_Fnm_c4")):
        monkeypatch.setattr(mod, name, lambda *a, name=name: calls.append(name))
    code, out, err = run(capsys, "enumerate", "--n", "8", "--m", m)
    assert code == 3 and out == ""
    assert err == f"error (precondition): m={m} outside 0..C(8,2)\n"
    assert calls == []


# sha256 of stdout, the table and its .manifest of `enumerate --n 8 --m 26
# --out e.csv`; of the same for that manifest replayed with `--config
# e.csv.manifest --out f.csv`; and of the stdout of `phi --n 8 --m 26 --p 0.5
# --mode exact`; as they were written when both read the whole F_8 table
ENUMERATE_N8_M26_SHA256 = "fdd7c5d60fccb3488b04c4dfd9ac83fa5e786338408a913c7ad65a34b0dabb07"
ENUMERATE_N8_M26_REPLAY_SHA256 = "1f79c339c7acab9cf84f5febaa66971520022933c0935c99137580e1e65de535"
PHI_N8_M26_EXACT_SHA256 = "891b1b8ee2766e17034183f30f37128b7fbbe5a9d6df00c6b5a272514253acdd"


def test_one_count_at_n8_is_unchanged(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the manifest records --out as given
    for argv, out, want in (
        (("enumerate", "--n", "8", "--m", "26", "--out", "e.csv"), "e.csv", ENUMERATE_N8_M26_SHA256),
        (("--config", "e.csv.manifest", "--out", "f.csv"), "f.csv", ENUMERATE_N8_M26_REPLAY_SHA256),
    ):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        files = [(tmp_path / f).read_text() for f in (out, f"{out}.manifest")]
        assert hashlib.sha256("".join([stdout, *files]).encode()).hexdigest() == want
    code, stdout, _ = run(capsys, "phi", "--n", "8", "--m", "26", "--p", "0.5", "--mode", "exact")
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == PHI_N8_M26_EXACT_SHA256


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


# stdout of `count-split --n 4000 --m 200000 --ell 295`, the count at the argmax:
# 195,054 digits, recorded when every exact count came from math.comb
COUNT_SPLIT_N4000_SHA256 = "920d15d9a622962647826284a2ec0e869380de3749500a27674ab0054a50796e"


def test_count_split_at_n4000_is_unchanged(capsys):
    code, out, _ = run(capsys, "count-split", "--n", "4000", "--m", "200000", "--ell", "295")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COUNT_SPLIT_N4000_SHA256


# stdout of `count-split --n 8000 --m 800000 --ell 590`, the count at the argmax:
# 779,994 digits, recorded when the CLI printed str(decimal.Decimal(count))
COUNT_SPLIT_N8000_SHA256 = "eff19e19c2e7b0571db3714940d15a6648cbd623a6ae0cc066f7800f90a77dbb"


def test_count_split_at_n8000_is_unchanged(capsys):
    code, out, _ = run(capsys, "count-split", "--n", "8000", "--m", "800000", "--ell", "590")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COUNT_SPLIT_N8000_SHA256


def test_count_split_prints_zero_at_an_infeasible_clique_side(capsys):
    code, out, _ = run(capsys, "count-split", "--n", "20", "--m", "20", "--ell", "19")
    assert code == 0
    assert out == "0\n"


def test_decimal_str_matches_decimal_on_fixed_counts():
    # 0, small counts, both sides of 2^256 (where the halving stops) and of
    # the 4300-digit str(int) limit, and the 195,054-digit count at n = 4000
    counts = [0, 1, 9, 10, n_nm(20, 20, 4), 2**256 - 1, 2**256, 2**256 + 1, 2**513 + 7]
    counts += [10**4299, 10**4300 - 1, 10**4300, 10**4300 + 1, 7**5100]
    counts.append(n_nm(4000, 200000, 295))
    for x in counts:
        assert _decimal_str(x) == str(decimal.Decimal(x))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40000).flatmap(lambda bits: st.integers(0, (1 << bits) - 1)))
def test_decimal_str_matches_decimal(x):
    assert _decimal_str(x) == str(decimal.Decimal(x))


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


def test_phi_exact_with_another_mode_exit_3(capsys):
    code, out, err = run(capsys, "phi", "--n", "6", "--m", "5", "--p", "0.3",
                         "--mode", "lower_bound", "--exact")
    assert code == 3
    assert out == "" and "--exact" in err


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


# sha256 of stdout, the node table, .summary.json and .manifest of
# `tree --n N --m M [--force] --out tree.txt`, joined in that order; the
# n = 7 digests are as the leaf-by-leaf coverage scan wrote them, and the
# forced n = 8 tree is the one exhaustive check of the engine, the greedy and
# the leaf tests together
TREE_SHA256 = {
    (7, 3, True): "1d00e6d28d2ec5d73c15027ac5ad5e6d4c36628f360c2504d83635576c505c03",
    (7, 13, True): "39f904bff260f6d8113b4fd614cd1a27498cf3e9b593e23f33ace6f8bad37640",
    (7, 15, True): "34fe3a226a74d6c3b2102b1caada7542350c12bc392269a9107b62c40f9d4fcb",
    (7, 18, False): "fdad0fb15287d4f767f7b69c6f3516464058ebbbcdffe06d14c4b469ddfb428b",
    (8, 24, True): "2130c110f562502302c2b82bbfd44937df6f32107effc978d0e868ccc834279c",
}


# the n = 7 cases keep their ids from before n = 8 was pinned
@pytest.mark.parametrize("n,m,force", [
    pytest.param(n, m, force, id=f"{m}-{force}" if n == 7 else f"n{n}-{m}-{force}")
    for n, m, force in sorted(TREE_SHA256)
])
def test_tree_n7_artifacts_are_unchanged(tmp_path, capsys, monkeypatch, n, m, force):
    monkeypatch.chdir(tmp_path)  # the manifest records --out as given
    argv = ["tree", "--n", str(n), "--m", str(m), "--out", "tree.txt"] + ["--force"] * force
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    files = [(tmp_path / f).read_text() for f in ("tree.txt", "tree.txt.summary.json", "tree.txt.manifest")]
    digest = hashlib.sha256("".join([stdout, *files]).encode()).hexdigest()
    assert digest == TREE_SHA256[(n, m, force)]


def test_tree_out_checks_coverage_once(tmp_path, capsys, monkeypatch):
    """One coverage check per run, so F_{n,m} is enumerated twice: once for
    the build and once for the check."""
    from c4containers import cli, tree

    calls = []
    for mod, name in ((cli, "verify_coverage"), (tree, "verify_coverage"),
                      (tree, "enumerate_fnm_masks")):
        inner = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, name=name, inner=inner, **k:
                            calls.append(name) or inner(*a, **k))
    code, _, _ = run(capsys, "tree", "--n", "7", "--m", "18", "--out", str(tmp_path / "t.txt"))
    assert code == 0
    assert sorted(calls) == ["enumerate_fnm_masks"] * 2 + ["verify_coverage"]


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


CONTAINERS_16_SHA256 = "460fe3c2cf58a29b4f72a5adbca120650f39377435e4683c31daad520a7a2392"


def test_containers_rows_match_per_member_builds(tmp_path, capsys):
    """The command's rows against one ``build_container`` per member of a
    scan of every mask: a seeded H on 8 vertices at m = 4 and at m = 10 >= v,
    where no mask has too many ones, and the input of ``tools/scale.py
    containers-16`` (16 vertices, 32 distinct constraints, m = 4), whose
    output keeps its sha256."""
    rng = random.Random(8)
    h8 = UniformHypergraph(1, 2, 8)
    while h8.support_size() < 7:
        picked = rng.sample(range(8), 3)
        h8.add(Constraint.make(picked[:1], picked[1:]))
    rng = random.Random(16)
    h16 = UniformHypergraph(1, 2, 16)
    while h16.support_size() < 32:
        a0, *a1 = rng.sample(range(16), 3)
        c = Constraint.make((a0,), a1)
        if not h16.multiplicity(c):
            h16.add(c)
    for h, m, at_least in [(h8, 4, 50), (h8, 10, 100), (h16, 4, 700)]:
        v = h.n_vertices
        k = math.ceil(check_container_hypothesis(h, 1, *normalize_parameters(2, m, v), 1).min_k)
        path = tmp_path / "h.txt"
        path.write_text(h.to_text())
        code, out, _ = run(
            capsys, "containers", "--input", str(path),
            "--K", str(k), "--b", "2", "--m", str(m), "--r", "1",
        )
        assert code == 0
        rows = []
        for mask in range(1 << v):
            bits = [(mask >> i) & 1 for i in range(v)]
            a = Assignment.from_bits(bits)
            if a.ones_count > m or not a.in_solution_set(h):
                continue
            res = build_container(h, k, 2, m, 1, a)
            rows.append("{},{},{},{}".format(
                "".join(map(str, bits)), "+".join(map(str, res.fingerprint.s0)),
                "+".join(map(str, res.fingerprint.s1)), res.cylinder.to_string(),
            ))
        assert len(rows) > at_least
        assert out.splitlines()[2:] == rows
    assert hashlib.sha256(out.encode()).hexdigest() == CONTAINERS_16_SHA256


def test_containers_with_no_member_checks_nothing(tmp_path, capsys):
    # every member has ones at all three vertices, so none has at most two;
    # K = 0.01 fails the degree condition, which is then never checked
    path = tmp_path / "h.txt"
    path.write_text(UniformHypergraph(1, 0, 3, [((0,), ()), ((1,), ()), ((2,), ())]).to_text())
    code, out, _ = run(
        capsys, "containers", "--input", str(path),
        "--K", "0.01", "--b", "1", "--m", "2", "--r", "1",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["assignment,s0,s1,cylinder"]


@pytest.mark.parametrize("with_members", [True, False])
@pytest.mark.parametrize(
    "flag,value",
    [("m", "0"), ("m", "-1"), ("b", "0"), ("r", "0"), ("K", "0"), ("K", "-1"), ("K", "nan"), ("K", "inf")],
)
def test_containers_bad_parameter_exit_3(tmp_path, capsys, flag, value, with_members):
    """b, m and r below 1 and a K that is not finite and positive fail the
    precondition before the scan, whether or not H has a member."""
    if with_members:
        h = UniformHypergraph(0, 2, 4, [((), (0, 1)), ((), (2, 3))])
    else:  # every member has ones at all three vertices, above m = 2
        h = UniformHypergraph(1, 0, 3, [((0,), ()), ((1,), ()), ((2,), ())])
    path = tmp_path / "h.txt"
    path.write_text(h.to_text())
    values = {"K": "8", "b": "2", "m": "2", "r": "1", flag: value}
    argv = [arg for name, val in values.items() for arg in (f"--{name}", val)]
    code, out, err = run(capsys, "containers", "--input", str(path), *argv)
    assert_precondition_exit(code, err)
    assert out == ""


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


# stability-probe --n 20 --m 40 as printed before the permissible greedy
# walked its good copies in one pass (it rescanned them after every insertion),
# except case 3: its e(H) = 100 now meets the re-check, which reads the same
# float beta*ell^4 = 100.0 that the greedy stopped at, where it used to fail
# against the exact binary value of Fraction(0.01) * 10**4
PROBE_N20 = {
    "e_E": 0,
    "e_M": 190,
    "leaf": {"ell": None, "is_leaf": False, "kind": "not_leaf"},
    "n": 20,
    "params": {"K": 500.0, "b": 4, "beta": 0.01, "delta": 0.01, "eps": 0.01, "m": 40, "r": 1},
    "selection": {
        "case": 3,
        "delta_01": 50,
        "delta_02": 10,
        "delta_10": 50,
        "e_H": 100,
        "ell": 10,
        "hypothesis_ok": False,
        "i": 2,
        "insertions": 100,
        "min_K": 509066.40625,
        "status": "selected",
        "v_H": 190,
    },
}


def test_stability_probe_at_n20_is_unchanged(capsys):
    code, out, _ = run(capsys, "stability-probe", "--n", "20", "--m", "40")
    assert code == 0
    assert json.loads(out) == PROBE_N20


# stability-probe --n 64 --m 128 as printed while the leaf tests recounted
# every pair per swap trial and the permissible greedy listed all good copies
# up front; that stdout hashes to the sha256 below
PROBE_N64 = {
    "e_E": 0,
    "e_M": 2016,
    "leaf": {"ell": None, "is_leaf": False, "kind": "not_leaf"},
    "n": 64,
    "params": {"K": 500.0, "b": 5, "beta": 0.01, "delta": 0.01, "eps": 0.01, "m": 128, "r": 1},
    "selection": {
        "case": 1,
        "delta_01": 5,
        "delta_02": 5,
        "delta_10": 20,
        "e_H": 25,
        "ell": 7,
        "hypothesis_ok": False,
        "i": 2,
        "insertions": 25,
        "min_K": 27063380924.065384,
        "status": "selected",
        "v_H": 2016,
    },
}
PROBE_N64_SHA256 = "bd19ee6013a6c031e4045bb2d6c063abc4adaf65a6d119799a40387083b14ea2"
# the n = 96 output printed by that code began with these hex digits; the
# full value pins the rest of today's output
PROBE_N96_SHA256 = "117374d763d8b73ff12688de185a698c07d0744b70073adb6d4bd4b484bed7f8"


def test_stability_probe_at_n64_and_n96_is_unchanged(capsys):
    code, out, _ = run(capsys, "stability-probe", "--n", "64", "--m", "128")
    assert code == 0
    assert json.loads(out) == PROBE_N64
    assert hashlib.sha256(out.encode()).hexdigest() == PROBE_N64_SHA256
    code, out, _ = run(capsys, "stability-probe", "--n", "96", "--m", "192")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROBE_N96_SHA256


def test_stability_probe_runs_the_leaf_test_once(capsys, monkeypatch):
    from c4containers import cli, tree

    calls = []
    for mod in (cli, tree):
        inner = mod.is_leaf_pregraph
        monkeypatch.setattr(mod, "is_leaf_pregraph",
                            lambda *a, inner=inner, **k: calls.append(a) or inner(*a, **k))
    code, out, _ = run(capsys, "stability-probe", "--n", "20", "--m", "40")
    assert code == 0 and json.loads(out) == PROBE_N20
    assert len(calls) == 1


def test_stability_probe_refuses_a_pregraph_file_with_two_n_lines(tmp_path, capsys):
    """The file's last n matches --n, which used to let the 12-vertex
    pregraph through."""
    path = tmp_path / "p.txt"
    path.write_text("n 3\nE 0 1\nn 12\n")
    code, out, err = run(capsys, "stability-probe", "--input", str(path), "--n", "12", "--m", "24")
    assert code == 3 and out == ""
    assert "repeats its 'n' line" in err


SAMPLER_N1000_SHA256 = "6d48df4eeaf9ca4f726a35f3b78d4b81efc26a089a03b7d860e5b24d3798531b"


def test_sampler_at_n1000_is_unchanged(capsys):
    """Three accepted draws at n = 1000, pinned by the sha256 of the whole
    output as the full-scan sampler printed it."""
    code, out, _ = run(capsys, "sampler", "--n", "1000", "--m", "999", "--runs", "3",
                       "--max-attempts", "5", "--seed", "9")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLER_N1000_SHA256


SAMPLER_N200_SHA256 = {
    0: "f36ba13c1eaf4c2331557231f7e4cccda19f9ecf66044235a3b026c784726bf0",
    1: "5dbd0f6ede57155ffc57ee23797c17365fd1cd1a29b091b101706718749544cd",
    2: "23076e44975b8dcbdfcd2f534c0ea248ec4bd82642a5fe39c1f75e63040cde9f",
}


@pytest.mark.parametrize("seed", sorted(SAMPLER_N200_SHA256))
def test_sampler_at_n200_is_unchanged(capsys, seed):
    """The benchmark's sampler row (20 runs of up to 10 draws at n = 200),
    pinned by the sha256 of the whole output as the tuple-keyed codegree
    counter printed it."""
    code, out, _ = run(capsys, "sampler", "--n", "200", "--m", "400", "--runs", "20",
                       "--max-attempts", "10", "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLER_N200_SHA256[seed]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert main([]) == 2
    capsys.readouterr()


def main_exit(capsys, argv):
    """main(argv) in this process: exit code, stdout and stderr, where an
    argparse exit counts as the code it raises."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def main_in_fresh_process(argv):
    """main(argv) in a new interpreter, so with a parser built for it alone."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(c4containers.__file__).resolve().parents[1])}
    script = "import sys; from c4containers.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("argv", [["--help"], [], ["--version"],
                                  *([cmd, "--help"] for cmd in sorted(_COMMANDS))])
def test_help_and_usage_match_a_fresh_process(capsys, monkeypatch, argv):
    """Help, usage and version text from the kept parser, asked twice after
    other calls have used it, equal what a new interpreter prints."""
    monkeypatch.setenv("COLUMNS", "80")
    main_exit(capsys, ["enumerate", "--n", "4", "--m", "4"])
    first = main_exit(capsys, argv)
    assert first == main_exit(capsys, argv) == main_in_fresh_process(argv)
    assert first[0] == (2 if argv == [] else 0)


def test_usage_error_leaves_the_parser_as_a_fresh_process_has_it(capsys, monkeypatch):
    """An argparse error (exit 2) part-way through a subcommand's flags, then
    a valid call: each prints what it prints in a new interpreter."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["sampler", "--n", "30", "--m", "35", "--bogus", "1"],
        ["sampler", "--n", "30", "--m", "35", "--seed", "7", "--runs", "3"],
        ["tree", "--n", "not-an-int"],
        ["enumerate", "--n", "5"],
    ]
    got = [main_exit(capsys, argv) for argv in calls]
    assert [code for code, _, _ in got] == [2, 0, 2, 0]
    assert got == [main_in_fresh_process(argv) for argv in calls]


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


def test_config_file_that_is_not_utf8_exit_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"command = enumerate\nn = 4\n\xff\n")
    code, out, err = run(capsys, "--config", str(cfg))
    assert_precondition_exit(code, err)
    assert out == ""


# keys and values of cheap runs only: enumerate at n <= 5, phi, and
# count-split at small n; out and input are left out, so nothing is written
# or read beside the config file itself.  Each file starts from one complete
# run, which the drawn lines below it may override.
CHEAP_RUNS = (
    ("command = enumerate", "n = 4"),
    ("command = phi", "n = 5", "m = 3", "p = 0.5", "mode = exact"),
    ("command = count-split", "n = 6", "m = 8", "ell = 2"),
)
CONFIG_VALUES = {
    "command": ("enumerate", "phi", "count-split", "no-such-command", ""),
    "n": ("-1", "0", "1", "4", "5", "9", "x", "", "nan", "4.0"),
    "m": ("-1", "0", "3", "6", "11", "x", "1e2"),
    "p": ("0.5", "0", "1", "1.5", "nan", "-inf", "x"),
    "mode": ("exact", "lower_bound", "upper_bound", "bogus"),
    "exact": ("yes", "no", "maybe"),
    "ell": ("-3", "0", "1", "2", "x"),
    "lambda": ("0.5", "nan", "inf", "-1"),
    "seed": ("0", "-5", "x"),
    "no-such-key": ("1", ""),
}
CONFIG_LINE = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: st.sampled_from(CONFIG_VALUES[key]).map(lambda value: f"{key} = {value}")
)
BARE_LINE = st.text(st.characters(blacklist_characters="=#", blacklist_categories=("Cs",)),
                    min_size=1, max_size=12).filter(lambda text: text.strip())
COMMENT_LINE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).map(lambda t: "#" + t)
JUNK_BYTES = st.tuples(st.integers(0, 1 << 16), st.sampled_from([b"\xff", b"\x80", b"\xc3("]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    run=st.sampled_from(CHEAP_RUNS),
    # repeats weight the draws towards key lines and towards clean bytes
    lines=st.lists(st.one_of(*[CONFIG_LINE] * 6, COMMENT_LINE, BARE_LINE, st.just("")), max_size=6),
    undecodable=st.one_of(*[st.just([])] * 4, st.lists(JUNK_BYTES, min_size=1, max_size=2)),
)
def test_malformed_config_ends_in_a_documented_exit_code(tmp_path, capsys, run, lines, undecodable):
    """Whatever the text or bytes, a config-only run ends in exit 0, 2 (an
    unknown command), 3, 4 or 5, never another exception; undecodable bytes
    and a non-blank line without '=' fail a precondition.  The expected
    branch is read off the bytes written, since junk can complete a UTF-8
    sequence: a byte 0x80 inserted between the 0xC3 and "(" of another
    insertion reads as "À("."""
    data = "\n".join([*run, *lines]).encode()
    for at, junk in undecodable:
        at %= len(data) + 1
        data = data[:at] + junk + data[at:]
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(data)
    code, _, err = main_exit(capsys, ["--config", str(cfg)])
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None or any(
        (line := raw.split("#", 1)[0].strip()) and "=" not in line for raw in text.splitlines()
    ):
        assert_precondition_exit(code, err)
    else:
        assert code in (0, 2, 3, 4, 5)


@pytest.mark.parametrize("command", [("tree", "--n", "5", "--m", "4"), PROBE])
@pytest.mark.parametrize("flag", ["beta", "lambda"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_tree_parameter_that_is_not_finite_exit_3(capsys, command, flag, value):
    """beta and lambda must be positive and finite, NaN failing too."""
    code, out, err = run(capsys, *command, f"--{flag}", value)
    assert_precondition_exit(code, err)
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "-1"),
        ("sampler", "--n", "0", "--m", "0"),
        ("sampler", "--n", "5", "--m", "3", "--delta", "-0.5"),
        ("sampler", "--n", "5", "--m", "3", "--delta", "nan"),
        ("sampler", "--n", "5", "--m", "3", "--delta", "inf"),
        ("sampler", "--n", "5", "--m", "3", "--runs", "0"),
        ("sampler", "--n", "5", "--m", "3", "--max-attempts", "0"),
        # C(n, 2) is positive at n = -1 and -2; (1+delta)m overflows to inf
        ("sampler", "--n", "-1", "--m", "1", "--delta", "0"),
        ("sampler", "--n", "-2", "--m", "2", "--delta", "0"),
        ("sampler", "--n", "5", "--m", "2", "--delta", "1e308"),
    ],
)
def test_out_of_range_enumerate_and_sampler_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_precondition_exit(code, err)
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_count_split_lambda_that_is_not_positive_and_finite_exit_3(capsys, value):
    """m <= lambda*n^2 holds for lambda = inf and fails to fail for NaN, so
    the grid path checks lambda itself."""
    code, out, err = run(capsys, "count-split", "--n", "10", "--m", "20", "--lambda", value)
    assert_precondition_exit(code, err)
    assert out == ""


def test_count_split_regime_error_maps_to_precondition(capsys):
    # the grid path needs m in the fixed-point window
    code, _, err = run(capsys, "count-split", "--n", "100", "--m", "50")
    assert code == 3


# the flags each subcommand resolves, besides --seed and --out, with a valid
# value; the test writes each --input file itself
DECLARED = {
    "containers": {"input": None, "K": "8", "b": "2", "m": "4", "r": "2", "force": True},
    "tree": {"n": "5", "m": "4", "eps": "0.02", "delta": "0.02", "beta": "0.02",
             "lambda": "0.02", "force": True},
    "count-split": {"n": "20", "m": "20", "ell": "4", "lambda": "0.02"},
    "enumerate": {"n": "4", "m": "4"},
    "sampler": {"n": "30", "m": "35", "delta": "0.1", "runs": "2", "max-attempts": "4"},
    "phi": {"n": "6", "m": "5", "p": "0.3", "mode": "exact", "exact": True},
    "stability-probe": {"input": None, "n": "7", "m": "10", "eps": "0.02", "delta": "0.02",
                        "beta": "0.02", "lambda": "0.02"},
}
# flags that every subcommand accepted before each declared its own
ONCE_SHARED = ("n", "m", "eps", "delta", "beta", "lambda", "exact", "force")
FORMERLY_IGNORED = [
    (cmd, flag) for cmd in sorted(DECLARED) for flag in ONCE_SHARED if flag not in DECLARED[cmd]
]


def parser_flags() -> dict[str, set[str]]:
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return {
        name: {opt[2:] for a in sp._actions for opt in a.option_strings if opt not in ("-h", "--help")}
        for name, sp in sub.choices.items()
    }


def test_parser_declares_exactly_the_resolved_flags():
    declared = parser_flags()
    assert declared == {cmd: set(flags) | {"seed", "out"} for cmd, flags in DECLARED.items()}
    assert sum(map(len, declared.values())) == 50
    assert len(FORMERLY_IGNORED) == 30


@pytest.mark.parametrize("command", sorted(DECLARED))
def test_every_declared_flag_lands_in_the_manifest(tmp_path, capsys, command):
    inputs = {
        "containers": UniformHypergraph(0, 2, 4, [((), (0, 1)), ((), (2, 3))]).to_text(),
        "stability-probe": complete_pregraph(7).to_text(),
    }
    flags = parser_flags()[command] - {"seed", "out"}
    argv = [command, "--seed", "3", "--out", str(tmp_path / "out.txt")]
    for flag in sorted(flags):
        value = DECLARED[command][flag]
        if flag == "input":
            value = tmp_path / "input.txt"
            value.write_text(inputs[command])
        argv += [f"--{flag}"] if value is True else [f"--{flag}", str(value)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    manifest = (tmp_path / "out.txt.manifest").read_text().splitlines()
    keys = {line.split(" = ", 1)[0] for line in manifest}
    assert keys - {"command", "version"} == flags | {"seed", "out"}


@pytest.mark.parametrize("command,flag", FORMERLY_IGNORED)
def test_undeclared_flag_is_a_usage_error(capsys, command, flag):
    value = [] if flag in ("exact", "force") else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{flag}", *value])
    assert exc.value.code == 2
    assert f"--{flag}" in capsys.readouterr().err
