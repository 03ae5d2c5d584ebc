"""CLI surface tests: commands, formats, exit codes, config precedence."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from pentaperm import cli
from pentaperm.cli import build_parser, main
from pentaperm.search import SearchConfig, candidates_jsonl, match_candidates, run_search


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_with_brute_agrees(capsys):
    code, out = run_cli(capsys, "check", "--class", "B", "--i", "5", "--j", "6",
                        "--m", "4", "--brute")
    assert code == 0
    assert "predicted permutation: True" in out
    assert "agree" in out


def test_check_predicted_false_still_exits_zero(capsys):
    code, out = run_cli(capsys, "check", "--class", "A", "--i", "3", "--j", "1",
                        "--m", "10")
    assert code == 0
    assert "predicted permutation: False" in out


def test_check_json_schema(capsys):
    code, out = run_cli(capsys, "--format", "json", "check", "--class", "A",
                        "--i", "3", "--j", "1", "--m", "2", "--brute")
    data = json.loads(out)
    assert set(data) == {"kind", "params", "result", "agrees"}
    assert data["agrees"] is True
    assert data["result"]["brute"] is True


def test_invalid_class_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["check", "--class", "D", "--i", "1", "--j", "1", "--m", "2"])
    assert err.value.code == 2


def test_invalid_i_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["check", "--class", "A", "--i", "0", "--j", "1", "--m", "2"])
    assert err.value.code == 2


def test_condition_text(capsys):
    code, out = run_cli(capsys, "condition", "--class", "B", "--i", "5", "--j", "6")
    assert code == 0
    assert "m ≢ 0 (mod 24)" in out
    code, out = run_cli(capsys, "condition", "--class", "B", "--i", "3", "--j", "4")
    assert "m is odd" in out
    code, out = run_cli(capsys, "condition", "--class", "C", "--i", "6", "--j", "4")
    assert "m is odd" in out


def test_table1_default(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "14 of 17 rows resolved" in out
    assert "intersected with 'm odd'" in out  # rows 6 and 14
    assert "printed Q1/Q2 columns" in out  # rows 10 and 17


def test_table1_brute_matrix(capsys):
    code, out = run_cli(capsys, "table1", "--m-range", "1..4", "--brute")
    assert code == 0
    assert "FAIL" not in out


def test_table1_brute_needs_m_range():
    with pytest.raises(SystemExit) as err:
        main(["table1", "--brute", "--row", "2"])
    assert err.value.code == 2


def test_table1_single_row_detail(capsys):
    code, out = run_cli(capsys, "table1", "--row", "17")
    assert code == 0
    assert "monomial certificate" in out
    assert "bivariate certificate" in out


def test_table1_bad_row(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table1", "--row", "99"])
    assert err.value.code == 2


def test_identities_command(capsys):
    code, out = run_cli(capsys, "identities", "--i-max", "4", "--j-max", "4")
    assert code == 0
    assert "48 identity checks, 48 passed, 0 failed" in out


def test_rvalues_command_notes(capsys):
    code, out = run_cli(capsys, "rvalues", "--i-max", "3", "--j-max", "3")
    assert code == 0
    assert "27 r-values compared, 27 agree" in out
    assert "r_A display" in out
    assert "r_C display" in out


def test_gcheck_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "gcheck", "--class", "A",
                        "--i", "3", "--j", "1", "--m", "2")
    data = json.loads(out)
    assert data["result"]["g_permutes_unit_circle"] is True
    points = {entry["point"] for entry in data["result"]["critical_points"]}
    assert points == {"gf16:0x6", "gf16:0x7"}
    assert all(idx == [11] for idx in data["result"]["branch_profile"].values())


def test_gcheck_scans_the_field_once(capsys):
    # the report and the profile share one ramification table per invocation
    from pentaperm import oracle

    oracle._ramification_table.cache_clear()
    for builds, argv in enumerate([("B", "5", "6", "4"), ("A", "3", "1", "3")], 1):
        cls, i, j, m = argv
        code, _ = run_cli(capsys, "gcheck", "--class", cls, "--i", i, "--j", j, "--m", m)
        assert code == 0
        assert oracle._ramification_table.cache_info().misses == builds


def test_equiv_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "equiv", "--class", "B",
                        "--i", "5", "--j", "6", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["agrees"] is True
    assert data["result"]["certificate"]["exponent"] == 97


def test_search_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "search",
                        "--t-max", "10", "--m-set", "2,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,r1,r2,r3,r4,survived_m,matched_row"
    assert any(line.startswith("9,3,5,7,8,3,1") for line in lines)


def test_search_json_matches_candidates_jsonl(capsys):
    # the benchmark digests candidates_jsonl, the CLI renders through render
    cfg = SearchConfig(t_max=12, m_set=frozenset({2, 3}))
    expected = candidates_jsonl(match_candidates(run_search(cfg)))
    code, out = run_cli(capsys, "--format", "json", "search", "--t-max", "12", "--m-set", "2,3")
    assert code == 0
    lines = [line + "\n" for line in out.splitlines()
             if json.loads(line)["kind"] == "search_candidate"]
    assert len(lines) == 415
    assert "".join(lines) == expected


def test_search_bad_mset():
    with pytest.raises(SystemExit) as err:
        main(["search", "--t-max", "10", "--m-set", "2,zebra"])
    assert err.value.code == 2


def test_search_infeasible_m_rejected():
    with pytest.raises(SystemExit) as err:
        main(["search", "--t-max", "12", "--m-set", "10"])
    assert err.value.code == 2


def test_registry_dump(capsys):
    code, out = run_cli(capsys, "registry")
    assert code == 0
    assert len(json.loads(out)) == 17


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(capsys, "--format", "json", "--out", str(target),
                      "condition", "--class", "A", "--i", "3", "--j", "1")
    assert code == 0
    assert json.loads(target.read_text())["kind"] == "condition"


def test_config_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "pentaperm.cfg"
    cfg.write_text("format = csv\nworkers = 3\n")
    # file layer applies
    code, out = run_cli(capsys, "--config", str(cfg), "search",
                        "--t-max", "10", "--m-set", "2")
    assert out.startswith("t,r1")
    # environment overrides the file
    monkeypatch.setenv("PENTAPERM_FORMAT", "md")
    code, out = run_cli(capsys, "--config", str(cfg), "search",
                        "--t-max", "10", "--m-set", "2")
    assert out.splitlines()[0].startswith("Candidates surviving")
    # flags override the environment
    code, out = run_cli(capsys, "--config", str(cfg), "--format", "csv",
                        "search", "--t-max", "10", "--m-set", "2")
    assert out.startswith("t,r1")


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "registry"])
    assert err.value.code == 2


def test_config_non_integer_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("workers = plenty\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "registry"])
    assert err.value.code == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_config_unreadable_is_usage_error(kind, tmp_path, capsys):
    path = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
            "binary": tmp_path / "binary.cfg"}[kind]
    (tmp_path / "binary.cfg").write_bytes(b"workers = \xff\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(path), "registry"])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: config {path}: ")


def _fail_if_called(*args, **kwargs):
    raise AssertionError("worked before refusing")


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_refused_before_work(source, workers, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("pentaperm.cli.theory.theorem_verdict", _fail_if_called)
    argv = ["check", "--class", "A", "--i", "1", "--j", "1", "--m", "2"]
    if source == "flag":
        argv = ["--workers", workers, *argv]
    elif source == "env":
        monkeypatch.setenv("PENTAPERM_WORKERS", workers)
    else:
        cfg = tmp_path / "workers.cfg"
        cfg.write_text(f"workers = {workers}\n")
        argv = ["--config", str(cfg), *argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: workers must be positive\n"


def test_out_path_refused_before_work(tmp_path, monkeypatch, capsys):
    # a missing parent directory or a directory as the target is refused
    # before the command runs; a write that still fails exits 2 with an
    # error line; a failing command leaves an existing --out file as it was
    check = ["check", "--class", "B", "--i", "5", "--j", "6", "--m", "4"]
    with monkeypatch.context() as patch:
        patch.setattr("pentaperm.cli.theory.theorem_verdict", _fail_if_called)
        for out in (tmp_path / "missing" / "x.txt", tmp_path):
            with pytest.raises(SystemExit) as err:
                main(["--out", str(out), *check])
            assert err.value.code == 2
            assert capsys.readouterr().err == (
                f"error: out {out}: not a file in an existing directory\n")

    def refuse_write(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    target = tmp_path / "report.txt"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "open", refuse_write, raising=False)
        assert main(["--out", str(target), *check]) == 2
    assert capsys.readouterr().err == f"error: out {target}: Permission denied\n"
    target.write_text("kept\n")
    # 2m = 26 is above the brute cap: the command fails with exit 2
    assert main(["--out", str(target), *check[:-2], "--m", "13", "--brute"]) == 2
    assert target.read_text() == "kept\n"


def test_gcheck_rejects_large_m():
    with pytest.raises(SystemExit) as err:
        main(["gcheck", "--class", "A", "--i", "1", "--j", "1", "--m", "9"])
    assert err.value.code == 2


def test_gcheck_bound_is_the_ramification_cap(capsys):
    # gcheck refuses the first m above the scan's cap, and the scan itself
    # refuses that field before it builds the antilog table
    from pentaperm import oracle
    from pentaperm.families import FamilySpec
    from pentaperm.field import CANONICAL_MODULUS, FieldCtx

    assert oracle.RAMIFICATION_CAP == 16
    m = oracle.RAMIFICATION_CAP // 2 + 1
    with pytest.raises(SystemExit) as err:
        main(["gcheck", "--class", "B", "--i", "5", "--j", "6", "--m", str(m)])
    assert err.value.code == 2
    assert capsys.readouterr().err == (
        "error: ramification reports sweep the whole field; m <= 8 only\n")
    ctx = FieldCtx(2 * m, CANONICAL_MODULUS[2 * m])
    with pytest.raises(ValueError, match=f"field degree {2 * m} exceeds the ramification cap 16"):
        oracle.ramification_report(FamilySpec("B", 5, 6), ctx)
    assert ctx._exp_np is None


def test_brute_cap_exceeded_is_usage_error(capsys):
    code = main(["check", "--class", "A", "--i", "1", "--j", "1",
                 "--m", "13", "--brute"])
    assert code == 2


@pytest.mark.parametrize("cap", ["0", "25", "1000"])
def test_brute_cap_out_of_range_flag(cap):
    # rejected before any field is built
    with pytest.raises(SystemExit) as err:
        main(["--brute-cap", cap, "check", "--class", "A", "--i", "1", "--j", "1",
              "--m", "2", "--brute"])
    assert err.value.code == 2


def test_brute_cap_out_of_range_env_and_file(tmp_path, monkeypatch):
    monkeypatch.setenv("PENTAPERM_BRUTE_CAP", "32")
    with pytest.raises(SystemExit) as err:
        main(["registry"])
    assert err.value.code == 2
    monkeypatch.delenv("PENTAPERM_BRUTE_CAP")
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("brute_cap = 0\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "registry"])
    assert err.value.code == 2


def test_brute_cap_in_range_accepted(capsys):
    code, out = run_cli(capsys, "--brute-cap", "4", "check", "--class", "A",
                        "--i", "3", "--j", "1", "--m", "2", "--brute")
    assert code == 0
    assert "agree" in out


# stdout SHA-256 and exit code of each invocation in each format, so any
# change to CLI output bytes is deliberate: the README examples (search at
# a smaller t_max), a second brute range, equiv at m = 3 for an r = 0
# and an r > 0 family, the full-pool bivariate search at m = 3, and equiv
# at m = 9 and 10, where replay runs over more than one slice of points
PINNED_OUTPUT = {
    "check --class B --i 5 --j 6 --m 4 --brute": (0, {
        "text": "3cd6f93cc95f6ebb2b6785659f45febad4b20f0caca41eb8b03d90295325af76",
        "json": "be2a0eb244833e925710f4468375525aa8d8ec65984c8ff937a0c02a0f744ca4",
        "csv": "3cd6f93cc95f6ebb2b6785659f45febad4b20f0caca41eb8b03d90295325af76",
        "md": "3cd6f93cc95f6ebb2b6785659f45febad4b20f0caca41eb8b03d90295325af76",
    }),
    "condition --class B --i 5 --j 6": (0, {
        "text": "d6200ac233d817b0c2b3ac3703a42fb7130f32454d64b3c64e3f880f279a568a",
        "json": "43e9f6456e8107403f6b3be457891303f897a6221de0693907f719676b325206",
        "csv": "d6200ac233d817b0c2b3ac3703a42fb7130f32454d64b3c64e3f880f279a568a",
        "md": "d6200ac233d817b0c2b3ac3703a42fb7130f32454d64b3c64e3f880f279a568a",
    }),
    "table1": (0, {
        "text": "fdfd5aa41a29471ed86d81b9c8e08d205eb81ecd442b6294c27e9e1f09d04888",
        "json": "15bea0c16477f3abb3111de93cba6c535323f1085e690adff05874aeff247bf7",
        "csv": "fdfd5aa41a29471ed86d81b9c8e08d205eb81ecd442b6294c27e9e1f09d04888",
        "md": "7d0548ce36f504230e5963d5c2688407b5c3aee24a82b80372ac0c6e31ddfd2d",
    }),
    "table1 --m-range 1..6 --brute": (0, {
        "text": "aaea49f58221a65d6de5d5455627ef274044123d086c340f616a0ce3a1ca9862",
        "json": "b1038678f16a72bcee9efde428b281f0acb04f88e96613c3d37bf6179cde0eff",
        "csv": "aaea49f58221a65d6de5d5455627ef274044123d086c340f616a0ce3a1ca9862",
        "md": "7d0548ce36f504230e5963d5c2688407b5c3aee24a82b80372ac0c6e31ddfd2d",
    }),
    "table1 --m-range 1..4 --brute": (0, {
        "text": "af100943e73694f7edb5a9732759232d10a0b14cb6f63a23c03b97b4f2c1716a",
        "json": "e377e9c3d0fb6c2740209fd80d01f8a766d1e58bee7f579faeff1dd346efb79d",
        "csv": "af100943e73694f7edb5a9732759232d10a0b14cb6f63a23c03b97b4f2c1716a",
        "md": "7d0548ce36f504230e5963d5c2688407b5c3aee24a82b80372ac0c6e31ddfd2d",
    }),
    "table1 --row 17": (0, {
        "text": "b5e8f644208edaab6e1c3fa8a3eb12efba320e1e0daba67c273abf425e074b44",
        "json": "2f4930f95fb0a45c409ebfc7cbe6df6ca2262a336688d678918a5e593c22fe32",
        "csv": "b5e8f644208edaab6e1c3fa8a3eb12efba320e1e0daba67c273abf425e074b44",
        "md": "59c89fe42375689017c587668b9c57907c4aa570b4187c286a9c93f39b1e9279",
    }),
    "identities --i-max 8 --j-max 8": (0, {
        "text": "33721f5852649090d48e56ee12e28014e3753779a09910954777715630fab1d0",
        "json": "39c58ec240695236bafdf16bfca5e4d68122e0d0616cea88ca7c4290030b4d91",
        "csv": "33721f5852649090d48e56ee12e28014e3753779a09910954777715630fab1d0",
        "md": "33721f5852649090d48e56ee12e28014e3753779a09910954777715630fab1d0",
    }),
    "rvalues --i-max 8 --j-max 8": (0, {
        "text": "4721667a248a3471f9fde108613d95183f1ca9d8a91983503d24041e9a196db0",
        "json": "124f78b27dfdc33a4391f5794f20ba4eabf2813a5578c12318888d53492cdbdd",
        "csv": "4721667a248a3471f9fde108613d95183f1ca9d8a91983503d24041e9a196db0",
        "md": "4721667a248a3471f9fde108613d95183f1ca9d8a91983503d24041e9a196db0",
    }),
    "gcheck --class A --i 3 --j 1 --m 2": (0, {
        "text": "3ed5c38ead67b1e02544cc672fb5da1024e9db7c8863a3c98c8db9b302923ef3",
        "json": "5f53144af31783057bb28a701b126e9aa8c8f7a0c3735f46734e035ae1cc737d",
        "csv": "3ed5c38ead67b1e02544cc672fb5da1024e9db7c8863a3c98c8db9b302923ef3",
        "md": "3ed5c38ead67b1e02544cc672fb5da1024e9db7c8863a3c98c8db9b302923ef3",
    }),
    "gcheck --class B --i 5 --j 6 --m 8": (0, {
        "text": "346790529d782901fcd641debb6f3cca24fabfb32a3a5f5fc9528cc16b4dd510",
        "json": "caca15c20484a9523ed9bbfaf7a7c44849c1ec64656b5eaf227c4ae40bc38797",
        "csv": "346790529d782901fcd641debb6f3cca24fabfb32a3a5f5fc9528cc16b4dd510",
        "md": "346790529d782901fcd641debb6f3cca24fabfb32a3a5f5fc9528cc16b4dd510",
    }),
    "gcheck --class C --i 2 --j 3 --m 5": (0, {
        "text": "c980bfd00af165b20366529f585da90560dd266af1dff845a695688c677853b7",
        "json": "789c1da87f8cc3d8f7b96de97d954a26a12a9bc84eecdf1c15cf0068b56bd274",
        "csv": "c980bfd00af165b20366529f585da90560dd266af1dff845a695688c677853b7",
        "md": "c980bfd00af165b20366529f585da90560dd266af1dff845a695688c677853b7",
    }),
    "equiv --class B --i 5 --j 6 --m 4": (0, {
        "text": "70cd9b2f0d531fe9700ddb0045059ff2dfec3b90105b0e905884a4b2cfa8a638",
        "json": "0bfd5e6239670206161bedd13cb13ec2a09d5ba33bc5abbf0ea24a2fd612e615",
        "csv": "70cd9b2f0d531fe9700ddb0045059ff2dfec3b90105b0e905884a4b2cfa8a638",
        "md": "70cd9b2f0d531fe9700ddb0045059ff2dfec3b90105b0e905884a4b2cfa8a638",
    }),
    "equiv --class A --i 3 --j 1 --m 3": (0, {
        "text": "497e057dcd03267d5f904c1aac0a072237dd347cb34c3ddf8e0ea2e74de70c5c",
        "json": "c1dd95b7b47799e2b85d17b9db92a9ede98aa119deb23501e45d7bbce3c7ed5c",
        "csv": "497e057dcd03267d5f904c1aac0a072237dd347cb34c3ddf8e0ea2e74de70c5c",
        "md": "497e057dcd03267d5f904c1aac0a072237dd347cb34c3ddf8e0ea2e74de70c5c",
    }),
    "equiv --class A --i 2 --j 2 --m 3": (1, {
        "text": "8e3d51dbfbc621470218eb5fe26a3914408708b154465b4a5d3d09931d64f28d",
        "json": "a5fb9e2b32c380881cce1c83e5e0edb580121a845e00e30f33c79a369dff96f7",
        "csv": "8e3d51dbfbc621470218eb5fe26a3914408708b154465b4a5d3d09931d64f28d",
        "md": "8e3d51dbfbc621470218eb5fe26a3914408708b154465b4a5d3d09931d64f28d",
    }),
    "equiv --class B --i 5 --j 6 --m 3 --pool full": (0, {
        "text": "5ec6016bff54a79095658ce702ed7f3aefc9e2e35347f4081db61c6845b07010",
        "json": "7369cdc22e56a47aa70cca6c98dc867a000b4d03d6388ef26435ead9c9b1f8b8",
        "csv": "5ec6016bff54a79095658ce702ed7f3aefc9e2e35347f4081db61c6845b07010",
        "md": "5ec6016bff54a79095658ce702ed7f3aefc9e2e35347f4081db61c6845b07010",
    }),
    "equiv --class A --i 3 --j 1 --m 9": (0, {
        "text": "f819efba693af07e06c503e398174b0680043f96fe7b966c1344fb3c8b4e67b2",
        "json": "6f504ff65ab2140d8d46494280972f46b306dba59bce4d1705830da2d5a6adf0",
        "csv": "f819efba693af07e06c503e398174b0680043f96fe7b966c1344fb3c8b4e67b2",
        "md": "f819efba693af07e06c503e398174b0680043f96fe7b966c1344fb3c8b4e67b2",
    }),
    "equiv --class B --i 5 --j 6 --m 10": (0, {
        "text": "242a466736ee77c642ecace938d099f7b502bc097cc9964795c134f53b216812",
        "json": "b5e3854828819e2d32b16b44662c1c8039c327d1f2ede6621d0d35bc6e6afc29",
        "csv": "242a466736ee77c642ecace938d099f7b502bc097cc9964795c134f53b216812",
        "md": "242a466736ee77c642ecace938d099f7b502bc097cc9964795c134f53b216812",
    }),
    "search --t-max 10 --m-set 2,3": (0, {
        "text": "f84241437fe5e542c37ea14942ffff7f612fae80600b4d362900250797a6c438",
        "json": "9ecb1bf065dfe777268faf17226eda639a2bf9c00021823da99e03f23536a003",
        "csv": "6ca9e12aa371dac1791e6e0c44ccbe47c41bb8028a453869cc70c92a21139182",
        "md": "898d524d681d9504716a287376565e3474de69be83eb4bf8daaec16647615d5f",
    }),
    "registry": (0, {
        "text": "2e4e83d586b0f04b39addf8ac46e5fc87ff3d5de83b740999efffa53027f7a5c",
        "json": "2e4e83d586b0f04b39addf8ac46e5fc87ff3d5de83b740999efffa53027f7a5c",
        "csv": "2e4e83d586b0f04b39addf8ac46e5fc87ff3d5de83b740999efffa53027f7a5c",
        "md": "2e4e83d586b0f04b39addf8ac46e5fc87ff3d5de83b740999efffa53027f7a5c",
    }),
}


@pytest.mark.parametrize("invocation", PINNED_OUTPUT)
@pytest.mark.parametrize("fmt", ["text", "json", "csv", "md"])
def test_output_bytes_pinned(invocation, fmt, tmp_path, capsys):
    code, digests = PINNED_OUTPUT[invocation]
    digest = digests[fmt]
    argv = ["--format", fmt] + invocation.split()
    got_code, out = run_cli(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    target = tmp_path / "out.txt"
    assert run_cli(capsys, "--out", str(target), *argv) == (code, "")
    assert target.read_bytes() == out.encode()


def test_shared_parser_leaks_no_state_between_calls(tmp_path, capsys):
    # one process runs a json call, a usage error, a default-format call and
    # an --out call on one parser; each must match the same call run alone
    assert build_parser() is build_parser()
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    family = ["--class", "B", "--i", "5", "--j", "6"]
    calls = [
        ["--format", "json", "gcheck", *family, "--m", "3"],
        ["check", "--class", "Z", "--i", "1", "--j", "1", "--m", "2"],
        ["check", *family, "--m", "4"],
        ["--out", "{out}", "equiv", *family, "--m", "4"],
    ]
    for k, argv in enumerate(calls):
        outs = [tmp_path / f"fresh-{k}.txt", tmp_path / f"shared-{k}.txt"]
        fresh = subprocess.run(
            [sys.executable, "-m", "pentaperm.cli", *(a.format(out=outs[0]) for a in argv)],
            env=env, capture_output=True, text=True, timeout=120)
        try:
            code = main([a.format(out=outs[1]) for a in argv])
        except SystemExit as exc:
            code = exc.code
        shared = capsys.readouterr()
        assert (code, shared.out, shared.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        written = [path.read_bytes() if path.exists() else None for path in outs]
        assert written[0] == written[1]
    assert written[0]  # the --out call wrote its report


@pytest.mark.parametrize("m_range", ["3..1", "0..2", "1..13 --brute", "3..1 --brute"])
def test_table1_bad_m_range_refused_before_sweeping(m_range, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("swept before refusing")

    monkeypatch.setattr("pentaperm.cli.oracle.brute_is_permutation", fail)
    monkeypatch.setattr("pentaperm.cli.oracle.monomials_permute", fail)
    with pytest.raises(SystemExit) as err:
        main(["table1", "--m-range", *m_range.split()])
    assert err.value.code == 2


@pytest.mark.parametrize("family", ["--class B --i 5 --j 6 --m 4",
                                    "--class A --i 3 --j 1 --m 3"])
def test_equiv_above_brute_cap_refused_before_search(family, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("searched before refusing")

    monkeypatch.setattr("pentaperm.cli.equivalence.search_monomial_cert", fail)
    monkeypatch.setattr("pentaperm.cli.equivalence.search_bivariate_cert", fail)
    with pytest.raises(SystemExit) as err:
        main(["--brute-cap", "4", "equiv", *family.split()])
    assert err.value.code == 2


def test_condition_above_modulus_ceiling_exits_2(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("residues enumerated")

    monkeypatch.setattr("pentaperm.theory.theorem_verdict", fail)
    with pytest.raises(SystemExit) as exc:
        main(["condition", "--class", "A", "--i", "12", "--j", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "modulus 2794836 exceeds the ceiling 262144" in captured.err


def test_equiv_full_pool_above_2m_6_refused_before_field_work(monkeypatch, capsys):
    # at m = 4 the monomial search would scan 256^4 coefficient tuples
    def fail(*args, **kwargs):
        raise AssertionError("field built before refusing")

    monkeypatch.setattr("pentaperm.cli.make_field", fail)
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--class", "B", "--i", "5", "--j", "6", "--m", "4", "--pool", "full"])
    assert exc.value.code == 2
    assert "full pool only supported for 2m <= 6" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, out, err", [
    ("--class A --i 2 --j 1 --m 21", 1,
     "r = 3 > 0: no bivariate decomposition exists for odd m\n", ""),
    ("--class A --i 1 --j 1 --m 21", 2, "", "error: 2m = 42 exceeds the brute cap 24\n"),
])
def test_equiv_answers_before_building_the_field(argv, code, out, err, monkeypatch, capsys):
    # GF(2^42) is past make_field's degree cap: the r > 0 record and the
    # brute-cap refusal must not wait for a field the search pool never needs
    monkeypatch.setattr("pentaperm.cli.make_field", _fail_if_called)
    try:
        got = main(["equiv", *argv.split()])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv", ["check --class B --i 5 --j 6 --m 0",
                                  "gcheck --class B --i 5 --j 6 --m 0",
                                  "equiv --class B --i 5 --j 6 --m 0",
                                  "equiv --class A --i 3 --j 1 --m -1"])
def test_nonpositive_m_refused_before_field_work(argv, monkeypatch, capsys):
    # every command with --m names m, not the field degree 2m, and builds no field
    for module in ("cli", "equivalence", "oracle"):
        monkeypatch.setattr(f"pentaperm.{module}.make_field", _fail_if_called)
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err == "error: m must be positive\n"


@pytest.mark.parametrize("argv", [
    "check --class A --i 13 --j 1 --m 2",
    "condition --class B --i 5 --j 13",
    "identities --i-max 13",
    "rvalues --j-max 13",
    "search --t-max 41 --m-set 2",
])
def test_inputs_above_their_ceilings_refused(argv, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("worked before refusing")

    for target in ("theory.theorem_verdict", "theory.m_condition", "theory.r_oracle",
                   "theory.verify_identity_derivative", "search.run_search"):
        monkeypatch.setattr(f"pentaperm.cli.{target}", fail)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err
