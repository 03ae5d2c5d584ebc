"""CLI surface tests: commands, formats, exit codes, config precedence."""

import json

import pytest

from pentaperm.cli import main


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


def test_gcheck_rejects_large_m():
    with pytest.raises(SystemExit) as err:
        main(["gcheck", "--class", "A", "--i", "1", "--j", "1", "--m", "9"])
    assert err.value.code == 2


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
