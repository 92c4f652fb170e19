import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sumprodlab.cli import CONDITION_CSV_HEADER, main
from sumprodlab.gauss import GAUSS_CSV_HEADER
from sumprodlab.sweep import CSV_HEADER, SWEEP_VERSION_LINE


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_field_info_json(capsys):
    code, out, _ = run(capsys, "field", "info", "--p", "3", "--m", "2", "--json")
    assert code == 0
    info = json.loads(out)
    assert info == {"p": 3, "m": 2, "q": 9, "modulus": [1, 0, 1],
                    "generator": 4}


def test_field_info_text(capsys):
    code, out, _ = run(capsys, "field", "info", "--p", "7")
    assert code == 0
    assert "q = 7" in out
    assert "[0, 1]" in out  # the prime-field modulus is x
    assert "generator: 3" in out


def test_prodset(capsys):
    code, out, _ = run(capsys, "prodset", "--p", "7",
                       "--a", "1,2,4", "--b", "1,3")
    assert code == 0
    assert "|A*B| = 6" in out
    assert "1,2,3,4,5,6" in out
    code, out, _ = run(capsys, "prodset", "--p", "7",
                       "--a", "1,2,4", "--b", "1,3", "--json")
    assert json.loads(out) == {"size": 6, "codes": [1, 2, 3, 4, 5, 6]}


def test_energy(capsys):
    code, out, _ = run(capsys, "energy", "--p", "7", "--a", "1,2,4",
                       "--kind", "mult")
    assert code == 0
    assert "multiplicative energy = 27 (support 3)" in out
    code, out, _ = run(capsys, "energy", "--p", "5", "--a", "0,1", "--json")
    assert json.loads(out) == {"kind": "additive", "value": 6, "support": 3}
    code, out, _ = run(capsys, "energy", "--p", "7", "--a", "1,2",
                       "--b", "3", "--kind", "add")
    assert "energy = 2" in out


def test_subgroup_text_and_conditions(capsys):
    code, out, _ = run(capsys, "subgroup", "--p", "7", "--order", "3")
    assert code == 0
    assert "subgroup of order 3 generated by 2" in out
    assert "1,2,4" in out

    code, out, _ = run(capsys, "subgroup", "--p", "2", "--m", "4",
                       "--nth", "5", "--check-conditions")
    assert code == 0
    lines = out.strip().splitlines()
    assert "arises as 5-th powers" in out
    assert ",".join(CONDITION_CSV_HEADER) in lines
    idx = lines.index(",".join(CONDITION_CSV_HEADER))
    rows = [ln.split(",") for ln in lines[idx + 1:]]
    assert [r[4] for r in rows] == ["1", "2"]  # nu column
    assert rows[0][:4] == ["16", "2", "4", "5"]
    assert rows[0][8] == "true" and rows[1][8] == "false"


def test_subgroup_json_overlap(capsys):
    code, out, _ = run(capsys, "subgroup", "--p", "2", "--m", "4",
                       "--order", "3", "--check-conditions", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3 and payload["n"] is None
    assert sorted(payload["codes"]) == [1, 6, 7]
    assert [c["nu"] for c in payload["conditions"]] == [1, 2]
    assert payload["conditions"][1]["lhs"] == 3.0


def test_gauss_csv_and_json(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "5", "--n", "2", "--a", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(GAUSS_CSV_HEADER)
    cells = lines[1].split(",")
    assert cells[0] == "5" and cells[3] == "2"
    assert abs(float(cells[7]) - 5 ** 0.5) < 1e-9

    code, out, _ = run(capsys, "gauss", "--p", "5", "--n", "1", "--a", "2",
                       "--json")
    payload = json.loads(out)
    assert abs(payload["re"]) < 1e-9 and abs(payload["im"]) < 1e-9


# SHA-256 of the printed JSON, recorded before the power tables were built
# on distinct codes; the floats must not move by one bit
GAUSS_JSON_SHA256 = {
    ("--p", "3", "--m", "8", "--n", "160", "--a", "6560"):
        "88d25e3219ddb12ce40b45c657c3f308a8cfe5e10e1ab12cd15067beb5b9870d",
    ("--p", "8191", "--n", "45", "--a", "1"):
        "f19b9eac39479138549e631595e9f2b3f41dfc1513dd027422b8115b76cf63ce",
}


@pytest.mark.parametrize("args", list(GAUSS_JSON_SHA256))
def test_gauss_json_bytes_pinned(capsys, args):
    code, out, _ = run(capsys, "gauss", *args, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GAUSS_JSON_SHA256[args]


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--p", "7", "--g-order", "3",
                       "--h-order", "3", "--d", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["exponent"] == 26 / 27
    code, out, _ = run(capsys, "count", "--p", "7", "--g-order", "3",
                       "--h-order", "3", "--d", "1")
    assert "solutions of g - h = 1: 1" in out


def test_sweep_cli(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    cfg = {"fields": [[13, 1]], "family": "geometric", "sizes": [3, 6],
           "trials": 1, "seed": 7, "d_policy": 1, "outputs": str(out_csv)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0
    assert f"2 rows -> {out_csv}" in out
    assert "growth exponent fit: slope = " in out
    text = out_csv.read_text(encoding="utf-8")
    assert text.startswith(SWEEP_VERSION_LINE + "\n" + ",".join(CSV_HEADER))
    assert len(text.strip().splitlines()) == 4

    code, out, _ = run(capsys, "sweep", "--config", str(cfg_path),
                       "--threads", "2", "--json")
    payload = json.loads(out)
    assert payload["rows"] == 2 and "fit" in payload


def test_sweep_cli_malformed_config_exits_2(tmp_path, capsys):
    # non-objects, non-integers, strings for lists and a missing file are
    # usage errors: exit 2 with a message, no traceback and no rows
    good = {"fields": [[13, 1]], "family": "geometric", "sizes": [3, 6],
            "trials": 1, "seed": 7, "d_policy": 1, "outputs": ""}
    cases = [(5, "JSON object"), (None, "JSON object"),
             (dict(good, sizes="34"), "sizes must be a list"),
             (dict(good, fields=[[7.9, 1]]), "fields takes integers"),
             (dict(good, trials=1.5), "trials takes integers"),
             (dict(good, seed=True), "seed takes integers"),
             (dict(good, d_policy=1.9), "d_policy takes integers")]
    cfg_path = tmp_path / "cfg.json"
    for raw, message in cases:
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2 and out == "" and err.startswith("error: ") and message in err
    code, out, err = run(capsys, "sweep", "--config", str(tmp_path / "missing.json"))
    assert code == 2 and out == "" and "cannot read sweep config" in err


def test_sweep_cli_unwritable_outputs_exits_2_before_any_cell(tmp_path, capsys, monkeypatch):
    from sumprodlab import sweep

    cells = []
    real = sweep._compute_row
    monkeypatch.setattr(sweep, "_compute_row", lambda *args: cells.append(args) or real(*args))
    cfg = {"fields": [[13, 1]], "family": "geometric", "sizes": [3, 6],
           "trials": 1, "seed": 7, "d_policy": 1,
           "outputs": str(tmp_path / "missing" / "rows.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2 and out == "" and cells == []
    assert err.startswith("error: outputs ") and "does not lie in an existing directory" in err
    # a directory as outputs passes the config, and its write fails as a usage error too
    (tmp_path / "adir").mkdir()
    cfg_path.write_text(json.dumps(dict(cfg, outputs=str(tmp_path / "adir"))), encoding="utf-8")
    code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2 and out == "" and len(cells) == 2
    assert err.startswith("error: cannot write sweep outputs ")


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "gauss", "--max-q", "128")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "3/3 checks passed"
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    assert any("gauss_sweep" in ln and "bound_checks=" in ln for ln in lines)


def test_module_entry_point_from_checkout():
    # python -m sumprodlab runs without an install, with src/ on PYTHONPATH
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "sumprodlab", "verify", "all", "--max-q", "64"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "20/20 checks passed"


def test_verify_cli_failure_exit_code(capsys, monkeypatch):
    from sumprodlab import verify

    def boom(max_q):
        raise RuntimeError("forced failure")

    monkeypatch.setitem(verify.SUITES, "gauss", (("boom", boom),))
    code, out, _ = run(capsys, "verify", "gauss")
    assert code == 1
    assert "FAIL boom" in out
    assert "0/1 checks passed" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "field", "info", "--p", "6")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "field", "info", "--p", "3", "--m", "100000000")
    assert code == 2 and "exceeds" in err
    code, _, err = run(capsys, "gauss", "--p", "7", "--n", "4", "--a", "1")
    assert code == 2 and "divide" in err
    code, _, err = run(capsys, "subgroup", "--p", "7", "--order", "4")
    assert code == 2
    code, _, err = run(capsys, "count", "--p", "7", "--g-order", "3",
                       "--h-order", "3", "--d", "0")
    assert code == 2 and "nonzero" in err
    code, _, err = run(capsys, "verify", "all", "--max-q", "32")
    assert code == 2 and "max_q" in err


def test_bad_subcommand_exits_parser(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main(["subgroup", "--p", "7"])  # neither --order nor --nth
