import ast
import json
import math
from pathlib import Path

import pytest

from sumprodlab import families
from sumprodlab.cli import main
from sumprodlab.families import (FAMILIES, generate_family,
                                 largest_subgroup_order, stream_rng)
from sumprodlab.fields import make_field
from sumprodlab.sweep import (CSV_HEADER, PRESETS, SWEEP_VERSION_LINE,
                              ResultRow, SweepConfig, exponent_fit,
                              rows_to_csv, run_sweep)


def base_config(**overrides):
    raw = {
        "fields": [[97, 1], [7, 2]],
        "family": "random",
        "sizes": [4, 8],
        "trials": 3,
        "seed": 123,
        "d_policy": "random_nonzero",
        "outputs": "",
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------- families


def test_family_list_frozen():
    assert FAMILIES == ("random", "subgroup", "shifted_subgroup",
                        "interval", "geometric")


def test_families_frozen_gf7():
    f7 = make_field(7)
    assert set(generate_family(f7, "interval", 3, 0).codes) == {1, 2, 3}
    assert set(generate_family(f7, "subgroup", 3, 0).codes) == {1, 2, 4}
    assert set(generate_family(f7, "subgroup", 4, 0).codes) == {1, 2, 4}
    assert set(generate_family(f7, "shifted_subgroup", 3, 0).codes) == {2, 3, 5}
    assert set(generate_family(f7, "geometric", 1, 0).codes) == {1}
    assert set(generate_family(f7, "geometric", 3, 0).codes) == {1, 2, 3}
    assert set(generate_family(f7, "random", 3, 42).codes) == {1, 2, 5}


def test_geometric_family_gf16():
    f16 = make_field(2, 4)  # t^4 + t + 1, generator t = 2
    g = f16.generator()
    assert g == 2
    assert generate_family(f16, "geometric", 8, 0).codes.tolist() == [1, 2, 3, 4, 6, 8, 11, 12]
    for size in range(1, 16):
        codes = generate_family(f16, "geometric", size, 0).codes
        assert codes.tolist() == sorted(f16.pow(g, k) for k in range(size))


def test_random_family_stream_determinism():
    f97 = make_field(97)
    a = generate_family(f97, "random", 10, 5, trial=2, stream=0)
    b = generate_family(f97, "random", 10, 5, trial=2, stream=0)
    assert a.codes.tolist() == b.codes.tolist()
    c = generate_family(f97, "random", 10, 5, trial=2, stream=1)
    d = generate_family(f97, "random", 10, 5, trial=3, stream=0)
    assert c.codes.tolist() != a.codes.tolist()
    assert d.codes.tolist() != a.codes.tolist()
    assert 0 not in a and len(a) == 10
    r1 = stream_rng(9, 0, 0).integers(0, 1 << 30, size=4)
    r2 = stream_rng(9, 0, 0).integers(0, 1 << 30, size=4)
    assert (r1 == r2).all()


def test_seeded_streams_and_csv_values_have_one_home_each():
    # every generator is built by families.stream_rng, and every CSV value
    # that repr writes goes through sweep._fmt
    named, calls = set(), set()
    for path in sorted(Path(families.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name's id, an Attribute's attr, an imported alias's name
            if {getattr(node, f, None) for f in ("id", "attr", "name")} & {"SeedSequence", "PCG64"}:
                named.add(path.stem)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr":
                calls.add(path.stem)
    assert named == {"families"}
    assert calls == {"sweep"}


def test_shifted_subgroup_drops_zero():
    f5 = make_field(5)
    # subgroup {1, 4} shifted by 1 hits 0 at 4 + 1
    got = generate_family(f5, "shifted_subgroup", 2, 0)
    assert set(got.codes) == {2}


def test_largest_subgroup_order():
    f7 = make_field(7)
    assert largest_subgroup_order(f7, 4) == 3
    assert largest_subgroup_order(f7, 6) == 6
    assert largest_subgroup_order(f7, 1) == 1
    with pytest.raises(ValueError):
        largest_subgroup_order(f7, 0)


def test_generate_family_validation():
    f7 = make_field(7)
    with pytest.raises(ValueError, match="unknown family"):
        generate_family(f7, "clique", 3, 0)
    with pytest.raises(ValueError, match="size"):
        generate_family(f7, "random", 0, 0)
    with pytest.raises(ValueError, match="size"):
        generate_family(f7, "random", 7, 0)
    with pytest.raises(ValueError, match="prime field"):
        generate_family(make_field(3, 2), "interval", 3, 0)
    assert set(generate_family(make_field(11), "interval", 4, 0).codes) == \
        {1, 2, 3, 4}


# ---------------------------------------------------------------- config


def test_config_roundtrip(tmp_path):
    raw = base_config()
    cfg = SweepConfig.from_dict(raw)
    assert cfg.fields == ((97, 1), (7, 2))
    assert cfg.sizes == (4, 8) and cfg.trials == 3 and cfg.seed == 123
    assert cfg.preset is None and cfg.timing is False
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert SweepConfig.from_json(path) == cfg


@pytest.mark.parametrize("mangle, message", [
    (lambda r: r.update(bogus=1), "unknown config keys"),
    (lambda r: r.pop("seed"), "missing config keys"),
    (lambda r: r.update(fields=[]), "nonempty"),
    (lambda r: r.update(fields=[[7]]), r"\[p, m\] pairs"),
    (lambda r: r.update(family="clique"), "unknown family"),
    (lambda r: r.update(sizes=[]), "sizes"),
    (lambda r: r.update(sizes=[1, 4]), "sizes"),
    (lambda r: r.update(trials=0), "trials"),
    (lambda r: r.update(seed=-1), "seed"),
    (lambda r: r.update(d_policy=0), "fixed d"),
    (lambda r: r.update(preset="b-b1"), "unknown preset"),
    (lambda r: r.update(preset="a-a1", family_b="random"), "preset fixes"),
    (lambda r: r.update(family_c="clique"), "unknown family"),
    (lambda r: r.update(timing="yes"), "boolean"),
    (lambda r: r.update(fields=[[7.9, 1]]), "fields takes integers"),
    (lambda r: r.update(fields=[["7", "1"]]), "fields takes integers"),
    (lambda r: r.update(fields=[[True, 1]]), "fields takes integers"),
    (lambda r: r.update(fields="71"), "fields must be a list"),
    (lambda r: r.update(fields=[7, 1]), "pairs, got 7"),
    (lambda r: r.update(fields=["71"]), "pairs, got '71'"),
    (lambda r: r.update(sizes="34"), "sizes must be a list"),
    (lambda r: r.update(sizes={"4": 8}), "sizes must be a list"),
    (lambda r: r.update(sizes=[4, 8.0]), "sizes takes integers"),
    (lambda r: r.update(trials=1.5), "trials takes integers"),
    (lambda r: r.update(trials="3"), "trials takes integers"),
    (lambda r: r.update(seed=True), "seed takes integers"),
    (lambda r: r.update(d_policy=1.9), "d_policy takes integers"),
    (lambda r: r.update(d_policy="random"), "d_policy takes integers"),
    (lambda r: r.update(outputs=5), "outputs must be a path string"),
    (lambda r: r.update(outputs=None), "outputs must be a path string"),
    (lambda r: r.update(outputs="no-such-directory/rows.csv"),
     "outputs 'no-such-directory/rows.csv' does not lie in an existing directory"),
])
def test_config_validation(mangle, message):
    raw = base_config()
    mangle(raw)
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_dict(raw)


@pytest.mark.parametrize("raw", [5, None, [], "fields"])
def test_config_must_be_an_object(raw, tmp_path):
    with pytest.raises(ValueError, match="JSON object"):
        SweepConfig.from_dict(raw)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        SweepConfig.from_json(path)


def test_config_file_unreadable(tmp_path):
    with pytest.raises(ValueError, match="cannot read sweep config.*missing.json"):
        SweepConfig.from_json(tmp_path / "missing.json")
    with pytest.raises(ValueError, match="cannot read sweep config"):
        SweepConfig.from_json(tmp_path)


def test_presets_frozen():
    assert PRESETS == ("a-a1",)
    assert SWEEP_VERSION_LINE == "# sumprod-lab v1"
    assert CSV_HEADER[:4] == ("p", "m", "q", "family")
    assert CSV_HEADER[-1] == "runtime_ms"


# ---------------------------------------------------------------- sweeps


def test_sweep_byte_identity_across_threads():
    cfg = SweepConfig.from_dict(base_config())
    rows1 = run_sweep(cfg, threads=1)
    rows3 = run_sweep(cfg, threads=3)
    assert rows_to_csv(rows1) == rows_to_csv(rows3)
    assert rows_to_csv(run_sweep(cfg, threads=1)) == rows_to_csv(rows1)
    assert len(rows1) == 2 * 2 * 3
    assert [r.sort_key() for r in rows1] == sorted(r.sort_key() for r in rows1)


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = SweepConfig.from_dict(base_config(
        fields=[[13, 1]], sizes=[4], trials=2, outputs=str(out)))
    rows = run_sweep(cfg)
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == SWEEP_VERSION_LINE
    assert lines[1] == ",".join(CSV_HEADER)
    assert len(lines) == 2 + len(rows)
    first = lines[2].split(",")
    assert first[0] == "13" and first[1] == "1" and first[2] == "13"
    assert first[13] in ("true", "false")
    assert first[14] == "0.0"  # timing off keeps the column constant
    assert text.endswith("\n")


def test_sweep_preset_and_fixed_d():
    cfg = SweepConfig.from_dict(base_config(
        fields=[[13, 1]], family="subgroup", sizes=[4], trials=1,
        preset="a-a1"))
    row = run_sweep(cfg)[0]
    assert row.d == 1 and row.family == "subgroup" and row.size == 4
    # order-4 subgroup of GF(13) contains -1, so the preset strips it
    n = 3
    assert math.isclose(row.measured_exponent,
                        math.log(row.maxKL * n) / math.log(n))
    assert row.hypothesis_ok is True  # 3^2 <= 13

    fixed = SweepConfig.from_dict(base_config(
        fields=[[13, 1]], family="subgroup", sizes=[4], trials=1, d_policy=1))
    frow = run_sweep(fixed)[0]
    assert frow.d == 1
    assert frow.K >= 1.0 and frow.L >= 1.0
    assert frow.maxKL == max(frow.K, frow.L)


def test_sweep_random_d_avoids_minus_a():
    cfg = SweepConfig.from_dict(base_config(
        fields=[[7, 1]], sizes=[5], trials=1, seed=0))
    row = run_sweep(cfg)[0]
    ctx = make_field(7)
    A = generate_family(ctx, "random", 5, 0, 0, 0)
    assert ctx.neg(row.d) not in A


def test_sweep_random_d_exhaustion():
    cfg = SweepConfig.from_dict(base_config(fields=[[7, 1]], sizes=[6],
                                            trials=1))
    with pytest.raises(ValueError, match="no shift d"):
        run_sweep(cfg)


@pytest.mark.parametrize("overrides, cell", [
    # {1, -1} + 1 = {2, 0} in GF(10007), as q - 1 = 2 * 5003; 0 is dropped
    (dict(fields=[[2, 12], [13, 3], [10007, 1]], family="shifted_subgroup",
          sizes=[10, 30], trials=1, seed=7), "GF(10007), family 'shifted_subgroup', size 10"),
    # q - 1 = 31 is prime, so the largest subgroup of order <= 2 is {1}
    (dict(fields=[[2, 5]], family="subgroup", sizes=[2, 3], trials=1),
     "GF(2^5), family 'subgroup', size 2"),
])
def test_sweep_names_a_too_small_cell(overrides, cell, tmp_path, capsys):
    # the error names the first cell that fails and keeps its reason; the
    # sweep writes no CSV, because one with missing rows would not be the sweep's
    out = tmp_path / "rows.csv"
    raw = base_config(outputs=str(out), **overrides)
    message = f"sweep cell {cell}, trial 0: need at least two elements per set"
    for threads in (1, 2):
        with pytest.raises(ValueError) as err:
            run_sweep(SweepConfig.from_dict(raw), threads=threads)
        assert str(err.value) == message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_outputs_must_be_writable(tmp_path):
    # a path under a file is rejected with the config; one that turns out
    # unwritable only when the CSV is written raises ValueError there
    (tmp_path / "afile").write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="does not lie in an existing directory"):
        SweepConfig.from_dict(base_config(outputs=str(tmp_path / "afile" / "rows.csv")))
    (tmp_path / "adir").mkdir()
    cfg = SweepConfig.from_dict(base_config(fields=[[13, 1]], sizes=[4], trials=1,
                                            outputs=str(tmp_path / "adir")))
    with pytest.raises(ValueError, match="cannot write sweep outputs .*adir"):
        run_sweep(cfg)
    assert SweepConfig.from_dict(base_config(outputs="rows.csv")).outputs == "rows.csv"


def test_run_sweep_thread_validation():
    cfg = SweepConfig.from_dict(base_config(fields=[[13, 1]], sizes=[4],
                                            trials=1))
    with pytest.raises(ValueError):
        run_sweep(cfg, threads=0)


def test_exponent_fit():
    def row(size, maxkl):
        return ResultRow(7, 1, 7, "geometric", size, 0, 0, 1, maxkl, 1.0,
                         maxkl, 0.0, 0.0, True, 0.0)

    slope, intercept = exponent_fit([row(4, 4.0), row(8, 8.0)])
    assert math.isclose(slope, 2.0)
    assert math.isclose(intercept, 0.0, abs_tol=1e-12)
    with pytest.raises(ValueError, match="two distinct sizes"):
        exponent_fit([row(4, 4.0), row(4, 4.0)])
