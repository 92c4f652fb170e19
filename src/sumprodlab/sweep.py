"""Reproducible growth sweeps over set families, written as versioned CSV.

Determinism contract: a sweep's CSV is byte-identical across runs and thread
counts.  Randomness is keyed per (seed, trial, stream) so no row depends on
execution order; rows are sorted before writing; floats are serialized with
repr (shortest round-trip form); runtime_ms stays 0.0 unless timing is
explicitly enabled, because wall-clock times would break byte-identity.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import growth_chain_report
from .families import FAMILIES, draw_shift, generate_family, stream_rng
from .fields import _index, make_field
from .oracle import OracleBudget, product_set_brute
from .sets import ESet, shift

SWEEP_VERSION_LINE = "# sumprod-lab v1"

CSV_HEADER = ("p", "m", "q", "family", "size", "trial", "seed", "d", "K", "L",
              "maxKL", "measured_exponent", "ratio_K14L12", "hypothesis_ok",
              "runtime_ms")

PRESETS = ("a-a1",)

# stream indices under one (seed, trial); see families.stream_rng
_STREAM_A, _STREAM_D, _STREAM_B, _STREAM_C = 0, 1, 2, 3

_REQUIRED_KEYS = {"fields", "family", "sizes", "trials", "seed", "d_policy", "outputs"}
_OPTIONAL_KEYS = {"preset", "family_b", "family_c", "timing"}

_AUDIT_BUDGET = OracleBudget(max_quadruples=10 ** 8, max_q=2 ** 31)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; every knob that affects rows lives here."""

    fields: tuple
    family: str
    sizes: tuple
    trials: int
    seed: int
    d_policy: object  # "random_nonzero" or a fixed positive element code
    outputs: str
    preset: str | None = None
    family_b: str | None = None
    family_c: str | None = None
    timing: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """Validate raw, a JSON object; every malformed value raises ValueError naming its key."""
        if not isinstance(raw, dict):
            raise ValueError(f"a sweep config is a JSON object, got {raw!r}")
        keys = set(raw)
        unknown = sorted(keys - _REQUIRED_KEYS - _OPTIONAL_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = sorted(_REQUIRED_KEYS - keys)
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        fields = []
        for entry in _list(raw, "fields"):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"field entries are [p, m] pairs, got {entry!r}")
            fields.append(tuple(_integer("fields", v) for v in entry))
        if not fields:
            raise ValueError("fields must be nonempty")
        family = raw["family"]
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        sizes = tuple(_integer("sizes", s) for s in _list(raw, "sizes"))
        if not sizes or any(s < 2 for s in sizes):
            raise ValueError("sizes must be a nonempty list of integers >= 2")
        trials = _integer("trials", raw["trials"])
        if trials < 1:
            raise ValueError("trials must be >= 1")
        seed = _integer("seed", raw["seed"])
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        d_policy = raw["d_policy"]
        if d_policy != "random_nonzero":
            d_policy = _integer("d_policy", d_policy)
            if d_policy < 1:
                raise ValueError("a fixed d must be a positive element code")
        outputs = raw["outputs"]
        if not isinstance(outputs, str):
            raise ValueError(f"outputs must be a path string, got {outputs!r}")
        if outputs and not Path(outputs).parent.is_dir():
            raise ValueError(f"outputs {outputs!r} does not lie in an existing directory")
        preset = raw.get("preset")
        if preset is not None and preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
        family_b = raw.get("family_b")
        family_c = raw.get("family_c")
        for fam in (family_b, family_c):
            if fam is not None and fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r}; expected one of {FAMILIES}")
        if preset is not None and (family_b is not None or family_c is not None):
            raise ValueError("a preset fixes B and C; family_b/family_c must be omitted")
        timing = raw.get("timing", False)
        if not isinstance(timing, bool):
            raise ValueError("timing must be a boolean")
        return cls(tuple(fields), family, sizes, trials, seed, d_policy,
                   outputs, preset, family_b, family_c, timing)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read sweep config {str(path)!r}: {exc.strerror or exc}") from exc
        return cls.from_dict(raw)


def _integer(key, value) -> int:
    """value as an int; bools, floats and strings raise ValueError naming key."""
    v = _index(value)
    if v is None:
        raise ValueError(f"{key} takes integers, got {value!r}")
    return v


def _list(raw, key) -> list:
    """raw[key], which must be a list."""
    value = raw[key]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell; attribute names match CSV_HEADER exactly."""

    p: int
    m: int
    q: int
    family: str
    size: int
    trial: int
    seed: int
    d: int
    K: float
    L: float
    maxKL: float
    measured_exponent: float
    ratio_K14L12: float
    hypothesis_ok: bool
    runtime_ms: float

    def sort_key(self):
        return (self.p, self.m, self.size, self.trial)

    def csv_line(self) -> str:
        return ",".join(_fmt(getattr(self, col)) for col in CSV_HEADER)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _strip(ctx, A: ESet, d) -> ESet:
    # drop -d so that 0 never lands in A + d
    negd = ctx.neg(d)
    if negd in A:
        A = ESet(ctx, A.codes[A.codes != negd])
    return A


def _build_instance(cfg: SweepConfig, ctx, size, trial):
    """A, B, C and the shift d for one cell, fully determined by the config."""
    A = generate_family(ctx, cfg.family, size, cfg.seed, trial, _STREAM_A)
    if cfg.preset == "a-a1":
        d = 1
        A = _strip(ctx, A, d)
        return A, shift(A, d), A, d
    if cfg.d_policy == "random_nonzero":
        d = draw_shift(ctx, A, stream_rng(cfg.seed, trial, _STREAM_D), 10000)
        if d is None:
            raise ValueError("no shift d with -d outside A; the family nearly fills the field")
    else:
        d = ctx.check(cfg.d_policy)
        A = _strip(ctx, A, d)
    B = A if cfg.family_b is None else generate_family(ctx, cfg.family_b, len(A),
                                                       cfg.seed, trial, _STREAM_B)
    C = A if cfg.family_c is None else generate_family(ctx, cfg.family_c, len(A),
                                                       cfg.seed, trial, _STREAM_C)
    return A, B, C, d


def _compute_row(cfg: SweepConfig, p, m, size, trial) -> ResultRow:
    t0 = time.perf_counter()
    ctx = make_field(p, m)
    try:
        A, B, C, d = _build_instance(cfg, ctx, size, trial)
        rep = growth_chain_report(A, B, C, d)
    except ValueError as exc:
        raise ValueError(f"sweep cell {ctx!r}, family {cfg.family!r}, size {size}, "
                         f"trial {trial}: {exc}") from exc
    n = len(A)
    maxkl = float(max(rep.K, rep.L))
    exponent = math.log(max(rep.ab_size, rep.shifted_product_size)) / math.log(n)
    ms = (time.perf_counter() - t0) * 1000.0 if cfg.timing else 0.0
    return ResultRow(p, m, ctx.q, cfg.family, size, trial, cfg.seed, d,
                     float(rep.K), float(rep.L), maxkl, exponent,
                     rep.ratio_k14_l12, n * n <= ctx.q, ms)


def _audit(cfg: SweepConfig, rows) -> None:
    """Recompute K and L for about 1% of rows with the loop oracle."""
    if not rows:
        return
    rng = stream_rng(cfg.seed, 0xAD17)
    k = min(max(1, len(rows) // 100), len(rows))
    for i in rng.choice(len(rows), size=k, replace=False).tolist():
        row = rows[i]
        ctx = make_field(row.p, row.m)
        A, B, C, d = _build_instance(cfg, ctx, row.size, row.trial)
        kb = len(product_set_brute(A, B, _AUDIT_BUDGET)) / len(A)
        lb = len(product_set_brute(shift(A, d), C, _AUDIT_BUDGET)) / len(A)
        if kb != row.K or lb != row.L or d != row.d:
            raise RuntimeError(f"oracle audit mismatch on row {row}")


def run_sweep(cfg: SweepConfig, threads: int = 1):
    """All rows of the sweep, sorted, audited, and written to cfg.outputs.

    With threads > 1 the cells are computed on a thread pool; the output is
    byte-identical either way.  A cell that cannot be built or reported
    raises ValueError naming its field, family, size and trial, and nothing
    is written: a CSV with missing rows would not be the sweep's.  A CSV
    that cannot be written raises ValueError too.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    cells = [(p, m, size, trial)
             for p, m in cfg.fields
             for size in cfg.sizes
             for trial in range(cfg.trials)]
    if threads == 1:
        rows = [_compute_row(cfg, *cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda cell: _compute_row(cfg, *cell), cells))
    rows.sort(key=ResultRow.sort_key)
    _audit(cfg, rows)
    if cfg.outputs:
        try:
            Path(cfg.outputs).write_text(rows_to_csv(rows), encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write sweep outputs {cfg.outputs!r}: "
                             f"{exc.strerror or exc}") from exc
    return rows


def rows_to_csv(rows) -> str:
    lines = [SWEEP_VERSION_LINE, ",".join(CSV_HEADER)]
    lines.extend(r.csv_line() for r in rows)
    return "\n".join(lines) + "\n"


def exponent_fit(rows) -> tuple[float, float]:
    """Least-squares slope of log max(|AB|, |(A+d)C|) against log size.

    Needs rows spanning at least two distinct sizes.  maxKL * size recovers
    the larger product-set size up to the stripped-element correction, which
    is exactly what the sweep tabulates.
    """
    sizes = {r.size for r in rows}
    if len(sizes) < 2:
        raise ValueError("exponent fit needs at least two distinct sizes")
    x = np.log([r.size for r in rows])
    y = np.log([r.maxKL * r.size for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)
