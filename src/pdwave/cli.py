"""Scenario runner: drives every module from a config file, emits data + report.

Usage: pdwave --scenario NAME [--config PATH] [--out DIR] [--seed N]
              [--format csv|json] [--check]

Config files are flat INI text with one section per scenario and
``key = value`` entries.  Every section also takes the keys ``seed``,
``format`` and ``output``, which ``--seed``, ``--format`` and ``--out``
override.  Every run writes the scenario's data files plus a
``report.json`` listing each invariant check with its residual and
pass/fail.  Exit codes: 0 success, 1 a value outside its key's domain or
rejected by the runner or library, 2 numerical non-convergence, overflow,
non-finite output or I/O failure, 3 a check failed in ``--check`` mode.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import shutil
import sys
import tempfile
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import Branch, ConvergenceError, _both, make_free_state

__all__ = ["run_scenario", "emit_output", "main"]


class ConfigError(ValueError):
    """Malformed configuration (unknown key, bad value)."""


# A config key's domain is a (description, test) pair.  A tuple value must be
# non-empty, with every element passing the test.
_FINITE = "finite", math.isfinite
_POSITIVE = "finite and positive", lambda x: 0.0 < x < math.inf
_NONNEGATIVE = "finite and nonnegative", lambda x: 0.0 <= x < math.inf
_TEXT = "text", lambda s: True


def _within(values: range | tuple) -> tuple:
    text = (f"an integer from {values[0]} to {values[-1]}" if isinstance(values, range)
            else "one of " + ", ".join(values))
    return text, values.__contains__


# ---------------------------------------------------------------------------
# Output helpers


# A record is its cells between fixed byte strings.  For a block of cells, each
# kind of cell makes one or more slots: word-major cells (row i of a (words,
# cells) array holds word i of every cell), a code per cell, and a table whose
# column for a code holds the bytes of the slot to keep, as words of booleans.
# A block of records stacks its slots word by word; one transpose and one
# boolean mask give its bytes.  Words are little-endian.
_CELLS_PER_BLOCK = 2**14  # keeps every temporary in cache
_EXACT_BELOW = 2.0**52 / 1e12  # below it ulp(p) <= 1/2, so a tie shows as p - rint(p) = ±1/2
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
_GROUP_SCALES = 10.0 ** np.arange(12, -1, -4)[:, None]  # 1e12, 1e8, 1e4, 1


def _tables() -> tuple:
    """The words "0000" ... "9999"; and per sign and integer part 0..9999 the two
    words that start its ``%.12f`` cell, such as ``"    -42."``, with that cell's length."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(48)
    i = np.arange(10_000)
    n_int = 1 + (i >= 10) + (i >= 100) + (i >= 1000)
    heads = np.zeros((2, 10_000, 8), np.uint8)
    heads[:, :, 3:7], heads[:, :, 7] = digits, ord(".")
    heads[1, i, 6 - n_int] = ord("-")
    return (np.ascontiguousarray(digits).view(np.uint32).ravel(),
            heads.view(np.uint32).reshape(-1, 2).T.copy(),
            (13 + n_int + np.array([[0], [1]])).ravel())


_DIGITS, _HEADS, _HEAD_LENS = _tables()


def _text_cells(text: list, words: int = 1) -> tuple:
    """Cells of the byte strings ``text``, at least ``words`` words each, and their lengths."""
    lens = np.array([len(t) for t in text], np.intp)
    words = max(words, (int(lens.max(initial=0)) + 4) // 4)
    cells = np.array([t.rjust(4 * words) for t in text], f"S{4 * words}").view(np.uint32)
    return cells.reshape(-1, words).T, lens


def _patch(cells: np.ndarray, lens: np.ndarray, rows: np.ndarray, text: list) -> np.ndarray:
    """``cells`` with the byte strings ``text`` as its cells ``rows``, their lengths in ``lens``."""
    if not text:
        return cells
    more, lens[rows] = _text_cells(text, len(cells))
    cells = np.concatenate([np.empty((len(more) - len(cells), len(lens)), np.uint32), cells])
    cells[:, rows] = more
    return cells


def _float_cells(x: np.ndarray) -> tuple:
    """Cells of ``%.12f``, or ``%.12e`` where 0 < |x| < 1e-12 or |x| >= 1e16, and their lengths.

    For |x| < 2**52/1e12 the cell holds N = round-half-even(|x|*1e12), computed
    exactly: Dekker's product splits |x|*1e12 into p + e, and rint(p) moves by one
    where p is a tie and e points past it.  Python writes the other cells.
    """
    a = np.abs(x)
    exact = (a < _EXACT_BELOW) & ((a >= 1e-12) | (a == 0.0))
    a *= exact
    p = a * 1e12
    n = np.rint(p)
    tie = (np.abs(p - n) == 0.5).nonzero()[0]
    if tie.size:
        a, p = a[tie], p[tie]
        c = a * 134217729.0  # Veltkamp splits a by 2**27 + 1, and 1e12 as 999999995904 + 4096
        hi = c - (c - a)
        lo = a - hi
        e = np.sign(hi * 999999995904.0 - p + hi * 4096.0 + lo * 999999995904.0 + lo * 4096.0)
        n[tie] += np.where((p - n[tie]) * e == 0.5, e, 0.0)
    # The integer part and three groups of four decimals; each floor is exact, as n < 2**52.
    groups = np.floor(n / _GROUP_SCALES)
    groups[1:] -= 1e4 * groups[:-1]
    groups[0] += 1e4 * np.signbit(x)  # the sign picks the head
    groups = groups.astype(np.intp)
    cells = np.concatenate([_HEADS.take(groups[0], axis=1), _DIGITS.take(groups[1:])])
    lens = _HEAD_LENS.take(groups[0])
    odd = (~exact).nonzero()[0]
    text = [(f"{v:.12e}" if v and not 1e-12 <= abs(v) < 1e16 else f"{v:.12f}").encode()
            for v in x[odd].tolist()]
    return _patch(cells, lens, odd, text), lens


def _digit_groups(u: np.ndarray, groups: int) -> np.ndarray:
    """The last ``groups`` groups of four decimal digits of ``u``, most significant first.

    numpy divides by a constant fast, but takes a remainder, or divides by an
    array of divisors, slowly.
    """
    out = np.empty((groups, len(u)), np.int64)
    for j in range(groups - 1, 0, -1):
        high = u // 10_000
        out[j], u = u - high * 10_000, high
    out[0] = u
    return out


def _int_cells(x: np.ndarray) -> tuple:
    """Cells of integers and their lengths; Python writes those below 0 or from 2**63 up."""
    u = x.astype(np.uint64)
    cells = _DIGITS.take(_digit_groups(u, 5))
    lens = 1 + np.searchsorted(_POWERS_OF_TEN, u, side="right")
    odd = (u >= 2**63).nonzero()[0]  # as uint64, a negative int64 is at least 2**63
    return _patch(cells, lens, odd, [b"%d" % v for v in x[odd].tolist()]), lens


@functools.cache
def _repr_tables() -> tuple:
    """The tables of ``_repr_cells``, made on its first call.

    Schubfach's g for k in [-324, 292]: 10**-k scaled into [2**125, 2**126), plus
    one, floored, as the 32-bit limbs of its 63-bit halves g1 and g0; the cells of
    the exponents e-324 ... e+308 and of none; in column p + 25*neg the words that
    move the bytes before p - 1 one byte left, put '.' at p - 1 (and '-' before
    the first digit), and keep the bytes from p on; in column 25a + b the window
    [a, b) of 24 bytes; and the trailing zeros of 0..9999, where 0 counts 4.
    """
    limbs = []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        if k <= 0:  # 10**-k = p, and floor(log2(p)) = p.bit_length() - 1
            g = p << 126 - p.bit_length() if p.bit_length() <= 126 else p >> p.bit_length() - 126
        else:  # 10**-k = 1/p, and floor(log2(1/p)) = -p.bit_length()
            g = (1 << 125 + p.bit_length()) // p
        g += 1
        limbs.append([g >> 95, g >> 63 & 0xFFFFFFFF, g >> 32 & 0x7FFFFFFF, g & 0xFFFFFFFF])
    at = np.arange(24)
    p, neg = np.arange(50)[:, None] % 25, np.arange(50)[:, None] >= 25
    minus = (at == np.where(p >= 8, 5, p - 3)) & neg
    words = lambda m: np.ascontiguousarray(m, np.uint8).view(np.uint32).T.copy()
    i = np.arange(10_000)
    return (np.array(limbs, np.uint64).T.copy(),
            _text_cells([b"e%+03d" % e for e in range(-324, 309)] + [b""]),
            [words(((at < p - 1) & ~minus) * 255), words((at == p - 1) * ord(".") + minus * ord("-")),
             words((at >= p) * 255)],
            ((at >= i[:25, None, None]) & (at < i[None, :25, None])).reshape(625, 24).view(np.uint32).T.copy(),
            np.sum([i % 10**j == 0 for j in (1, 2, 3, 4)], axis=0))


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's g * cp / 2**127 rounded to odd, from 32-bit limbs as Java's DoubleToDecimal does."""
    g1h, g1l, g0h, g0l = g
    c1, c0 = cp >> 32, cp & 0xFFFFFFFF
    lo = g0l * c0
    x1 = g0h * c1 + ((g0h * c0 + g0l * c1 + (lo >> 32)) >> 32)  # the high word of g0 * cp
    lo = g1l * c0
    mid = g1h * c0 + g1l * c1 + (lo >> 32)
    z = (((mid << 32) | (lo & 0xFFFFFFFF)) >> 1) + x1  # every product fits: no wrap but the shifts
    return (g1h * c1 + (mid >> 32) + (z >> 63)) | (z << 1 != 0)


def _shortest_digits(bits: np.ndarray, e2: np.ndarray) -> tuple:
    """Digits d and exponents k with d * 10**k the shortest decimal that rounds to each normal
    double, the nearest one if there are two (Giulietti's Schubfach).  d has 16 or 17 digits."""
    frac = bits & 2**52 - 1
    c = frac | 2**52
    q = e2.astype(np.int64) - 1075
    irregular = (frac == 0) & (e2 > 1)  # a power of two has its lower neighbour twice as close
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2**q)), or of 3/4 of it
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)  # 2 + q + floor(log2(10**-k))
    g = _repr_tables()[0].take(k + 324, axis=1)
    cb, odd = c << 2, c & 1
    vb = _rop(g, cb << h)
    lower = _rop(g, (cb - 2 + irregular) << h) + odd  # an odd c rounds its interval's ends away
    upper = _rop(g, (cb + 2) << h) - odd
    s = vb >> 2
    sp = s // 10 * 10
    wp = (sp << 2) + 40 <= upper
    win = (s << 2) + 4 <= upper
    rest = vb & 3
    up = win & ((lower > s << 2) | (rest > 2) | ((rest == 2) & (s & 1).astype(bool)))
    digits = s + up
    digits += ((lower <= sp << 2) != wp) * (sp + np.uint64(10) * wp - digits)  # one digit fewer fits
    return digits, k


def _repr_cells(x: np.ndarray) -> list:
    """The slots of ``float.__repr__`` cells: the digits, and where needed the exponents.

    repr writes ddd.ddd or 0.000ddd for 1e-4 <= |x| < 1e16, with a digit after the
    point, and d.ddde-XX elsewhere.  The shortest digits, zero-filled to 17, are
    word lookups after seven pad zeros: the dot goes in by moving the bytes before
    its place one byte left, onto the pads, and the pad before the first digit
    turns '-'.  A window of these 24 bytes is the cell up to its exponent.  Python
    writes the subnormal cells, into the exponent slot.
    """
    bits = x.view(np.uint64)
    _, (exp_cells, exp_lens), (moved, put, kept), windows, zeros = _repr_tables()
    e2 = bits >> 52 & 0x7FF
    digits, k = _shortest_digits(bits, e2)
    longer = digits >= 10**16
    digits += 9 * digits * ~longer
    point = k + 16 + longer  # the value is 0.ddd... * 10**point
    zero = (bits << 1 == 0).nonzero()[0]
    digits[zero], point[zero] = 0, 1
    groups = _digit_groups(digits, 6)  # "0000" first
    z = _DIGITS.take(groups)
    trailing = zeros.take(groups[5])
    for j in range(4, 0, -1):
        trailing += (trailing == 20 - 4 * j) * zeros.take(groups[j])
    sci = (point < -3) | (point > 16)
    e = point + sci * (1 - point)  # digits before the dot
    p = 7 + e
    neg = (bits >> 63).astype(np.intp)
    row = p + 25 * neg
    shifted = z >> 8
    shifted[:5] |= z[1:] << 24
    cells = (shifted & moved.take(row, axis=1)) | (z & kept.take(row, axis=1)) | put.take(row, axis=1)
    sig = 17 - trailing
    dot = ~sci | (sig > 1)
    codes = (p - 1 - np.maximum(e, 1) - neg) * 25 + p - 1 + dot * (1 + np.maximum(sig - e, 1))
    subnormal = ((e2 == 0) & (bits << 1 != 0)).nonzero()[0]
    if not (subnormal.size or sci.any()):
        return [(cells, codes, windows)]
    at = np.where(sci, point + 323, 633)  # e+XX for 10**(point - 1), or none
    exp_cells, exp_lens = exp_cells.take(at, axis=1), exp_lens.take(at)
    codes[subnormal] = 0
    text = [float.__repr__(v).encode() for v in x[subnormal].tolist()]
    return [(cells, codes, windows), _right(_patch(exp_cells, exp_lens, subnormal, text), exp_lens)]


def _right(cells: np.ndarray, lens: np.ndarray) -> tuple:
    """The slot of right-aligned cells: length l keeps the last l bytes."""
    return cells, lens, _slot_masks(4 * len(cells))


@functools.cache
def _slot_masks(size: int) -> np.ndarray:
    """Column l: the last l of ``size`` bytes, as uint32 words of booleans."""
    at = np.arange(size)
    return (at >= size - np.arange(size + 1)[:, None]).view(np.uint32).T.copy()


def _slots(fmt: str, kind: str, values) -> list:
    """The slots of a block of cells: "f" floats, "i" or "u" integers, "" anything else."""
    if kind == "f":
        return _repr_cells(values) if fmt == "json" else [_right(*_float_cells(values))]
    if kind:
        return [_right(*_int_cells(values))]
    text = json.dumps if fmt == "json" else str
    return [_right(*_text_cells([text(v).encode() for v in values]))]


def _records(columns: list, n: int, seps: list, fmt: str):
    """The bytes of ``n`` records, block by block: seps[0], a cell of columns[0], seps[1],
    ..., a cell of the last column, seps[-1].

    In a block, each kind of column has its cells made by one call, a broadcast
    column's from its one value.  A one-byte separator takes the first byte of
    the cell after it, which every cell leaves spare; a longer one is a cell.
    """
    fixed = {sep: _right(*_text_cells([sep])) for sep in seps if len(sep) > 1}
    kinds = {}
    for j, a in enumerate(columns):
        kinds.setdefault(a.dtype.kind if a.dtype.kind in "fiu" else "", []).append(j)
    step = max(1, _CELLS_PER_BLOCK // max(len(columns), 1))
    for start in range(0, n if columns else 0, step):
        made = [[] for _ in columns]
        for kind, js in kinds.items():
            parts = [columns[j][:1] if columns[j].strides == (0,)
                     else columns[j][start:start + step] for j in js]
            values = (np.concatenate(parts, dtype=float if kind == "f" else kind + "8") if kind
                      else [v for a in parts for v in a.tolist()])
            kind_slots, end = _slots(fmt, kind, values), 0
            for j, a in zip(js, parts):
                made[j] = [(cells[:, end:end + len(a)], codes[end:end + len(a)], masks)
                           for cells, codes, masks in kind_slots]
                end += len(a)
        slots, leads = [], []
        for sep, column in zip(seps, [*made, []]):
            if len(sep) == 1 and column:
                leads.append((len(slots), sep[0]))
            elif sep:
                slots.append(fixed[sep])
            slots += column
        at = np.cumsum([0] + [len(cells) for cells, _, _ in slots])
        buf = np.empty((at[-1], min(step, n - start)), np.uint32)
        keep = np.empty(buf.shape, np.uint32)
        for (cells, codes, masks), a, b in zip(slots, at, at[1:]):
            buf[a:b], keep[a:b] = cells, masks.take(codes, axis=1)
        for i, byte in leads:  # byte 0 of a little-endian word
            buf[at[i]] = buf[at[i]] & 0xFFFFFF00 | byte
            keep[at[i]] |= 1
        yield np.ascontiguousarray(buf.T).view(np.uint8)[np.ascontiguousarray(keep.T).view(bool)]


def emit_output(table: dict, fmt: str, path) -> Path:
    """Write a table of named columns as CSV or JSON.

    A column is an array or a list; a scalar is repeated down its column.
    CSV: UTF-8, comma separated, one header row, floats at 12 digits after
    the point, complex columns split into ``_re``/``_im`` column pairs; a
    column name or string cell holding ``,``, ``"``, CR or LF raises ValueError.
    Float cells hold the bytes of ``%.12f`` (``%.12e`` where 0 < |x| < 1e-12 or
    |x| >= 1e16): numpy makes them exactly for |x| < 2**52/1e12 ~ 4503.6, and
    Python formats the cells outside that range.
    JSON: ``{"records": [...]}``, one object per row, in the bytes of ``json.dumps(...,
    sort_keys=True, indent=1)``: sorted keys, one-space indent and ``repr`` floats
    (round-trip bit-exactly).  numpy makes the float cells: the shortest digits by
    Schubfach, in integer arithmetic only, so no byte depends on SIMD dispatch.
    Python formats the subnormal floats and the text cells.  NaN or inf raises
    FloatingPointError.
    """
    path = Path(path)
    lengths = {np.size(c) for c in table.values() if np.ndim(c)}
    if len(lengths) > 1:
        raise ValueError(f"{path.name}: columns differ in length {sorted(lengths)}")
    n = lengths.pop() if lengths else 1
    columns = {}
    for key, column in table.items():
        a = np.broadcast_to(column, (n,))
        parts = {f"{key}_re": a.real, f"{key}_im": a.imag} if a.dtype.kind == "c" else {key: a}
        for name, part in parts.items():
            if part.dtype.kind == "f" and not np.all(np.isfinite(part)):
                bad = part[~np.isfinite(part)][0]
                raise FloatingPointError(f"{path.name}: {name} = {bad} is not finite")
            columns[name] = part
    if fmt == "csv":
        for name, a in columns.items():
            text = name + ("".join(map(str, a.tolist())) if a.dtype.kind in "OU" else "")
            if not {",", '"', "\r", "\n"}.isdisjoint(text):
                raise ValueError(f"{path.name}: column {name!r} holds a comma, quote or "
                                 "line break, which CSV cannot write unquoted")
        seps = [b"\n", *[b","] * (len(columns) - 1), b""]
        rows = _records(list(columns.values()), n, seps, fmt)
        path.write_bytes(b"".join([",".join(columns).encode(), *rows, b"\n"]))
    elif fmt == "json":
        keys = sorted(columns)
        seps = [b",\n   %s: " % json.dumps(k).encode() for k in keys] + [b"\n  }"]
        seps[0] = b",\n  {" + seps[0][1:]
        rows = list(_records([columns[k] for k in keys], n, seps, fmt))
        # Every record starts with the "," that follows the one before; the first drops it.
        body = [b"[", rows[0][1:], *rows[1:], b"\n ]"] if rows else [b"[]"]
        path.write_bytes(b"".join([b'{\n "records": ', *body, b"\n}\n"]))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return path


@dataclass
class Report:
    """Accumulates named invariant checks for report.json."""

    scenario: str
    seed: int
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, value: float, tolerance: float | None = None):
        entry = {"name": name, "passed": bool(passed), "value": float(value)}
        if not math.isfinite(entry["value"]):
            raise FloatingPointError(f"report.json: {name} = {entry['value']} is not finite")
        if tolerance is not None:
            entry["tolerance"] = float(tolerance)
        self.checks.append(entry)

    def add_residual(self, name: str, residual: float, tolerance: float):
        self.add(name, abs(residual) <= tolerance, residual, tolerance)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "report.json"
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "checks": self.checks,
            "all_passed": self.all_passed,
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        path.write_text(text + "\n", "utf-8")
        return path


# ---------------------------------------------------------------------------
# Parameter parsing


def _parse_value(scenario: str, key: str, raw: str, default, domain: tuple):
    """Parse a config string as the type of the key's default, within its domain."""
    text, test = domain
    try:
        if isinstance(default, tuple):
            items = value = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        else:
            value = raw.strip() if isinstance(default, str) else type(default)(raw)
            items = (value,)
    except ValueError:
        items = ()
    if not (items and all(map(test, items))):
        raise ConfigError(f"[{scenario}] {key} = {raw.strip()}: must be {text}")
    return value


def _resolve_parameters(scenario: str, overrides: dict) -> dict:
    keys = {**_TABLE[scenario][1], **_RUN_KEYS}
    parameters = {key: default for key, (default, _) in keys.items()}
    for key, raw in overrides.items():
        if key not in keys:
            raise ConfigError(f"[{scenario}] unknown key {key!r}")
        parameters[key] = _parse_value(scenario, key, raw, *keys[key])
    return parameters


def load_config(path, scenario: str) -> dict:
    """Read the scenario's section from a flat INI config file."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys like "R" are case-sensitive
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not parser.has_section(scenario):
        return {}
    return dict(parser.items(scenario))


# ---------------------------------------------------------------------------
# Scenario implementations


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` of a 1-D float array, by the same sort, without its numpy.ma import."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])]


def _falls_strictly(values: np.ndarray) -> bool:
    """Whether ``values`` fall strictly up to a run of exact zeros at the end, where they underflowed."""
    head = values[:np.count_nonzero(values)]
    return bool(np.all(np.diff(head) < 0) and not values[head.size:].any())


def _run_free_wave(p: dict, report: Report) -> Iterator[tuple]:
    from . import freewave
    state = make_free_state(p["v"], p["R"])
    outgoing = replace(state, branch=Branch.OUTGOING)
    for idx, t in enumerate(p["times"]):
        peak = state.v * t
        if peak <= p["mp_x"]:
            branch_state, lo, hi = state, peak, peak + p["span"]
        else:
            branch_state, lo, hi = outgoing, peak - p["span"], peak
        xs = np.linspace(lo, hi, p["n"])
        if not np.all(np.diff(xs) > 0):
            raise ConfigError(f"times = {t!r} with span = {p['span']!r} and n = {p['n']}: "
                              "span/(n-1) is below the float spacing at v*t, so x repeats")
        if lo <= p["mp_x"] <= hi:
            xs = _sorted_unique(np.append(xs, p["mp_x"]))
        psi = freewave.psi_free(branch_state, xs, t)
        dens = freewave.prob_density_free(branch_state, xs, t)
        yield f"free_wave_t{idx}", {"x": xs, "t": t, "P": dens, "psi": psi}
        report.add_residual(f"peak_density_one_t{idx}", float(np.max(dens)) - 1.0, 1e-12)
        report.add(f"envelope_monotone_t{idx}", _falls_strictly(dens[::branch_state.branch.sign]),
                   float(np.max(np.abs(np.diff(dens)))))

    x_seam = state.v * 5.0  # the arrival line at t = 5, where the branches meet
    seam = freewave.psi_free(state, x_seam, 5.0) - freewave.psi_free(outgoing, x_seam, 5.0)
    report.add_residual("branch_continuity_at_seam", abs(seam), 1e-12)
    grid = freewave.Grid1D(2.0 * state.v, 4.0 * state.v, 101, 1.0)
    report.add_residual(
        "dispersion_residual_analytic", freewave.schrodinger_residual(state, grid), 1e-12
    )
    report.add_residual(
        "dispersion_residual_fd", freewave.schrodinger_residual(state, grid, method="fd"), 1e-6
    )
    normalized = freewave.normalize_state(state)
    report.add_residual(
        "normalization_closed_vs_quadrature",
        freewave.total_probability(normalized)
        - freewave.total_probability_quadrature(normalized),
        1e-8,
    )


def _make_potential_spec(p: dict) -> potential.PotentialSpec:
    from . import potential
    if p["k_table"]:
        kept = [f"{key} = {p[key]}" for key in ("profile", "x0", "x1")
                if p[key] != _TABLE["potential-wave"][1][key][0]]
        if kept:
            raise ConfigError(f"k_table {p['k_table']} supplies the grid and k, so profile, "
                              f"x0 and x1 must keep their defaults; got {', '.join(kept)}")
        try:
            return potential.load_potential_table(p["k_table"], R=p["R"], omega=p["omega"])
        except ValueError as exc:  # R's and omega's domains hold, so the table is at fault
            raise ConfigError(f"k_table {p['k_table']}: {exc}") from exc
    xs = np.linspace(p["x0"], p["x1"], p["n"])
    kx = np.ones_like(xs) if p["profile"] == "constant" else 1.0 + xs - xs[0]
    return potential.PotentialSpec(x_samples=xs, kx=kx, R=p["R"], omega=p["omega"])


def _run_potential_wave(p: dict, report: Report) -> Iterator[tuple]:
    from . import freewave, potential
    spec = _make_potential_spec(p)
    xs = np.linspace(spec.x_start, spec.x_end, p["n"])
    t = p["t"]
    tau = potential.arrival_time(spec, xs)
    inside = xs[tau >= t + 1e-9]
    if inside.size == 0:
        raise ConfigError(f"t = {t} is past the arrival time of all n = {p['n']} probes")
    psi = potential.psi_potential(spec, inside, t, x_mp=p["x_mp"])
    dens = potential.prob_density_potential(spec, inside, t, x_mp=p["x_mp"])
    yield "potential_wave", {"x": inside, "t": t, "P": dens, "psi": psi}

    report.add_residual("mp_plane_wave_residual",
                        potential.mp_limit_check(spec, p["x_mp"]), 1e-10)

    mid = 0.5 * (spec.x_start + spec.x_end)
    g = freewave.Grid1D(mid, mid + 0.2 * (spec.x_end - spec.x_start), 41,
                        0.25 * potential.arrival_time(spec, mid))
    report.add_residual("continuity_residual", potential.continuity_residual(spec, g), 1e-6)
    if p["profile"] == "constant" and not p["k_table"]:
        state = replace(make_free_state(1.0, p["R"]), omega=spec.omega)
        probe = np.linspace(mid, spec.x_end, 17)
        free_psi = freewave.psi_free(state, probe, 0.1)
        pot_psi = potential.psi_potential(spec, probe, 0.1, x_mp=spec.x_start)
        report.add_residual(
            "degeneration_matches_free_wave",
            float(np.max(np.abs(free_psi - pot_psi))),
            1e-10,
        )


def _normalized_weights(weights) -> np.ndarray:
    """Config weights scaled to sum to one."""
    return np.asarray(weights) / np.sum(weights)


def _add_born_checks(report: Report, rep: measurement.EnsembleReport) -> None:
    """One check per outcome, its frequency within 3 sigma of |a_i|^2, then the chi-square's."""
    for i, z in enumerate(rep.z_scores()):
        report.add(f"outcome_{i}_within_3_sigma", bool(abs(z) < 3.0), float(z), 3.0)
    p_value = rep.p_value()
    report.add("chi_square_p_above_0.001", p_value > 0.001, p_value, 0.001)


def _run_ensemble(p: dict, report: Report) -> Iterator[tuple]:
    from . import evolution, measurement
    waves = tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(len(p["weights"])))
    amplitudes = np.sqrt(_normalized_weights(p["weights"])).astype(complex)
    state = evolution.SuperposedState(amplitudes, waves)
    rep = measurement.run_ensemble(state, p["n_trials"], seed=p["seed"], workers=p["workers"])
    yield "ensemble", rep.table()
    _add_born_checks(report, rep)

    # Arrival order is reported, not used for probabilities.
    arrivals = {"outcome": np.arange(state.n), "arrival_time": [1.0 / w.v for w in state.waves]}
    yield "ensemble_arrivals", arrivals


def _run_decoherence(p: dict, report: Report) -> Iterator[tuple]:
    from . import evolution, spectral
    weights = _normalized_weights(p["weights"])
    if len(p["speeds"]) != weights.size:
        raise ConfigError("speeds and weights must pair up")
    if max(p["speeds"]) * max(p["t"], 1.0) > math.log(sys.float_info.max):  # R = v, t up to 1
        raise ConfigError(f"t = {p['t']!r} with speeds up to {max(p['speeds'])!r} overflows "
                          "exp(R*t): max(speeds)*max(t, 1) must be at most ln(max float) ~ 709.78")
    waves = tuple(make_free_state(v, v) for v in p["speeds"])
    state = evolution.SuperposedState(np.sqrt(weights).astype(complex), waves)

    evolved = evolution.evolve_state(state, p["t"])
    expected_norm = float(np.sum(weights * np.exp([w.R * p["t"] for w in waves])))
    report.add_residual("norm_growth_law", evolved.norm_sq - expected_norm, 1e-10)

    mixed = evolution.reduce_to_mixture(state)
    mix_purity = evolution.purity(mixed)
    report.add_residual("mixture_purity_sum_a4", mix_purity - float(np.sum(weights**2)),
                        1e-12)

    eigs = [spectral.apply_observable("H", w).value for w in waves]
    r_a = evolution.evolve_density(mixed, eigs, 0.4)
    r_ab = evolution.evolve_density(r_a, eigs, 0.6)
    r_b = evolution.evolve_density(mixed, eigs, 1.0)
    report.add_residual(
        "density_semigroup",
        float(np.max(np.abs(r_ab.entries - r_b.entries))),
        1e-10,
    )
    yield "density_matrix.json", mixed.to_json() + "\n"
    yield "decoherence", {"t": p["t"], "norm_sq": evolved.norm_sq, "purity": mix_purity}


def _run_entropy(p: dict, report: Report) -> Iterator[tuple]:
    from . import evolution
    state = evolution.SuperposedState(
        np.array([1.0 + 0j]), (make_free_state(p["v"], p["v"]),)
    )
    times = np.linspace(0.0, p["t_max"], p["n"])
    traj = evolution.entropy_trajectory(state, times, measurement_times=[p["measure_at"]])
    table = {"t": np.concatenate([traj.times, traj.measurement_times]),
             "S": np.concatenate([traj.S, traj.post_measurement_S]),
             "is_post_measurement": np.repeat([0, 1], [traj.S.size, traj.post_measurement_S.size])}
    yield "entropy", table

    report.add_residual("entropy_zero_at_start", float(traj.S[0]), 0.0)
    slopes = np.diff(traj.S) / np.diff(traj.times)
    report.add_residual(
        "entropy_slope_minus_kB_v",
        float(np.max(np.abs(slopes + p["v"]))),
        1e-10,
    )
    report.add_residual("post_measurement_entropy_zero",
                        float(np.max(np.abs(traj.post_measurement_S), initial=0.0)), 0.0)


def _run_sturm_liouville(p: dict, report: Report) -> Iterator[tuple]:
    from . import potential
    if not p["x0"] < p["x1"]:
        raise ConfigError(f"x0 must be < x1, got {p['x0']}, {p['x1']}")
    n_samples = 201
    xs = np.linspace(p["x0"], p["x1"], n_samples)
    V = np.zeros_like(xs) if p["preset"] == "box" else 0.5 * xs**2
    problem = potential.SLProblem(
        x0=p["x0"], x_end=p["x1"], kx=np.full(n_samples, p["k0"]), V=V,
        n_eigen=p["n_eigen"],
    )
    solution = potential.solve_sturm_liouville(problem, n_grid=p["n_grid"])
    shoot, dense = solution.eigenvalues, solution.matrix_eigenvalues
    table = {"n": np.arange(p["n_eigen"]), "energy_shooting": shoot, "energy_matrix": dense,
             "backend_gap": shoot - dense}
    yield "sturm_liouville", table

    report.add_residual("backends_agree", float(np.max(np.abs(shoot - dense) / np.abs(dense))),
                        1e-6)
    if p["preset"] == "box":
        L = p["x1"] - p["x0"]
        exact = ((np.arange(p["n_eigen"]) + 0.5) * np.pi / L) ** 2 / 2.0 + p["k0"] ** 2 / 2.0
        rel = float(np.max(np.abs(shoot - exact) / exact))
        report.add_residual("closed_form_match", rel, 1e-6)


def _run_uncertainty(p: dict, report: Report) -> Iterator[tuple]:
    """Fill z by blocks with normal(0.0, sigma, n)'s bytes, 0.0 + sigma*x, from two streams.

    Part i draws from SeedSequence(seed).spawn(2)[i]: z.real on one more thread, in a copy of
    the context that holds np.errstate, and z.imag here. No scheduling moves a byte.
    """
    from . import analysis
    seeds = np.random.SeedSequence(p["seed"]).spawn(2)
    n, block = p["n_samples"], analysis._BLOCK
    z = np.empty(n, dtype=complex)
    def fill(i: int, part: np.ndarray, sigma: float) -> None:
        rng, buf = np.random.default_rng(seeds[i]), np.empty(min(n, block))
        for start in range(0, n, block):
            x = rng.standard_normal(out=buf[:min(block, n - start)])
            np.add(np.multiply(x, sigma, out=x), 0.0, out=part[start:start + block])
    try:  # part 0's error is raised first, as in the sequential fill
        _both(lambda: fill(0, z.real, p["sigma_re"]), lambda: fill(1, z.imag, p["sigma_im"]))
        rep = analysis.uncertainty_decompose(analysis.ComplexSampleSet(values=z))
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"the samples' second moment overflows the float range ({exc}); lower "
            f"sigma_re = {p['sigma_re']!r} or sigma_im = {p['sigma_im']!r}") from exc
    yield "uncertainty", asdict(rep)

    report.add_residual(
        "variance_identity_exact",
        rep.var_real - rep.var_imag - rep.var_complex.real,
        0.0,
    )
    report.add_residual("covariance_in_imag_part",
                        rep.var_complex.imag - 2.0 * rep.covariance, 0.0)
    expected = p["sigma_re"] ** 2 - p["sigma_im"] ** 2
    if expected != 0.0:
        report.add_residual(
            "complex_variance_statistical",
            (rep.var_complex.real - expected) / expected,
            0.05,
        )


def _run_contour(p: dict, report: Report) -> Iterator[tuple]:
    from . import analysis
    state = make_free_state(p["v"], p["R"])
    paths = {"closed_square": [0, 1, 1 + 1j, 1j, 0], "path_a": [0, 1, 1 + 1j],
             "path_b": [0, 1j, 1 + 1j], "segment_0_to_1": [0, 1]}
    values = {name: analysis.contour_integral(state, analysis.Contour(vertices=vertices))
              for name, vertices in paths.items()}
    if p["contour_csv"]:
        try:
            user = analysis.Contour.from_csv(p["contour_csv"])
            values["user_contour"] = analysis.contour_integral(state, user)
        except ValueError as exc:  # the user's vertices are at fault
            raise ConfigError(f"contour_csv {p['contour_csv']}: {exc}") from exc
    yield "contour", {"name": list(values), "value": list(values.values())}

    report.add_residual("closed_contour_zero", abs(values["closed_square"]), 1e-9)
    report.add_residual("path_independence", abs(values["path_a"] - values["path_b"]), 1e-9)
    expected = -np.expm1(-state.R / state.v) * state.v / state.R
    report.add_residual("segment_closed_form", abs(values["segment_0_to_1"] - expected), 1e-9)


def _run_composite(p: dict, report: Report) -> Iterator[tuple]:
    from . import freewave, measurement, spectral
    weights = _normalized_weights(p["weights"])
    if not (len(p["system_speeds"]) == len(p["pointer_speeds"]) == weights.size):
        raise ConfigError("weights, system_speeds, pointer_speeds must pair up")
    systems = tuple(make_free_state(v, v) for v in p["system_speeds"])
    pointers = tuple(make_free_state(v, v) for v in p["pointer_speeds"])
    composite = measurement.tensor_compose(systems, pointers, np.sqrt(weights))

    # The product psi*phi solves the composite equation when each factor solves its own.
    # Each factor's probes lie 1.5 to 2 past its arrival line x = v*t at t = 0.5.
    for name, w in (("system", systems[0]), ("pointer", pointers[0])):
        grid = freewave.Grid1D(0.5 * w.v + 1.5, 0.5 * w.v + 2.0, 9, 0.5)
        report.add_residual(f"{name}_0_dispersion_residual_fd",
                            freewave.schrodinger_residual(w, grid, method="fd"), 1e-6)

    # Outcome statistics over the pointer basis.
    rep = measurement.run_ensemble(composite, p["n_trials"], seed=p["seed"])
    _add_born_checks(report, rep)

    event = measurement.detect_mp(systems[0], systems[0].v * 1.0, 1.0)
    projected = measurement.von_neumann_project(composite, 0, event)
    again = measurement.von_neumann_project(projected, 0, event)
    report.add("projection_idempotent", again is projected, 1.0)

    eigs = [spectral.apply_observable("H", s).value for s in systems]
    avgs = measurement.compare_averages(composite, eigs)
    expected_imag = float(np.sum(weights * [0.5 * s.R for s in systems]))
    report.add_residual("entangled_imag_part",
                        avgs.entangled_avg.imag - expected_imag, 1e-12)

    yield "composite", {**rep.table(), **asdict(avgs)}


def _run_field(p: dict, report: Report) -> Iterator[tuple]:
    from . import spectral
    state = make_free_state(p["v"], p["v"])  # R = v: normalized
    ss = np.linspace(0.0, p["s_max"], p["n"])
    values = np.fromiter(map(math.exp, (-ss).tolist()), float, ss.size)  # its e^{-s}, bit for bit
    yield "field", {"s": ss, "field": values}
    report.add_residual("field_at_zero_is_one", values[0] - 1.0, 0.0)
    report.add_residual(
        "field_at_ln2_is_half",
        spectral.probability_field(float(np.log(2.0)), state) - 0.5,
        1e-15,
    )
    report.add("field_monotone_decreasing", _falls_strictly(values), float(np.max(np.diff(values))))


# Every scenario's runner and, per config key, its default (which sets the key's type)
# and the weakest domain with finite outputs, capped to admit the benchmark's largest run.
_TABLE: dict[str, tuple] = {
    "free-wave": (_run_free_wave, {
        "v": (1.0, _POSITIVE), "R": (1.0, _NONNEGATIVE), "mp_x": (2.0, _FINITE),
        "times": ((1.0, 2.0, 3.0), _NONNEGATIVE), "span": (3.0, _POSITIVE),
        "n": (121, _within(range(2, 15_201)))}),
    "potential-wave": (_run_potential_wave, {
        "profile": ("linear", _within(("constant", "linear"))), "R": (1.0, _NONNEGATIVE),
        "omega": (0.375, _FINITE), "x0": (0.0, _FINITE), "x1": (5.0, _FINITE),
        "n": (201, _within(range(8, 45_201))), "t": (0.5, _NONNEGATIVE),
        "x_mp": (1.0, _FINITE), "k_table": ("", _TEXT)}),
    "ensemble": (_run_ensemble, {
        "weights": ((0.5, 0.3, 0.2), _POSITIVE), "workers": (1, _within(range(1, 3))),
        "n_trials": (100000, _within(range(1, 10_000_001)))}),
    "decoherence": (_run_decoherence, {
        "weights": ((0.5, 0.3, 0.2), _POSITIVE), "speeds": ((1.0, 2.0, 3.0), _POSITIVE),
        "t": (1.0, _NONNEGATIVE)}),
    "entropy": (_run_entropy, {
        "v": (1.0, _POSITIVE), "t_max": (2.0, _POSITIVE), "measure_at": (2.0, _NONNEGATIVE),
        "n": (41, _within(range(2, 70_201)))}),
    "sturm-liouville": (_run_sturm_liouville, {
        "preset": ("box", _within(("box", "harmonic"))), "x0": (0.0, _FINITE),
        "x1": (1.0, _FINITE), "n_eigen": (6, _within(range(1, 101))),
        "n_grid": (2001, _within(range(4, 2002))),
        "k0": (0.0, ("finite with a finite square", lambda k: math.isfinite(k * k)))}),
    "uncertainty": (_run_uncertainty, {
        "n_samples": (100000, _within(range(2, 3_050_001))),
        "sigma_re": (2.0, _NONNEGATIVE), "sigma_im": (1.0, _NONNEGATIVE)}),
    "contour": (_run_contour, {
        "v": (1.0, _POSITIVE), "R": (1.0, _POSITIVE), "contour_csv": ("", _TEXT)}),
    "composite": (_run_composite, {
        "weights": ((0.5, 0.5), _POSITIVE), "system_speeds": ((1.0, 2.0), _POSITIVE),
        "pointer_speeds": ((3.0, 4.0), _POSITIVE),
        "n_trials": (100000, _within(range(1, 10_000_001)))}),
    "field": (_run_field, {
        "s_max": (3.0, _NONNEGATIVE), "v": (1.0, _POSITIVE), "n": (61, _within(range(2, 80_201)))}),
}

SCENARIOS = tuple(_TABLE)
_RUN_KEYS = {"seed": (0, _within(range(2**64))), "format": ("csv", _within(("csv", "json"))),
             "output": (".", _TEXT)}  # every section's: the run's seed, file format and directory


def run_scenario(scenario: str, p: dict, check: bool = False) -> int:
    """Run ``scenario`` on its resolved keys ``p``: write each ``(stem, table)`` it yields.

    A table goes to ``stem.<format>``, a string as is to the file ``stem``; then report.json.
    Returns the process exit code (0 success; 1 a value the scenario or the
    library rejects; 2 numerical/I-O failure, overflow, NaN and memory
    exhaustion included; 3 when ``check`` is set and some check failed).
    Files are staged inside ``output`` and renamed into it once report.json
    is written, so a run that returns 1 or 2 leaves ``output`` as it was.
    """
    out, fmt = Path(p["output"]), p["format"]
    created = next((d for d in reversed((out, *out.parents)) if not d.exists()), None)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".pdwave-", dir=out) as staging:
            stage = Path(staging)
            report = Report(scenario=scenario, seed=p["seed"])
            # Overflow or NaN fails the run instead of reaching the output files.
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for stem, table in _TABLE[scenario][0](p, report):
                    if isinstance(table, str):
                        (stage / stem).write_text(table, "utf-8")
                    else:
                        emit_output(table, fmt, stage / f"{stem}.{fmt}")
            report.write(stage)
            # Every target is checked before the first rename, and report.json goes last.
            staged = sorted(stage.iterdir(), key=lambda path: path.name == "report.json")
            for path in staged:
                if (out / path.name).is_dir():
                    raise IsADirectoryError(f"{out / path.name} is a directory")
            for path in staged:
                path.replace(out / path.name)
    except ValueError as exc:
        message, code = f"config error: {exc}", 1
    except (ConvergenceError, OSError, ArithmeticError, MemoryError) as exc:
        message, code = str(exc), 2
    else:
        if check and not report.all_passed:
            failed = [c["name"] for c in report.checks if not c["passed"]]
            print(f"pdwave: checks failed: {', '.join(failed)}", file=sys.stderr)
            return 3
        return 0
    print(f"pdwave: {message}", file=sys.stderr)
    if created is not None:
        shutil.rmtree(created, ignore_errors=True)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"pdwave: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = _Parser(prog="pdwave", description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True, choices=SCENARIOS)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", dest="output", help="output directory (default .)")
    parser.add_argument("--seed", help="unsigned 64-bit seed (default 0)")
    parser.add_argument("--format", help="csv or json (default csv)")
    parser.add_argument("--check", action="store_true",
                        help="exit 3 if any invariant check fails")
    args = parser.parse_args(argv)
    flags = {key: getattr(args, key) for key in _RUN_KEYS if getattr(args, key) is not None}
    try:
        settings = load_config(args.config, args.scenario) if args.config else {}
        p = _resolve_parameters(args.scenario, {**settings, **flags})
    except ValueError as exc:
        print(f"pdwave: config error: {exc}", file=sys.stderr)
        return 1
    return run_scenario(args.scenario, p, args.check)


if __name__ == "__main__":
    sys.exit(main())
