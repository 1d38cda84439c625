"""The vectorised `%.17g` kernel and the CSV writer built on it, byte for
byte against Python's `'%.17g' %`, which stays the reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmmcavity import _g17, cli
from tmmcavity._g17 import g17


def kernel_text(values) -> list[bytes]:
    return [row.tobytes().replace(b"\0", b"") for row in g17(values).view(np.uint8)]


def reference_text(values) -> list[bytes]:
    """'%.17g' % v per value; a NaN's cell is empty."""
    return [b"" if v != v else ("%.17g" % v).encode()
            for v in np.asarray(values, dtype=float).tolist()]


def assert_same(values):
    got, want = kernel_text(values), reference_text(values)
    bad = [(v, g, w) for v, g, w in zip(np.asarray(values).tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def neighbours(centres, ulps: int) -> np.ndarray:
    """Each finite positive centre and the `ulps` doubles on either side."""
    bits = np.asarray(centres, dtype=float).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    return bits.ravel().view(np.float64)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_hypothesis_floats(values):
    assert_same(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2 ** 64, size=60000, dtype=np.uint64)
    assert_same(bits.view(np.float64))


def test_signed_zeros_infinities_and_extremes():
    tiny = np.finfo(float).smallest_subnormal
    assert_same([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 2.2250738585072014e-308,
                 np.finfo(float).max, -np.finfo(float).max, 1e-280, 1e290, 9.99e-281, 1.01e290])


def test_exact_ties_round_half_to_even():
    """x 10^k exactly half-way between two 17-digit integers: x = j 2^-(k+1)
    with j odd and j 5^k / 2 in [1e16, 1e17).  For k <= 22 the kernel
    decides them itself (10^k is a double); k = 23, 24 go to Python."""
    rng = np.random.default_rng(5)
    ties = []
    for k in range(25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** k), min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        if lo >= hi:
            continue
        j = rng.integers(lo, hi, size=400) | 1
        ties.append(j * 2.0 ** -(k + 1))
    values = np.concatenate(ties)
    assert_same(np.concatenate([values, -values]))


def test_powers_of_ten_and_neighbours():
    powers = 10.0 ** np.arange(-307, 309)
    assert_same(neighbours(powers, 2))
    assert_same(-neighbours(powers, 2))


@pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
def test_fixed_and_scientific_switch(switch):
    """%g turns to the exponent form below 1e-4 and from 1e17 on, judged on
    the value rounded to 17 digits."""
    assert_same(neighbours([switch], 200))
    assert_same(switch * (1 + np.linspace(-1e-15, 1e-15, 401)))


def test_short_decimals_and_integers():
    rng = np.random.default_rng(3)
    decimals = rng.integers(0, 10 ** 6, 4000) / 10.0 ** rng.integers(0, 12, 4000)
    integers = rng.integers(1, 2 ** 53, 4000).astype(float) * 2.0 ** rng.integers(-8, 60, 4000)
    assert_same(np.concatenate([decimals, integers, np.arange(-300.0, 300.0, 0.25)]))


def test_chunks_do_not_change_the_cells(monkeypatch):
    values = np.random.default_rng(9).normal(size=999) * 10.0 ** (np.arange(999) % 40 - 20)
    whole = g17(values)
    monkeypatch.setattr(_g17, "_CHUNK", 7)
    assert (g17(values) == whole).all()


def csv_text(table: dict) -> bytes:
    """The writer's CSV of one table."""
    return b"".join(chunk for _, chunk in cli._csv_files([table]))


def csv_reference(table: dict) -> bytes:
    """The writer's rule, one cell at a time: keyed columns take keys[index],
    NaN is an empty field."""
    columns = []
    for column in table.values():
        if isinstance(column, tuple):
            keys, index = column
            text = [k if isinstance(k, str) else "%.17g" % k for k in keys]
            columns.append([text[i] for i in index])
        else:
            columns.append(["" if v != v else "%.17g" % v for v in column.tolist()])
    rows = [",".join(cells) for cells in zip(*columns)]
    return ("\n".join([",".join(table), *rows]) + "\n").encode()


def mixed_table(rng, n: int) -> dict:
    """n rows of float, NaN, signed-zero, float-keyed and string-keyed cells."""
    values = rng.normal(size=n) * 10.0 ** rng.integers(-12, 20, n)
    values[rng.random(n) < 0.3] = np.nan
    return {
        "x": (np.array([-5.3e-7, 0.0, 2.5e-7]), rng.integers(0, 3, n)),
        "kind": (("scatterer", "a-label-longer-than-one-word"), rng.integers(0, 2, n)),
        "F0": values,
        "all_nan": np.full(n, np.nan),
        "zeros": np.where(rng.random(n) < 0.5, 0.0, -0.0),
        "branch": (("plus", "minus"), rng.integers(0, 2, n)),
    }


@pytest.mark.parametrize("block_rows, chunk_rows", [(16384, 1024), (7, 3)])
def test_csv_nan_cells_and_keyed_columns(monkeypatch, block_rows, chunk_rows):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
    table = mixed_table(np.random.default_rng(11), 50)
    assert csv_text(table) == csv_reference(table)


@pytest.mark.parametrize("block_rows, pass_values", [(2048, 12288), (7, 40), (5, 1)])
def test_tables_sharing_passes_keep_their_bytes(monkeypatch, block_rows, pass_values):
    # blocks of several tables share g17 calls; each file still gets its
    # own table's bytes, table after table
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(_g17, "_CHUNK", pass_values)
    rng = np.random.default_rng(12)
    tables = [mixed_table(rng, n) for n in (50, 0, 13, 1)]
    chunks = list(cli._csv_files(tables))
    order = [i for i, _ in chunks]
    assert order == sorted(order)
    for i, table in enumerate(tables):
        assert b"".join(c for j, c in chunks if j == i) == csv_reference(table)


def test_scan_and_overlay_format_in_one_pass(monkeypatch, tmp_path):
    # a 41 x 41 scan's table and overlay are one block each and share one
    # g17 call, which makes one pass
    passes = []
    real = _g17._fill
    monkeypatch.setattr(_g17, "_fill", lambda x, cells: passes.append(x.size) or real(x, cells))
    ini = tmp_path / "run.ini"
    ini.write_text("[mim]\ncavity_length = 6.7cm\n\n[grid]\nx_start = -0.5um\n"
                   "x_stop = 0.5um\nx_count = 41\ndlc_start = -0.5um\ndlc_stop = 0.5um\n"
                   "dlc_count = 41\n", encoding="utf-8")
    out = str(tmp_path / "scan.csv")
    assert cli.run(["scan", "--config", str(ini), "--out", out]) == 0
    overlay_rows = len(open(out + ".overlay.csv").readlines()) - 1
    assert overlay_rows > 0
    assert passes == [2 * 41 + 5 * 41 * 41 + 3 * overlay_rows]


def test_csv_without_rows():
    table = {"x": np.array([]), "branch": (("plus", "minus"), np.array([], dtype=int))}
    assert csv_text(table) == b"x,branch\n"
