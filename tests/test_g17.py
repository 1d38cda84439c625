"""The vectorised `%.17g` kernel and the CSV writer built on it, byte for
byte against Python's `'%.17g' %`, which stays the reference."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmmcavity import _g17, cli
from tmmcavity._g17 import g17
from tmmcavity.mim import MimConfig, ScanGrid, compare_models, scan


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


def float_columns(table: dict) -> int:
    """Columns of a table whose cells `g17` formats: floats and float keys."""
    return sum(c is None for c in cli._CsvTable(table).labels)


@pytest.mark.parametrize("block_rows, chunk_rows", [(16384, 1024), (7, 3), (7, 0.5), (2, 1)])
def test_csv_nan_cells_and_keyed_columns(monkeypatch, block_rows, chunk_rows):
    # chunks of whole rows, and of less than a row (one row each); blocks
    # of 2 rows have fewer rows than the float key column has keys, so it
    # is formatted row by row
    table = mixed_table(np.random.default_rng(11), 50)
    row_bytes = 8 * _g17.WORDS * len(table)
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block_rows * float_columns(table))
    monkeypatch.setattr(cli, "_CSV_CHUNK_BYTES", int(chunk_rows * row_bytes))
    assert csv_text(table) == csv_reference(table)


def g17_calls(monkeypatch) -> list:
    """The value counts of the writer's `g17` calls, recorded from now on."""
    calls = []
    monkeypatch.setattr(cli, "g17", lambda values: calls.append(values.size) or g17(values))
    return calls


@pytest.mark.parametrize("block_rows, pass_values", [(2048, 12288), (7, 40), (5, 1)])
def test_tables_sharing_passes_keep_their_bytes(monkeypatch, block_rows, pass_values):
    # blocks of several tables share g17 calls up to the cell bound; each
    # file still gets its own table's bytes, table after table
    rng = np.random.default_rng(12)
    tables = [mixed_table(rng, n) for n in (50, 0, 13, 1)]
    bound = block_rows * float_columns(tables[0])
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", bound)
    monkeypatch.setattr(_g17, "_CHUNK", pass_values)
    calls = g17_calls(monkeypatch)
    chunks = list(cli._csv_files(tables))
    order = [i for i, _ in chunks]
    assert order == sorted(order)
    for i, table in enumerate(tables):
        assert b"".join(c for j, c in chunks if j == i) == csv_reference(table)
    assert max(calls) <= bound
    # the last block of one table and the first of the next share a call
    blocks = sum(-(-max(len(t["F0"]), 1) // block_rows) for t in tables)
    assert len(calls) < blocks


@pytest.mark.parametrize("x_count, dlc_count", [(1, 500), (500, 1), (30, 17)])
def test_grid_axes_keep_blocks_within_the_cell_bound(monkeypatch, x_count, dlc_count):
    # an axis with more values than a block has rows is formatted row by
    # row, so no call holds more than the bound whatever the grid's shape
    grid = ScanGrid(-5e-7, 5e-7, x_count, -2e-7, 2e-7, dlc_count)
    table = cli._grid_columns(grid)
    table["F0"] = np.random.default_rng(13).normal(size=x_count * dlc_count)
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 64)
    calls = g17_calls(monkeypatch)
    assert csv_text(table) == csv_reference(table)
    assert max(calls) <= 64


def test_scan_and_overlay_format_in_one_pass(monkeypatch, tmp_path):
    # a 41 x 41 scan's table and overlay are one block each and share one
    # g17 call, which makes one pass
    passes = []
    real = _g17._fill
    monkeypatch.setattr(_g17, "_fill",
                        lambda x, *out: passes.append(x.size) or real(x, *out))
    ini = tmp_path / "run.ini"
    ini.write_text("[mim]\ncavity_length = 6.7cm\n\n[grid]\nx_start = -0.5um\n"
                   "x_stop = 0.5um\nx_count = 41\ndlc_start = -0.5um\ndlc_stop = 0.5um\n"
                   "dlc_count = 41\n", encoding="utf-8")
    out = str(tmp_path / "scan.csv")
    assert cli.run(["scan", "--config", str(ini), "--out", out]) == 0
    overlay_rows = len(open(out + ".overlay.csv").readlines()) - 1
    assert overlay_rows > 0
    assert passes == [2 * 41 + 5 * 41 * 41 + 3 * overlay_rows]


def test_compare_table_formats_in_one_call(monkeypatch, tmp_path):
    # a 101 x 101 compare table (three float columns and two 101-value
    # axes) is one block, whose g17 call runs full passes but the last
    passes = []
    real = _g17._fill
    monkeypatch.setattr(_g17, "_fill",
                        lambda x, *out: passes.append(x.size) or real(x, *out))
    calls = g17_calls(monkeypatch)
    ini = tmp_path / "run.ini"
    ini.write_text("[mim]\ncavity_length = 6.7cm\n", encoding="utf-8")
    out = str(tmp_path / "compare.csv")
    assert cli.run(["compare", "--config", str(ini), "--out", out]) == 0
    n = 3 * 101 * 101 + 2 * 101
    assert calls == [n]
    assert passes == [_g17._CHUNK] * (n // _g17._CHUNK) + [n % _g17._CHUNK]


def test_csv_without_rows():
    table = {"x": np.array([]), "branch": (("plus", "minus"), np.array([], dtype=int))}
    assert csv_text(table) == b"x,branch\n"


def traced_peak(work) -> int:
    """Peak bytes that tracemalloc sees allocated while `work()` runs."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_allocations_stay_small():
    """The writer's tracemalloc peaks: one g17 call on 10 000 values, and
    the CSV of a 41 x 41 scan table with its overlay.

    Measured with numpy 2.4 at 1.08 MB and 1.01 MB, of which the cells
    are 0.32 MB and 0.29 MB and the g17 call's work arrays 0.48 MB and
    0.43 MB; each ceiling is the measure plus 25%.  A g17 pass that
    allocates every intermediate afresh, and a writer that lays out a
    whole 2048-row block at once, peak at 1.39 MB and 1.37 MB.
    """
    rng = np.random.default_rng(22)
    values = rng.normal(size=10_000) * 10.0 ** rng.integers(-30, 30, 10_000)
    values[::7] = np.nan
    grid = ScanGrid(-5.32e-7, 5.32e-7, 41, -5.32e-7, 5.32e-7, 41)
    result = scan(MimConfig(cavity_length=6.7e-2, membrane_zeta=-1.0, mirror_zeta=-30.0), grid)
    table = cli._grid_columns(grid)
    for q in result.QUANTITIES:
        table[q] = getattr(result, q).ravel()
    x, branch, fold, dlc = result.overlay
    overlay = {"x": x, "branch": (result.BRANCHES, branch), "fold": fold, "dLc": dlc}
    g17(values[:1])  # the tables are built once per process
    start = time.perf_counter()
    assert traced_peak(lambda: g17(values)) <= 1_350_000
    # each chunk goes to the file, and is dropped, before the next is made
    assert traced_peak(lambda: sum(len(c) for _, c in cli._csv_files([table, overlay]))) <= (
        1_260_000)
    assert time.perf_counter() - start < 0.2


def test_compare_writer_allocations_stay_within_its_call():
    """The tracemalloc peak of the CSV of a 101 x 101 compare table: one
    g17 call on 30 805 values.

    Measured with numpy 2.4 at 1.99 MB: the cells 0.99 MB, the call's work
    arrays 0.59 MB and the values it formats 0.25 MB; the ceiling is the
    measure plus 25%.  A writer that lays out the whole table at once
    would add the table's 1.6 MB of words.
    """
    grid = ScanGrid(-5.32e-7, 5.32e-7, 101, -5.32e-7, 5.32e-7, 101)
    result = compare_models(MimConfig(cavity_length=6.7e-2), grid)
    table = cli._grid_columns(grid)
    table.update(F0_tmm=result.F0_tmm.ravel(), F0_coupled=result.F0_coupled.ravel(),
                 discrepancy=result.discrepancy.ravel())
    g17(np.ones(1))  # the tables are built once per process
    assert traced_peak(lambda: sum(len(c) for _, c in cli._csv_files([table]))) <= (
        2_490_000)
