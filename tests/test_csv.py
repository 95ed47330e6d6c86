"""Trajectory CSV: the vectorised '%.17g' formatter against np.savetxt."""

import dataclasses
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import savetxt_text, savetxt_write_csv
from rigiform import _g17, builtin_scenario, generate_scenario, integrate, sim, write_csv

COLUMNS = 7  # odd, so rows end at every offset within a block


def _assert_prints_as_savetxt(values):
    """values, a write_csv block at a time through _g17.text, give the
    bytes np.savetxt gives for them as rows of COLUMNS."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-values.size % COLUMNS)])
    block = sim._CSV_BLOCK_VALUES
    got = b"".join(_g17.text(values[i:i + block], COLUMNS, i)
                   for i in range(0, values.size, block))
    want = savetxt_text(values.reshape(-1, COLUMNS))
    if got != want:
        fields = zip(got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
        bad = [(x, g, w) for x, (g, w) in zip(values.tolist(), fields) if g != w]
        pytest.fail(f"{len(bad)} values differ from np.savetxt, first (x, got, want): {bad[:3]}")


def test_random_bit_patterns_print_as_savetxt():
    bits = np.random.default_rng(9).integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    _assert_prints_as_savetxt(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours_print_as_savetxt():
    powers = np.array([float(f"1e{n}") for n in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    _assert_prints_as_savetxt(np.concatenate([values, -values]))
    # some of them carry: a double just below 10**n whose 17 digits round up to it
    carries = [n for n, x in zip(range(-323, 309), powers.tolist())
               if Fraction(x) < Fraction(10) ** n and "%.17g" % x == f"1e{n:+03d}"]
    assert 98 in carries and -305 in carries


def test_exact_ties_print_as_savetxt():
    # i + odd/2**j with 18 - j integer digits has exactly 18 significant
    # digits ending in 5: a tie at 17 digits, broken to even
    rng = np.random.default_rng(3)
    ties = []
    for j in range(2, 12):
        low, high = 10 ** (17 - j), min(10 ** (18 - j), 2 ** (53 - j))
        whole = rng.integers(low, high, size=2000)
        odd = 2 * rng.integers(0, 2 ** (j - 1), size=2000) + 1
        ties.append(whole + odd / 2.0 ** j)
    ties = np.concatenate(ties)
    for x in ties[::997].tolist():
        k = math.floor(math.log10(x))
        assert (Fraction(x) * Fraction(10) ** (16 - k)).denominator == 2
    _assert_prints_as_savetxt(np.concatenate([ties, -ties]))


def test_carries_long_exponents_and_integers_print_as_savetxt():
    rng = np.random.default_rng(5)
    nines = [float(f"9.9999999999999999{d}e{e}") for d in range(10) for e in range(-320, 308, 7)]
    mantissas = rng.uniform(1.0, 10.0, size=(4, 631))
    long_exponents = (mantissas * 10.0 ** np.arange(-323, 308)).ravel()
    integers = np.concatenate([
        np.arange(100_000.0),
        rng.integers(0, 10 ** 17, size=100_000, endpoint=True).astype(np.float64),
        [10.0 ** k - 1 for k in range(18)] + [10.0 ** k for k in range(18)],
    ])
    _assert_prints_as_savetxt(np.concatenate([nines, long_exponents, integers, -integers]))


def test_values_on_a_half_integer_are_settled_without_python():
    # for -11 <= k <= 13 integers decide the rounding, also where the long
    # double product lands on a half-integer (about 0.3% of such values)
    rng = np.random.default_rng(21)
    values = rng.uniform(1.0, 10.0, size=400_000) * 10.0 ** rng.integers(-11, 14, size=400_000)
    values[::2] *= -1
    powers, fives = _g17.tables()[:2]
    row = _g17.K_MAX - np.floor(np.log10(np.abs(values))).astype(int)
    y = np.abs(values).astype(powers.dtype) * powers[row]
    assert (y - y.astype(np.int64) == 0.5).sum() > 500
    assert not _g17._round(values, powers, fives)[2].any()
    _assert_prints_as_savetxt(values)


def _python_text(values, columns, first):
    """'%.17g' of each value, each followed by ',' or, at a row's last column, a newline."""
    return b"".join(b"%.17g" % x + (b"\n" if (first + i) % columns == columns - 1 else b",")
                    for i, x in enumerate(values.tolist()))


_bit_patterns = st.one_of(
    st.integers(0, 2 ** 64 - 1),  # any double: subnormals, nan payloads, every exponent
    st.floats().map(lambda x: int(np.float64(x).view(np.uint64))),
    # 18 digits ending in 5: the nearest double lies next to a 17-digit tie
    st.tuples(st.integers(10 ** 16, 10 ** 17 - 1), st.integers(-340, 291)).map(
        lambda t: int(np.float64(f"{t[0]}5e{t[1]}").view(np.uint64))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_bit_patterns, min_size=1, max_size=300), st.integers(1, 7000),
       st.integers(0, 10 ** 7))
def test_text_matches_python_at_any_row_offset(bits, columns, first):
    # write_csv's full blocks start anywhere in a row, so the newlines fall
    # wherever (first + index) % columns says
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _g17.text(values, columns, first) == _python_text(values, columns, first)


def test_zeros_infinities_and_nan_print_as_savetxt():
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.0]
    _assert_prints_as_savetxt(np.tile(specials, 5))


def test_wide_estimate_stays_inside_its_error_bound():
    # the premise of the integer rule: where 10**(16-k) is exact (fives is
    # nonzero), whole = int64(y) is floor(|x| 10**(16-k)) or one more
    powers, fives = _g17.tables()[:2]
    rng = np.random.default_rng(13)
    x = rng.uniform(1.0, 10.0, size=4000) * 10.0 ** rng.integers(-11, 14, size=4000)
    k = np.floor(np.log10(x)).astype(int)
    row = _g17.K_MAX - k  # of 10**(16-k)
    settled = fives[row] != 0
    whole = (x.astype(powers.dtype) * powers[row]).astype(np.int64)
    for xi, ki, wi in zip(x[settled].tolist(), k[settled].tolist(), whole[settled].tolist()):
        assert wi - math.floor(Fraction(xi) * Fraction(10) ** (16 - ki)) in (0, 1), xi


def _assert_file_as_savetxt(traj, tmp_path):
    write_csv(traj, tmp_path / "new.csv")
    savetxt_write_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("name", ["epuck2d", "tetra3d"])
@pytest.mark.parametrize("mode", ["gradient_only", "estimator"])
def test_write_csv_matches_the_savetxt_writer(tmp_path, name, mode):
    sc = dataclasses.replace(builtin_scenario(name), mode=mode, t_end=5.0)
    _assert_file_as_savetxt(integrate(sc), tmp_path)


def test_write_csv_of_a_diverged_run_matches_the_savetxt_writer(tmp_path):
    traj = integrate(dataclasses.replace(builtin_scenario("epuck2d"), dt=5e-3))
    assert traj.diverged
    _assert_file_as_savetxt(traj, tmp_path)


def _generated_run(n, dim, steps, dt=1e-3):
    sc = dataclasses.replace(generate_scenario(n, dim, 0), dt=dt, t_end=steps * dt, output_every=1)
    return integrate(sc)


@pytest.mark.parametrize("n, dim, steps, dt", [
    (200, 2, 20, 1e-3),  # rows of 2189 values: two or three rows to a block
    (400, 3, 6, 1e-3),  # rows of 6377 values: wider than a block
    (200, 2, 200, 0.055),  # diverges after 5 samples, at values up to 1e65
], ids=["2d-n200", "3d-n400", "2d-n200-diverged"])
def test_write_csv_of_generated_formations_matches_the_savetxt_writer(tmp_path, n, dim, steps, dt):
    traj = _generated_run(n, dim, steps, dt)
    assert traj.diverged == (dt > 1e-3)
    _assert_file_as_savetxt(traj, tmp_path)


@pytest.mark.parametrize("n, dim", [(200, 2), (400, 3)])
def test_write_csv_formats_full_blocks(tmp_path, monkeypatch, n, dim):
    # rows of more than half a block used to be formatted one call per row,
    # or split into a block and a rest: every call but the last now takes
    # a full block, however the rows fall across blocks
    sizes, text = [], _g17.text

    def counting(values, columns, first):
        sizes.append(values.size)
        return text(values, columns, first)

    monkeypatch.setattr(_g17, "text", counting)
    traj = _generated_run(n, dim, 10)
    write_csv(traj, tmp_path / "run.csv")
    values, block = traj.sample_count * (1 + n * dim + n + 4 * traj.errors.shape[1]), 1 << 12
    assert sim._CSV_BLOCK_VALUES == block and sum(sizes) == values
    assert len(sizes) <= math.ceil(values / (block // 2)) + 1
    assert sizes[:-1] == [block] * (len(sizes) - 1) and 0 < sizes[-1] <= block


@pytest.mark.parametrize("n, dim, bound", [(200, 2, 1.0), (400, 3, 1.5)])
def test_write_csv_memory_does_not_grow_with_the_run(tmp_path, n, dim, bound):
    # a write holds one block's formatting and a buffer of a block and a
    # chunk of rows: the same traced peak for 30 and 300 samples, and under
    # `bound` MiB (at 4096-value blocks, 0.78 and 1.06 MiB measured)
    _g17.tables()  # built once per process, and not part of a write's peak
    peaks = []
    for steps in (29, 299):
        traj = _generated_run(n, dim, steps)
        tracemalloc.start()
        try:
            write_csv(traj, tmp_path / "run.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.25 * 2**20
    assert max(peaks) <= bound * 2**20


def test_without_extended_precision_every_value_prints_exactly(monkeypatch):
    # where long double is plain double, no power of ten settles with
    # integers, so every value takes the exact path, with no warnings
    monkeypatch.setattr(_g17, "WIDE", np.float64)
    monkeypatch.setattr(_g17, "tables", functools.cache(_g17.tables.__wrapped__))
    fives = _g17.tables()[1]
    assert not fives.any()
    rng = np.random.default_rng(11)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(20_000),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, 1e300, 1234567890123456.75],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_prints_as_savetxt(values)
