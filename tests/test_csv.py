"""Trajectory CSV: the vectorised '%.17g' formatter against np.savetxt."""

import dataclasses
import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import savetxt_text, savetxt_write_csv
from rigiform import _g17, builtin_scenario, integrate, sim, write_csv

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


def test_zeros_infinities_and_nan_print_as_savetxt():
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.0]
    _assert_prints_as_savetxt(np.tile(specials, 5))


def test_wide_estimate_stays_inside_its_error_bound():
    # the premise of the doubt band: |y - |x| 10**(16-k)| <= floor(y) * rel_error
    powers, rel_error = _g17.tables()[:2]
    rng = np.random.default_rng(13)
    x = rng.uniform(1.0, 10.0, size=4000) * 10.0 ** rng.integers(-320, 300, size=4000)
    k = np.floor(np.log10(x)).astype(int)
    row = _g17.K_MAX - k  # of 10**(16-k)
    y = x.astype(powers.dtype) * powers[row]
    for xi, ki, yi, bound in zip(x.tolist(), k.tolist(), y, (np.floor(y).astype(float) * rel_error[row]).tolist()):
        exact = Fraction(xi) * Fraction(10) ** (16 - ki)
        assert abs(Fraction(*yi.as_integer_ratio()) - exact) <= Fraction(bound), xi


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


def test_without_extended_precision_every_value_prints_exactly(monkeypatch):
    # where long double is plain double, the doubt band derived from its
    # eps covers every value, so all take the exact path, with no warnings
    monkeypatch.setattr(_g17, "WIDE", np.float64)
    monkeypatch.setattr(_g17, "tables", functools.cache(_g17.tables.__wrapped__))
    rel_error = _g17.tables()[1]
    assert (1e16 * rel_error > 0.5).all()
    rng = np.random.default_rng(11)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(20_000),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, 1e300, 1234567890123456.75],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_prints_as_savetxt(values)
