"""The array kernel behind the CSV output (hypcmc._shortest) against
Python's repr, byte for byte, including the lanes it leaves to repr."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypcmc.cli as cli_mod
from hypcmc import _shortest

WIDTH = _shortest.LONGEST
CHUNK = 1 << 17  # values per kernel call in the sweep, to keep memory small


def kernel_bytes(values):
    """Each value's text from repr_text, zero-padded to WIDTH bytes."""
    text, starts, lengths, certified = _shortest.repr_text(values)
    slots = np.ndarray((len(text) - WIDTH + 1,), f"V{WIDTH}", text, 0, (1,))
    rows = slots[starts].view(np.uint8).reshape(-1, WIDTH).copy()
    rows[np.arange(WIDTH) >= lengths[:, None]] = 0
    return rows, certified


def repr_bytes(values):
    return np.array([repr(x) for x in values.tolist()], f"S{WIDTH}").view(
        np.uint8).reshape(-1, WIDTH)


def assert_matches_repr(values):
    values = np.asarray(values, dtype=float)
    for i in range(0, len(values), CHUNK):
        part = values[i:i + CHUNK]
        got = kernel_bytes(part)[0]
        wrong = np.flatnonzero((got != repr_bytes(part)).any(axis=1))
        assert not len(wrong), [
            (repr(x), got[j].tobytes().rstrip(b"\0"))
            for j, x in zip(wrong[:5], part[wrong[:5]].tolist())]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                max_size=64))
def test_every_bit_pattern_matches_repr(bits):
    assert_matches_repr(np.array(bits, dtype=np.int64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_floats_match_repr(values):
    assert_matches_repr(values)


def sweep_values(rng):
    """Over a million values that stress every branch of the kernel."""
    # every exponent field, random mantissas: subnormals, normals, inf/NaN
    fields = np.repeat(np.arange(2048, dtype=np.int64), 160)
    mantissas = rng.integers(0, 1 << 52, len(fields))
    signs = rng.integers(0, 2, len(fields)) << 63
    patterns = (signs | (fields << 52) | mantissas).view(np.float64)
    # short decimals, 16- and 17-digit decimals and their neighbours
    short = [float(f"{k}e{e}") for k, e in zip(
        rng.integers(1, 10 ** 6, 100_000).tolist(),
        rng.integers(-300, 300, 100_000).tolist())]
    long = [float(f"{k}e{e}") for k, e in zip(
        rng.integers(10 ** 15, 10 ** 17, 200_000).tolist(),
        rng.integers(-295, 290, 200_000).tolist())]
    decimals = np.array(short + long)
    near = np.concatenate((np.nextafter(decimals, np.inf),
                           np.nextafter(decimals, -np.inf)))
    # k / 2^j, the integers times powers of ten, powers of two and ten
    dyadic = np.ldexp(rng.integers(1, 1 << 20, 100_000).astype(float),
                      -rng.integers(0, 60, 100_000))
    scaled = np.array([float(f"{k}e{e}") for k, e in zip(
        rng.integers(1, 10 ** 17, 20_000).tolist(),
        rng.integers(0, 23, 20_000).tolist())])
    powers = np.concatenate((np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]))
    edges = np.array([
        9.999999999999999e22, 1e23, 5e-324, 2.2250738585072014e-308,
        2.225073858507201e-308, 1.7976931348623157e308, 0.1, 0.2, 0.3,
        1e16, 1e17, 9007199254740993.0, 123456789012345678.0, 1e-4, 1e-5,
        9.9999e-5, 0.0, math.inf, math.nan, 1.0, 1.5,
        _shortest.LOWEST, _shortest.HIGHEST,
        np.nextafter(_shortest.LOWEST, 0), np.nextafter(_shortest.HIGHEST, 0)])
    payloads = (np.int64(0x7FF0000000000000)
                | rng.integers(1, 1 << 52, 1000)).view(np.float64)
    values = np.concatenate((decimals, near, dyadic, scaled, powers, edges,
                             payloads))
    signs = rng.integers(0, 2, len(values)) << 63
    values = (values.view(np.int64) ^ signs).view(np.float64)
    return np.concatenate((patterns, values, -edges))


def test_seeded_sweep_matches_repr():
    values = sweep_values(np.random.default_rng(20261019))
    assert len(values) >= 1_000_000
    assert_matches_repr(values)


def test_kernel_certifies_computed_values():
    # below about 1e9 a double with all 53 bits in use has a decimal
    # expansion far too long to end in a tie at 17 digits: the kernel
    # settles all but a sliver, so repr is not carrying the sweep (above,
    # exact halves such as 2816394241744067.5 are real ties, left to repr)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(CHUNK) * 10.0 ** rng.integers(-250, 9,
                                                               CHUNK)
    assert _shortest.repr_text(values)[3].mean() > 0.9999


@pytest.mark.parametrize("argv", [
    ["profile", "--seed-figures", "fig2"],
    ["surface", "--n", "4", "--H", "-1.5", "--C", "-0.5"],
])
def test_kernel_certifies_the_cli_tables(monkeypatch, argv):
    # at least 99 % of a real table's distinct floats take the kernel's
    # digits, not repr's
    tables = []
    monkeypatch.setattr(cli_mod, "_emit_csv",
                        lambda header, table, *_, **__: tables.append(table))
    assert cli_mod.main(argv) == 0
    values = np.unique(np.ravel(tables[0]))
    assert len(values) >= cli_mod.CSV_KERNEL_MIN
    assert _shortest.repr_text(values)[3].mean() >= 0.99


def test_text_is_followed_by_room():
    # the CSV writer puts its separator after each text: the ROOM bytes
    # from a start belong to that value alone
    values = np.array([-1.2345678901234567e-100, 0.001, 1e16, -0.0, 3.5])
    text, starts, lengths, _ = _shortest.repr_text(values)
    ends = starts + _shortest.ROOM
    assert (ends[:-1] <= starts[1:]).all() and ends[-1] <= len(text)
    assert (lengths <= _shortest.LONGEST).all()


def test_empty_input():
    text, starts, lengths, certified = _shortest.repr_text(np.empty(0))
    assert len(starts) == len(lengths) == len(certified) == 0
