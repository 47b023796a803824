"""Tests for the terminating basic hypergeometric series.

The primary oracle is an exact-rational reimplementation
(:mod:`exact_oracles`); float inputs are converted to Fractions exactly, and
the evaluator returns the float the exact sum rounds to, so any disagreement
at all is a real bug.
"""

import dataclasses
import decimal
import json
import operator
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import phi43_exact, qracah_exact, shift_exact
from helpers import CONFIG_DIR, QR24_DEFAULT, phi43_grid, phi43_lone
from xychain import qseries
from xychain.errors import DenominatorVanishes, XYChainError
from xychain.qracah import QRacahParams, _polynomial_grids
from xychain.qseries import phi43_terminating_exact

# (i, numerator params, denominator params, q, z) exercising long products,
# mixed signs, and parameters of magnitude > 1.
ORACLE_CASES = [
    (4, (0.5, -0.75, 2.0), (0.125, 1.5, -5.0), 0.5, 0.5),
    (7, (-0.4, 9.0, 1.0 / 3.0), (4.0 / 7.0, -6.0, 5.5), 0.4, 3.0 / 7.0),
    (12, (1.5, -0.5, 0.625), (0.4375, -2.25, 1.625), 0.625, 1.0 / 3.0),
]

# Same cases frozen as regression pins (validated against the exact oracle).
FROZEN_VALUES = [-4.0, 4037579.0665726066, -16108209.864902496]


class TestAgainstExactRational:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_exact_oracle(self, case):
        assert phi43_lone(*case) == float(phi43_exact(*case))

    @pytest.mark.parametrize("case, frozen", list(zip(ORACLE_CASES, FROZEN_VALUES)))
    def test_frozen_regression_values(self, case, frozen):
        assert phi43_lone(*case) == pytest.approx(frozen, rel=1e-12)

    def test_random_parameters_match_oracle(self, rng):
        for _ in range(25):
            i = int(rng.integers(0, 9))
            nums = tuple(rng.uniform(-0.9, 0.9, 3))
            dens = tuple(rng.uniform(-0.45, 0.45, 3))
            q = float(rng.uniform(0.3, 0.9))
            z = float(rng.uniform(-0.9, 0.9))
            exact = float(phi43_exact(i, nums, dens, q, z))
            assert phi43_lone(i, nums, dens, q, z) == exact


class TestStructure:
    def test_degree_zero_is_one(self):
        assert phi43_lone(0, (0.3, -0.5, 2.0), (0.2, 0.4, 0.6), 0.5, 0.8) == 1.0

    def test_zero_argument_is_one(self):
        assert phi43_lone(6, (0.3, -0.5, 2.0), (0.2, 0.4, 0.6), 0.5, 0.0) == 1.0

    def test_degree_one_single_step(self):
        nums, dens, q, z = (0.25, -0.5, 0.75), (0.125, 0.375, -0.625), 0.5, 0.5
        n, d = [Fraction(v) for v in nums], [Fraction(v) for v in dens]
        expected = 1 + (
            (1 - 1 / Fraction(q)) * (1 - n[0]) * (1 - n[1]) * (1 - n[2])
            / ((1 - Fraction(q)) * (1 - d[0]) * (1 - d[1]) * (1 - d[2]))
        ) * Fraction(z)
        assert phi43_lone(1, nums, dens, q, z) == float(expected)

    def test_vanishing_numerator_truncates_early(self):
        # A numerator parameter equal to q^-2 kills every term with k >= 3, so
        # a denominator zero that would occur at k = 4 is never reached.
        q = 0.5
        args = (9, (q**-3, 0.3, 0.5), (q**-4, 0.2, 0.1), q, 0.7)
        assert phi43_lone(*args) == float(phi43_exact(*args))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            phi43_lone(-1, (0.1, 0.2, 0.3), (0.1, 0.2, 0.3), 0.5, 0.5)
        for q in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(ValueError, match=re.escape(f"got {q}")):
                phi43_lone(2, (0.1, 0.2, 0.3), (0.1, 0.2, 0.3), q, 0.5)


class TestDenominatorVanishes:
    """The step and parameter of an exactly vanishing denominator factor are
    decided on the exact arguments."""

    def test_reports_offending_step_and_parameter(self):
        # With q = 1/2 the denominator factor 1 - 4 * q^k hits exact zero at
        # k = 2 (powers of two are exact in binary floats).
        with pytest.raises(DenominatorVanishes) as excinfo:
            phi43_lone(6, (0.3, 0.7, 0.9), (4.0, 0.2, 0.1), 0.5, 0.5)
        assert excinfo.value.k == 2
        assert excinfo.value.param == 4.0

    def test_fractional_parameter_is_reported_exactly(self):
        # With q = 2/3 the factor 1 - (9/4) q^k is exactly zero at k = 2
        with pytest.raises(DenominatorVanishes) as excinfo:
            phi43_lone(6, (0.3, 0.7, 0.9), (Fraction(9, 4), 0.2, 0.1), Fraction(2, 3), 0.5)
        assert (excinfo.value.k, excinfo.value.param) == (2, 2.25)

    def test_q_power_denominator_also_detected(self):
        # The (q; q)_k factor itself cannot vanish for 0 < q < 1, but a
        # denominator parameter exactly equal to 1 vanishes at k = 0.
        with pytest.raises(DenominatorVanishes) as excinfo:
            phi43_lone(3, (0.3, 0.7, 0.9), (1.0, 0.2, 0.1), 0.5, 0.5)
        assert excinfo.value.k == 0
        assert excinfo.value.param == 1.0


class TestExactDecisions:
    """``phi43_terminating_exact`` decides termination and vanishing
    denominators on its exact arguments, never on rounded decimals."""

    def test_denominator_that_only_rounds_to_zero_does_not_raise(self):
        # 1 - b q^2 = -2.5e-46: zero at 40 significant digits, not exactly.
        args = (6, (0.3, 0.7, 0.9), (Fraction(4) + Fraction(1, 10**45), 0.2, 0.1),
                Fraction(1, 2), Fraction(1, 2))
        assert phi43_lone(*args) == float(phi43_exact(*args))

    def test_numerator_that_only_rounds_to_zero_does_not_terminate(self):
        # 1 - a1 q^3 = -1.25e-101 and 1 - b1 q^4 = -6.25e-102 both round to
        # zero at 40 and at 80 significant digits; their ratio makes the later
        # terms ~1e10.
        q, tiny = Fraction(1, 2), Fraction(1, 10**100)
        nums = (8 + tiny, 0.3, 0.5)
        args = (9, nums, (16 + tiny, 0.2, 0.1), q, Fraction(7, 10))
        assert phi43_lone(*args) == float(phi43_exact(*args))
        # With b1 exactly 16 the series runs on into an exact denominator zero.
        with pytest.raises(DenominatorVanishes) as excinfo:
            phi43_lone(9, nums, (16.0, 0.2, 0.1), q, Fraction(7, 10))
        assert (excinfo.value.k, excinfo.value.param) == (4, 16.0)


def _first_lone_failure(rows, columns, q, z):
    """The exception of the first entry, in row order, whose own 1 x 1 grid
    raises, or ``None``."""
    for row in rows:
        for column in columns:
            try:
                phi43_grid([row], [column], q, z)
            except (ArithmeticError, XYChainError) as exc:
                return exc
    return None


class TestGrid:
    """A grid call sums rows ``(i, a1)`` against columns ``(a2, a3, b1, b2,
    b3)``; each entry is its own 1 x 1 grid, and a grid that fails raises
    what its first failing entry raises."""

    Q, Z = Fraction(1, 2), Fraction(7, 10)
    # q^-x ends column x's series at step x
    POINTS = [(Fraction(2) ** x, 0.5) for x in range(10)]
    CLEAN_DENS = (0.25, -0.2, 0.1)
    # 1 - 16 q^4 = 0: an entry with these denominators raises once its
    # series passes step 4
    ZERO_DENS = (16.0, 0.2, 0.1)

    @staticmethod
    def _columns(points, dens):
        return [(*point, *dens) for point in points]

    def _assert_lone_entries(self, rows, columns, grid):
        assert [len(row) for row in grid] == [len(columns)] * len(rows)
        for (i, a1), values in zip(rows, grid):
            for (a2, a3, *dens), value in zip(columns, values):
                args = (i, (a1, a2, a3), dens, self.Q, self.Z)
                assert value.hex() == phi43_lone(*args).hex()
                assert value.hex() == float(phi43_exact(*args)).hex()

    def test_entries_equal_their_own_calls(self):
        rows = [(i, 0.3 - 0.07 * i) for i in range(10)]
        columns = self._columns(self.POINTS, self.CLEAN_DENS)
        grid = phi43_grid(rows, columns, self.Q, self.Z)
        self._assert_lone_entries(rows, columns, grid)

    def test_exact_denominator_zero_raises_the_first_entrys_error(self):
        rows = [(i, 0.3) for i in range(10)]
        columns = self._columns(self.POINTS, self.ZERO_DENS)
        lone = _first_lone_failure(rows, columns, self.Q, self.Z)
        with pytest.raises(DenominatorVanishes) as excinfo:
            phi43_grid(rows, columns, self.Q, self.Z)
        assert (excinfo.value.k, excinfo.value.param) == (lone.k, lone.param) == (4, 16.0)

    def test_columns_carry_their_own_denominators(self):
        # Two column groups: only the second group's denominators vanish,
        # and its columns up to x = 4 end their series before they do.
        rows = [(i, 0.3 - 0.07 * i) for i in range(10)]
        clean = self._columns(self.POINTS, self.CLEAN_DENS)
        columns = clean + self._columns(self.POINTS[:5], self.ZERO_DENS)
        grid = phi43_grid(rows, columns, self.Q, self.Z)
        self._assert_lone_entries(rows, columns, grid)
        # With the whole second group, the first entry past step 4 is row 5,
        # column x = 5 of that group, after every earlier entry of both.
        columns = clean + self._columns(self.POINTS, self.ZERO_DENS)
        lone = _first_lone_failure(rows, columns, self.Q, self.Z)
        with pytest.raises(DenominatorVanishes) as excinfo:
            phi43_grid(rows, columns, self.Q, self.Z)
        assert (excinfo.value.k, excinfo.value.param) == (lone.k, lone.param) == (4, 16.0)
        lone_failures = [
            (i, g) for i, row in enumerate(rows) for g, column in enumerate(columns)
            if _first_lone_failure([row], [column], self.Q, self.Z)
        ]
        assert lone_failures[0] == (5, 15)
        assert all(g >= 15 and i >= 5 for i, g in lone_failures)

    @pytest.mark.parametrize("huge_row, error", [(1, OverflowError), (6, DenominatorVanishes)])
    def test_first_failing_entry_in_row_order_decides(self, huge_row, error):
        # Row huge_row overflows from column 1 on, and row 5 reaches the
        # denominator zero at column 5: the earlier failure is raised.
        z = Fraction(10**20)
        rows = [(i, -1e300 if i == huge_row else 0.3) for i in range(10)]
        columns = self._columns(self.POINTS, self.ZERO_DENS)
        lone = _first_lone_failure(rows, columns, self.Q, z)
        with pytest.raises(error) as excinfo:
            phi43_grid(rows, columns, self.Q, z)
        assert type(lone) is error and str(excinfo.value) == str(lone)

    def test_empty_grid(self):
        columns = self._columns(self.POINTS, (0.1, 0.2, 0.3))
        assert phi43_grid([], columns, self.Q, self.Z) == []
        assert phi43_grid([(2, 0.1), (3, 0.2)], [], self.Q, self.Z) == [[], []]


class TestBlock:
    """A block of grids that share q, z, shape and degree is summed as one
    double-word rung call; each grid returns what its own block of one
    returns, values or exception, and only a grid out of the rung's range
    goes whole to the decimal ladder."""

    Q, Z = Fraction(1, 2), Fraction(7, 10)
    DEGREES = range(6)
    # q^-x ends column x's series at step x
    POINTS = [(Fraction(2) ** x, 0.5) for x in range(6)]
    # 1 - (4 + 1/(3 10^38)) q^2 = -8.3e-40: the rung refuses every entry
    # that reads it, past step 2, and so does the 40-digit sum; 80 digits
    # prove them
    ILL = Fraction(4) + Fraction(1, 3 * 10**38)

    def _grids(self):
        rows = [(i, 0.3 - 0.07 * i) for i in self.DEGREES]
        return {
            "plain": (rows, [(*point, 0.25, -0.2, 0.1) for point in self.POINTS]),
            "plain-unterminated": ([(i, -0.2 + 0.05 * i) for i in self.DEGREES],
                                   [(0.5 - 0.1 * j, 0.25, 0.125, -0.2, 0.1) for j in range(6)]),
            # 1 - 16 q^4 = 0: row 5, column x = 5 reaches it first
            "denominator-zero": ([(i, 0.3) for i in self.DEGREES],
                                 [(*point, 16.0, 0.2, 0.1) for point in self.POINTS]),
            # a1 = -1e280 is beyond 2^900; columns of x <= 1 end every series
            # by step 1, so every value is finite
            "huge-a1": ([(i, -1e280) for i in self.DEGREES],
                        [(Fraction(2) ** x, a3, 0.25, -0.2, 0.1)
                         for x in (0, 1) for a3 in (0.5, -0.7, 2.0)]),
            "ill-conditioned": (rows, [(self.ILL, 0.5 - 0.1 * j, 0.4, 0.2, 0.1)
                                       for j in range(6)]),
        }

    @staticmethod
    def _same(got, lone):
        if isinstance(lone, Exception):
            return type(got) is type(lone) and str(got) == str(lone)
        return not isinstance(got, Exception) and got.tobytes() == lone.tobytes()

    def test_each_grid_is_its_own_block_of_one(self, sums, monkeypatch):
        grids = self._grids()
        rungs = []
        grid_sums = qseries._Grid.sums
        monkeypatch.setattr(qseries._Grid, "sums", lambda grid, block, rung: (
            rungs.append(rung) or grid_sums(grid, block, rung)))
        lone = {name: phi43_terminating_exact([grid], self.Q, self.Z)[0]
                for name, grid in grids.items()}
        lone_sums, lone_rungs = Counter(sums), rungs[:]
        sums.clear()
        rungs.clear()
        block = phi43_terminating_exact(grids.values(), self.Q, self.Z)
        assert len(block) == len(grids)
        for (name, expected), got in zip(lone.items(), block):
            assert self._same(got, expected), name
        assert isinstance(lone["denominator-zero"], DenominatorVanishes)
        assert (lone["denominator-zero"].k, lone["denominator-zero"].param) == (4, 16.0)
        # the same decimal sums, and the rung refused only the huge grid whole
        assert Counter(sums) == lone_sums and (40, False) in sums and (80, True) in sums
        assert [rung is None for rung in rungs] == [name == "huge-a1" for name in grids]
        assert rungs == lone_rungs
        assert Counter(digits for digits, _ in sums)[40] > 36

    @pytest.mark.parametrize("order", ["1 2 6", "2 1", "6 2 1 1"])
    def test_grids_of_different_numbers_of_triples(self, monkeypatch, order):
        # Block-mates hold 1, 2 or 6 distinct (b1, b2, b3) triples, whose
        # runs the block forms once each.  The triple (1e100, 1e100, 1e100)
        # puts its columns' quotients below 2^-900: the rung refuses that
        # grid whole, and only it.
        rows = [(i, 0.3 - 0.07 * i) for i in self.DEGREES]
        far = (1e100,) * 3
        grids = {
            "1": (rows, [(*point, 0.25, -0.2, 0.1) for point in self.POINTS]),
            "2": (rows, [(*point, *(far if x % 2 else (0.25, -0.2, 0.1)))
                         for x, point in enumerate(self.POINTS)]),
            "6": (rows, [(*point, 0.25 + x / 64, -0.2, 0.1) for x, point in enumerate(self.POINTS)]),
        }
        grids = [grids[name] for name in order.split()]
        assert [len({column[2:] for column in columns}) for _, columns in grids] == [
            int(name) for name in order.split()]
        refused = []
        grid_sums = qseries._Grid.sums
        monkeypatch.setattr(qseries._Grid, "sums", lambda grid, block, rung: (
            refused.append(rung is None) or grid_sums(grid, block, rung)))
        block = phi43_terminating_exact(grids, self.Q, self.Z)
        assert refused == [name == "2" for name in order.split()]
        for grid, got in zip(grids, block):
            assert self._same(got, phi43_terminating_exact([grid], self.Q, self.Z)[0])

    def _rungs(self, monkeypatch):
        """Per grid summed, whether the double-word rung refused it whole."""
        refused = []
        grid_sums = qseries._Grid.sums
        monkeypatch.setattr(qseries._Grid, "sums", lambda grid, block, rung: (
            refused.append(rung is None) or grid_sums(grid, block, rung)))
        return refused

    def _exact_values(self, grid, got, q, z):
        rows, columns = grid
        for (i, a1), values in zip(rows, got):
            for (a2, a3, *dens), value in zip(columns, values):
                assert value.hex() == float(phi43_exact(i, (a1, a2, a3), dens, q, z)).hex()

    def _dead_column_refuses_nothing(self, monkeypatch, column):
        """A grid whose last column is ``column``, dead from step 0, is
        proved by the rung, next to a plain grid and one that reaches a
        denominator zero."""
        grids = self._grids()
        rows, columns = grids["plain"]
        dead = (rows, columns[:5] + [column])
        block = [grids["plain"], dead, grids["denominator-zero"]]
        refused = self._rungs(monkeypatch)
        got = phi43_terminating_exact(block, self.Q, self.Z)
        assert refused == [False] * 3
        for grid, values in zip(block, got):
            assert self._same(values, phi43_terminating_exact([grid], self.Q, self.Z)[0])
        assert got[1][:, 5].tolist() == [1.0] * 6
        self._exact_values(dead, got[1], self.Q, self.Z)
        assert isinstance(got[2], DenominatorVanishes) and (got[2].k, got[2].param) == (4, 16.0)

    def test_ratio_read_at_no_live_step_refuses_nothing(self, sums, monkeypatch):
        # a3 = 1e280 is beyond 2^900, but its column's a2 = 1 ends the series
        # at step 0, so no live factor reads it
        self._dead_column_refuses_nothing(monkeypatch, (1.0, 1e280, 0.25, -0.2, 0.1))

    def test_triple_read_at_no_live_step_refuses_nothing(self, sums, monkeypatch):
        # b1 = 1e280 is beyond 2^900, but its column's a2 = 1 ends the series
        # at step 0: its triple's run is dead from step 0, so its NaN words
        # reach no quotient
        self._dead_column_refuses_nothing(monkeypatch, (1.0, 0.5, 1e280, -0.2, 0.1))

    def test_power_beyond_range_read_by_every_grid_refuses_every_grid(self, sums, monkeypatch):
        # q^-46 = 1e276 is beyond 2^900 and every grid's heads read it at
        # step 0; columns of x <= 1 end every series by step 1
        q = Fraction(1, 10**6)
        block = [([(i, a1 - 0.01 * i) for i in range(40, 48)],
                  [(q ** -x, a3, 0.25, -0.2, 0.1) for x in (0, 1) for a3 in (0.5, a1, 2.0)])
                 for a1 in (0.3, -0.6)]
        refused = self._rungs(monkeypatch)
        got = phi43_terminating_exact(block, q, q)
        assert refused == [True, True]
        assert Counter(digits for digits, _ in sums)[40] == 2 * 8 * 6
        for grid, values in zip(block, got):
            self._exact_values(grid, values, q, q)

    def test_parts_of_a_block_give_the_same_values(self, monkeypatch):
        # the whole block in one part, then parts of two grids
        grids = list(self._grids().values()) * 3
        sizes = []
        block_sums = qseries._Block.sums
        monkeypatch.setattr(qseries._Block, "sums",
                            lambda block: sizes.append(len(block.grids)) or block_sums(block))
        whole = phi43_terminating_exact(grids, self.Q, self.Z)
        monkeypatch.setattr(qseries, "_part_size", lambda *shape: 2)
        parts = phi43_terminating_exact(iter(grids), self.Q, self.Z)
        assert all(map(self._same, parts, whole)) and len(whole) == 15
        assert sizes == [15] + [2] * 7 + [1]

    def test_part_keeps_each_grids_chunk(self):
        # the terms over all the padded steps of a part stay within
        # _CHUNK_TERMS, so the rung never halves a part's chunk
        for rows, columns, length in [(5, 10, 4), (8, 16, 7), (9, 18, 8), (17, 34, 16),
                                      (21, 42, 20), (1, 1, 0), (260, 260, 4)]:
            size = qseries._part_size(rows, columns, length)
            chunk = qseries._chunk(length)
            steps = -(-(length + 1) // chunk) * chunk
            assert size == 1 or size * steps * rows * columns <= qseries._CHUNK_TERMS
            assert size == 1 or size * (length + 1) * (rows + columns) <= qseries._CHUNK_TERMS
            assert (size + 1) * max(steps * rows * columns,
                                    (length + 1) * (rows + columns)) > qseries._CHUNK_TERMS

    @pytest.mark.parametrize("other", [
        ([(i, 0.3) for i in range(5)], [(0.5, 0.25, 0.125, -0.2, 0.1)] * 6),
        ([(i, 0.3) for i in range(6)], [(0.5, 0.25, 0.125, -0.2, 0.1)] * 5),
        ([(i + 1, 0.3) for i in range(6)], [(0.5, 0.25, 0.125, -0.2, 0.1)] * 6),
    ], ids=["rows", "columns", "degree"])
    def test_grids_of_another_shape_are_refused(self, other):
        with pytest.raises(ValueError, match="share"):
            phi43_terminating_exact([self._grids()["plain"], other], self.Q, self.Z)

    def test_empty_block(self):
        assert phi43_terminating_exact([], self.Q, self.Z) == []


@pytest.fixture
def calls(monkeypatch):
    """Every call of the object rungs: its digits (``None`` for the exact
    sums), its entries and their values."""
    record = []
    objects = qseries._Grid.objects

    def recording(grid, block, digits, entries):
        values = objects(grid, block, digits, entries)
        record.append((digits, list(entries), values))
        return values

    monkeypatch.setattr(qseries._Grid, "objects", recording)
    return record


@pytest.fixture
def sums(monkeypatch):
    """The digits of every decimal sum of a grid entry, and whether its bound
    proved it; an exact sum, which proves its entry, as ``(None, True)``."""
    record = []
    objects = qseries._Grid.objects

    def recording(grid, block, digits, entries):
        values = objects(grid, block, digits, entries)
        record.extend((digits, value is not None) for value in values)
        return values

    monkeypatch.setattr(qseries._Grid, "objects", recording)
    return record


#: The digits of every decimal rung, from START_DIGITS to PRECISION_CAP.
DECIMAL_RUNGS = [40, 80, 160, 320, 640, 1280, 2560]
#: The ladder of an entry that no decimal rung proves: every decimal rung
#: refuses it, and its exact sum decides it.
CLIMB = [(digits, False) for digits in DECIMAL_RUNGS] + [(None, True)]


class TestErrorBound:
    """A decimal sum is accepted only when its running error bound proves the
    float that the exact sum rounds to; otherwise the digits double."""

    def test_ill_conditioned_factor_is_refused_by_the_bound(self, sums):
        # 1 - b1 q^2 = -8.3e-40 has condition |b1 q^2| / |1 - b1 q^2| ~ 1.2e39:
        # at 40 digits the bound of that factor alone exceeds 1, at 80 digits
        # it is below 1e-39
        args = (6, (0.3, 0.7, 0.9), (Fraction(4) + Fraction(1, 3 * 10**38), 0.2, 0.1),
                Fraction(1, 2), Fraction(1, 2))
        assert phi43_lone(*args) == float(phi43_exact(*args))
        assert sums == [(40, False), (80, True)]

    @pytest.mark.parametrize("nums", [
        (Fraction(4) + Fraction(1, 3 * 10**38), 0.7, 0.9),
        (0.3, Fraction(4) + Fraction(1, 3 * 10**38), 0.9),
    ], ids=["head", "column"])
    def test_ill_conditioned_run_is_refused_by_the_bound(self, sums, nums):
        # the factor above in a row's head, 1 - a1 q^2, or in a column's
        # run, 1 - a2 q^2
        args = (6, nums, (0.4, 0.2, 0.1), Fraction(1, 2), Fraction(1, 2))
        assert phi43_lone(*args) == float(phi43_exact(*args))
        assert sums == [(40, False), (80, True)]

    def test_bound_counts_each_rounding(self, sums, monkeypatch):
        # Degree 1, every parameter zero, q = 1/2: the sum is 1 - 2 z =
        # 1 + 3 2^-55, which the double-word rung refuses (see
        # TestDoubleWordRung).  At 40 digits, with u = 5e-40: the head
        # (1 - q^-1) (1 - a1) is 3u (u plus u times the condition 2) + u + u;
        # the column factor is (1 - a2) (1 - a3), u + u + u, times the
        # quotient z / ((1 - q) (1 - b1) (1 - b2) (1 - b3)): (1 - q) (1 - b1)
        # 2u (u plus u times the condition 1) + u + u, (1 - b2) (1 - b3)
        # u + u + u, and u each for their product, z, the division and the
        # column's product; each prefix adds u and the one addition u: 22u,
        # times sum |term_k| and 1.0001, each rounded up to 9 digits.
        errors = []
        context = qseries._context

        class Recording(decimal.Context):
            def subtract(self, a, b):
                errors.append(b)
                return super().subtract(a, b)

        def recording(digits, rounding=decimal.ROUND_HALF_EVEN):
            made = context(digits, rounding)
            if rounding != decimal.ROUND_FLOOR:
                return made
            return Recording(prec=made.prec, rounding=rounding, Emin=made.Emin, Emax=made.Emax)

        monkeypatch.setattr(qseries, "_context", recording)
        z = -3 * 2**-56
        assert phi43_lone(1, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Fraction(1, 2), z) == 1.0
        assert sums == [(40, True)]
        up = decimal.Context(prec=9, rounding=decimal.ROUND_CEILING)
        total = up.add(1, abs(decimal.Decimal(-2 * z)))
        u = decimal.Decimal("5e-40")
        assert errors == [up.multiply(up.multiply(total, 22 * u), decimal.Decimal("1.0001"))]

    @pytest.mark.parametrize("x", [(998999999999, 10**12), (1001000000001, 10**12)])
    def test_condition_is_rounded_upward(self, x):
        # A degree-1 row of a1 = x: its prefix bound is 6 + 3 |x| / |1 - x|
        # (see _Block.factors), which every 9-digit rounding keeps above:
        # 6 + 3 * 998.999999000999... for x = 0.998999999999, where rounding
        # |1 - x| = 0.001000000001 upward to 9 digits before dividing would
        # give 3002.99998, and 6 + 3 * 1000.999999001... for x =
        # 1.001000000001, where rounding the negative x / (1 - x) upward, not
        # away from zero, would give 3008.99997.
        zero = (0, 1)
        row, pair, triple = (1, x), (zero, zero), (zero, zero, zero)
        block = qseries._Block((1, 2), [([row], [pair + triple])], (1, 3))
        with decimal.localcontext(qseries._context(40)):
            _, bounds, _ = block.factors(qseries._DECIMALS, [row], [pair + triple],
                                         ([1], [1], [1]), 1)
        condition = abs(Fraction(*x) / (1 - Fraction(*x)))
        assert 6 + 3 * condition <= bounds[1, 0] <= 6 + 3 * condition + Fraction(1, 10**5)

    def test_near_tie_is_refused_then_settled(self, sums, monkeypatch):
        # The sum is 1 + 2^-53 + 1e-50, just above the midpoint of 1 and
        # 1 + 2^-52.  The 40-digit sum rounds to below the midpoint, and its
        # interval straddles it; the 80-digit interval lies above it and
        # proves the sum, although z is an exact 40-digit decimal: no entry
        # leaves the decimal rungs before the cap.
        above_tie = Fraction(1, 2**53) + Fraction(1, 10**50)
        args = (1, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Fraction(1, 2), -above_tie / 2)
        assert phi43_lone(*args) == float(phi43_exact(*args)) == 1 + 2**-52
        assert sums == [(40, False), (80, True)]
        # a sum at the cap itself still proves
        sums.clear()
        monkeypatch.setattr(qseries, "PRECISION_CAP", 80)
        assert phi43_lone(*args) == 1 + 2**-52
        assert sums == [(40, False), (80, True)]
        # past the cap the exact sum gives the same float
        sums.clear()
        monkeypatch.setattr(qseries, "PRECISION_CAP", 40)
        assert phi43_lone(*args) == 1 + 2**-52
        assert sums == [(40, False), (None, True)]

    def test_exact_sum_too_large_for_a_float_fails_then_and_there(self, sums, monkeypatch):
        # 1 - a1 q^2 = -2.5e-40 makes the 40-digit bound refuse the sum, about
        # -1e600 with z = 10^200; the 80-digit sum proves it too large for a
        # float, which fails the entry, and it goes no higher
        args = (3, (Fraction(4) + Fraction(1, 10**39), 0.0, 0.0), (0.0, 0.0, 0.0),
                Fraction(1, 2), Fraction(10**200))
        with pytest.raises(OverflowError, match="series sum"):
            phi43_lone(*args)
        assert sums == [(40, False), (80, True)]
        # with the cap at 40 digits the exact sum fails it, then and there
        sums.clear()
        monkeypatch.setattr(qseries, "PRECISION_CAP", 40)
        with pytest.raises(OverflowError, match="too large for a float"):
            phi43_lone(*args)
        assert sums == [(40, False), (None, True)]

    @pytest.mark.parametrize("a1", [
        Fraction(1, 2**1076), Fraction(-1, 2**1076), Fraction(3, 2**1076),
        Fraction(-3, 2**1076), Fraction(0),
    ], ids=["+0.0", "-0.0", "+tiny", "-tiny", "exact-zero"])
    def test_sum_next_to_zero_keeps_its_sign(self, a1):
        # With q = z = 1/2 the sum is 1 + (a1 - 1) = a1, which rounds to a
        # signed zero or to the smallest subnormal; the bound proves it only
        # once 1 - a1 is carried to ~325 digits.  An exact zero is never
        # proved; the exact sum decides it after the decimal rung at the
        # cap.
        args = (1, (a1, 0.0, 0.0), (0.0, 0.0, 0.0), Fraction(1, 2), Fraction(1, 2))
        assert phi43_lone(*args).hex() == float(phi43_exact(*args)).hex()

    @pytest.mark.parametrize("a1, value", [
        (Fraction(2**53 + 1, 2**53), 1.0),
        (Fraction(2**53 + 3, 2**53), 1 + 2**-51),
    ], ids=["down-to-even", "up-to-even"])
    def test_exact_tie_is_decided_once_its_arguments_are_exact(self, sums, a1, value):
        # The sum is a1, halfway between two floats: every interval around
        # it straddles the tie, so every decimal rung refuses it, up to the
        # cap, and the exact sum of the exact arguments decides, rounding to
        # even.
        args = (1, (a1, 0.0, 0.0), (0.0, 0.0, 0.0), Fraction(1, 2), Fraction(1, 2))
        assert phi43_lone(*args) == float(phi43_exact(*args)) == value
        assert sums == CLIMB

    @pytest.mark.parametrize("family", ["qr24", "qr13"])
    def test_exact_zeros_leave_the_ladder_at_once(self, sums, family):
        # This point's grids hold exact zeros (1 + term = 0, through the
        # non-terminating quotient -32/837), two in qr24 and one in qr13,
        # which no decimal sum proves: each climbs every decimal rung, and
        # its exact sum decides it at once after the cap.
        params = QRacahParams(a=0.25, b=0.5, c=-1.0, N=5, q=0.5)
        base, shifted = _polynomial_grids(family, params)
        zeros = {"qr24": 2, "qr13": 1}[family]
        assert sums == [step for step in CLIMB for _ in range(zeros)]
        x_shift, shifted_args = shift_exact(family, *params.as_tuple())
        for i in range(params.N + 1):
            for x in range(params.N + 1):
                assert base[i, x].hex() == float(qracah_exact(i, x, *params.as_tuple())).hex()
                assert (shifted[i, x].hex()
                        == float(qracah_exact(i, x + x_shift, *shifted_args)).hex())

    # Sums at each precision for the grid pair of these points, as the
    # evaluator that summed every entry in its own call made them.
    LADDERS = {
        "escalation": (QRacahParams(a=1e-6, b=0.3, c=-0.8, N=8, q=1e-6),
                       {40: 162, 80: 18, 160: 11, 320: 2}),
        # two exact zeros, which climb to their exact sums
        "exact-zero": (QRacahParams(a=0.25, b=0.5, c=-1.0, N=5, q=0.5),
                       {**dict.fromkeys(DECIMAL_RUNGS, 2), 40: 72, None: 2}),
    }

    @pytest.mark.parametrize("name", sorted(LADDERS))
    def test_only_refused_entries_go_up_the_ladder(self, sums, name):
        params, most = self.LADDERS[name]
        _polynomial_grids("qr24", params)
        made = Counter(digits for digits, _ in sums)
        assert set(made) <= set(most)
        assert all(made[digits] <= most[digits] for digits in made), made

    def test_whole_grid_pair_goes_up_the_object_rungs_at_n60(self, calls):
        # From N = 59 the shipped point's prefix products pass 2^900, so the
        # double-word rung refuses its whole grid pair: every entry is
        # proved by a decimal rung, some only at 160 digits or more.
        params = dataclasses.replace(QR24_DEFAULT, N=60)
        base, shifted = _polynomial_grids("qr24", params)
        proved_at = _proved_at(calls)
        assert len(proved_at) == 2 * 61**2 and max(proved_at.values()) == 320
        x_shift, shifted_args = shift_exact("qr24", *params.as_tuple())
        for grid, column, args, i, x, digits in [
            (base, 0, params.as_tuple(), 30, 20, 40), (shifted, 61, shifted_args, 30, 20, 40),
            (base, 0, params.as_tuple(), 25, 60, 80), (base, 0, params.as_tuple(), 30, 59, 160),
            (shifted, 61, shifted_args, 30, 59, 160),
        ]:
            assert proved_at[i * 122 + column + x] == digits
            shift = x_shift if grid is shifted else 0
            assert grid[i, x].hex() == float(qracah_exact(i, x + shift, *args)).hex()

    def test_entry_with_an_exact_sum_goes_no_higher(self, calls):
        # Every entry goes up the ladder only while refused, and its exact
        # sum, after every decimal rung has refused it, is its last rung:
        # the exact zeros of this point (entries 15 and 20 of its grid pair)
        # are refused from 40 to 2560 digits, and no other entry forms an
        # exact sum.
        params = QRacahParams(a=0.25, b=0.5, c=-1.0, N=5, q=0.5)
        base, shifted = _polynomial_grids("qr24", params)
        ladders = {}
        for digits, entries, values in calls:
            for e, value in zip(entries, values):
                ladders.setdefault(e, []).append((digits, value is not None))
        for ladder in ladders.values():
            assert [proved for _, proved in ladder] == [False] * (len(ladder) - 1) + [True]
        assert {e: ladder for e, ladder in ladders.items() if ladder[-1][0] is None} == {
            15: CLIMB, 20: CLIMB}
        for e in (15, 20):
            i, column = divmod(e, 2 * 6)  # base columns, then shifted ones
            assert (base, shifted)[column // 6][i, column % 6] == 0.0

    def test_former_exact_sums_are_proved_at_320_digits(self, calls):
        # At q = 0.5 the shipped point's grid pair at N = 31 forms no exact
        # sum: its entries 2015 and 2047, whose arguments are exact 160-digit
        # decimals, are refused at 160 digits and proved at 320, bit for bit
        # the floats of their exact values.
        params = dataclasses.replace(QR24_DEFAULT, q=0.5, N=31)
        base, shifted = _polynomial_grids("qr24", params)
        assert all(digits is not None for digits, *_ in calls)
        proved_at = _proved_at(calls)
        assert {e: d for e, d in proved_at.items() if d == 320} == {2015: 320, 2047: 320}
        x_shift, shifted_args = shift_exact("qr24", *params.as_tuple())
        for e in (2015, 2047):
            i, column = divmod(e, 2 * 32)  # base columns, then shifted ones
            x = column % 32
            value = (qracah_exact(i, x, *params.as_tuple()) if column < 32
                     else qracah_exact(i, x + x_shift, *shifted_args))
            assert (base, shifted)[column // 32][i, x].hex() == float(value).hex()

    def test_default_grid_pair_makes_one_sum_per_entry(self, sums):
        config = json.loads((CONFIG_DIR / "qr24_default.json").read_text())
        params = QRacahParams(**{name: config[name] for name in ("a", "b", "c", "N", "q")})
        _polynomial_grids(config["family"], params)
        assert len(sums) <= 1.05 * 2 * (params.N + 1) ** 2


class TestDoubleWordRung:
    """The first rung sums every entry in double-word arithmetic and proves
    most of them; an entry it refuses goes up the decimal ladder as before."""

    @pytest.mark.parametrize("N", [4, 9, 12])
    def test_the_rung_proves_most_entries(self, sums, N):
        # every entry the rung refuses makes one 40-digit sum first
        _polynomial_grids("qr24", dataclasses.replace(QR24_DEFAULT, N=N))
        assert Counter(digits for digits, _ in sums)[40] <= 0.1 * 2 * (N + 1) ** 2

    Q = Fraction(1, 10**6)

    @pytest.mark.parametrize("degrees", [range(40, 48), range(21)],
                             ids=["power-beyond-range", "prefix-beyond-range"])
    def test_out_of_range_grid_goes_whole_to_the_decimal_rungs(self, sums, degrees):
        # q^-46 = 1e276 is beyond 2^900 = 8.5e270, and so is the prefix
        # product of the heads of degree 20, about q^-210; columns of
        # x <= 1 end every series by step 1, so every value is finite
        rows = [(i, 0.3 - 0.01 * i) for i in degrees]
        columns = [(self.Q ** -x, a3, 0.25, -0.2, 0.1) for x in (0, 1) for a3 in (0.5, -0.7, 2.0)]
        grid = phi43_grid(rows, columns, self.Q, self.Q)
        assert Counter(digits for digits, _ in sums)[40] == len(rows) * len(columns)
        for (i, a1), values in zip(rows, grid):
            for (a2, a3, *dens), value in zip(columns, values):
                args = (i, (a1, a2, a3), dens, self.Q, self.Q)
                assert value.hex() == phi43_lone(*args).hex()
                assert value.hex() == float(phi43_exact(*args)).hex()

    @pytest.mark.parametrize("degrees, kinds, copies, largest", [
        # 260 x 260 entries: a chunk of even two steps would pass 2^16 terms,
        # so the rung's arrays stay rows x columns
        (4, 5, (65, 52), 1),
        # 64 x 128 entries of degree up to 7: a chunk of 8 steps is 2^16
        # terms, which it keeps; its first pairwise sum adds 4 of them
        (8, 4, (8, 32), 4),
    ], ids=["one-step", "eight-steps"])
    def test_large_grid_chunks_stay_within_their_terms(self, sums, monkeypatch, degrees, kinds,
                                                        copies, largest):
        rows = [(i, 0.3 - 0.05 * i) for i in range(degrees)] * copies[0]
        columns = [(0.5 - 0.1 * j, 0.25, 0.125, -0.2, 0.1) for j in range(kinds)] * copies[1]
        sizes = []
        plus = qseries._plus
        monkeypatch.setattr(qseries, "_plus", lambda x, y: sizes.append(x[0].size) or plus(x, y))
        grid = phi43_grid(rows, columns, Fraction(1, 2), Fraction(7, 10))
        assert sums == [] and max(sizes) == largest * len(rows) * len(columns)
        for (i, a1), values in zip(rows[:degrees], grid):
            for (a2, a3, *dens), value in zip(columns[:kinds], values):
                assert value == phi43_lone(i, (a1, a2, a3), dens, Fraction(1, 2), Fraction(7, 10))
        assert all(row == grid[r % degrees][:kinds] * copies[1] for r, row in enumerate(grid))

    def test_runs_end_at_the_exact_steps(self, sums):
        # q^-3 q^3 = 1 exactly, but 1 + 1.2e-32 in double words at q = 7/10:
        # a run that went on to the factor 1 - q^-3 q^3 would add a term of
        # about 1e-32 z times the last one, which z = 2^80 makes visible.  The
        # first row and the first column end at step 3.
        q, z = Fraction(7, 10), Fraction(2**80)
        rows = [(5, q**-3), (5, 0.3)]
        columns = [(q**-3, 0.4, 0.25, -0.2, 0.1), (0.5, 0.4, 0.25, -0.2, 0.1)]
        grid = phi43_grid(rows, columns, q, z)
        assert sums == []
        for (i, a1), values in zip(rows, grid):
            for (a2, a3, *dens), value in zip(columns, values):
                assert value == float(phi43_exact(i, (a1, a2, a3), dens, q, z))

    def test_bound_counts_each_operation(self, monkeypatch):
        # Degree 1, every parameter zero, q = 1/2, z = 1/4.  The head:
        # 1 - q^-1 (2 plus 1 times the condition 2), 1 - a1 q^0 (2), their
        # product and its prefix (7 + 7): 20.  The column: 1 - a2 and 1 - a3
        # (2 + 2) and their product (7); 1 - q (2 plus the condition 1) and
        # 1 - b1 (2) and their product (7); 1 - b2 and 1 - b3 (2 + 2) and
        # their product (7); the denominator's product, z, the quotient, the
        # column's product and its prefix (7 + 1 + 15 + 7 + 7): 71.  The
        # term's product (7) and one addition (3): 101 u^2 in all, times
        # sum |term_k| = 1 + 2 z and the slack of length 1.
        errors = []
        proved_words = qseries._proved_words
        monkeypatch.setattr(qseries, "_proved_words",
                            lambda *words: errors.append(words[2]) or proved_words(*words))
        # two equal columns, so that each reads its own column's bound
        phi43_grid([(1, 0.0)], [(0.0,) * 5] * 2, Fraction(1, 2), Fraction(1, 4))
        assert errors[0].tolist() == [[[101 * 1.5 * (2**-106 * (1 + 2**-40 + 17 * 2**-50))] * 2]]

    # Degree 1 with every parameter zero and q = 1/2: the sum is 1 - 2 z.
    @pytest.mark.parametrize("z, value, ladder", [
        # 1 + 3 2^-55: the low word is within half the gap above 1 but not
        # within half the gap below, 2^-54
        (-3 * 2**-56, 1.0, [(40, True)]),
        # 1 + 2^-56 is within both
        (-(2**-57), 1.0, []),
        # 2^-100 above the tie 1.5 + 2^-53, nearer than the rung's bound,
        # about 2^-98.6
        (-(Fraction(1, 2) + Fraction(1, 2**53) + Fraction(1, 2**100)) / 2, 1.5 + 2**-52,
         [(40, True)]),
        # 2^-61 above it, beyond the rung's bound
        (-(Fraction(1, 2) + Fraction(1, 2**53) + Fraction(1, 2**61)) / 2, 1.5 + 2**-52, []),
    ], ids=["above-power-of-two", "near-power-of-two", "near-tie", "off-tie"])
    def test_acceptance_boundary(self, sums, z, value, ladder):
        args = (1, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Fraction(1, 2), z)
        assert phi43_lone(*args) == float(phi43_exact(*args)) == value
        assert sums == ladder

    @pytest.mark.parametrize("a1", [Fraction(1, 2**80), Fraction(-1, 2**80)],
                             ids=["+2^-80", "-2^-80"])
    def test_sum_next_to_zero_goes_up_the_ladder(self, sums, a1):
        # With q = z = 1/2 the sum is 1 + (a1 - 1) = a1: the rung's bound is
        # about 2^-100, beyond half the gap at 2^-80, and so is the 40-digit one
        args = (1, (a1, 0.0, 0.0), (0.0, 0.0, 0.0), Fraction(1, 2), Fraction(1, 2))
        assert phi43_lone(*args).hex() == float(a1).hex()
        assert sums == [(40, False), (80, True)]

    @pytest.mark.parametrize("high, low, error, proved", [
        (1.5, 2**-53, 0.0, False),  # half the gap, exactly
        (1.5, 2**-53 - 2**-106, 0.0, True),
        (1.5, 0.0, 2**-53, False),
        (1.5, 2**-54, 2**-54 - 2**-106, True),
        (1.0, 2**-54, 0.0, False),  # half the gap below a power of two
        (1.0, -(2**-54) + 2**-107, 0.0, True),
        (1.0, 2**-54 - 2**-107, 0.0, True),
        (-1.0, -(2**-54), 0.0, False),
        (0.0, 0.0, 0.0, False),
        (-0.0, 0.0, 0.0, False),
        (5e-324, 0.0, 0.0, False),
        (float("nan"), 0.0, 0.0, False),
        (1.5, float("nan"), 0.0, False),
        (1.5, 0.0, float("inf"), False),
    ])
    def test_proved_words(self, high, low, error, proved):
        assert qseries._proved_words(np.array(high), np.array(low), np.array(error)) == proved


def _proved_at(calls):
    """Per entry of the grids of the recorded ``calls``, the digits of the
    rung that proved it."""
    return {e: digits for digits, entries, values in calls
            for e, value in zip(entries, values) if value is not None}


def _exact(words):
    """The exact values of double words ``(hi, lo)``, as Fractions."""
    return [Fraction(float(h)) + Fraction(float(lo)) for h, lo in zip(*words)]


class TestDoubleWordArithmetic:
    """Each double-word operation of the rung stays within the relative error
    bound, in units of u^2 = 2^-106, that Joldes, Muller and Popescu (ACM
    TOMS 44(2), 2017) prove for its algorithm, checked exactly."""

    @staticmethod
    def _words(rng, n):
        scale = 2.0 ** rng.integers(-40, 40, n) * rng.choice([-1, 1], n)
        # a quarter of the high words one ulp below a power of two
        high = np.where(rng.random(n) < 0.25, np.nextafter(scale, 0), rng.uniform(0.5, 1, n) * scale)
        return qseries._fast_two_sum(high, high * rng.uniform(-1, 1, n) * 2.0**-53)

    @pytest.mark.parametrize("name, constant, exact", [
        ("_times", 7, operator.mul),
        ("_plus", 3, operator.add),
        ("_divide", 15, operator.truediv),
    ])
    def test_operation_within_its_bound(self, rng, name, constant, exact):
        x, y = self._words(rng, 2000), self._words(rng, 2000)
        # near-cancelling sums: y close to -x
        y = qseries._fast_two_sum(*np.where(rng.random(2000) < 0.3, (-x[0], y[1]), y))
        result = getattr(qseries, name)(x, y)
        for a, b, c in zip(_exact(x), _exact(y), _exact(result)):
            value = exact(a, b)
            assert abs(c - value) <= constant * Fraction(1, 2**106) * abs(value)

    def test_one_minus_within_its_bound(self, rng):
        m = self._words(rng, 2000)
        m = qseries._fast_two_sum(np.where(rng.random(2000) < 0.3, 1.0, m[0]), m[1])
        f = qseries._one_minus(m)
        assert qseries._WORDS.units[1] == 2
        for a, c in zip(_exact(m), _exact(f)):
            assert abs(c - (1 - a)) <= 2 * Fraction(1, 2**106) * abs(1 - a)

    def test_times_float_within_its_bound(self, rng):
        x, y = self._words(rng, 2000), self._words(rng, 2000)[0]
        for a, b, c in zip(_exact(x), y, _exact(qseries._times_float(x, y))):
            value = a * Fraction(float(b))
            assert abs(c - value) <= Fraction(3, 2) * Fraction(1, 2**106) * abs(value)

    @pytest.mark.parametrize("ratio", [Fraction(7, 10), Fraction(-1, 3), Fraction(10**40, 3),
                                       Fraction(2**53 + 1, 2**53), Fraction(0),
                                       Fraction(2**900), Fraction(-1, 2**900)])
    def test_conversion_is_one_rounding(self, ratio):
        high, low = qseries._word(*ratio.as_integer_ratio())
        assert high == float(ratio) and abs(low) <= abs(high) * 2.0**-53
        assert abs(Fraction(high) + Fraction(low) - ratio) <= Fraction(1, 2**106) * abs(ratio)

    @pytest.mark.parametrize("ratio", [Fraction(1, 10**280), Fraction(10**280, 3), Fraction(10**400),
                                       Fraction(2**900 + 2**848), Fraction(-1, 2**900 + 2**848)])
    def test_conversion_refuses_beyond_its_range(self, ratio):
        # NaN words, which reach every prefix product of a live factor
        assert np.isnan(qseries._word(*ratio.as_integer_ratio())).all()

    @pytest.mark.parametrize("values, in_range", [
        ([2.0**900, -(2.0**-900)], True),
        ([np.nextafter(2.0**900, np.inf)], False),
        ([np.nextafter(2.0**-900, 0)], False),
        ([0.0], False),
        ([float("nan")], False),
        ([], True),
    ])
    def test_range_of_formed_words(self, values, in_range):
        assert qseries._in_range(np.array(values), 1).tolist() == [in_range]

    @pytest.mark.parametrize("rows, columns, in_range", [
        # by step: |rows[k, r] columns[k, c]| at its largest and its smallest
        ([[1.0, 2.0**450]], [[0.0, 2.0**450]], True),
        ([[1.0, 2.0**450]], [[np.nextafter(2.0**450, np.inf)]], False),
        ([[2.0**-450, 0.0]], [[2.0**-450, 1.0]], True),
        ([[2.0**-450, 1.0]], [[np.nextafter(2.0**-450, 0), 1.0]], False),
        # extremes at different steps do not meet
        ([[2.0**-500], [2.0**500]], [[2.0**500], [2.0**-500]], True),
        ([[float("nan")]], [[1.0]], False),
    ])
    def test_range_of_terms(self, rows, columns, in_range):
        terms = qseries._terms_in_range(np.array(rows)[:, None], np.array(columns)[:, None])
        assert terms.tolist() == [in_range]


class TestIndexArgumentSymmetry:
    """The sum is symmetric under swapping the termination index ``i`` with a
    numerator parameter ``q^-x`` for integer ``x``: both series run over
    ``k <= min(i, x)`` with identical factors."""

    @given(
        i=st.integers(0, 8),
        x=st.integers(0, 8),
        a1=st.floats(-0.9, 0.9, allow_nan=False),
        a2=st.floats(-0.9, 0.9, allow_nan=False),
        d=st.tuples(
            st.floats(-0.45, 0.45, allow_nan=False),
            st.floats(-0.45, 0.45, allow_nan=False),
            st.floats(-0.45, 0.45, allow_nan=False),
        ),
        q=st.floats(0.4, 0.9, allow_nan=False),
        z=st.floats(-0.9, 0.9, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_swap_index_with_numerator_power(self, i, x, a1, a2, d, q, z):
        # q^-x and q^-i exact, so both are the same exact sum
        q = Fraction(q)
        first = phi43_lone(i, (a1, q ** (-x), a2), d, q, z)
        second = phi43_lone(x, (a1, q ** (-i), a2), d, q, z)
        assert first == second
