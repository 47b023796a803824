"""Basic q-series building blocks.

Provides the one terminating balanced ``4phi3`` evaluator,
:func:`phi43_terminating_exact`, which returns the float that the exact sum
rounds to, so catastrophic cancellation in the alternating sum never
contaminates downstream certifications.  Each sum goes up a ladder of
precisions and stops at the first that proves its float.  At each rung the
sum is carried together with a running bound on its error (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., sections 3.1 and
3.3), and it is accepted when every real within that bound of it rounds to
one float, which is then proved to be the float the exact sum rounds to.
The first rung is double-word arithmetic on numpy arrays, about 106 bits,
for a whole block of grids at once (:meth:`_Block.double_word`); the next are stdlib
:mod:`decimal` sums at ``p`` significant digits, ``p`` doubling from
:data:`START_DIGITS` up to :data:`PRECISION_CAP`; the last is the exact
``Fraction`` sum, which ``float`` rounds correctly and so proves its float
itself.  What needs exact values (where the series ends and vanishing
denominators) is decided on the exact arguments, and a sum that is exactly
zero or exactly halfway between two floats, which no decimal rung proves,
climbs them all and ends at its exact sum.

The evaluator has one form, a block of grids that share ``q``, ``z``, one
shape and one degree.  A grid has rows of a degree ``i`` and its ``a1`` and
columns of ``(a2, a3, b1, b2, b3)``; a lone grid is a block of one, and a
single sum a 1 x 1 grid.  The double-word rung runs once for a block (in
parts of bounded size), every other decision once per grid, and a grid that
fails gives its exception alone.  The term ratio of step ``k`` is a product
of three runs over ``k``: the heads ``(1 - q^(k-i)) (1 - a1 q^k)``, once per
row, the pairs ``(1 - a2 q^k) (1 - a3 q^k)`` and the quotients ``z / ((1 -
q^(k+1)) (1 - b1 q^k) (1 - b2 q^k) (1 - b3 q^k))``, once per distinct pair
and triple of all the columns it forms, shared by a block's grids.  Every
rung forms them in one array layout
(:meth:`_Block.factors`), with the prefix products of each row's heads and
of each column's pairs times quotients; term ``k`` of an entry is the
product of its row's and its column's ``k``-th prefix product, and the
prefix sums of the factors' error bounds give the bound of a whole sum.  A
rung differs from another only in its arithmetic (double words, or
``Decimal`` or ``Fraction`` in ``object`` arrays, see
:meth:`_Grid.objects`), its constants and its proof test, and only the
entries it leaves unproved go on to the next.
"""

import decimal
import functools
import math
import operator
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .errors import DenominatorVanishes

__all__ = [
    "phi43_terminating_exact",
]

#: Significant decimal digits of the first decimal sum.
START_DIGITS = 40
#: Most significant decimal digits any sum is carried at; an entry with no
#: proved float by then takes the float of its exact sum, so no output
#: depends on it.
PRECISION_CAP = 2560

#: A sum whose first-order relative error bound is not below this is not
#: proved.  Below it the higher-order terms add less than 1e-5 of the bound,
#: which :data:`_SLACK` covers with room to spare.
_BOUND_LIMIT = decimal.Decimal("1e-6")
_SLACK = decimal.Decimal("1.0001")
#: Significant digits of the error bounds, which are always rounded upward.
_BOUND_DIGITS = 9


def phi43_terminating_exact(grids, q, z):
    """The grids of floats nearest to the exact values of the terminating
    4phi3 sums

        sum_{k=0}^{i} [ (q^{-i};q)_k (a1;q)_k (a2;q)_k (a3;q)_k /
                        ( (q;q)_k (b1;q)_k (b2;q)_k (b3;q)_k ) ] z^k

    over a block of ``grids``, each a pair ``(rows, columns)`` of ``rows`` of
    ``(i, a1)`` and ``columns`` of ``(a2, a3, b1, b2, b3)``, which share
    ``q`` and ``z``.  The grids of a block have one shape (as many rows and
    as many columns each) and one degree (the largest ``i``).  A single grid
    is a block of one, and a single sum a 1 x 1 grid.

    The series terminates because of the ``q^{-i}`` numerator parameter,
    which is supplied through ``i`` and never passed explicitly.  The
    parameters may be floats or :class:`fractions.Fraction`, and both are
    read exactly as integer ratios.  The decisions that need exact values are
    taken on those integers, once per grid: where a numerator factor ends
    each row's and each column's series, and whether a column's denominator
    factor vanishes before that.  A factor that merely rounds to zero in a
    rung of the ladder below therefore neither stops the series nor raises.

    Term ``k`` of entry ``(r, c)`` is ``M_r[k] C_c[k]``: the prefix products
    of its row's head factors and of its column's factors times their
    quotients (see :meth:`_Block.factors`), built once per rung.  The
    sum ``S`` of the terms goes up a ladder of rungs, each carrying ``S``
    with a bound ``E >= |S - exact sum|``, until one proves the float the
    exact sum rounds to.  The first rung sums every entry of every grid of
    the block at once in double-word arithmetic, about 106 bits, on numpy
    arrays (see :meth:`_Block.double_word`), with ``E`` from the
    per-operation error bounds of Joldes, Muller and Popescu (2017); it
    proves ``S`` when its low word plus ``E`` is below half the gap from its
    high word to the nearer neighbouring float, and it refuses a whole grid
    when one of that grid's magnitudes leaves [2^-900, 2^900].  Each entry
    it refuses is carried in :mod:`decimal` at ``p`` significant digits,
    starting at :data:`START_DIGITS` (see :meth:`_Grid.objects`), where
    ``E`` is the first-order relative
    error bound of the last term plus that of the summation, times ``sum
    |term_k|`` and a slack for the higher-order terms, rounded upward.  Every
    rounding counts ``u = 10^(1-p) / 2``, and the error a factor ``1 - m``
    inherits from ``m`` is scaled by its condition ``|m| / |1 - m|``.  ``S``
    is accepted when the two ends of ``[S - E, S + E]``, rounded outward,
    convert to the same float bit for bit (so ``-0.0`` and ``0.0`` differ);
    rounding to nearest is monotone, so the exact sum rounds to that float
    too.  A bound that is infinite (a factor rounded to zero) or not below
    1e-6 proves nothing.  Otherwise that entry, and only it, goes on at
    ``2 p`` digits.  An entry that no sum within :data:`PRECISION_CAP`
    digits proves is summed exactly, and ``float`` of the exact sum is
    correctly rounded (half to even, keeping the sign of a zero), so it is
    proved too.  No interval around an exact zero, or around an exact tie
    halfway between two floats, converts to one float, so such a sum climbs
    every decimal rung and always ends there.  Every value is proved, so
    each grid entry is bit for bit the float of its own 1 x 1 grid, and
    each grid of a block is bit for bit its own block of one.

    ``grids`` is read a part at a time, each part as many grids as keep the
    rung's arrays within :data:`_CHUNK_TERMS` values (see
    :func:`_part_size`); a grid too large for that is a part of its own.

    Parameters
    ----------
    grids : iterable of (rows, columns)
        Read once, in order.  ``rows`` is an iterable of ``(i, a1)``: per
        row, the termination degree ``i`` (the ``q^{-i}`` numerator
        parameter, >= 0) and the numerator parameter ``a1``.  ``columns`` is
        an iterable of 5 floats or Fractions per column: the numerator
        parameters ``(a2, a3)`` and the denominator parameters ``(b1, b2,
        b3)``.
    q : float or Fraction
        Base, required strictly inside (0, 1).
    z : float or Fraction
        Argument.

    Returns
    -------
    list with one item per grid: its values as a ``rows x columns`` float
    array, or the exception that the grid's first failing entry, in row
    order, raises on its own, one of:

    DenominatorVanishes
        A denominator factor ``(1 - b_j q^k)`` is exactly zero at a term
        that is still being accumulated.  If a *numerator* factor vanishes
        first at the same ``k``, the series has already terminated and the
        denominator zero is never touched.
    OverflowError
        The proved sum is too large for a float.

    A grid that fails fails alone: its block-mates are summed as on their
    own.

    Raises
    ------
    ValueError
        If a degree is negative, ``q`` is not inside (0, 1), or the grids
        differ in shape or degree.
    """
    q, z = q.as_integer_ratio(), z.as_integer_ratio()
    if not 0 < q[0] < q[1]:
        raise ValueError(f"q must lie strictly inside (0, 1), got {q[0] / q[1]}")
    results, part, shape = [], [], None
    for rows, columns in grids:
        # every parameter as the (numerator, denominator) of its exact value
        rows = [(i, a1.as_integer_ratio()) for i, a1 in rows]
        for i, _ in rows:
            if i < 0:
                raise ValueError(f"termination degree must be >= 0, got {i}")
        columns = [tuple(v.as_integer_ratio() for v in column) for column in columns]
        grid_shape = (len(rows), len(columns), max((i for i, _ in rows), default=0))
        if shape is None:
            shape, size = grid_shape, _part_size(*grid_shape)
        elif grid_shape != shape:
            raise ValueError(f"a block's grids share (rows, columns, degree): {grid_shape} "
                             f"is not {shape}")
        part.append((rows, columns))
        if len(part) == size:
            results += _Block(q, part, z).sums()
            part = []
    if part:
        results += _Block(q, part, z).sums()
    return results


def _part_size(rows, columns, length):
    """How many grids of ``rows`` x ``columns`` entries and degree
    ``length`` one :class:`_Block` sums, at least one: as many as keep its
    terms over all its steps, padded to whole chunks, and its ``(length + 1)
    x entities`` arrays within :data:`_CHUNK_TERMS` values.  A part of more
    than one grid therefore keeps each grid's chunk (see
    :meth:`_Block.double_word`), and so each grid's order of summation on
    its own."""
    chunk = _chunk(length)
    steps = -(-(length + 1) // chunk) * chunk
    return max(1, _CHUNK_TERMS // max(steps * rows * columns, (length + 1) * (rows + columns), 1))


def _chunk(length):
    """The steps of a whole chunk of terms of degree ``length``: a power of
    two, :data:`_CHUNK` or fewer, and no more than the series needs."""
    return min(_CHUNK, 1 << length.bit_length())


class _Block:
    """The sums of a block of grids, each ``(rows, columns)`` of exact
    ``(numerator, denominator)`` pairs, that share ``q``, ``z``, one shape
    and one degree ``length``.  The block holds the exact powers ``q^k =
    qn^k / qd^k`` for ``k <= length`` and each grid's exact decisions
    (:class:`_Grid`); none of it outlives the call.  :meth:`factors`, the
    one layout of every rung, finds the pairs and triples it forms."""

    def __init__(self, q, grids, z):
        qn, qd = q
        self.z = z
        length = max((i for i, _ in grids[0][0]), default=0)
        self.powers = [(1, 1)]
        for _ in range(length):
            n, d = self.powers[-1]
            self.powers.append((n * qn, d * qd))
        # 1 - p q^k with p = n/d vanishes exactly when n qn^k == d qd^k.  Both
        # pairs are in lowest terms with positive denominators, so that is
        # (n, d) == (qd^k, qn^k): the parameter that vanishes at step k.
        vanishes_at = {(d, n): k for k, (n, d) in enumerate(self.powers[:length])}
        self.grids = [_Grid(rows, columns, vanishes_at, length) for rows, columns in grids]

    def sums(self):
        """Per grid, its array of floats or its exception (see
        :meth:`_Grid.sums`), after the double-word rung of the whole
        block."""
        grids = self.grids
        rungs = self.double_word() if grids[0].steps else [None] * len(grids)
        return [grid.sums(self, rung) for grid, rung in zip(grids, rungs)]

    def factors(self, arithmetic, rows, columns, steps, length):
        """The one layout of every rung: ``(factors, bounds, quotient)`` for
        ``k < length``, for exact ``rows`` of ``(i, a1)`` and ``columns`` of
        ``(a2, a3, b1, b2, b3)``; ``steps`` holds each row's steps, each
        column's pair steps and each column's stop.  Runs are formed once per
        distinct pair ``(a2, a3)`` and triple ``(b1, b2, b3)``, a triple's up
        to its columns' last stop, from each distinct ratio converted once by
        the ``number`` of ``arithmetic``, the rung's :data:`_Arithmetic`, into
        words (two for a double word, one in an ``object`` array), the first
        axis of every array.

        ``factors[:, k]`` is step ``k``'s factor, the rows' heads and then the
        columns' pair factors times their quotients, zero past a row's steps
        or a column's stop; ``quotient`` is each column's.  The ``m`` of each
        ``1 - m`` is a parameter times ``q^k``, ``q^(k-i)`` or ``q^(k+1)``, so
        arranged that the products of two halves are the heads, the pair
        factors and the denominator's halves ``(1 - q^(k+1)) (1 - b1 q^k)``
        and ``(1 - b2 q^k) (1 - b3 q^k)``.  Past its steps a run's ``m`` is
        masked to 0, so every factor formed there is 1 or ``z``.

        ``bounds[k]`` (``None`` when nothing rounds) bounds the relative error
        of the prefix product of the first ``k`` factors, in the units of the
        rung's constants for a conversion, a ``1 - m``, a product and a
        quotient.  ``m`` carries two conversions and a product (a power one
        conversion); ``1 - m`` its constant plus that times the condition
        ``|m| / |1 - m|``, read off the first words and infinite where ``1 -
        m`` rounds to zero; a column factor its halves, the denominator's
        product, ``z``, the division and its product with the quotient; and
        a prefix of ``k`` factors their bounds and a product for each, one
        more than its ``k - 1`` products.  They are formed in the context
        :data:`_UP`, which rounds ``Decimal`` bounds upward; the condition is
        ``|m / (1 - m)|``, so that only the quotient of the exact ``m`` and
        ``1 - m`` is rounded, away from zero.
        """
        times, divide, one_minus, number, units = arithmetic
        row_steps, pair_steps, stops = steps
        pairs, triples = {}, {}  # each distinct pair and triple: its index
        runs = np.array([(pairs.setdefault(c[:2], len(pairs)), triples.setdefault(c[2:], len(triples)))
                         for c in columns], dtype=int).reshape(-1, 2).T
        run_steps = np.zeros(len(pairs), int), np.zeros(len(triples), int)
        run_steps[0][runs[0]] = pair_steps
        np.maximum.at(run_steps[1], runs[1], stops)
        # q^k, q^-k, a2, b2, a1, a3, b1 and b3 by pair, triple or row, and z
        ratios = (self.powers + [(d, n) for n, d in self.powers] + [a2 for a2, _ in pairs]
                  + [b2 for _, b2, _ in triples] + [a1 for _, a1 in rows] + [a3 for _, a3 in pairs]
                  + [b1 for b1, _, _ in triples] + [b3 for *_, b3 in triples] + [self.z])
        unique = {}
        index = [unique.setdefault(p, len(unique)) for p in ratios]
        words = np.array([number(*p) for p in unique]).T.reshape(-1, len(unique))[:, index]
        size = len(self.powers)
        powers, inverse = words[:, :size], words[:, size:2 * size]
        parameters, z = words[:, 2 * size:-1], words[:, -1]
        degrees = np.array([i for i, _ in rows])
        k = np.arange(length)[:, None]
        live_rows, live_pairs, live_triples, live_columns = (
            k < np.array(s) for s in (row_steps, *run_steps, stops))
        rows, pairs, triples = len(rows), len(pairs), len(triples)
        live = np.hstack((live_pairs, live_triples, live_rows, live_pairs) + (live_triples,) * 2)
        m = np.where(live, times(parameters[:, None], powers[:, :length, None]), 0)
        m = np.concatenate((np.where(live_rows, inverse[:, np.maximum(degrees - k, 0)], 0),
                            m[..., :pairs], np.where(live_triples, powers[:, 1:length + 1, None], 0),
                            m[..., pairs:]), axis=-1)
        f = one_minus(m)
        half = rows + pairs + 2 * triples
        products = times(f[..., :half], f[..., half:])
        den = slice(rows + pairs, half - triples), slice(half - triples, half)
        # each column's pair and denominator's first half in products
        pair, triple = runs + [[rows], [rows + pairs]]
        quotient = divide(z[:, None, None], times(products[..., den[0]], products[..., den[1]]))
        quotient = quotient[..., triple - den[0].start]
        factors = np.concatenate((products[..., :rows], times(products[..., pair], quotient)),
                                 axis=-1)
        factors = np.where(np.hstack((live_rows, live_columns)), factors, 0)
        if units is None:
            return factors, None, quotient
        convert, subtract, product, division = units
        with decimal.localcontext(_UP):
            bounds = subtract + np.repeat(
                [convert, 2 * convert + product, convert] + [2 * convert + product] * 2,
                [rows, pairs, triples, triples, half]) * abs(m[0] / f[0])
            bounds = bounds[:, :half] + bounds[:, half:] + product
            bounds = np.hstack((bounds[:, :rows], bounds[:, pair] + bounds[:, triple]
                                + bounds[:, triple + triples] + (2 * product + convert + division)))
            bounds = np.cumsum(np.vstack((np.zeros(bounds.shape[1], int), bounds + product)), axis=0)
        return factors, bounds, quotient

    def double_word(self):
        """The first rung: every entry's sum in double-word arithmetic, per
        grid as the lists ``(words, proved)`` in row order, where
        ``words[e]`` is the float the exact sum rounds to for each
        ``proved[e]``; or ``None`` for a grid one of whose magnitudes leaves
        [2^-900, 2^900] (:data:`_TINY`, :data:`_HUGE`).

        A double word ``(hi, lo)`` is the unevaluated sum of two floats,
        about 106 bits.  The rung forms the factors of :meth:`factors` for
        the whole block at once, for the rows and columns of every grid, grid
        after grid; their prefix products by a
        scan of ``log2(length)`` rounds (Hillis and Steele); and the terms of
        :data:`_CHUNK` steps at a time (fewer where a grid's terms would pass
        :data:`_CHUNK_TERMS`) as ``chunk x grids x rows x columns`` arrays,
        each grid's rows against its own columns, summed pairwise.  Every
        distinct ratio is converted once, by correctly rounded integer
        divisions (:func:`_word`).

        Each operation's relative error bound is the constant that Joldes,
        Muller and Popescu, "Tight and rigorous error bounds for basic
        building blocks of double-word arithmetic", ACM TOMS 44(2) (2017),
        prove for its algorithm, counted in units of ``u^2 = 2^-106``
        (:data:`_WORDS`).  A sum of ``s + 1`` terms takes at most ``s``
        additions of two nonzero operands, 3 each; adding a zero is exact.
        So an entry's error is at most its prefix runs' bounds at its steps
        ``s``, plus 7 for the terms' products and ``3 s``, times ``u^2
        sum_k |term_k|``: first order in ``u^2``, as the decimal rungs'
        bounds are in theirs.  The higher-order terms, the ``u^3`` terms of
        the constants and the float roundings of the bound (at most ``2
        length + 40`` along any entry's) are covered by :data:`_WORD_SLACK`
        and a factor ``1 + (length + 16) 2^-50``.  :func:`_proved_words` then
        proves an entry or refuses it.  A factor ``1 - m`` that rounds to
        zero has an infinite bound, so no entry that reads it is proved.

        Dekker's product is exact, and the constants hold, for factors and
        products within [2^-900, 2^900]; an underflowing low word there adds
        under ``2^-175`` of the magnitude, which the slack covers.  A ratio
        outside the range converts to NaN words, which every live factor
        that reads them carries to the prefix products or the quotients; an
        ``m`` formed at no live step is masked to 0.  The rung checks, grid
        by grid, the magnitudes that could leave the range unnoticed, NaNs
        included: the quotients ``z / denominator``, the prefix scan's
        products and, by their extremes at each step, the prefix products
        and the terms.  A product of at most four factors ``1 - m`` falls
        below ``2^-800`` only through a factor below ``2^-200``, whose
        condition exceeds ``2^199``, so every entry that reads it is refused
        by its bound.  A factor beyond ``2^996``, infinite or not, overflows
        the scan's Veltkamp split into a NaN, which reaches the prefix
        products.  A shared pair's or triple's run holds what each grid
        forms on its own, every check reads a row's or a column's values,
        and the terms pair a grid's rows with its own columns only, so what
        one grid reads never reaches another: each grid is proved or refused
        as on its own.

        The exact decisions are :class:`_Grid`'s: each row's and column's
        steps, and the denominator zeros, at which a column's run stops
        (entries that reach one fail and are never read).
        """
        grids = self.grids
        count, height, width = len(grids), len(grids[0].rows), grids[0].width
        length = len(self.powers) - 1
        rows, columns = count * height, count * width  # entities
        with np.errstate(all="ignore"):
            factors, bounds, quotient = self.factors(
                _WORDS, *([x for grid in grids for x in getattr(grid, name)]
                          for name in ("rows", "columns")),
                [[s for grid in grids for s in getattr(grid, name)]
                 for name in ("row_steps", "pair_steps", "column_stops")], length)
            # a quotient per column, as many to a grid, not per triple
            in_range = _in_range(quotient[0], count) if self.z[0] else np.full(count, True)
            # a whole chunk, halved while a grid's terms pass _CHUNK_TERMS;
            # a part of more than one grid never needs that (_part_size)
            chunk = _chunk(length)
            while chunk > 1 and chunk * height * width > _CHUNK_TERMS:
                chunk //= 2
            # Prefix products of the live factors by k, rows then columns, by
            # a scan of log2(length) rounds (Hillis and Steele) after the
            # leading 1.  Zero from length + 1 to a whole number of chunks.
            high = np.zeros((-(-(length + 1) // chunk) * chunk, rows + columns))
            low = np.zeros_like(high)
            high[0] = 1.0
            high[1:length + 1], low[1:length + 1] = factors
            shift = 1
            while shift < length:
                x = high[shift + 1:length + 1], low[shift + 1:length + 1]
                y = high[1:length + 1 - shift], low[1:length + 1 - shift]
                product = _times(x, y)
                # A product must not underflow to zero.  Past a zero factor of
                # a run every later one is zero too, so x is zero where y is;
                # elsewhere a zero is a factor rounded to zero, whose entries
                # are refused anyway.
                formed = np.where(x[0] == 0, 1.0, product[0])
                in_range &= _in_range(formed[:, :rows], count) & _in_range(formed[:, rows:], count)
                high[shift + 1:length + 1], low[shift + 1:length + 1] = product
                shift *= 2
            magnitudes = np.abs(high)
            by_row = magnitudes[:, :rows].reshape(-1, count, height)
            by_column = magnitudes[:, rows:].reshape(-1, count, width)
            in_range &= _terms_in_range(by_row, by_column)
            if not in_range.any():
                return [None] * count
            # The grids: term k of entry (r, c) of a grid is its row r's k-th
            # prefix product times its column c's.  The terms of each chunk
            # of steps are summed pairwise, and the chunks' sums in order.
            words = (high, low, *_split(high))
            row_words = [a[:, :rows].reshape(-1, count, height, 1) for a in words]
            column_words = [a[:, rows:].reshape(-1, count, 1, width) for a in words]
            sums = []
            for j in range(0, len(high), chunk):
                r, c = ([a[j:j + chunk] for a in run] for run in (row_words, column_words))
                terms = _times(r[:2], c[:2], r[2:], c[2:])
                while len(terms[0]) > 1:
                    n = len(terms[0]) // 2
                    terms = _plus((terms[0][:n], terms[1][:n]), (terms[0][n:], terms[1][n:]))
                sums.append((terms[0][0], terms[1][0]))
            total = functools.reduce(_plus, sums)
            steps = np.array([grid.steps for grid in grids]).reshape(count, height, width)
            bound = (bounds[steps, np.arange(rows).reshape(count, height, 1)]
                     + bounds[steps, rows + np.arange(columns).reshape(count, 1, width)]
                     + 7 + 3 * steps)
            error = bound * (by_row.transpose(1, 2, 0) @ by_column.transpose(1, 0, 2)) * (
                _WORD_UNIT * (_WORD_SLACK + (length + 16) * 2.0 ** -50))
            proved = _proved_words(*total, error)
        return [(total[0][g].ravel().tolist(), proved[g].ravel().tolist()) if in_range[g] else None
                for g in range(count)]


class _Grid:
    """One grid of a :class:`_Block`: ``rows`` of ``(i, a1)`` and columns of
    ``(a2, a3, b1, b2, b3)``, all exact ``(numerator, denominator)`` pairs.
    Entry ``e`` is row ``e // width``, column ``e % width``.  The grid holds
    the steps of each row's, each column's pair's and each entry's series,
    and each column's first vanishing denominator factor and stop, decided
    on the exact arguments; :meth:`_Block.factors` finds the pairs."""

    def __init__(self, rows, columns, vanishes_at, length):
        self.rows, self.columns = rows, columns
        # The steps before a numerator factor ends each row's and each
        # column's series; 1 - q^(k-i) and 1 - q^(k+1) never vanish inside.
        self.row_steps = [min(i, vanishes_at.get(a1, i)) for i, a1 in rows]
        self.pair_steps = [min(vanishes_at.get(a2, length), vanishes_at.get(a3, length))
                           for a2, a3, *_ in columns]
        self.steps = [min(s, p) for s in self.row_steps for p in self.pair_steps]
        self.width = len(columns)
        # Per column, the first denominator factor that vanishes exactly, as
        # (step, parameter), or None: it fails every entry of that column
        # whose series reaches it, and the column's run stops there.
        self.zeros = [min(((vanishes_at[p], p) for p in column[2:] if p in vanishes_at),
                          default=None)
                      for column in columns]
        self.column_stops = [p if zero is None else min(p, zero[0])
                             for p, zero in zip(self.pair_steps, self.zeros)]

    def sums(self, block, rung):
        """Every entry's float, as a ``rows x columns`` array, or the
        exception of the first entry that fails, in row order: each entry
        goes up the ladder, ``rung``, the decimal rungs of :meth:`objects`
        from :data:`START_DIGITS` to :data:`PRECISION_CAP` digits and last
        its exact sum, only while refused.  ``rung`` is the grid's ``(words,
        proved)`` from :meth:`_Block.double_word`, or ``None`` where that
        rung refused the whole grid."""
        steps, width = self.steps, self.width
        values = [None] * len(steps)
        failures = {}  # entry -> its exception; no entry after the first is summed
        zeros = self.zeros
        if any(zeros):
            reaches = next((e for e, s in enumerate(steps)
                            if zeros[e % width] and s > zeros[e % width][0]), None)
            if reaches is not None:
                k, (n, d) = zeros[reaches % width]
                failures[reaches] = DenominatorVanishes(k, n / d)

        pending = range(min(failures, default=len(steps)))
        if pending and rung is not None:
            refused = []
            for e, word, proved in zip(pending, *rung):
                if proved:
                    values[e] = word
                else:
                    refused.append(e)
            pending = refused
        digits = START_DIGITS
        while pending:
            exact = digits > PRECISION_CAP  # the last rung, which proves every entry
            refused = []
            for e, value in zip(pending, self.objects(block, None if exact else digits, pending)):
                try:
                    value = float(value) if exact else value
                except OverflowError as exc:
                    failures[e] = exc
                    continue
                if value is None:
                    refused.append(e)
                elif math.isinf(value):
                    failures[e] = OverflowError("series sum too large for a float")
                else:
                    values[e] = value
            first = min(failures, default=len(steps))
            pending = [e for e in refused if e < first]
            digits *= 2
        if failures:
            return failures[min(failures)]
        return np.array(values, dtype=float).reshape(len(self.rows), width)

    def objects(self, block, digits, entries):
        """The object rungs: per entry of ``entries``, in their order, the
        float its sum at ``digits`` significant digits proves, or ``None``;
        or, for ``digits=None``, its exact sum as a ``Fraction``.

        The rung forms :meth:`_Block.factors` on ``object`` arrays of
        ``Decimal`` in its context or of ``Fraction``, for the rows, pairs,
        triples and columns that ``entries`` read and the steps up to their
        last, and the prefix products by one product a step.  It forms the
        terms of ``entries`` only, those of one number of steps together, at
        most :data:`_CHUNK_TERMS` at a time, and sums each entry's in order.

        Each decimal operation is one correct rounding, so every constant is
        1, in units of ``u = 10^(1-p) / 2``; the bounds are ``Decimal``s, so
        a condition beyond the float range still counts.  Term ``k`` is the
        product of two prefix products counted ``k`` products each for their
        ``k - 1``, whose spares cover it, and a sum of ``s + 1`` terms adds at
        most ``s`` roundings to each.  So an entry of ``s`` steps is within
        ``E = (B_row[s] + B_col[s] + s) u sum_k |term_k|`` to first order,
        which :data:`_SLACK` covers when that bound is below
        :data:`_BOUND_LIMIT`; ``E`` and ``sum |term_k|`` are rounded upward.
        A denominator that rounds to zero gives the quotient 0 with an
        infinite bound.
        """
        width, steps = self.width, self.steps
        rows = sorted({e // width for e in entries})
        columns = sorted({e % width for e in entries})
        if digits is None:
            arithmetic, context = _FRACTIONS, decimal.getcontext()
        else:
            arithmetic, context = _DECIMALS, _context(digits)
            unit = decimal.Decimal(5).scaleb(-digits)
            floor, ceiling = _context(digits, decimal.ROUND_FLOOR), _context(
                digits, decimal.ROUND_CEILING)
        length = max(steps[e] for e in entries)
        results = {}
        with decimal.localcontext(context):
            factors, bounds, _ = block.factors(
                arithmetic, [self.rows[r] for r in rows], [self.columns[c] for c in columns],
                ([self.row_steps[r] for r in rows],
                 *([s[c] for c in columns] for s in (self.pair_steps, self.column_stops))), length)
            prefixes = np.multiply.accumulate(
                np.concatenate((np.ones((1, 1, factors.shape[-1]), dtype=object), factors),
                               axis=1), axis=1)[0]
            row_of = {r: j for j, r in enumerate(rows)}
            column_of = {c: len(rows) + j for j, c in enumerate(columns)}
            by_steps = {}
            for e in entries:
                by_steps.setdefault(steps[e], []).append(e)
            parts = [(s, group[j:j + _CHUNK_TERMS // (s + 1)]) for s, group in by_steps.items()
                     for j in range(0, len(group), _CHUNK_TERMS // (s + 1))]
            for s, part in parts:
                r = [row_of[e // width] for e in part]
                c = [column_of[e % width] for e in part]
                terms = prefixes[:s + 1, r] * prefixes[:s + 1, c]
                totals = terms.sum(axis=0)
                if digits is None:
                    results.update(zip(part, totals))
                    continue
                with decimal.localcontext(_UP):
                    bound = (bounds[s, r] + bounds[s, c] + s) * unit
                    errors = np.abs(terms).sum(axis=0) * bound * _SLACK
                for e, total, b, error in zip(part, totals, bound, errors):
                    low = float(floor.subtract(total, error))
                    high = float(ceiling.add(total, error))
                    results[e] = (low if b < _BOUND_LIMIT and low == high
                                  and math.copysign(1.0, low) == math.copysign(1.0, high)
                                  else None)
        return [results[e] for e in entries]


def _context(digits, rounding=decimal.ROUND_HALF_EVEN):
    """A decimal context with the widest exponent range.  No value formed
    from float or ``Fraction`` arguments by a feasible number of steps comes
    near its ends, so no result is subnormal and every rounding is relative;
    overflow and division by zero still raise."""
    return decimal.Context(prec=digits, rounding=rounding,
                           Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


#: The context of the decimal rungs' bounds: rounding away from zero to
#: :data:`_BOUND_DIGITS` digits, upward for the bounds, which are not
#: negative, and for the magnitude of a quotient of either sign; ``m / 0``
#: is infinite.
_UP = _context(_BOUND_DIGITS, decimal.ROUND_UP)
_UP.traps[decimal.DivisionByZero] = False


#: The unit of the double-word rung's bounds: ``u^2``, where ``u = 2^-53`` is
#: the unit roundoff of a float.
_WORD_UNIT = 2.0 ** -106
#: Covers what the rung's first-order bound leaves out: its higher-order
#: terms, below ``2^-52`` of it for any sum it proves (whose bound is below
#: about ``u``), and the ``u^3`` terms of the per-operation constants.
_WORD_SLACK = 1 + 2.0 ** -40
#: Steps whose terms the rung forms at once, as ``_CHUNK x rows x columns``
#: arrays, and sums pairwise; fewer where that would pass ``_CHUNK_TERMS``
#: terms, so that a large grid's arrays stay ``rows x columns``.
_CHUNK, _CHUNK_TERMS = 8, 2**16
#: The range of nonzero magnitudes in which the rung's bounds hold.
_TINY, _HUGE = 2.0 ** -900, 2.0 ** 900


def _word(n, d):
    """The double word ``(hi, lo)`` nearest ``n / d``: the float nearest it
    and the float nearest the rest, each a correctly rounded integer
    division, so one rounding of ``u^2`` in all.  ``(nan, nan)`` when ``n``
    is not zero and ``|n / d|`` leaves [:data:`_TINY`, :data:`_HUGE`]."""
    hi = n / d if abs(n) < d << 1000 else math.inf  # n / d >= 2^1000 may overflow
    if n and not _TINY <= abs(hi) <= _HUGE:
        return math.nan, math.nan
    hn, hd = hi.as_integer_ratio()
    return hi, (n * hd - hn * d) / (d * hd)


def _in_range(a, count):
    """Per grid, whether every magnitude in ``a`` lies in [:data:`_TINY`,
    :data:`_HUGE`]; a NaN does not.  The last axis of ``a`` holds the
    entities of ``count`` grids, grid after grid."""
    a = np.abs(a).reshape(math.prod(a.shape[:-1]), count, a.shape[-1] // count)
    return ((a >= _TINY) & (a <= _HUGE)).all(axis=(0, 2))


def _terms_in_range(rows, columns):
    """Per grid ``g``, whether every nonzero ``rows[k, g, r] columns[k, g,
    c]`` of nonnegative ``rows`` and ``columns`` lies in [:data:`_TINY`,
    :data:`_HUGE`], by the extremes at each ``k``."""
    smallest = [np.where(a == 0, np.inf, a).min(axis=2) for a in (rows, columns)]
    return (((rows.max(axis=2) * columns.max(axis=2)).max(axis=0) <= _HUGE)
            & ((smallest[0] * smallest[1]).min(axis=0) >= _TINY))


def _proved_words(high, low, error):
    """Where the double words ``high + low``, each within ``error`` of an
    exact sum, prove that the sum rounds to ``high``: ``high`` is not zero and
    ``|low| + error`` is below half the gap from ``high`` to its neighbour
    towards zero, the smaller of its two gaps.  Half that gap is a float, so
    the rounded ``|low| + error`` is below it only if the exact one is."""
    magnitude = np.abs(high)
    return (high != 0) & (np.abs(low) + error < (magnitude - np.nextafter(magnitude, 0)) / 2)


# Double-word arithmetic on numpy arrays.  Each function names the algorithm
# of Joldes, Muller and Popescu (2017) it is and that paper's bound on its
# relative error, for operands and results within [_TINY, _HUGE].  numpy has
# no fused multiply-add, so the exact product is Dekker's.

def _two_sum(a, b):
    """Knuth's TwoSum: ``s = RN(a + b)`` and ``e`` with ``s + e = a + b``."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a, b):
    """Dekker's Fast2Sum, exact when ``|a| >= |b|``."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _two_product(a, b, a_split=None, b_split=None):
    """Dekker's TwoProduct: ``p = RN(a b)`` and ``e`` with ``p + e = a b``;
    ``a_split`` and ``b_split`` are :func:`_split` of ``a`` and ``b`` when
    given."""
    p = a * b
    a_high, a_low = _split(a) if a_split is None else a_split
    b_high, b_low = _split(b) if b_split is None else b_split
    return p, ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low


def _times(x, y, x_split=None, y_split=None):
    """``x y``, DWTimesDW1 (Algorithm 10): below ``7 u^2``; the splits are
    those of the high words, as :func:`_two_product` takes them."""
    (xh, xl), (yh, yl) = x, y
    high, low = _two_product(xh, yh, x_split, y_split)
    return _fast_two_sum(high, low + (xh * yl + xl * yh))


def _plus(x, y):
    """``x + y``, AccurateDWPlusDW (Algorithm 6): below ``3 u^2 / (1 - 4u)``."""
    (xh, xl), (yh, yl) = x, y
    sh, sl = _two_sum(xh, yh)
    th, tl = _two_sum(xl, yl)
    vh, vl = _fast_two_sum(sh, sl + th)
    return _fast_two_sum(vh, tl + vl)


def _one_minus(m):
    """``1 - m``, DWPlusFP (Algorithm 4): below ``2 u^2 / (1 - 2u)``."""
    sh, sl = _two_sum(1.0, -m[0])
    return _fast_two_sum(sh, sl - m[1])


def _times_float(x, y):
    """``x y`` for a float ``y``, DWTimesFP1 (Algorithm 7): below
    ``3/2 u^2 + 4 u^3``."""
    high, low = _two_product(x[0], y)
    th, tl = _fast_two_sum(high, x[1] * y)
    return _fast_two_sum(th, tl + low)


def _divide(x, y):
    """``x / y``, DWDivDW1 (Algorithm 17): below ``15 u^2 + 56 u^3``."""
    th = x[0] / y[0]
    rh, rl = _times_float(y, th)
    ph, pl = _two_sum(x[0], -rh)
    return _fast_two_sum(th, (ph + ((pl - rl) + x[1])) / y[0])


#: A rung's arithmetic for :meth:`_Block.factors`: ``times``, ``divide`` and
#: ``one_minus`` on arrays whose first axis holds the words of each number,
#: ``number``, which converts a ``(numerator, denominator)`` pair, and
#: ``units``, the bound constants of a conversion, a ``1 - m``, a product
#: and a quotient, or ``None`` where nothing rounds.
_Arithmetic = namedtuple("_Arithmetic", "times divide one_minus number units")
#: Double words, with the constants of Joldes, Muller and Popescu (2017) in
#: units of ``u^2``.
_WORDS = _Arithmetic(lambda x, y: np.array(_times(x, y)), lambda x, y: np.array(_divide(x, y)),
                     lambda m: np.array(_one_minus(m)), _word, (1, 2, 7, 15))
#: ``Decimal``s in the current context, each operation one rounding; a
#: quotient whose denominator rounds to zero is 0, and ``1 - m`` is a
#: ``Decimal`` even where ``m`` is the int 0 of a dead step.
_DECIMALS = _Arithmetic(operator.mul, lambda x, y: np.where(y == 0, 0, x / np.where(y == 0, 1, y)),
                        lambda m: decimal.Decimal(1) - m,
                        lambda n, d: decimal.getcontext().divide(n, d), (1, 1, 1, 1))
#: ``Fraction``s, exact.
_FRACTIONS = _Arithmetic(operator.mul, operator.truediv, lambda m: 1 - m, Fraction, None)
