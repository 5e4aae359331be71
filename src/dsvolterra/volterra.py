"""Triangular Volterra regressor layout: term indexing, expansion, embedding.

Once the input delay line is expanded into every monomial
``x(k-l1) * ... * x(k-lp)`` with nondecreasing lags, for orders ``p = 1..P``
and lags in ``0..N``, the model output is linear in the stacked kernel
vector.  Blocks are stacked by ascending order; within a block, lag tuples
are in lexicographic order.  The constant term is excluded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.typing as npt
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatchError, InvalidTermError

ArrayF = npt.NDArray[np.float64]

# A term table beyond these would exhaust memory; refuse early instead of
# letting index arithmetic or an allocation fail somewhere deep.  The lag
# count bounds tables of few but long terms, such as high orders at memory 0.
_MAX_DIMENSION = 2_000_000
_MAX_LAG_ENTRIES = 20_000_000

#: rows per block of the series expansion, run_ledger, generate_input, desired_signal,
#: write_trace_csv and read_trace_csv; bounds memory
ROW_BLOCK = 512


def _count_terms(order: int, memory: int) -> int:
    """Number of kernel terms, sum over p = 1..order of C(memory + p, p).

    Raises ``ValueError`` as soon as the count passes ``_MAX_DIMENSION``, or
    the term table's lag entries, sum over p of p * C(memory + p, p), pass
    ``_MAX_LAG_ENTRIES``; so an absurd order is refused at once.
    """
    terms = lags = 0
    for p in range(1, order + 1):
        block = math.comb(memory + p, p)
        terms += block
        lags += p * block
        if terms > _MAX_DIMENSION or lags > _MAX_LAG_ENTRIES:
            raise ValueError(
                f"(order={order}, memory={memory}) expands to more than"
                f" {_MAX_DIMENSION} terms or {_MAX_LAG_ENTRIES} term lags,"
                " beyond the supported maximum"
            )
    return terms


@dataclass(frozen=True)
class VolterraConfig:
    """Filter layout: polynomial order, memory (``memory + 1`` taps) and the
    NLMS energy regularization.

    ``regularization = 0`` is accepted so that exact hand traces can run
    unregularized; the update then guards against a zero-energy regressor at
    run time.
    """

    order: int
    memory: int
    regularization: float = 1e-9

    def __post_init__(self) -> None:
        for name, low in (("order", 1), ("memory", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        delta = float(self.regularization)
        if not math.isfinite(delta) or delta < 0.0:
            raise ValueError(
                f"regularization must be finite and >= 0, got {self.regularization!r}"
            )
        object.__setattr__(self, "regularization", delta)
        _count_terms(self.order, self.memory)

    @property
    def taps(self) -> int:
        """Delay-line length (memory + 1)."""
        return self.memory + 1


@dataclass(frozen=True)
class TermIndex:
    """One kernel/regressor position: monomial order and nondecreasing lags."""

    order: int
    lags: tuple[int, ...]

    def __post_init__(self) -> None:
        lags = tuple(int(lag) for lag in self.lags)
        object.__setattr__(self, "lags", lags)
        if self.order < 1:
            raise InvalidTermError(f"term order must be >= 1, got {self.order}")
        if len(lags) != self.order:
            raise InvalidTermError(f"expected {self.order} lags, got {len(lags)}")
        if any(lag < 0 for lag in lags):
            raise InvalidTermError(f"lags must be nonnegative, got {lags}")
        if any(a > b for a, b in zip(lags, lags[1:])):
            raise InvalidTermError(f"lags must be nondecreasing, got {lags}")


@lru_cache(maxsize=None)
def _layout(order: int, memory: int):
    """Canonical term enumeration plus the product-chain tables for expansion.

    ``lasts[i]`` is the last lag of term ``i`` (its own lag for a linear
    term).  For each order p >= 2, ``chains`` holds the slice of the flat
    regressor where block p lies and, per term of block p, the flat position
    of the order p - 1 term formed by its first p - 1 lags.
    """
    terms: list[TermIndex] = []
    lasts: list[int] = []
    chains: list[tuple[slice, np.ndarray]] = []
    positions: dict[tuple[int, tuple[int, ...]], int] = {}
    for p in range(1, order + 1):
        start = len(terms)
        tuples = list(itertools.combinations_with_replacement(range(memory + 1), p))
        for t in tuples:
            positions[(p, t)] = len(terms)
            terms.append(TermIndex(p, t))
            lasts.append(t[-1])
        if p >= 2:
            prefix = np.array([positions[(p - 1, t[:-1])] for t in tuples], dtype=np.intp)
            chains.append((slice(start, len(terms)), prefix))
    return tuple(terms), positions, (np.asarray(lasts, dtype=np.intp), tuple(chains))


def _chain(products: ArrayF, chains) -> ArrayF:
    """Turn last-lag samples into monomials in place, order by order.

    ``products`` holds, along its first axis, each term's last-lag sample.
    Block p then becomes block p - 1 at the term's prefix times that sample,
    so every monomial is multiplied left to right, ``((x_l1 * x_l2) * ...)
    * x_lp``, exactly as a sequential product of its lags.
    """
    for block, prefix in chains:
        terms = products[block]
        terms *= products[prefix]
    return products


def total_dimension(config: VolterraConfig) -> int:
    """Number of kernel terms: sum over p of C(memory + p, p), exact integers."""
    return _count_terms(config.order, config.memory)


def position_of(term: TermIndex, config: VolterraConfig) -> int:
    """Canonical flat index of a term; inverse of :func:`term_at`."""
    _, positions, _ = _layout(config.order, config.memory)
    key = (term.order, term.lags)
    if key not in positions:
        raise InvalidTermError(
            f"term (order={term.order}, lags={term.lags}) outside layout"
            f" (order <= {config.order}, lags <= {config.memory})"
        )
    return positions[key]


def term_at(position: int, config: VolterraConfig) -> TermIndex:
    """Term stored at a flat position; inverse of :func:`position_of`."""
    terms, _, _ = _layout(config.order, config.memory)
    if not 0 <= position < len(terms):
        raise InvalidTermError(f"position {position} outside 0..{len(terms) - 1}")
    return terms[position]


def expand(delay_line, config: VolterraConfig) -> ArrayF:
    """Expand a delay line ``[x(k), ..., x(k-N)]`` into the full regressor.

    The linear block is the delay line verbatim.  Each block of order p >= 2
    is a product chain: an entry is the entry of block p - 1 named by the
    term's first p - 1 lags times the sample at its last lag, so each
    monomial is multiplied left to right from its lags, in lag order.
    """
    dl = np.asarray(delay_line, dtype=np.float64)
    if dl.shape != (config.taps,):
        raise DimensionMismatchError(
            f"delay line must have length {config.taps}, got shape {dl.shape}"
        )
    _, _, (lasts, chains) = _layout(config.order, config.memory)
    return _chain(dl[lasts], chains)


def _support_tables(support, lasts: np.ndarray, chains):
    """Columns needed to form the terms at flat positions ``support``, every
    term when ``None``: those terms and the lower-order prefixes their product
    chains pass through.  Returns the columns with the expansion tables
    renumbered over them."""
    formed = np.zeros(lasts.shape[0], dtype=bool)
    formed[slice(None) if support is None else support] = True
    # a prefix lies in a lower block, so one pass from the top order down
    # closes the set
    for block, prefix in reversed(chains):
        formed[prefix[formed[block]]] = True
    rank = np.cumsum(formed) - 1
    sub_chains = []
    for block, prefix in chains:
        kept = formed[block]
        if kept.any():
            start = int(rank[block][kept][0])
            sub_chains.append((slice(start, start + int(kept.sum())), rank[prefix[kept]]))
    columns = np.flatnonzero(formed)
    return columns, lasts[columns], tuple(sub_chains)


def _series_blocks(x: ArrayF, config: VolterraConfig, support=None):
    """Yield ``(rows, block)``, ``ROW_BLOCK`` rows at a time, for a 1-D float64
    signal with a zero-primed delay line: ``block`` holds regressor rows ``rows``
    column-major, bit for bit as :func:`expand` gives them, in one buffer reused
    for every block.  :func:`expand_series` copies the blocks into its
    row-major matrix; :func:`signals.desired_signal` multiplies them by a
    kernel in this layout, which fixes the rounding of d.

    Given ``support``, the flat positions of a kernel's nonzero terms, only
    those columns and the prefixes their product chains pass through are
    formed, by the same chain, so each holds the same bits; every other column
    of a block is zero.  A block times that kernel keeps every bit of the full
    product, since a zero weight times a finite entry adds an exact zero in any
    summation order."""
    _, _, (lasts, chains) = _layout(config.order, config.memory)
    size, dimension = x.shape[0], lasts.shape[0]
    columns, lasts, chains = _support_tables(support, lasts, chains)
    # row i of the lag matrix is x delayed by i: column k is the delay line
    # [x(k), ..., x(k-N)] after sample k
    padded = np.concatenate([np.zeros(config.memory), x])
    lags = sliding_window_view(padded, size)[::-1]
    buffer = np.zeros(dimension * min(ROW_BLOCK, size))
    for r0 in range(0, size, ROW_BLOCK):
        rows = slice(r0, min(r0 + ROW_BLOCK, size))
        count = rows.stop - r0
        products = buffer[: dimension * count].reshape(dimension, count)
        if count < ROW_BLOCK:
            # a short final block's shape re-maps earlier blocks' entries
            # into its unformed columns
            products.fill(0.0)
        products[columns] = _chain(np.take(lags[:, rows], lasts, axis=0), chains)
        yield rows, products.T


def expand_series(signal, config: VolterraConfig) -> ArrayF:
    """Regressor matrix for a whole signal with a zero-primed delay line.

    Row ``k`` equals :func:`expand` of the delay line after the samples
    ``signal[0..k]`` have been pushed, bit for bit: the same product chain
    runs on blocks of ``ROW_BLOCK`` rows, so the working memory beyond the
    result is one block.  The result is row-major (C order): each row is a
    contiguous regressor, as the trial engine steps on it.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatchError("signal must be a 1-D vector")
    out = np.empty((x.shape[0], total_dimension(config)))
    for rows, block in _series_blocks(x, config):
        out[rows] = block
    return out


def embed_kernel(kernel, source: VolterraConfig, target: VolterraConfig) -> ArrayF:
    """Re-express a kernel in a larger layout; terms absent there stay zero."""
    w = np.asarray(kernel, dtype=np.float64)
    if w.shape != (total_dimension(source),):
        raise DimensionMismatchError(
            f"kernel shape {w.shape} does not match source dimension"
            f" {total_dimension(source)}"
        )
    if source.order > target.order or source.memory > target.memory:
        raise DimensionMismatchError(
            f"source layout (order={source.order}, memory={source.memory}) does not"
            f" fit in target (order={target.order}, memory={target.memory})"
        )
    out = np.zeros(total_dimension(target))
    source_terms, _, _ = _layout(source.order, source.memory)
    for i, term in enumerate(source_terms):
        out[position_of(term, target)] = w[i]
    return out
