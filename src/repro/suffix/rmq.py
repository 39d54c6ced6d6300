"""Range maximum / minimum query structures.

The efficient indexes of Sections 4.2, 5 and 6 answer threshold queries by
repeatedly extracting the maximum-probability element of a suffix range, so
an ``O(1)``-query RMQ structure is the core building block (paper Lemma 1).

Two interchangeable implementations are provided:

* :class:`SparseTableRMQ` — the classical ``O(n log n)``-space sparse table
  with true ``O(1)`` queries.  This is the default used by every index.
* :class:`BlockRMQ` — a Fischer–Heun-style block decomposition: the array is
  cut into blocks of ``~log n`` elements, a sparse table is kept over block
  maxima only, and in-block queries scan the block.  Queries are
  ``O(log n)`` worst case but the space drops to ``O(n)`` words with small
  constants — the practical trade-off the paper's space accounting (§8.7)
  alludes to.  The ablation benchmark compares the two.

Both classes answer *maximum* queries by default; pass ``mode="min"`` for
minimum queries.  Queries return the **position** of the optimum, matching
how the paper uses RMQ (the value is then validated against the cumulative
probability array).

Both implementations are pure functions of their value array, so their
payloads (:func:`rmq_to_payload`) store only the leftmost-optimum position
of every ``~log2 n``-wide block — O(n / log n) words, Fischer–Heun style.
:func:`rmq_from_payload` rebuilds the sparse table over the block optima
(O(n/b · log n) work) instead of re-running the O(n log n)
preprocessing; a sparse table restores as :class:`CompactRMQ`, which
answers identically.  The restore path accepts read-only (memory-mapped)
arrays: queries never write.
"""

from __future__ import annotations

# repro-check: hot-path — query paths must stay vectorized; per-element
# Python work is only allowed in construction and the *_scalar references.

import math
from typing import Literal, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError
from ..payload import IndexPayload

Mode = Literal["max", "min"]

#: Payload schemas (:mod:`repro.payload`) of :meth:`SparseTableRMQ.to_payload`
#: / :meth:`BlockRMQ.to_payload`: block optimum positions only,
#: O(n / block_size) words.
RMQ_SCHEMA_SPARSE = "rmq/sparse"
RMQ_SCHEMA_BLOCK = "rmq/block"


def _prepare_values(values: Sequence[float], mode: Mode) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValidationError(f"RMQ input must be one-dimensional, got shape {array.shape}")
    if len(array) == 0:
        raise ValidationError("cannot build an RMQ structure over an empty array")
    if mode not in ("max", "min"):
        raise ValidationError(f"mode must be 'max' or 'min', got {mode!r}")
    return array


def _check_range(length: int, left: int, right: int) -> Tuple[int, int]:
    if left < 0 or right >= length or left > right:
        raise ValidationError(
            f"invalid RMQ range [{left}, {right}] for array of length {length}"
        )
    return left, right


def _check_batch(
    length: int, lefts: Sequence[int], rights: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    lefts = np.asarray(lefts, dtype=np.int64)
    rights = np.asarray(rights, dtype=np.int64)
    if lefts.shape != rights.shape or lefts.ndim != 1:
        raise ValidationError(
            f"query_batch expects two equal-length 1-d arrays, got shapes "
            f"{lefts.shape} and {rights.shape}"
        )
    if lefts.size and (
        int(lefts.min()) < 0 or int(rights.max()) >= length or bool((lefts > rights).any())
    ):
        bad = int(np.flatnonzero((lefts < 0) | (rights >= length) | (lefts > rights))[0])
        raise ValidationError(
            f"invalid RMQ range [{int(lefts[bad])}, {int(rights[bad])}] "
            f"for array of length {length}"
        )
    return lefts, rights


def _as_position_array(positions) -> np.ndarray:
    """Accept any integer position array as-is, zero-copy.

    Dtype-minimized payloads restore uint8/16/32 block positions; the
    query paths only gather through them (``values[positions]``) or read
    single elements with ``int(...)``, both dtype-agnostic, so no widening
    copy is needed.  Lists and float inputs still convert to int64.
    """
    array = np.asarray(positions)
    if array.dtype.kind in ("i", "u"):
        return array
    return np.asarray(array, dtype=np.int64)


def _floor_log2(spans: np.ndarray) -> np.ndarray:
    """Vectorized ``span.bit_length() - 1`` for positive int64 spans.

    ``np.frexp`` is exact for integers below 2**53: it returns the exponent
    ``e`` with ``2**(e-1) <= span < 2**e``, so ``e - 1`` is the floor log.
    """
    return (np.frexp(spans.astype(np.float64))[1] - 1).astype(np.int64)


def default_block_size(length: int) -> int:
    """The ``~log2 n`` block size the block decompositions default to."""
    return max(1, math.ceil(math.log2(length + 1)))


def _block_optimum_positions(
    values: np.ndarray, block_size: int, mode: Mode
) -> np.ndarray:
    """Leftmost-optimum position of every ``block_size``-wide block.

    Vectorized equivalent of ``start + argmax(values[start:end])`` per
    block: the array is padded to a whole number of blocks with the
    identity element of the comparison, reshaped, and reduced row-wise.
    ``argmax`` / ``argmin`` return the *first* optimum of a row, matching
    the scalar per-block scan exactly (padding sits at the tail of the
    last row only, and never beats a real entry — on an all-``fill`` row
    the first cell, a real entry, still wins the tie).
    """
    n = len(values)
    block_count = (n + block_size - 1) // block_size
    fill = -np.inf if mode == "max" else np.inf
    padded = np.full(block_count * block_size, fill, dtype=np.float64)
    padded[:n] = values
    grid = padded.reshape(block_count, block_size)
    reducer = np.argmax if mode == "max" else np.argmin
    offsets = reducer(grid, axis=1).astype(np.int64)
    return np.arange(block_count, dtype=np.int64) * block_size + offsets


def _checked_block_positions(
    values: np.ndarray, block_size: int, mode: Mode, stored: Optional[np.ndarray]
) -> np.ndarray:
    """``stored`` block optimum positions, shape-checked; computed when ``None``.

    Stored positions come from a payload written over the same ``values``
    (see :func:`rmq_from_payload`).  Only their shape is validated;
    contents are trusted — archives are gated by per-array checksums, and
    the fuzz suite pins restored structures to answer identically to
    rebuilt ones.  Memory-mapped positions are used as-is, zero-copy.
    """
    if stored is None:
        return _block_optimum_positions(values, block_size, mode)
    positions = _as_position_array(stored)
    block_count = (len(values) + block_size - 1) // block_size
    if positions.shape != (block_count,):
        raise ValidationError(
            f"serialized block positions have shape {positions.shape}, "
            f"expected ({block_count},) for length {len(values)} and "
            f"block_size {block_size}"
        )
    return positions


def _prefer_current_batch(
    values: np.ndarray, mode: Mode, current: np.ndarray, candidate: np.ndarray
) -> np.ndarray:
    """Row-wise better of two candidate positions; ``current`` wins ties.

    The shared merge step of the batch block-decomposition paths: callers
    order their merges so that "``current`` wins ties" realizes their
    documented tie-break (position order for :class:`CompactRMQ`'s exact
    leftmost optimum; head → tail → middle for :class:`BlockRMQ`).
    """
    if mode == "max":
        keep = values[current] >= values[candidate]
    else:
        keep = values[current] <= values[candidate]
    return np.where(keep, current, candidate)


def _masked_block_scan(
    values: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    block_size: int,
    mode: Mode,
) -> np.ndarray:
    """Row-wise leftmost optimum of ``[starts[i], ends[i]]`` (≤ one block wide).

    Valid cells form a prefix of every row, so the row reducer picks the
    first optimum exactly like ``np.argmax`` over the scalar segment does.
    Shared by :meth:`BlockRMQ.query_batch` and :meth:`CompactRMQ.query_batch`.
    """
    n = len(values)
    fill = -np.inf if mode == "max" else np.inf
    reducer = np.argmax if mode == "max" else np.argmin
    offsets = np.arange(block_size, dtype=np.int64)
    grid = starts[:, None] + offsets[None, :]
    valid = grid <= ends[:, None]
    cells = np.where(valid, values[np.minimum(grid, n - 1)], fill)
    return starts + reducer(cells, axis=1)


class SparseTableRMQ:
    """Sparse-table RMQ with ``O(n log n)`` preprocessing and ``O(1)`` queries.

    Parameters
    ----------
    values:
        The array to preprocess.  A copy is kept for tie-breaking and
        value retrieval.
    mode:
        ``"max"`` (default) or ``"min"``.

    Examples
    --------
    >>> rmq = SparseTableRMQ([0.1, 0.9, 0.4, 0.7])
    >>> rmq.query(0, 3)
    1
    >>> rmq.query(2, 3)
    3
    """

    def __init__(self, values: Sequence[float], *, mode: Mode = "max"):
        self._values = _prepare_values(values, mode)
        self._mode = mode
        n = len(self._values)
        levels = max(1, n.bit_length())
        # table[k][i] = index of optimum in values[i : i + 2**k]
        self._table = np.empty((levels, n), dtype=np.int64)
        self._table[0] = np.arange(n, dtype=np.int64)
        compare = np.greater_equal if mode == "max" else np.less_equal
        for k in range(1, levels):
            span = 1 << k
            half = span >> 1
            width = n - span + 1
            if width <= 0:
                self._table[k] = self._table[k - 1]
                continue
            left = self._table[k - 1][:width]
            right = self._table[k - 1][half : half + width]
            choose_left = compare(self._values[left], self._values[right])
            self._table[k][:width] = np.where(choose_left, left, right)
            self._table[k][width:] = self._table[k - 1][width:]

    @property
    def mode(self) -> Mode:
        """Whether this structure answers max or min queries."""
        return self._mode

    @property
    def values(self) -> np.ndarray:
        """The underlying array (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self._values)

    def query(self, left: int, right: int) -> int:
        """Return the index of the optimum value in ``values[left..right]`` (inclusive)."""
        left, right = _check_range(len(self._values), left, right)
        span = right - left + 1
        k = span.bit_length() - 1
        a = int(self._table[k][left])
        b = int(self._table[k][right - (1 << k) + 1])
        if self._mode == "max":
            return a if self._values[a] >= self._values[b] else b
        return a if self._values[a] <= self._values[b] else b

    def query_batch(self, lefts: Sequence[int], rights: Sequence[int]) -> np.ndarray:
        """Answer many ``[left, right]`` queries in one vectorized pass.

        Element ``i`` of the result equals ``self.query(lefts[i], rights[i])``
        — including the tie-break (the leftmost optimum is returned).  The
        whole batch costs two table gathers, one comparison and one
        ``np.where``, with no Python-level work per query.
        """
        lefts, rights = _check_batch(len(self._values), lefts, rights)
        if lefts.size == 0:
            return np.empty(0, dtype=np.int64)
        levels = _floor_log2(rights - lefts + 1)
        a = self._table[levels, lefts]
        b = self._table[levels, rights - (np.int64(1) << levels) + 1]
        if self._mode == "max":
            choose_a = self._values[a] >= self._values[b]
        else:
            choose_a = self._values[a] <= self._values[b]
        return np.where(choose_a, a, b)

    def query_value(self, left: int, right: int) -> float:
        """Return the optimum *value* in ``values[left..right]``."""
        return float(self._values[self.query(left, right)])

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes."""
        return int(self._table.nbytes + self._values.nbytes)

    def to_payload(self) -> IndexPayload:
        """Space-efficient payload: block optimum positions, not the table.

        Serializing the full ``(levels, n)`` table costs O(n log n) words;
        the payload instead stores the leftmost optimum of every
        ``~log2 n``-wide block (O(n / log n) words, Fischer–Heun style).
        :func:`rmq_from_payload` restores a :class:`CompactRMQ`, which
        rebuilds the cheap top levels — a sparse table over the block
        optima, O(n/b · log n) words — and answers every query with the
        same leftmost-optimum tie-break this class guarantees, so restored
        indexes answer byte-identically.  The full table is reported as a
        *derived* array (it is this object's real memory footprint) but is
        never written to archives.
        """
        n = len(self._values)
        block_size = default_block_size(n)
        return IndexPayload(
            schema=RMQ_SCHEMA_SPARSE,
            meta={"mode": self._mode, "block_size": block_size, "length": n},
            arrays={
                "block_positions": _block_optimum_positions(
                    self._values, block_size, self._mode
                )
            },
            derived={"table": self._table},
        )


class BlockRMQ:
    """Block-decomposed RMQ trading query constant factors for linear space.

    The array is partitioned into blocks of ``block_size`` elements
    (default ``max(1, ⌈log2 n⌉)``); a :class:`SparseTableRMQ` is kept over
    the per-block optima and queries scan at most two partial blocks.
    Passing ``block_positions`` (a payload's stored optima, see
    :func:`rmq_from_payload`) skips the block scan.

    Examples
    --------
    >>> rmq = BlockRMQ([5.0, 1.0, 4.0, 9.0, 2.0], block_size=2)
    >>> rmq.query(0, 4)
    3
    """

    def __init__(
        self,
        values: Sequence[float],
        *,
        mode: Mode = "max",
        block_size: int | None = None,
        block_positions: Optional[np.ndarray] = None,
    ):
        self._values = _prepare_values(values, mode)
        self._mode = mode
        n = len(self._values)
        if block_size is None:
            block_size = default_block_size(n)
        if block_size <= 0:
            raise ValidationError(f"block_size must be positive, got {block_size}")
        self._block_size = int(block_size)
        self._block_positions = _checked_block_positions(
            self._values, self._block_size, mode, block_positions
        )
        self._summary = SparseTableRMQ(self._values[self._block_positions], mode=mode)

    @property
    def mode(self) -> Mode:
        """Whether this structure answers max or min queries."""
        return self._mode

    @property
    def block_size(self) -> int:
        """Number of elements per block."""
        return self._block_size

    def __len__(self) -> int:
        return len(self._values)

    def _scan(self, left: int, right: int) -> int:
        segment = self._values[left : right + 1]
        offset = int(np.argmax(segment) if self._mode == "max" else np.argmin(segment))
        return left + offset

    def _better(self, a: int, b: int) -> int:
        if self._mode == "max":
            return a if self._values[a] >= self._values[b] else b
        return a if self._values[a] <= self._values[b] else b

    def query(self, left: int, right: int) -> int:
        """Return the index of the optimum value in ``values[left..right]`` (inclusive)."""
        left, right = _check_range(len(self._values), left, right)
        first_block = left // self._block_size
        last_block = right // self._block_size
        if first_block == last_block:
            return self._scan(left, right)
        best = self._scan(left, (first_block + 1) * self._block_size - 1)
        tail_start = last_block * self._block_size
        best = self._better(best, self._scan(tail_start, right))
        if last_block - first_block > 1:
            summary_index = self._summary.query(first_block + 1, last_block - 1)
            best = self._better(best, int(self._block_positions[summary_index]))
        return best

    def query_batch(self, lefts: Sequence[int], rights: Sequence[int]) -> np.ndarray:
        """Answer many ``[left, right]`` queries in one vectorized pass.

        Element ``i`` equals ``self.query(lefts[i], rights[i])``, reproducing
        the scalar tie-breaks exactly: the head-block scan wins ties against
        the tail-block scan, and the head/tail winner wins ties against the
        middle-block summary.  Partial-block scans become two masked
        ``block_size``-wide gathers with a row-wise argmax, and the summary
        lookup is one :meth:`SparseTableRMQ.query_batch` call.
        """
        n = len(self._values)
        lefts, rights = _check_batch(n, lefts, rights)
        if lefts.size == 0:
            return np.empty(0, dtype=np.int64)
        block_size = self._block_size
        first_block = lefts // block_size
        last_block = rights // block_size

        def scan(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
            return _masked_block_scan(self._values, starts, ends, block_size, self._mode)

        best = scan(lefts, np.minimum(rights, (first_block + 1) * block_size - 1))
        cross = first_block != last_block
        if cross.any():
            tail_best = scan(last_block[cross] * block_size, rights[cross])
            best[cross] = _prefer_current_batch(
                self._values, self._mode, best[cross], tail_best
            )
        gap = last_block - first_block > 1
        if gap.any():
            summary = self._summary.query_batch(first_block[gap] + 1, last_block[gap] - 1)
            best[gap] = _prefer_current_batch(
                self._values, self._mode, best[gap], self._block_positions[summary]
            )
        return best

    def query_value(self, left: int, right: int) -> float:
        """Return the optimum *value* in ``values[left..right]``."""
        return float(self._values[self.query(left, right)])

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes."""
        return int(
            self._values.nbytes + self._block_positions.nbytes + self._summary.nbytes()
        )

    def to_payload(self) -> IndexPayload:
        """Space-efficient payload: block positions only (summary rebuilt).

        The summary sparse table is a deterministic O(n/b · log(n/b))-word
        function of ``values[block_positions]``, so :func:`rmq_from_payload`
        rebuilds it (reported here as a *derived* array: counted in memory
        accounting, absent from archives).
        """
        return IndexPayload(
            schema=RMQ_SCHEMA_BLOCK,
            meta={
                "mode": self._mode,
                "block_size": self._block_size,
                "length": len(self._values),
            },
            arrays={"block_positions": self._block_positions},
            derived={"summary_table": self._summary._table},
        )


class CompactRMQ:
    """The space-efficient restore form of a serialized sparse table.

    Built from the Fischer–Heun-style payload of
    :meth:`SparseTableRMQ.to_payload` — per-block leftmost-optimum
    positions plus a rebuilt sparse table over the block optima — this
    structure occupies O(n/b · log n) words beyond the value array yet
    answers **exactly** like :class:`SparseTableRMQ`: every query returns
    the *leftmost* optimum of its range.

    The leftmost guarantee holds because the three candidate regions of a
    block-decomposed query are compared in position order — head partial
    block, middle summary, tail partial block — with the earlier candidate
    winning ties.  Each candidate is the leftmost optimum of its region
    (``argmax`` picks the first optimum of a scan; the summary table
    prefers the leftmost block, whose stored position is leftmost within
    the block), so the first region attaining the global optimum
    contributes the globally leftmost position.  (:class:`BlockRMQ`
    compares head, *tail*, then middle, which is why its tie-breaks differ
    and why the two classes stay distinct.)

    Queries cost O(block_size); construction from values is O(n).
    """

    def __init__(
        self,
        values: Sequence[float],
        *,
        mode: Mode = "max",
        block_size: Optional[int] = None,
        block_positions: Optional[np.ndarray] = None,
    ):
        self._values = _prepare_values(values, mode)
        self._mode = mode
        n = len(self._values)
        if block_size is None:
            block_size = default_block_size(n)
        if block_size <= 0:
            raise ValidationError(f"block_size must be positive, got {block_size}")
        self._block_size = int(block_size)
        self._block_positions = _checked_block_positions(
            self._values, self._block_size, mode, block_positions
        )
        self._summary = SparseTableRMQ(self._values[self._block_positions], mode=mode)

    @property
    def mode(self) -> Mode:
        """Whether this structure answers max or min queries."""
        return self._mode

    @property
    def block_size(self) -> int:
        """Number of elements per block."""
        return self._block_size

    def __len__(self) -> int:
        return len(self._values)

    def _scan(self, left: int, right: int) -> int:
        segment = self._values[left : right + 1]
        offset = int(np.argmax(segment) if self._mode == "max" else np.argmin(segment))
        return left + offset

    def _keep_first(self, first: int, second: int) -> int:
        """The better of two candidates; the earlier one wins ties."""
        if self._mode == "max":
            return first if self._values[first] >= self._values[second] else second
        return first if self._values[first] <= self._values[second] else second

    def query(self, left: int, right: int) -> int:
        """Index of the *leftmost* optimum in ``values[left..right]`` (inclusive)."""
        left, right = _check_range(len(self._values), left, right)
        first_block = left // self._block_size
        last_block = right // self._block_size
        if first_block == last_block:
            return self._scan(left, right)
        # Candidates compared in position order: head, middle, tail.
        best = self._scan(left, (first_block + 1) * self._block_size - 1)
        if last_block - first_block > 1:
            summary_index = self._summary.query(first_block + 1, last_block - 1)
            best = self._keep_first(best, int(self._block_positions[summary_index]))
        tail_start = last_block * self._block_size
        return self._keep_first(best, self._scan(tail_start, right))

    def query_batch(self, lefts: Sequence[int], rights: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`query`: element ``i`` equals ``query(lefts[i], rights[i])``."""
        n = len(self._values)
        lefts, rights = _check_batch(n, lefts, rights)
        if lefts.size == 0:
            return np.empty(0, dtype=np.int64)
        block_size = self._block_size
        first_block = lefts // block_size
        last_block = rights // block_size

        best = _masked_block_scan(
            self._values,
            lefts,
            np.minimum(rights, (first_block + 1) * block_size - 1),
            block_size,
            self._mode,
        )
        # Same comparison order as the scalar path: head beats middle beats
        # tail on ties, giving the leftmost optimum overall.
        gap = last_block - first_block > 1
        if gap.any():
            summary = self._summary.query_batch(first_block[gap] + 1, last_block[gap] - 1)
            best[gap] = _prefer_current_batch(
                self._values, self._mode, best[gap], self._block_positions[summary]
            )
        cross = first_block != last_block
        if cross.any():
            tail_best = _masked_block_scan(
                self._values,
                last_block[cross] * block_size,
                rights[cross],
                block_size,
                self._mode,
            )
            best[cross] = _prefer_current_batch(
                self._values, self._mode, best[cross], tail_best
            )
        return best

    def query_value(self, left: int, right: int) -> float:
        """Return the optimum *value* in ``values[left..right]``."""
        return float(self._values[self.query(left, right)])

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes."""
        return int(
            self._values.nbytes + self._block_positions.nbytes + self._summary.nbytes()
        )

    def to_payload(self) -> IndexPayload:
        """Round-trips to the exact payload this structure was restored from."""
        return IndexPayload(
            schema=RMQ_SCHEMA_SPARSE,
            meta={
                "mode": self._mode,
                "block_size": self._block_size,
                "length": len(self._values),
            },
            arrays={"block_positions": self._block_positions},
            derived={"summary_table": self._summary._table},
        )


def make_rmq(
    values: Sequence[float],
    *,
    mode: Mode = "max",
    implementation: Literal["sparse", "block"] = "sparse",
    block_size: int | None = None,
):
    """Factory returning the requested RMQ implementation.

    Used by the indexes so that the RMQ flavour can be switched for the
    space/time ablation without touching index code.
    """
    if implementation == "sparse":
        return SparseTableRMQ(values, mode=mode)
    if implementation == "block":
        return BlockRMQ(values, mode=mode, block_size=block_size)
    raise ValidationError(
        f"unknown RMQ implementation {implementation!r}; expected 'sparse' or 'block'"
    )


# ---------------------------------------------------------------------------
# IndexPayload currency (archives, worker IPC, space accounting)
# ---------------------------------------------------------------------------
def rmq_to_payload(rmq) -> IndexPayload:
    """The :class:`~repro.payload.IndexPayload` describing ``rmq``.

    Dispatches to the structure's ``to_payload``; both flavours serialize
    to O(n / block_size) stored words (block optimum positions only).
    """
    if isinstance(rmq, (SparseTableRMQ, BlockRMQ, CompactRMQ)):
        return rmq.to_payload()
    raise ValidationError(
        f"cannot serialize a {type(rmq).__name__}; expected SparseTableRMQ, "
        "CompactRMQ or BlockRMQ"
    )


def rmq_from_payload(values: Sequence[float], payload: IndexPayload):
    """Restore the RMQ structure an :class:`IndexPayload` describes.

    ``values`` is the array the structure was built over — the payload
    deliberately excludes it, since every index persists its value arrays
    itself.  Two schemas are understood:

    * :data:`RMQ_SCHEMA_SPARSE` — block positions of a sparse table;
      restores a :class:`CompactRMQ` (identical answers, O(n/b log n)
      words instead of O(n log n));
    * :data:`RMQ_SCHEMA_BLOCK` — block positions of a :class:`BlockRMQ`;
      the summary table is rebuilt.

    Payload arrays may be read-only memory maps — queries never write.
    """
    if payload.schema not in (RMQ_SCHEMA_SPARSE, RMQ_SCHEMA_BLOCK):
        raise ValidationError(
            f"unrecognized RMQ payload schema {payload.schema!r}; expected one of "
            f"{[RMQ_SCHEMA_SPARSE, RMQ_SCHEMA_BLOCK]}"
        )
    mode = payload.meta.get("mode", "max")
    block_size = int(payload.meta["block_size"])
    positions = payload.arrays["block_positions"]
    if payload.schema == RMQ_SCHEMA_SPARSE:
        return CompactRMQ(
            values, mode=mode, block_size=block_size, block_positions=positions
        )
    return BlockRMQ(values, mode=mode, block_size=block_size, block_positions=positions)
