"""Shift spaces over a finite alphabet and their finite-window points.

A space is either the full shift on M symbols or a subshift of finite type
given by an M x M transition matrix of 0/1 entries (entry (i, j) = 1 allows
the word ij).  States that cannot be extended bi-infinitely are trimmed at
construction, so every admissible word of a live space occurs in some point.

Points carry a finite symmetric window [-H, H]; everything downstream
(distances, cylinders, masses) is computed from windows and reports
saturation when a window is too short to decide a question.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AllStatesDead,
    BadMatrix,
    HorizonExceeded,
    InadmissibleWord,
)


class ShiftSpace:
    """Full M-shift or 0/1-transition subshift with dead states trimmed.

    Beside the input ``transition`` (None for the full shift) it keeps one
    table, the read-only bool ``adjacency``: (i, j) is set when ij is
    admissible among alive states.  Every other view is read off it.
    """

    def __init__(self, alphabet_size: int, transition=None):
        if not isinstance(alphabet_size, int) or alphabet_size < 1:
            raise BadMatrix(f"alphabet size must be a positive integer, got {alphabet_size!r}")
        self.alphabet_size = alphabet_size
        if transition is None:
            self.transition = None
            adj = np.ones((alphabet_size, alphabet_size), dtype=bool)
        else:
            mat = np.asarray(transition)
            if mat.ndim != 2 or mat.shape != (alphabet_size, alphabet_size):
                raise BadMatrix(
                    f"transition must be {alphabet_size}x{alphabet_size}, got shape {mat.shape}"
                )
            if not np.isin(mat, (0, 1)).all():
                raise BadMatrix("transition entries must be 0 or 1")
            self.transition = mat.astype(np.int64)
            adj = self.transition.astype(bool)
        alive = np.ones(alphabet_size, dtype=bool)
        while True:  # keep the states with an in- and an out-edge among those kept
            adj &= alive & alive[:, None]
            kept = adj.any(axis=0) & adj.any(axis=1)
            if np.array_equal(kept, alive):
                break
            alive = kept
        if not alive.any():
            raise AllStatesDead("every state was trimmed; the subshift is empty")
        adj.setflags(write=False)
        self.adjacency = adj
        self.alive_states = tuple(np.flatnonzero(alive).tolist())
        self._alive_mask = alive
        # neighbour tables of the batch walk in ``sample_points``
        self._succ, self._n_succ = _padded(adj)
        self._pred, self._n_pred = _padded(adj.T)

    @property
    def is_full(self) -> bool:
        return self.transition is None

    @property
    def label(self) -> str:
        """``full:M``, or ``sft:M:`` and the input matrix's entries row by row."""
        if self.is_full:
            return f"full:{self.alphabet_size}"
        bits = "".join(str(int(v)) for row in self.transition for v in row)
        return f"sft:{self.alphabet_size}:{bits}"

    def _key(self):
        tbytes = None if self.transition is None else self.transition.tobytes()
        return (self.alphabet_size, tbytes)

    def __eq__(self, other) -> bool:
        return isinstance(other, ShiftSpace) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        kind = "full" if self.is_full else "sft"
        return f"ShiftSpace({kind}, M={self.alphabet_size}, alive={len(self.alive_states)})"

    def _symbol_indices(self, symbols) -> np.ndarray | None:
        """The word as an int64 vector of alphabet indices, or None when some
        entry is not equal to an integer in [0, M) (``1.5``, ``"x"``, ``-1``)."""
        if not isinstance(symbols, np.ndarray):
            try:
                symbols = np.asarray(list(symbols))
            except (TypeError, ValueError):
                return None
        if symbols.ndim != 1:
            return None
        kind = symbols.dtype.kind
        if kind == "O":
            values = [_integer_value(c) for c in symbols]
            if any(v is None or not 0 <= v < self.alphabet_size for v in values):
                return None
            return np.array(values, dtype=np.int64)
        if kind not in "biuf":
            return None
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.alphabet_size):
            return None
        if kind == "f" and not (symbols == np.floor(symbols)).all():
            return None
        return symbols.astype(np.int64, copy=False)

    def is_admissible(self, symbols: Sequence[int]) -> bool:
        """Check alphabet range, aliveness, and every length-2 factor.

        A word whose entries are not all integer values is not admissible.
        """
        w = self._symbol_indices(symbols)
        if w is None or not self._alive_mask[w].all():
            return False
        return bool(self.adjacency[w[:-1], w[1:]].all())


def _integer_value(c) -> int | None:
    """``int(c)`` when that equals ``c``, else None."""
    try:
        v = int(c)
    except (TypeError, ValueError, OverflowError):
        return None
    return v if v == c else None


def _padded(adj: np.ndarray):
    """The column indices of each row of ``adj``, ascending, as a
    zero-padded (M, max degree) int64 table, and the int64 degree of every
    row (0 for a trimmed symbol)."""
    degree = adj.sum(axis=1, dtype=np.int64)
    width = int(degree.max())
    # a stable sort puts each row's set columns first, in ascending order
    order = np.argsort(~adj, axis=1, kind="stable")[:, :width]
    table = np.where(np.arange(width) < degree[:, None], order, 0).astype(np.int64)
    return table, degree


@dataclass(frozen=True, eq=False)
class Point:
    """Finite-window point: coordinates -horizon..horizon are known.

    ``symbols`` is exactly that window, read-only, so ``symbols[horizon +
    t]`` holds coordinate ``t``; the horizon is read off its length.
    """

    space: ShiftSpace
    symbols: np.ndarray

    def __post_init__(self):
        if self.symbols.ndim != 1 or self.symbols.size % 2 != 1:
            raise HorizonExceeded(
                f"a point's window must be 1-D of odd length, got shape {self.symbols.shape}"
            )
        object.__setattr__(self, "horizon", (self.symbols.size - 1) // 2)

    def window(self, lo: int | None = None, hi: int | None = None) -> np.ndarray:
        """Read-only view of coordinates lo..hi (defaults: the full window)."""
        lo = -self.horizon if lo is None else lo
        hi = self.horizon if hi is None else hi
        if lo < -self.horizon or hi > self.horizon or lo > hi:
            raise HorizonExceeded(
                f"window [{lo}, {hi}] outside available [-{self.horizon}, {self.horizon}]"
            )
        return self.symbols[self.horizon + lo : self.horizon + hi + 1]

    def agrees_with(self, other: "Point", lo: int, hi: int) -> bool:
        return bool(np.array_equal(self.window(lo, hi), other.window(lo, hi)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return (
            self.space == other.space
            and self.horizon == other.horizon
            and np.array_equal(self.window(), other.window())
        )

    def __hash__(self) -> int:
        return hash((self.horizon, self.window().tobytes()))

    def __repr__(self) -> str:
        if self.horizon <= 8:
            inner = "".join(str(int(c)) for c in self.window())
        else:
            head = "".join(str(int(c)) for c in self.window(-4, 4))
            inner = f"...{head}..."
        return f"Point(H={self.horizon}, {inner})"


def make_space(alphabet_size: int, transition=None) -> ShiftSpace:
    """Build a full shift (``transition=None``) or a subshift of finite type."""
    return ShiftSpace(alphabet_size, transition)


def word_counts(space: ShiftSpace, lengths: Iterable[int]) -> tuple[int, ...]:
    """Exact numbers N(L) of admissible words, one for each requested length.

    The lengths may come in any order and repeat.  A subshift makes one
    big-integer transfer-vector pass up to the largest length: entry t of
    the vector counts the words of the current length that end in alive
    state t, and one step sums it over each state's predecessors (0/1
    transitions make every step additions only).
    """
    lengths = tuple(lengths)
    for length in lengths:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
    if space.is_full:
        return tuple(space.alphabet_size**length for length in lengths)
    alive = space.alive_states
    adj = space.adjacency[np.ix_(alive, alive)]
    preds = [np.flatnonzero(column).tolist() for column in adj.T]
    wanted = set(lengths)
    counts = {0: 1}
    ending = [1] * len(alive)
    for length in range(1, max(wanted, default=0) + 1):
        if length > 1:
            ending = [sum([ending[s] for s in pred]) for pred in preds]
        if length in wanted:
            counts[length] = sum(ending)
    return tuple(counts[length] for length in lengths)


def count_words(space: ShiftSpace, length: int) -> int:
    """Exact number of admissible words of the given length (arbitrary precision)."""
    return word_counts(space, (length,))[0]


def _reachable(graph: np.ndarray, start: int) -> np.ndarray:
    """Mask of the nodes reachable from ``start`` along the digraph's set
    entries, one breadth-first level per step."""
    seen = np.zeros(graph.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen
    while frontier.any():
        frontier = graph[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def _strong_components(positive: np.ndarray) -> list[list[int]]:
    """The strongly connected classes of the digraph of set entries, each
    sorted, ordered by their smallest node."""
    left = np.ones(positive.shape[0], dtype=bool)
    classes = []
    while left.any():
        node = int(np.argmax(left))
        members = _reachable(positive, node) & _reachable(positive.T, node)
        classes.append(np.flatnonzero(members).tolist())
        left &= ~members
    return classes


def _perron_root(A: np.ndarray) -> float:
    """The spectral radius of an irreducible nonnegative matrix: exactly 1 when
    its graph is one cycle (one edge out of every state), else the largest
    real part among its eigenvalues."""
    if (A.sum(axis=1) == 1).all():
        return 1.0
    return float(np.linalg.eigvals(A).real.max())


def top_entropy_oracle(space: ShiftSpace) -> float:
    """Topological entropy: log of the trimmed adjacency's spectral radius.

    Full shifts return ln(M) directly.  A subshift returns ln of the largest
    Perron root over the irreducible components of its trimmed adjacency
    (Lind & Marcus 1995, section 4.4); a component with no internal edge
    contributes nothing.  Each component's root is simple, so its
    eigen-solve is accurate to rounding where the whole reducible matrix's
    repeated roots are not.
    """
    if space.is_full:
        return math.log(space.alphabet_size)
    alive = space.alive_states
    A = space.adjacency[np.ix_(alive, alive)].astype(float)
    blocks = (A[np.ix_(c, c)] for c in _strong_components(A > 0))
    return math.log(max(_perron_root(B) for B in blocks if B.any()))


def point_from_window(space: ShiftSpace, symbols: Sequence[int]) -> Point:
    """Build a point from an odd-length window centered at coordinate 0.

    The entries are checked as given, so one that is not an integer value
    (``1.5``) is refused rather than truncated; the point keeps a read-only
    int64 copy.
    """
    if not isinstance(symbols, np.ndarray):
        symbols = list(symbols)
    if not space.is_admissible(symbols):
        shown = symbols.tolist() if isinstance(symbols, np.ndarray) else symbols
        raise InadmissibleWord(f"word {shown!r} is not admissible in {space!r}")
    arr = np.array(symbols, dtype=np.int64)
    arr.setflags(write=False)
    return Point(space, arr)


def _seed_value(seed) -> int:
    """A seed as a Python int; ``None`` (OS entropy) and non-integers are
    refused with ``TypeError``, negative integers with ``ValueError``."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    return value


def _walk(seeds: Iterable[int], horizon: int, start, forward, backward) -> np.ndarray:
    """The seeded walk of both samplers: one read-only int64 row per seed
    over the window [-horizon, horizon].

    Exact-stream contract: a row walks its own ``u = default_rng(seed).random(2
    * horizon + 1)``, one uniform per coordinate in the order center, 1..horizon,
    -1..-horizon; ``start(u)``, ``forward(state, u)`` and ``backward(state,
    u)`` step every row at once.  Seeds must be integers >= 0 (NumPy integers
    and bools too); ``None``, which would draw OS entropy, is refused.
    """
    seeds = [_seed_value(seed) for seed in seeds]
    u = np.empty((len(seeds), 2 * horizon + 1))
    for row, seed in zip(u, seeds):
        np.random.default_rng(seed).random(out=row)
    rows = np.empty(u.shape, dtype=np.int64)
    rows[:, horizon] = start(u[:, 0])
    for t in range(1, horizon + 1):
        rows[:, horizon + t] = forward(rows[:, horizon + t - 1], u[:, t])
    for t in range(1, horizon + 1):
        rows[:, horizon - t] = backward(rows[:, horizon - t + 1], u[:, horizon + t])
    rows.setflags(write=False)
    return rows


def sample_points(space: ShiftSpace, horizon: int, seeds: Iterable[int]) -> list[Point]:
    """Seeded admissible points, one per seed: the ``_walk`` whose start is a
    uniform alive state and whose steps take neighbour ``int(u * degree)``
    of the padded out-edge (forward) or in-edge (backward) table."""
    if horizon < 0:
        raise HorizonExceeded(f"horizon must be >= 0, got {horizon}")
    alive = np.array(space.alive_states, dtype=np.int64)
    succ, n_succ, pred, n_pred = space._succ, space._n_succ, space._pred, space._n_pred
    rows = _walk(
        seeds,
        horizon,
        lambda u: alive[(u * len(alive)).astype(np.int64)],
        lambda state, u: succ[state, (u * n_succ[state]).astype(np.int64)],
        lambda state, u: pred[state, (u * n_pred[state]).astype(np.int64)],
    )
    return [Point(space, row) for row in rows]


def sample_point(space: ShiftSpace, horizon: int, seed: int) -> Point:
    """The seeded admissible point of ``sample_points`` for one seed."""
    return sample_points(space, horizon, (seed,))[0]

