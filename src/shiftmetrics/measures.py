"""Shift-invariant Bernoulli and Markov measures with exact cylinder masses.

Both families give closed-form masses for every cylinder, exact entropies,
and stationary two-sided sampling (backward steps use the time-reversed
kernel, so a sampled window is an exact stationary law, not an approximation).
Each measure takes its log tables (``_log_pi``, ``_log_P``) once, when it is
built: ``ln pi`` and ``ln P`` for a chain, ``ln w`` and ``ln w`` on every row for
a Bernoulli measure (the chain whose rows all equal its weights).

The second half of the module is the covering backend used by the Katok-type
entropy estimators: the minimal number of window cylinders whose total mass
reaches ``1 - delta``.  Because cylinders of a fixed window partition the
space, the optimum is the greedy descending-mass count.  Two exact routes
are provided, tried in this order:

1. mass spectrum — group cylinders into equal-mass classes and aggregate
   counts in the log domain.  A Bernoulli measure's classes are its type
   classes: how many symbols of each distinct support weight a word holds,
   so there are ``C(L + k - 1, k - 1)`` classes for ``k`` distinct weights
   at window length ``L``.  The binary Markov classes (run-length
   classes) come from one broadcast pass over every
   (start, end, run count) class, in which a zero self-transition pins each
   run of its symbol to length 1, so such a chain has about ``2 L`` classes
   at window length ``L``; with all four transitions positive it has
   ``L^2 - L + 2``, and these classes are built at every length, without a
   check against ``ENUMERATION_LIMIT``.  Every other chain's classes are its
   transition-count classes: the start state and how often the word takes
   each positive edge, built by one sorted merge per symbol appended, run
   once to the longest length a call asks for (``minimal_cover_log_counts``
   reads every length's classes as the merge reaches it); there are at
   most ``M C(L + e - 2, e - 1)`` of them for ``M`` states and ``e``
   positive edges, and never more than the support words.  Past
   ``ENUMERATION_LIMIT`` type or transition-count classes (for a chain: when
   both that bound and the support word count exceed it) the measure goes
   to prefix expansion.
   Equal masses are then merged with one ``logaddexp.reduceat`` per array,
2. best-first prefix expansion under a node budget (masses are
   monotone under extension, so words are emitted in exact descending
   order).  A call that would pop more than the budget refuses with
   ``WindowTooLarge``: before popping when the heaviest possible word
   already shows it, otherwise once the budget runs out.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    BadMeasure,
    HorizonExceeded,
    HypothesisViolated,
    IncompatibleInputs,
    InadmissibleWord,
    NoConvergence,
    Reducible,
    WindowTooLarge,
)
from .shiftspace import (
    Point,
    ShiftSpace,
    _strong_components,
    _walk,
    count_words,
    make_space,
)

ROW_SUM_TOL = 1e-12
#: Most type classes or transition-count classes a cover builds (for the
#: latter, the smaller of their bound and the support word count), and most
#: nodes its prefix expansion pops.  A two-state chain's run-length classes
#: are not held to it: L^2 - L + 2 of them when every transition is positive.
ENUMERATION_LIMIT = 2**22
#: Counts below this are recovered exactly by rounding exp(log_count).
_EXACT_COUNT_LIMIT = float(2**40)


def stationary(P) -> np.ndarray:
    """Unique stationary vector of an irreducible row-stochastic matrix.

    pi is read by GTH state reduction (Grassmann, Taksar & Heyman 1985):
    states n-1, ..., 1 are folded one at a time into the states below them,
    then unfolded from pi_0 = 1.  No step subtracts, so every entry is exact
    to rounding however slowly the chain mixes.  Uniqueness is guarded by a
    strong-connectivity check on the positive-entry digraph; reducible input
    raises ``Reducible``.
    """
    mat = np.asarray(P, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise BadMeasure(f"transition kernel must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise BadMeasure(f"transition kernel entries must be finite, got {P!r}")
    if (mat < 0).any():
        raise BadMeasure("transition kernel entries must be nonnegative")
    rows = mat.sum(axis=1)
    if not np.all(np.abs(rows - 1.0) <= ROW_SUM_TOL):
        raise BadMeasure(f"rows must sum to 1 within {ROW_SUM_TOL}, got sums {rows}")
    n = mat.shape[0]
    if len(_strong_components(mat > 0)) != 1:
        raise Reducible("positive-entry digraph is not strongly connected")
    Q = mat.copy()
    for k in range(n - 1, 0, -1):
        Q[:k, k] /= Q[k, :k].sum()
        Q[:k, :k] += np.outer(Q[:k, k], Q[k, :k])
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ Q[:k, k]
    pi /= pi.sum()
    residual = np.max(np.abs(pi @ mat - pi))
    if residual > 1e-10:
        raise NoConvergence(f"stationary residual {residual} exceeds 1e-10")
    return pi


def _log_table(p: np.ndarray) -> np.ndarray:
    """Read-only ln p, with ln 0 = -inf (no divide-by-zero warning)."""
    with np.errstate(divide="ignore"):
        table = np.log(p)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class BernoulliMeasure:
    """Product measure: independent symbols drawn from ``weights``."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise BadMeasure(f"weights must be a nonempty vector, got {self.weights!r}")
        if not np.isfinite(w).all():
            raise BadMeasure(f"weights must be finite, got {self.weights!r}")
        if (w < 0).any():
            raise BadMeasure("weights must be nonnegative")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise BadMeasure(f"weights must sum to 1 within {ROW_SUM_TOL}, got {w.sum()!r}")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "_log_pi", _log_table(w))
        object.__setattr__(self, "_log_P", _log_table(np.tile(w, (w.size, 1))))

    @property
    def alphabet_size(self) -> int:
        return len(self.weights)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov chain measure; ``pi`` is always derived from ``P``."""

    P: tuple[tuple[float, ...], ...]
    pi: tuple[float, ...] = None

    def __post_init__(self):
        if self.pi is not None:
            raise BadMeasure("the stationary vector is derived from P; do not supply it")
        pi = stationary(self.P)
        mat = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", tuple(tuple(float(x) for x in row) for row in mat))
        object.__setattr__(self, "pi", tuple(float(x) for x in pi))
        object.__setattr__(self, "_log_P", _log_table(mat))
        object.__setattr__(self, "_log_pi", _log_table(pi))

    @property
    def alphabet_size(self) -> int:
        return len(self.P)


Measure = BernoulliMeasure | MarkovMeasure


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p * ln(p) with the 0 * ln 0 = 0 convention."""
    return np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)


def entropy_oracle(mu: Measure) -> float:
    """Exact entropy of a built-in measure, clipped at 0.

    Bernoulli: -sum p_i ln p_i.  Markov: -sum_i pi_i sum_j P_ij ln P_ij,
    with pi by GTH state reduction.  Zero-probability terms contribute 0 by
    convention.
    """
    if isinstance(mu, BernoulliMeasure):
        h = float(-_xlogx(np.asarray(mu.weights)).sum())
    elif isinstance(mu, MarkovMeasure):
        h = float(-(np.asarray(mu.pi) @ _xlogx(np.asarray(mu.P)).sum(axis=1)))
    else:
        raise BadMeasure(f"unsupported measure type {type(mu).__name__}")
    return max(h, 0.0)


def _require_symbols(mu: Measure, symbols: np.ndarray) -> None:
    if symbols.size and (symbols.min() < 0 or symbols.max() >= mu.alphabet_size):
        raise InadmissibleWord(
            f"symbols {symbols.tolist()!r} outside measure alphabet of size {mu.alphabet_size}"
        )


def _information_reader(mu: Measure, windows: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """Check the symbols of a 2-D int64 array of windows and gather their
    per-step log costs once: ``ln w`` of each symbol (Bernoulli), ``ln P`` of
    each step (chain).  The reader maps columns ``lo..hi - 1`` to -ln of each
    row's (anchor-free, by stationarity) cylinder mass, +inf where it is 0:
    the floats and row reduction of a gather of that block alone."""
    _require_symbols(mu, windows)
    if isinstance(mu, BernoulliMeasure):
        costs = mu._log_pi[windows]
        return lambda lo, hi: -costs[:, lo:hi].sum(axis=1)
    if isinstance(mu, MarkovMeasure):
        costs = mu._log_P[windows[:, :-1], windows[:, 1:]]
        return lambda lo, hi: -(mu._log_pi[windows[:, lo]] + costs[:, lo : hi - 1].sum(axis=1))
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def reversed_kernel(mu: MarkovMeasure) -> np.ndarray:
    """Time-reversed transition kernel: hat P_ij = pi_j P_ji / pi_i."""
    P = np.asarray(mu.P)
    pi = np.asarray(mu.pi)
    hat = (P.T * pi[None, :]) / pi[:, None]
    # rows sum to 1 up to rounding; renormalize so sampling never drifts
    return hat / hat.sum(axis=1, keepdims=True)


def _choice_cdf(p) -> np.ndarray:
    """The CDF ``rng.choice(m, p=p)`` inverts, normalised as it does:
    ``cdf = p.cumsum(); cdf /= cdf[-1]`` (row by row for a matrix)."""
    cdf = np.asarray(p, dtype=float).cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def sample_typical_windows(
    mu: Measure, horizon: int, seeds: Iterable[int], space: ShiftSpace | None = None
) -> np.ndarray:
    """Stationary two-sided samples on the window [-horizon, horizon]: the
    ``_walk`` of each seed's stream, one read-only int64 row per seed.

    The symbol at 0 is drawn from the stationary law, forward symbols from
    the transition rows and backward symbols from the time-reversed kernel,
    so every finite window has its exact stationary distribution.  Each
    uniform is inverted through ``rng.choice``'s normalised CDF of its law
    (``searchsorted(cdf, u, side="right")``), so a row is the same as
    drawing each symbol with ``rng.choice(m, p=law)`` in the walk's order.

    The batch is certified once, before any draw, by ``require_supported``
    in ``space`` (by default the full shift on the measure's alphabet): a
    uniform below 1 never inverts to a zero-probability index, and the
    reversed kernel is zero exactly where P transposed is, so every row is
    admissible in every space that supports ``mu``.
    """
    if horizon < 1:
        raise HorizonExceeded(f"horizon must be >= 1, got {horizon}")
    if isinstance(mu, BernoulliMeasure):
        cdf = _choice_cdf(mu.weights)
        start = lambda u: cdf.searchsorted(u, side="right")
        forward = backward = lambda state, u: start(u)
    elif isinstance(mu, MarkovMeasure):
        pi, P, hat = (_choice_cdf(p) for p in (mu.pi, mu.P, reversed_kernel(mu)))
        start = lambda u: (pi <= u[:, None]).sum(axis=1)
        forward = lambda state, u: (P[state] <= u[:, None]).sum(axis=1)
        backward = lambda state, u: (hat[state] <= u[:, None]).sum(axis=1)
    else:
        raise BadMeasure(f"unsupported measure type {type(mu).__name__}")
    if space is not None:
        require_supported(mu, space)
    return _walk(seeds, horizon, start, forward, backward)


def sample_typical(mu: Measure, horizon: int, seed, space: ShiftSpace | None = None) -> Point:
    """The stationary sample of ``sample_typical_windows`` for one seed, as a point."""
    if space is None:
        space = make_space(mu.alphabet_size)
    return Point(space, sample_typical_windows(mu, horizon, (seed,), space)[0])


def _positive_pattern(mu: Measure) -> np.ndarray:
    """The transitions of positive probability out of states of positive
    mass (a zero-weight Bernoulli symbol's row is never entered)."""
    return np.isfinite(mu._log_pi)[:, None] & np.isfinite(mu._log_P)


def supported_on(mu: Measure, space: ShiftSpace) -> bool:
    """True when every positive-probability transition is admissible."""
    m = mu.alphabet_size
    return m <= space.alphabet_size and not (_positive_pattern(mu) & ~space.adjacency[:m, :m]).any()


def require_supported(mu: Measure, space: ShiftSpace) -> None:
    """Refuse a measure that gives mass to a word the space does not admit."""
    if not supported_on(mu, space):
        raise IncompatibleInputs("measure support is not admissible in the space")


def _require_numbers(key: str, entries) -> None:
    """Refuse an entry that is not a JSON number: NumPy would read "0.3" as
    0.3 and true as 1.0."""
    for index, v in enumerate(entries):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise BadMeasure(f"{key}[{index}] must be a JSON number, got {v!r}")


def measure_from_json(spec) -> Measure:
    """Parse ``{"type": "bernoulli", "weights": [...]}`` or
    ``{"type": "markov", "P": [[...], ...]}`` (dict or JSON text).

    The stationary vector is always computed here; supplying one is refused.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise BadMeasure(f"measure spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise BadMeasure(f"measure spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind == "bernoulli":
        extra = set(spec) - {"type", "weights"}
        if extra or "weights" not in spec:
            raise BadMeasure(f"bernoulli spec needs exactly 'weights', got keys {sorted(spec)}")
        if not isinstance(spec["weights"], (list, tuple)):
            raise BadMeasure(f"'weights' must be an array, got {spec['weights']!r}")
        _require_numbers("'weights'", spec["weights"])
        return BernoulliMeasure(tuple(spec["weights"]))
    if kind == "markov":
        if "pi" in spec:
            raise BadMeasure("the stationary vector is derived from P; do not supply 'pi'")
        extra = set(spec) - {"type", "P"}
        if extra or "P" not in spec:
            raise BadMeasure(f"markov spec needs exactly 'P', got keys {sorted(spec)}")
        P = spec["P"]
        if not isinstance(P, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in P):
            raise BadMeasure(f"'P' must be an array of arrays, got {P!r}")
        for i, row in enumerate(P):
            if len(row) != len(P):
                raise BadMeasure(
                    f"'P'[{i}] must have {len(P)} entries, one per row of 'P', got {len(row)}"
                )
            _require_numbers(f"'P'[{i}]", row)
        return MarkovMeasure(tuple(tuple(row) for row in P))
    raise BadMeasure(f"unknown measure type {kind!r} (expected 'bernoulli' or 'markov')")


def measure_to_json(mu: Measure) -> dict:
    """Inverse of ``measure_from_json`` (the derived ``pi`` is not emitted)."""
    if isinstance(mu, BernoulliMeasure):
        return {"type": "bernoulli", "weights": list(mu.weights)}
    if isinstance(mu, MarkovMeasure):
        return {"type": "markov", "P": [list(row) for row in mu.P]}
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


# --------------------------------------------------------------------------
# Covering backend: minimal number of window cylinders of mass >= 1 - delta.
# --------------------------------------------------------------------------


#: ln k! for k = 0, 1, ...: one read-only table, extended when a longer window asks
_LGFACT = np.zeros(1)
_LGFACT.setflags(write=False)


def _lgfact_table(n: int) -> np.ndarray:
    """Read-only ln k! for k = 0..n, each entry ``math.lgamma(k + 1)``."""
    global _LGFACT
    if n >= _LGFACT.size:
        grown = [math.lgamma(k + 1) for k in range(_LGFACT.size, n + 1)]
        _LGFACT = np.concatenate((_LGFACT, grown))
        _LGFACT.setflags(write=False)
    return _LGFACT[: n + 1]


def _log_choose(lgfact: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    return lgfact[n] - lgfact[k] - lgfact[n - k]


def _bernoulli_spectrum(mu: BernoulliMeasure, length: int):
    # type classes: support symbols grouped by weight (within 1e-15), in
    # first-occurrence order; a class is a composition of the length over the groups
    weights: list[float] = []
    sizes: list[int] = []
    for x in (mu.weights[i] for i in mu.support):
        for g, y in enumerate(weights):
            if abs(x - y) < 1e-15:
                sizes[g] += 1
                break
        else:
            weights.append(x)
            sizes.append(1)
    if math.comb(length + len(weights) - 1, len(weights) - 1) > ENUMERATION_LIMIT:
        return None
    # one row per class, n_{k-1} varying slowest: each pass splits every
    # row's rest of the length as n = 0..rest for the next group down
    rest = np.array([length])
    split: list[np.ndarray] = []  # n_{k-1}, n_{k-2}, ... so far
    for _ in weights[1:]:
        reps = rest + 1
        n = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        split = [np.repeat(c, reps) for c in split] + [n]
        rest = np.repeat(rest, reps) - n
    parts = [rest, *split[::-1]]
    # ln mass = sum n_i ln w_i; ln count = ln L! - sum ln n_i! + sum n_i ln m_i.
    # Each sum runs in a fixed order (the factorials from the last group
    # down), because the cover's tie groups read the exact values.
    lgfact = _lgfact_table(length)
    log_mass = np.zeros(rest.shape)
    for n, x in zip(parts, weights):
        log_mass += n * math.log(x)
    log_count = np.full(rest.shape, lgfact[length])
    for n in parts[::-1]:
        log_count -= lgfact[n]
    for n, m in zip(parts, sizes):
        log_count += n * math.log(m)
    return log_mass, log_count


def _transition_count_spectra(mu: MarkovMeasure, lengths: Iterable[int]) -> Iterator:
    """Yield ``(length, (log_mass, log_count))`` for each distinct requested
    length >= 1 whose transition-count classes are admitted, in ascending
    order, from one sorted merge run to the longest of them.

    A length is admitted when its classes' bound ``M C(L + e - 2, e - 1)``
    or its support word count is within ``ENUMERATION_LIMIT``.  Each
    length's classes are yielded as the merge reaches it, so no spectrum
    need outlive its step.
    """
    # A word's mass is pi_s prod P_ij^N_ij, so its class is its start s and
    # its transition counts N over the positive edges (Whittle 1955).
    m = mu.alphabet_size
    src, dst = np.nonzero(np.isfinite(mu._log_P))  # positive edges, row-major
    e = src.size
    wanted = {
        length
        for length in set(lengths)
        if length >= 1
        and (
            m * math.comb(length + e - 2, e - 1) <= ENUMERATION_LIMIT
            or support_word_count(mu, length) <= ENUMERATION_LIMIT
        )
    }
    if not wanted:
        return
    top = max(wanted)
    # exact integer keys: the digits are the start (radix m), then each
    # edge's count (radix top: a count is at most top - 1), packed
    # mixed-radix into as many int64 words as they need, so no alphabet
    # overflows.  The sorted key order is digit-lexicographic at any radix,
    # so every length's classes come out in the order of a merge packed at
    # its own length.
    word, place = [], []
    w, span = 0, 1
    for radix in [m] + [top] * e:
        if span * radix > 2**63:
            w, span = w + 1, 1
        word.append(w)
        place.append(span)
        span *= radix
    edge_word = np.array(word[1:])
    edge_place = np.array(place[1:], dtype=np.int64)
    first_edge = np.searchsorted(src, np.arange(m))
    degree = np.bincount(src, minlength=m)
    keys = np.zeros((m, w + 1), dtype=np.int64)
    keys[:, 0] = np.arange(m)
    # (s, N) fixes the last state, so merged classes share it; counts stay
    # exact in float64 below 2**53
    last = np.arange(m)
    counts = np.ones(m)
    for length in range(1, top + 1):
        if length > 1:
            reps = degree[last]
            offset = np.cumsum(reps) - reps - first_edge[last]
            edge = np.arange(reps.sum()) - np.repeat(offset, reps)
            keys = np.repeat(keys, reps, axis=0)
            keys[np.arange(edge.size), edge_word[edge]] += edge_place[edge]
            # on one key word argsort is about 4x faster than lexsort
            order = np.argsort(keys[:, 0]) if w == 0 else np.lexsort(keys.T)
            keys, last, counts = keys[order], dst[edge[order]], np.repeat(counts, reps)[order]
            starts = np.flatnonzero(np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1))))
            keys, last, counts = keys[starts], last[starts], np.add.reduceat(counts, starts)
        if length in wanted:
            # ln mass = ln pi_s + sum N_ij ln P_ij, added in the fixed edge order
            log_mass = mu._log_pi[keys[:, 0] % m]
            for j in range(e):
                log_mass += keys[:, edge_word[j]] // place[j + 1] % top * mu._log_P[src[j], dst[j]]
            yield length, (log_mass, np.log(counts))


def _markov_spectrum(mu: MarkovMeasure, length: int):
    if mu.alphabet_size != 2:
        return next((spectrum for _, spectrum in _transition_count_spectra(mu, (length,))), None)
    logpi, logP = mu._log_pi, mu._log_P
    if length == 1:
        return logpi.copy(), np.zeros(2)
    L = length
    lgfact = _lgfact_table(L)
    # One row per run-count class, in (start, end) blocks (0,0), (0,1), (1,0),
    # (1,1): start symbol s, zero-run count r0, one-run count r1 and the
    # boundary counts n01, n10.  Within a block the classes ascend.
    v = np.arange((L - 1) // 2 + 1)
    u = np.arange(1, L // 2 + 1)
    s = np.repeat([0, 1], v.size + u.size)
    r0 = np.concatenate((v + 1, u, u, v))
    r1 = np.concatenate((v, u, u, v + 1))
    n01 = np.concatenate((v, u, u - 1, v))
    n10 = np.concatenate((v, u - 1, u, v))
    # zero count n0 ranges over lo..hi; a symbol with no runs has count 0
    lo = np.where(r1 > 0, r0, L)
    hi = np.where(r0 > 0, L - r1, 0)
    # a zero self-transition forces every run of that symbol to length 1
    if logP[0, 0] == -np.inf:
        hi = np.minimum(hi, r0)
    if logP[1, 1] == -np.inf:
        lo = np.maximum(lo, L - r1)
    size = np.maximum(hi - lo + 1, 0)

    def per_word_class(a: np.ndarray) -> np.ndarray:
        return np.repeat(a, size)

    n0 = np.arange(size.sum()) - per_word_class(np.cumsum(size) - size - lo)
    n1 = L - n0
    r0, r1 = per_word_class(r0), per_word_class(r1)

    def runs_count(n: np.ndarray, r: np.ndarray) -> np.ndarray:
        # compositions of n symbols into r nonempty runs (r = 0 only when n = 0)
        return np.where(
            r > 0, _log_choose(lgfact, np.maximum(n - 1, 0), np.maximum(r - 1, 0)), 0.0
        )

    log_count = runs_count(n0, r0)
    log_count += runs_count(n1, r1)
    # added left to right in this fixed order: float addition is not
    # associative, and the cover's tie groups depend on the exact values;
    # after the clamps a zero-probability transition has count 0 and adds nothing
    log_mass = per_word_class(logpi[s])
    for count, log_p in (
        (n0 - r0, logP[0, 0]),
        (per_word_class(n01), logP[0, 1]),
        (per_word_class(n10), logP[1, 0]),
        (n1 - r1, logP[1, 1]),
    ):
        if math.isfinite(log_p):
            log_mass += count * log_p
    return log_mass, log_count


def log_mass_spectrum(mu: Measure, length: int):
    """Equal-mass cylinder classes of a window of the given length.

    Returns ``(log_mass, log_count)`` arrays covering every positive-mass
    word exactly once, or ``None`` when a Bernoulli measure's type classes or
    a chain's transition-count classes would number more than
    ``ENUMERATION_LIMIT`` (then the cover goes to prefix expansion).  A
    two-state chain's run-length classes are always built: with every
    transition positive there are ``L^2 - L + 2`` of them, past the limit
    from L = 2049 on.
    Bernoulli measures give their type classes, two-state chains their
    run-length classes, and every other chain its transition-count classes
    (start state and count of each positive edge), which are built when
    either their bound ``M C(L + e - 2, e - 1)`` or the support word count
    is within the limit.
    """
    if length < 0:
        raise InadmissibleWord(f"window length must be >= 0, got {length}")
    if length == 0:
        return np.array([0.0]), np.array([0.0])
    if isinstance(mu, BernoulliMeasure):
        return _bernoulli_spectrum(mu, length)
    if isinstance(mu, MarkovMeasure):
        return _markov_spectrum(mu, length)
    raise BadMeasure(f"unsupported measure type {type(mu).__name__}")


def support_word_count(mu: Measure, length: int) -> int:
    """Exact number of positive-mass words of the given length."""
    if length == 0:
        return 1
    return count_words(make_space(mu.alphabet_size, _positive_pattern(mu)), length)


def enumerate_log_masses(mu: Measure, length: int) -> np.ndarray:
    """Log masses of every positive-mass word of the given length (unsorted)."""
    if length == 0:
        return np.array([0.0])
    start, step = mu._log_pi, mu._log_P
    masses = {
        s: np.array([float(start[s])])
        for s in range(mu.alphabet_size)
        if np.isfinite(start[s])
    }
    for _ in range(length - 1):
        nxt: dict[int, list[np.ndarray]] = {}
        for s, vals in masses.items():
            for t in range(mu.alphabet_size):
                if np.isfinite(step[s, t]):
                    nxt.setdefault(t, []).append(vals + step[s, t])
        masses = {t: np.concatenate(parts) for t, parts in nxt.items()}
    return np.concatenate(list(masses.values())) if masses else np.array([])


#: Relative slack on the 1 - delta coverage boundary.  Exact mass ties reach
#: the greedy through different float routes depending on the backend; the
#: slack makes all backends cross class boundaries at the same point.
_COVER_SLACK = 1e-9


def _merge_equal_mass(log_mass: np.ndarray, log_count: np.ndarray):
    """Sort classes by descending mass and merge classes tied within 1e-9."""
    order = np.argsort(-log_mass)
    lm = log_mass[order]
    lc = log_count[order]
    if lm.size <= 1:
        return lm, lc
    keys = np.round(lm / _COVER_SLACK).astype(np.int64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    merged_lc = np.logaddexp.reduceat(lc, starts)
    merged_tot = np.logaddexp.reduceat(lm + lc, starts)
    return merged_tot - merged_lc, merged_lc


def _mass_shortfall(length: int, covered: float, delta: float) -> WindowTooLarge:
    return WindowTooLarge(
        f"window length {length}: total mass {covered:.6g} is short of 1 - delta = {1 - delta:.6g}"
    )


def _cover_from_sorted(
    log_mass: np.ndarray, log_count: np.ndarray, delta: float, length: int
) -> float:
    """ln of the greedy descending-mass cover count over the equal-mass classes
    of window length ``length``, refused when they hold less than 1 - delta."""
    lm, lc = _merge_equal_mass(log_mass, log_count)
    log_total_count = float(np.logaddexp.reduce(lc))
    if log_total_count <= math.log(_EXACT_COUNT_LIMIT):
        # small enough for exact integer counts and real ceilings
        counts = np.round(np.exp(lc))
        masses = np.exp(lm)
        target = (1.0 - delta) * (1.0 - _COVER_SLACK)
        cum = 0.0
        taken = 0.0
        for c, m in zip(counts, masses):
            block = c * m
            if cum + block < target:
                cum += block
                taken += c
                continue
            need = target - cum
            k = 1.0 if need <= 0.0 else min(c, math.ceil(need / m * (1.0 - _COVER_SLACK)))
            return math.log(taken + max(k, 1.0))
        raise _mass_shortfall(length, cum, delta)
    log_target = math.log1p(-delta) - _COVER_SLACK
    cum = np.logaddexp.accumulate(lm + lc)
    idx = int(np.searchsorted(cum, log_target))
    if idx >= cum.size:
        raise _mass_shortfall(length, math.exp(cum[-1]), delta)
    prior_count = -math.inf if idx == 0 else float(np.logaddexp.reduce(lc[:idx]))
    prior_mass = -math.inf if idx == 0 else float(cum[idx - 1])
    # log(e^target - e^prior) via log1p; then divide by the class mass
    gap = log_target + math.log1p(-math.exp(min(prior_mass - log_target, -1e-300)))
    log_extra = min(gap - lm[idx], float(lc[idx]))
    return float(np.logaddexp(prior_count, max(log_extra, 0.0)))


def _pq_cover_log_count(mu: Measure, length: int, delta: float) -> float:
    """Best-first prefix expansion; exact because extension never raises mass."""
    start, step = mu._log_pi, mu._log_P
    m = mu.alphabet_size
    heap: list[tuple[float, int, int, int]] = []
    serial = 0
    for s in range(m):
        if np.isfinite(start[s]):
            heap.append((-float(start[s]), serial, 1, s))
            serial += 1
    heapq.heapify(heap)
    target = (1.0 - delta) * (1.0 - _COVER_SLACK)
    # every word taken is popped, and none weighs more than
    # max start * (max step)^(L - 1); the margin keeps rounding from
    # refusing a case the expansion would finish
    log_max_mass = float(np.max(start) + (length - 1) * np.max(step))
    log_pops = math.log(target) - log_max_mass
    if log_pops > math.log(ENUMERATION_LIMIT) + 1e-6 * (1.0 + abs(log_max_mass)):
        raise WindowTooLarge(
            f"prefix expansion would exceed the {ENUMERATION_LIMIT}-node budget "
            f"at window length {length}: a cover takes at least e^{log_pops:.1f} words"
        )
    covered = 0.0
    taken = 0
    pops = 0
    while heap:
        neg_lm, _, depth, last = heapq.heappop(heap)
        pops += 1
        if pops > ENUMERATION_LIMIT:
            raise WindowTooLarge(
                f"prefix expansion exceeded the {ENUMERATION_LIMIT}-node budget "
                f"at window length {length}"
            )
        if depth == length:
            covered += math.exp(-neg_lm)
            taken += 1
            if covered >= target:
                return math.log(taken)
            continue
        for t in range(m):
            if np.isfinite(step[last, t]):
                heapq.heappush(heap, (neg_lm - float(step[last, t]), serial, depth + 1, t))
                serial += 1
    raise _mass_shortfall(length, covered, delta)


def minimal_cover_log_counts(
    mu: Measure, lengths: Iterable[int], delta: float
) -> tuple[float, ...]:
    """ln of the minimal number of window cylinders of total mass >= 1 - delta,
    one for each requested window length.

    The lengths may come in any order and repeat.  Cylinders of a fixed
    window partition the space, so the minimum is achieved by taking
    cylinders in descending mass order.  The count is computed exactly via
    the mass spectrum when the measure's classes number at most
    ``ENUMERATION_LIMIT``, and via best-first prefix expansion otherwise;
    ``WindowTooLarge`` signals that the expansion would pop more than
    ``ENUMERATION_LIMIT`` nodes.  A chain on three or more states runs one
    transition-count merge up to its longest admitted length, and takes each
    length's cover count as the merge reaches it; Bernoulli and two-state
    spectra are built per length.  The first length, in the order given,
    whose cover fails raises.
    """
    if not math.isfinite(delta):
        raise HypothesisViolated(f"delta must be finite, got {delta}")
    if not 0.0 < delta < 1.0:
        raise HypothesisViolated(f"delta must lie in (0, 1), got {delta}")
    lengths = tuple(lengths)
    for length in lengths:
        if length < 0:
            raise InadmissibleWord(f"window length must be >= 0, got {length}")
    # each length's ln count, or the refusal to raise when its turn comes
    covers: dict[int, float | WindowTooLarge] = {0: 0.0}
    merged = isinstance(mu, MarkovMeasure) and mu.alphabet_size != 2
    if merged:
        for length, (log_mass, log_count) in _transition_count_spectra(mu, lengths):
            try:
                covers[length] = _cover_from_sorted(log_mass, log_count, delta, length)
            except WindowTooLarge as exc:
                covers[length] = exc
    for length in lengths:
        if length not in covers:
            spectrum = None if merged else log_mass_spectrum(mu, length)
            if spectrum is None:
                covers[length] = _pq_cover_log_count(mu, length, delta)
            else:
                covers[length] = _cover_from_sorted(spectrum[0], spectrum[1], delta, length)
        if isinstance(covers[length], WindowTooLarge):
            raise covers[length]
    return tuple(covers[length] for length in lengths)


def minimal_cover_log_count(mu: Measure, length: int, delta: float) -> float:
    """ln of the minimal number of window cylinders of total mass >= 1 - delta:
    the one-length case of ``minimal_cover_log_counts``."""
    return minimal_cover_log_counts(mu, (length,), delta)[0]
