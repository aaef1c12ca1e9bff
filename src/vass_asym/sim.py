"""Monte Carlo validation: exact-threshold sampling of trajectories.

Randomness discipline: every run owns an independent Philox stream keyed by
(seed, n * 2**32 + run), and every executed step consumes exactly one raw
64-bit word from that stream — including probability-1 branches. Branches are
picked by comparing the word against cumulative thresholds floor(cum * 2**64),
so each branch's sampling probability is off by less than 2**-64 from its
exact rational probability. Because consumption is one word per step in
stream order, the three execution paths below produce byte-identical
trajectories, and a run's trajectory does not depend on which other runs
execute or on which path steps it.

* The lockstep kernel (`_lockstep`) steps the runs of a `simulate_many` batch
  together, at most MAX_IN_FLIGHT at a time. Each wave takes one word from
  every active run's stream and maps (state, word) to a branch key through
  padded per-state threshold tables; the keys then index padded tables of
  next states and updates. Once per block of RUN_BUFFER waves the counter
  updates are cumulatively summed, and each run's first terminal crossing,
  peaks, per-transition counts and realized-type entries are read off. It
  runs a batch when the start state is not a block-path state, every state
  reachable from it resolves under the strategy, and
  n + cap * max|update| < 2**53, so that no counter can leave exact int64
  range within the cap.
* The block path applies while a run sits in a state whose every resolved
  branch is a self-loop (the absorbing tail phase of typical models). It
  takes blocks of at most BLOCK draws and picks branches by comparing the
  words against each threshold (a word picks a branch past i iff it is
  >= th[i], the kernel's rule). Counters are kept counter-major: a counter
  whose update differs between branches becomes one cumulative sum over the
  block, whose min() tells whether it goes negative and whose max() over the
  steps before the terminal one is its peak; a counter whose update is the
  same on every branch is resolved in closed form with no array. Branch
  counts are differences of the numbers of words >= each threshold. The
  masks, the branch index (with more than two branches) and the sums are
  written with `out=` into scratch buffers of BLOCK words that each state
  record makes on its first block (`_StateRec.scratch`), so a block
  allocates no array of its size; a shorter block writes and reads only
  the first len(words) entries, never a stale tail. A run
  never leaves such a state, so a run that enters one leaves the kernel and
  finishes here on the rest of its stream: first the words the kernel drew
  for it and did not use, as one short block, then whole blocks. It
  requires |counter| < 2**53 and |update| <= 2**20 so int64 arithmetic
  cannot overflow. `simulate_many` steps the runs it does not give the
  kernel one after another on one reused Philox generator, reset to each
  run's key.
* The scalar path (`_run`) steps one run at a time in arbitrary-precision
  integers and resolves states as runs enter them. It is the draw-for-draw
  reference (`_vectorized=False`), it runs `simulate_one`, and it runs every
  batch the kernel does not take; there an incomplete strategy raises only
  when a run reaches the state it misses.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from collections import Counter as TallyCounter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, inf
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .graph import mec_decomposition, state_to_mec
from .model import NONDET, IncompleteStrategy, VassMdp

MASK64 = (1 << 64) - 1
BLOCK = 4096
FAST_COUNTER_LIMIT = 1 << 53
FAST_UPDATE_LIMIT = 1 << 20
MAX_IN_FLIGHT = 64  # runs the lockstep kernel steps together
RUN_BUFFER = 64  # waves per kernel block: words drawn per run in flight at a time

# the block path's per-state scratch: masks, branch index, per-counter sums
_Scratch = tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]

# a strategy is one choice per controlled state: either a transition id or a
# full rational distribution over outgoing transition ids
Strategy = Mapping[str, Union[str, Mapping[str, Fraction]]]


class ZeroWitness(ValueError):
    """The flow has empty support, so no strategy can be derived from it."""


class DegenerateInput(ValueError):
    """The data cannot support a log-log slope fit."""


@dataclass(frozen=True)
class TrajectoryStats:
    """Everything one run contributes to the estimates.

    `steps` is the number of executed steps; when `terminated` it equals the
    termination time (the terminal step is included). `max_counter` is the
    per-counter peak over all configurations strictly before the terminal one
    (the start configuration included). `transition_counts` includes the
    terminal transition. `realized_type` is the sequence of distinct classes
    visited, in order of first entry after the previous class.
    """

    terminated: bool
    steps: int
    max_counter: tuple[int, ...]
    transition_counts: dict[str, int]
    realized_type: tuple[str, ...]


def _cumulative_thresholds(probs: Sequence[Fraction]) -> tuple[int, ...]:
    """First k-1 cumulative probabilities scaled to 64-bit thresholds:
    a draw u selects branch i iff th[i-1] <= u < th[i] (implicit th[k-1]=2^64).
    """
    out = []
    cum = Fraction(0)
    for p in probs[:-1]:
        cum += p
        out.append((cum.numerator << 64) // cum.denominator)
    return tuple(out)


def _key(seed: int, n: int, run: int) -> np.ndarray:
    return np.array([seed & MASK64, ((n << 32) + run) & MASK64], dtype=np.uint64)


def _philox(seed: int, n: int, run: int) -> np.random.Philox:
    """The bit generator of run `run` at start value `n`."""
    return np.random.Philox(key=_key(seed, n, run))


def _restart(bg: np.random.Philox, seed: int, n: int, run: int) -> np.random.Philox:
    """`bg` set to the start of the stream `_philox(seed, n, run)` draws,
    without building a new generator (which draws OS entropy for a seed
    sequence the key makes unused)."""
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _key(seed, n, run)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg


class _DrawStream:
    """Sequential raw 64-bit words of one run's Philox stream, block-buffered.

    Words are consumed strictly in stream order no matter how calls mix
    scalar and block takes, which is what makes the execution paths
    byte-identical. `buf` holds words already drawn from `bg` and not yet
    consumed; they come first.
    """

    def __init__(self, bg: np.random.Philox, buf: Optional[np.ndarray] = None):
        self._bg = bg
        self._buf = np.empty(0, dtype=np.uint64) if buf is None else buf
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        """The next at most `k` words: the buffered ones if any are left (a
        short block), else the first `k` of `max(k, BLOCK)` fresh ones."""
        if self._pos >= len(self._buf):
            self._buf = self._bg.random_raw(max(k, BLOCK))
            self._pos = 0
        out = self._buf[self._pos : self._pos + k]
        self._pos += len(out)
        return out

    def one(self) -> int:
        if self._pos >= len(self._buf):
            self._buf = self._bg.random_raw(BLOCK)
            self._pos = 0
        u = int(self._buf[self._pos])
        self._pos += 1
        return u


class _StateRec:
    """One state's resolved branch table."""

    __slots__ = (
        "tids",
        "targets",
        "updates",
        "probs",
        "thresholds",
        "all_self",
        "fast_ok",
        "block_thresholds",
        "varying",
        "constant",
        "_scratch",
    )

    def __init__(self, name: str, branches: list[tuple[str, str, tuple[int, ...], Fraction]]):
        self.tids = [b[0] for b in branches]
        self.targets = [b[1] for b in branches]
        self.updates = [b[2] for b in branches]
        self.probs = [b[3] for b in branches]
        self.thresholds = _cumulative_thresholds(self.probs)
        self.all_self = all(t == name for t in self.targets)
        self.fast_ok = (
            self.all_self
            and len(self.updates[0]) > 0
            and all(abs(u) <= FAST_UPDATE_LIMIT for upd in self.updates for u in upd)
        )
        # the block path's tables: thresholds as uint64 scalars, then per
        # counter either a column of per-branch updates (varying) or the one
        # update every branch makes (constant)
        self.block_thresholds = tuple(np.uint64(th) for th in self.thresholds)
        self.varying: list[tuple[int, np.ndarray]] = []
        self.constant: list[tuple[int, int]] = []
        if self.fast_ok:
            for k, col in enumerate(zip(*self.updates)):
                if len(set(col)) == 1:
                    self.constant.append((k, col[0]))
                else:
                    self.varying.append((k, np.array(col, dtype=np.int64)))
        self._scratch: Optional[_Scratch] = None

    def pick(self, u: int) -> int:
        return bisect_right(self.thresholds, u)

    def scratch(self) -> _Scratch:
        """The block path's buffers, BLOCK words each, made on the first block
        and refilled in place by every block: one mask per threshold, the
        branch index (only with more than two branches and a varying
        counter) and one cumulative sum per varying counter."""
        if self._scratch is None:
            indexed = len(self.thresholds) > 1 and bool(self.varying)
            self._scratch = (
                [np.empty(BLOCK, dtype=bool) for _ in self.thresholds],
                np.empty(BLOCK if indexed else 0, dtype=np.intp),
                [np.empty(BLOCK, dtype=np.int64) for _ in self.varying],
            )
        return self._scratch


class _Resolved:
    """Model plus strategy, resolved lazily into per-state branch tables."""

    def __init__(self, m: VassMdp, strategy: Optional[Strategy]):
        self.m = m
        self.dimension = m.dimension
        self.strategy = dict(strategy) if strategy else {}
        self.owner = state_to_mec(mec_decomposition(m))
        self._recs: dict[str, _StateRec] = {}

    def resolve(self, name: str) -> _StateRec:
        rec = self._recs.get(name)
        if rec is not None:
            return rec
        outs = self.m.out(name)
        if self.m.kind(name) == NONDET:
            entry = self.strategy.get(name)
            if entry is None:
                raise IncompleteStrategy(
                    f"run reached controlled state {name!r} with no strategy entry"
                )
            if isinstance(entry, str):
                dist = {entry: Fraction(1)}
            else:
                dist = {tid: Fraction(p) for tid, p in entry.items() if p != 0}
            known = {t.tid for t in outs}
            if not set(dist) <= known:
                raise IncompleteStrategy(
                    f"strategy at {name!r} uses transitions {sorted(set(dist) - known)} "
                    "not leaving that state"
                )
            if any(p < 0 for p in dist.values()) or sum(dist.values()) != 1:
                raise IncompleteStrategy(
                    f"strategy at {name!r} must be a probability distribution"
                )
            branches = [
                (t.tid, t.target, t.update, dist[t.tid]) for t in outs if t.tid in dist
            ]
        else:
            branches = [(t.tid, t.target, t.update, t.prob) for t in outs]
        rec = _StateRec(name, branches)
        self._recs[name] = rec
        return rec


@dataclass
class _Walk:
    """Where a run stands: its state, counters, per-counter peaks, transition
    counts, realized type so far and the number of steps taken."""

    state: str
    cur: list[int]
    peak: list[int]
    counts: TallyCounter
    rtype: list[str]
    steps: int = 0


def _start(res: _Resolved, n: int, init_state: str) -> _Walk:
    mid = res.owner.get(init_state)
    d = res.dimension
    return _Walk(init_state, [n] * d, [n] * d, TallyCounter(), [] if mid is None else [mid])


def _run(
    res: _Resolved,
    walk: _Walk,
    stream: _DrawStream,
    cap: int,
    vectorized: bool,
) -> TrajectoryStats:
    """Finish `walk` on the scalar path, or on the block path where it applies."""
    state, cur, peak, counts, rtype, steps = (
        walk.state,
        walk.cur,
        walk.peak,
        walk.counts,
        walk.rtype,
        walk.steps,
    )
    terminated = False

    while steps < cap:
        rec = res.resolve(state)
        if (
            vectorized
            and rec.fast_ok
            and all(abs(c) < FAST_COUNTER_LIMIT for c in cur)
        ):
            taken, terminated = _self_loop_block(
                rec, stream.take(min(BLOCK, cap - steps)), cur, peak, counts
            )
            steps += taken
            if terminated:
                break
            continue

        i = rec.pick(stream.one())
        counts[rec.tids[i]] += 1
        steps += 1
        cur = [c + u for c, u in zip(cur, rec.updates[i])]
        if any(c < 0 for c in cur):
            terminated = True
            break
        for k, c in enumerate(cur):
            if c > peak[k]:
                peak[k] = c
        state = rec.targets[i]
        mid = res.owner.get(state)
        if mid is not None and (not rtype or rtype[-1] != mid):
            rtype.append(mid)

    return TrajectoryStats(
        terminated=terminated,
        steps=steps,
        max_counter=tuple(peak),
        transition_counts=dict(counts),
        realized_type=tuple(rtype),
    )


def _self_loop_block(
    rec: _StateRec, us: np.ndarray, cur: list[int], peak: list[int], counts: TallyCounter
) -> tuple[int, bool]:
    """Step a run in the all-self-loop state `rec` on the draws `us`, up to
    and including a terminal step. Updates `cur`, `peak` and `counts` in
    place; returns the steps taken and whether the last one terminates."""
    block = len(us)
    masks, idx, rels = rec.scratch()
    # ge[i]: the words that pick a branch past i
    ge = [np.greater_equal(us, th, out=buf[:block]) for th, buf in zip(rec.block_thresholds, masks)]
    rels = [buf[:block] for buf in rels]
    if len(ge) > 1 and rels:
        # the branch index is the number of masks a word passes; copyto
        # widens each mask into rels[0], free until the first take below
        # (`idx += mask` would allocate a cast buffer)
        idx = idx[:block]
        np.copyto(idx, ge[0])
        for mask in ge[1:]:
            np.copyto(rels[0], mask)
            idx += rels[0]
    # stop: the index of the terminal step, or block when there is none
    stop = block
    for (k, col), rel in zip(rec.varying, rels):
        if len(col) == 2:
            np.copyto(rel, ge[0])
            rel *= col[1] - col[0]
            rel += col[0]
        else:
            col.take(idx, out=rel, mode="clip")  # mode="raise" would buffer `out`
        np.cumsum(rel, out=rel)  # counter k after each step, less cur[k]
        if rel.min() < -cur[k]:
            stop = min(stop, int(np.argmax(rel < -cur[k])))
    for k, c in rec.constant:
        if c < 0:
            stop = min(stop, cur[k] // -c)
    terminated = stop < block
    taken = stop + 1 if terminated else block
    # peaks come from the `stop` configurations before the terminal one
    for (k, _), rel in zip(rec.varying, rels):
        if stop:
            peak[k] = max(peak[k], cur[k] + int(rel[:stop].max()))
        cur[k] += int(rel[taken - 1])
    for k, c in rec.constant:
        if c > 0:
            peak[k] = max(peak[k], cur[k] + stop * c)
        cur[k] += taken * c
    # branch i is used by the steps that pick a branch past i - 1 but not past i
    at_least = [taken] + [int(np.count_nonzero(mask[:taken])) for mask in ge] + [0]
    for tid, a, b in zip(rec.tids, at_least, at_least[1:]):
        if a > b:
            counts[tid] += a - b
    return taken, terminated


class _Tables:
    """Padded branch tables of the states reachable from the start state.

    A branch is addressed by key = state_index * width + branch_index, and a
    run's state by the key of its first branch. Pad columns repeat a state's
    last branch; pad thresholds are 2**64 - 1, which only the draw 2**64 - 1
    reaches, and that draw selects the last branch anyway.
    """

    def __init__(self, res: _Resolved, recs: dict[str, _StateRec]):
        index = {name: i for i, name in enumerate(recs)}
        width = max(len(rec.tids) for rec in recs.values())
        size = len(recs) * width
        self.index = index
        self.width = width
        self.size = size
        self.names = list(recs)
        # one column per branch past the first; only state keys are read
        self.thresholds = [np.full(size, MASK64, dtype=np.uint64) for _ in range(width - 1)]
        self.nxt = np.empty(size, dtype=np.int64)  # key of the target state
        self.updates = np.empty((size, res.dimension), dtype=np.int64)
        self.fast = np.empty(size, dtype=bool)  # the target is a block-path state
        self.enters = np.empty(size, dtype=bool)  # the target may extend the realized type
        self.tids: list[str] = []
        self.mids: list[Optional[str]] = []
        for i, (name, rec) in enumerate(recs.items()):
            for j, th in enumerate(rec.thresholds):
                self.thresholds[j][i * width] = th
            for k in range(width):
                b = min(k, len(rec.tids) - 1)
                target = rec.targets[b]
                mid = res.owner.get(target)
                key = i * width + k
                self.nxt[key] = index[target] * width
                self.updates[key] = rec.updates[b]
                self.fast[key] = recs[target].fast_ok
                self.enters[key] = mid is not None and mid != res.owner.get(name)
                self.tids.append(rec.tids[b])
                self.mids.append(mid)

    def branch(self, sk: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Branch keys that draws `u` select in the states with keys `sk`."""
        key = sk
        for th in self.thresholds:
            key = key + (u >= th[sk])
        return key


def _lockstep_tables(res: _Resolved, start: str, n: int, cap: int) -> Optional[_Tables]:
    """Kernel tables for a batch, or None when the batch must run on the
    scalar path: a reachable state does not resolve under the strategy, or a
    counter could reach 2**53 within the cap."""
    recs: dict[str, _StateRec] = {}
    todo = [start]
    while todo:
        name = todo.pop()
        if name in recs:
            continue
        try:
            recs[name] = res.resolve(name)
        except (ArithmeticError, AttributeError, TypeError, ValueError):
            # whatever a strategy entry makes resolve() raise, the scalar path
            # raises too, when and only when a run reaches that state
            return None
        todo.extend(recs[name].targets)
    bound = max((abs(u) for rec in recs.values() for upd in rec.updates for u in upd), default=0)
    if n + cap * bound >= FAST_COUNTER_LIMIT:
        return None
    return _Tables(res, recs)


def _lockstep(
    res: _Resolved,
    t: _Tables,
    n: int,
    runs: int,
    seed: int,
    cap: int,
    start: str,
) -> list[TrajectoryStats]:
    """Step the runs of a batch together; see the module docstring."""
    d = res.dimension
    width = RUN_BUFFER
    wave = np.arange(width)[:, None]  # a block's wave index, against (wave, row) arrays
    start_mid = res.owner.get(start)
    out: list[Optional[TrajectoryStats]] = [None] * runs
    # rows in flight: Python lists and numpy arrays in the same row order
    run_ids: list[int] = []
    gens: list[np.random.Philox] = []
    spare: list[np.random.Philox] = []  # generators of runs that have left
    rtypes: list[list[str]] = []
    sk = np.empty(0, dtype=np.int64)  # key of each row's state
    cur = np.empty((0, d), dtype=np.int64)
    peak = np.empty((0, d), dtype=np.int64)
    steps = np.empty(0, dtype=np.int64)
    counts = np.empty((0, t.size), dtype=np.int64)  # per row and branch key
    admitted = 0
    while admitted < runs or run_ids:
        new = min(MAX_IN_FLIGHT - len(run_ids), runs - admitted)
        if new:
            fresh = range(admitted, admitted + new)
            admitted += new
            run_ids.extend(fresh)
            gens.extend(
                _restart(spare.pop(), seed, n, r) if spare else _philox(seed, n, r) for r in fresh
            )
            rtypes.extend([] if start_mid is None else [start_mid] for _ in fresh)
            sk = np.concatenate([sk, np.full(new, t.index[start] * t.width)])
            cur = np.concatenate([cur, np.full((new, d), n, dtype=np.int64)])
            peak = np.concatenate([peak, np.full((new, d), n, dtype=np.int64)])
            steps = np.concatenate([steps, np.zeros(new, dtype=np.int64)])
            counts = np.concatenate([counts, np.zeros((new, t.size), dtype=np.int64)])
        rows = len(run_ids)

        # the waves: branch keys in order, one word per run and wave
        words = np.empty((width, rows), dtype=np.uint64)
        for i, g in enumerate(gens):
            words[:, i] = g.random_raw(width)
        keys = np.empty((width, rows), dtype=np.int64)
        for j in range(width):
            keys[j] = t.branch(sk, words[j])
            sk = t.nxt[keys[j]]

        # where each row leaves the block: the step that terminates it, enters
        # a block-path state or reaches the cap, whichever comes first
        pos = t.updates[keys]
        np.cumsum(pos, axis=0, out=pos)
        pos += cur
        neg = (pos < 0).any(axis=2)
        term_at = np.where(neg.any(axis=0), neg.argmax(axis=0), width)
        fast = t.fast[keys]
        hand_at = np.where(fast.any(axis=0), fast.argmax(axis=0), width)
        stop = np.minimum(np.minimum(term_at, hand_at), cap - 1 - steps)
        taken = np.minimum(stop + 1, width)
        terminated = (term_at < width) & (term_at == stop)
        live = wave < taken - terminated  # configurations reached, terminal one excluded

        cur = pos[taken - 1, np.arange(rows)]
        steps += taken
        flat = (keys + np.arange(rows) * t.size)[wave < taken]
        counts += np.bincount(flat, minlength=rows * t.size).reshape(rows, t.size)
        pos[~live] = 0  # live counters and peaks are all >= 0
        np.maximum(peak, pos.max(axis=0), out=peak)
        for j, i in zip(*np.nonzero(t.enters[keys] & live)):
            mid = t.mids[keys[j, i]]
            if not rtypes[i] or rtypes[i][-1] != mid:
                rtypes[i].append(mid)

        leaving = stop < width
        if not leaving.any():
            continue
        for i in np.flatnonzero(leaving):
            tally: TallyCounter = TallyCounter()
            for key in np.flatnonzero(counts[i]):
                tally[t.tids[key]] += int(counts[i, key])
            last = int(stop[i])
            walk = _Walk(
                t.names[t.nxt[keys[last, i]] // t.width],
                [int(v) for v in cur[i]],
                [int(v) for v in peak[i]],
                tally,
                rtypes[i],
                int(steps[i]),
            )
            if terminated[i]:
                out[run_ids[i]] = TrajectoryStats(
                    terminated=True,
                    steps=walk.steps,
                    max_counter=tuple(walk.peak),
                    transition_counts=dict(tally),
                    realized_type=tuple(walk.rtype),
                )
            else:  # the block path finishes the run; at the cap it returns at once
                stream = _DrawStream(gens[i], words[last + 1 :, i].copy())
                out[run_ids[i]] = _run(res, walk, stream, cap, True)
            spare.append(gens[i])
        keep = np.flatnonzero(~leaving)
        run_ids = [run_ids[i] for i in keep]
        gens = [gens[i] for i in keep]
        rtypes = [rtypes[i] for i in keep]
        sk, cur, peak, steps, counts = sk[keep], cur[keep], peak[keep], steps[keep], counts[keep]
    return out


def _init_state(m: VassMdp, init_state: Optional[str]) -> str:
    if init_state is None:
        return min(m.state_names())
    if init_state not in m.state_names():
        raise ValueError(f"unknown state {init_state!r}")
    return init_state


def simulate_one(
    m: VassMdp,
    n: int,
    *,
    run: int = 0,
    seed: int = 0,
    strategy: Optional[Strategy] = None,
    max_steps: int = 10**6,
    init_state: Optional[str] = None,
    _vectorized: bool = True,
) -> TrajectoryStats:
    """Sample one trajectory from the all-`n` start configuration."""
    if n < 0:
        raise ValueError("start value n must be >= 0")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    res = _Resolved(m, strategy)
    walk = _start(res, n, _init_state(m, init_state))
    return _run(res, walk, _DrawStream(_philox(seed, n, run)), max_steps, _vectorized)


def simulate_many(
    m: VassMdp,
    n: int,
    runs: int,
    *,
    seed: int = 0,
    strategy: Optional[Strategy] = None,
    max_steps: int = 10**6,
    init_state: Optional[str] = None,
    _vectorized: bool = True,
) -> list[TrajectoryStats]:
    """Sample `runs` independent trajectories, indexed by run. Run `r` equals
    `simulate_one(..., run=r)` whichever path the batch takes."""
    if n < 0:
        raise ValueError("start value n must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    start = _init_state(m, init_state)
    res = _Resolved(m, strategy)
    tables = _lockstep_tables(res, start, n, max_steps) if _vectorized else None
    if tables is not None and not res.resolve(start).fast_ok:
        return _lockstep(res, tables, n, runs, seed, max_steps, start)
    bg = _philox(seed, n, 0)
    return [
        _run(res, _start(res, n, start), _DrawStream(_restart(bg, seed, n, r)), max_steps, _vectorized)
        for r in range(runs)
    ]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailGroup:
    """Aggregates of the runs of one start value that realized one type.

    `median_steps` treats truncated runs as exceeding every finite value and
    is None when they could flip the median (termination rate <= 50%).
    `median_peaks` are medians of recorded per-counter peaks; for truncated
    runs the recorded peak is a lower bound on the true one.
    """

    realized_type: tuple[str, ...]
    runs: int
    terminated: int
    truncated: int
    low_sample: bool
    median_steps: Optional[float]
    median_peaks: tuple[Optional[float], ...]


@dataclass(frozen=True)
class TailReport:
    n_list: tuple[int, ...]
    seed: int
    caps: dict[int, int]
    groups: dict[int, tuple[TailGroup, ...]]

    def group(self, n: int, realized_type: Sequence[str]) -> Optional[TailGroup]:
        for g in self.groups[n]:
            if g.realized_type == tuple(realized_type):
                return g
        return None


def _median_or_none(values: list[float]) -> Optional[float]:
    med = statistics.median(values)
    return None if med == inf else float(med)


def estimate_tails(
    m: VassMdp,
    n_list: Sequence[int],
    runs: int,
    *,
    seed: int = 0,
    strategy: Union[None, Strategy, Callable[[int], Strategy]] = None,
    theta: Optional[float] = None,
    max_steps: Optional[int] = None,
    init_state: Optional[str] = None,
) -> TailReport:
    """Simulate `runs` trajectories per start value and aggregate by realized
    type. The step cap per start value n is `max_steps` when given, else
    ceil(4 * n**theta) when a growth exponent hint `theta` is given, else
    10**6. `strategy` may be a single strategy or a per-n factory n->strategy.
    """
    if not n_list or sorted(set(n_list)) != list(n_list):
        raise ValueError("n_list must be strictly increasing and nonempty")
    caps: dict[int, int] = {}
    groups: dict[int, tuple[TailGroup, ...]] = {}
    for n in n_list:
        cap = max_steps if max_steps is not None else (
            max(1, ceil(4 * n**theta)) if theta is not None else 10**6
        )
        caps[n] = cap
        strat = strategy(n) if callable(strategy) else strategy
        stats = simulate_many(
            m,
            n,
            runs,
            seed=seed,
            strategy=strat,
            max_steps=cap,
            init_state=init_state,
        )
        by_type: dict[tuple[str, ...], list[TrajectoryStats]] = {}
        for st in stats:
            by_type.setdefault(st.realized_type, []).append(st)
        out = []
        for rtype in sorted(by_type, key=lambda t: (-len(by_type[t]), t)):
            sample = by_type[rtype]
            terminated = sum(1 for st in sample if st.terminated)
            steps_vals = [
                float(st.steps) if st.terminated else inf for st in sample
            ]
            med_steps = _median_or_none(steps_vals)
            med_peaks = tuple(
                _median_or_none([float(st.max_counter[k]) for st in sample])
                for k in range(m.dimension)
            )
            out.append(
                TailGroup(
                    realized_type=rtype,
                    runs=len(sample),
                    terminated=terminated,
                    truncated=len(sample) - terminated,
                    low_sample=len(sample) < 100,
                    median_steps=med_steps,
                    median_peaks=med_peaks,
                )
            )
        groups[n] = tuple(out)
    return TailReport(
        n_list=tuple(n_list), seed=seed, caps=caps, groups=groups
    )


def fit_exponent(ns: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n)."""
    if len(ns) != len(values) or len(ns) < 3:
        raise DegenerateInput("need at least 3 paired points")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DegenerateInput("start values must be strictly increasing")
    if any(n <= 0 for n in ns) or any(v is None or v <= 0 for v in values):
        raise DegenerateInput("points must be positive to take logarithms")
    slope, _ = np.polyfit(np.log(np.array(ns, dtype=float)), np.log(np.array(values, dtype=float)), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# strategies from witnesses
# ---------------------------------------------------------------------------


def multicycle_strategy_from_x(
    m: VassMdp, x: Mapping[str, Fraction]
) -> dict[str, dict[str, Fraction]]:
    """Turn a conservation-respecting flow into a randomized memoryless
    strategy: each controlled state with positive outflow picks each outgoing
    transition proportionally to its flow. States with zero outflow get no
    entry (the strategy keeps the run inside the flow's support, so they are
    never reached from it)."""
    if any(Fraction(v) < 0 for v in x.values()):
        raise ValueError("flow values must be non-negative")
    if all(Fraction(v) == 0 for v in x.values()):
        raise ZeroWitness("flow has empty support")
    out: dict[str, dict[str, Fraction]] = {}
    for s in m.nondet_states():
        flows = {t.tid: Fraction(x.get(t.tid, 0)) for t in m.out(s.name)}
        total = sum(flows.values())
        if total == 0:
            continue
        out[s.name] = {tid: v / total for tid, v in flows.items() if v > 0}
    return out


def expected_update(
    m: VassMdp, strategy: Optional[Strategy], state: str
) -> tuple[Fraction, ...]:
    """Exact expected counter change of one step from `state` under the
    branch distribution the simulator resolves there."""
    rec = _Resolved(m, strategy).resolve(state)
    return tuple(
        sum((p * upd[k] for p, upd in zip(rec.probs, rec.updates)), Fraction(0))
        for k in range(m.dimension)
    )
