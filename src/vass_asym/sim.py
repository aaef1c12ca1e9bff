"""Monte Carlo validation: exact-threshold sampling of trajectories.

Randomness discipline: every run owns an independent Philox stream, of key
(seed, (n mod 2**32) * 2**32 + run) from counter (0, 0, 0, n >> 32), and
each step owns the next raw 64-bit word of that stream, probability-1
branches included. Seeds lie in 0..2**64-1, runs in 0..2**32-1 and the
start values of runs that draw below 2**96, so no two runs share a stream.
Philox is counter-based: a stream is a function of its key and counter
alone, so a batch builds one generator per row it steps runs in and re-keys
it in place for each run (`_Streams`), drawing the words a fresh generator
would. Branches are picked by comparing the word against cumulative
thresholds floor(cum * 2**64), so each branch's sampling probability is off
by less than 2**-64 from its exact rational probability. A word that no
branch reads is not drawn: a run in a deterministic region (below) reads
none for the rest of its steps. Because step k always owns word k, the four
execution paths below produce byte-identical trajectories, and a run's
trajectory does not depend on which other runs execute or on which path
steps it.

* The closed form (`_closed_form`) finishes a run whose state lies in a
  deterministic region: following each state's one resolved branch from it
  reaches only states that resolve to one branch (`_Resolved.region`), so
  the run walks a tail and then a cycle for good. It steps to the cycle's
  entry and through one pass as the scalar path does, then skips whole
  passes at once: per counter the pass's sum and its lowest and highest
  prefix sums give the last pass that keeps the counter >= 0 and the peak
  over the skipped passes. The rest, less than one pass, is stepped too,
  and the run's statistics are built once. Counters stay Python ints, and
  no word is drawn. A batch that starts in a
  region is one run computed once; the kernel and `_run` hand a run over
  when it enters one. A state that fails to resolve ends the region test,
  so the other paths raise when, and only when, a run reaches it.
* The lockstep kernel (`_lockstep`) steps the runs of a `simulate_many` batch
  together, at most MAX_IN_FLIGHT at a time. Each wave takes one word from
  every active run's stream and maps (state, word) to a branch key through
  padded per-state threshold tables; the keys then index padded tables of
  next states and updates. Once per block of RUN_BUFFER waves the counter
  updates are cumulatively summed, and each run's first terminal crossing,
  peaks, per-transition counts and realized-type entries are read off. It
  runs a batch when the start state is neither in a deterministic region
  nor a block-path state, every state reachable from it resolves under the
  strategy, and n + cap * max|update| < 2**53, so that no counter can leave
  exact int64 range within the cap. A run leaves the kernel where it
  enters a region or a block-path state. The runs in flight hold rows of
  arrays made once per batch: a run that leaves gives its row to the last
  one, an admitted run takes the next free row, and each row draws the
  words of RUN_DRAWS blocks in one call (words past a run's end go
  unused). The statistics of the runs that leave in a block are read out
  of the arrays in one call.
* The block path applies while a run sits in a state whose two or more
  resolved branches (at most 256) are all self-loops, the absorbing tail
  phase of typical models; a run never leaves such a state. One stepper
  (`_Stepper`) per such state steps its runs in rounds. A run holds one row
  of the stepper's arrays from admission to its statistics: its counters,
  peaks, steps and branch tallies in one int64 row, its key, generator and
  leftover words in lists. The buffers are sized to min(ROWS, runs) rows,
  so `_run`'s hand-off of a single run allocates one. Each round draws a
  block of at most BLOCK words from each row's stream and compares it, as
  it is drawn, into the row's bytes of a byte buffer: a word picks a branch
  past i iff it is >= th[i], the kernel's rule. This draw-and-compare loop
  is the round's only Python per row. The bytes are packed into group
  codes, one byte per g steps (g = 8 with two branches: one bit a step;
  fewer steps of more bits with more branches), and each numpy call then
  serves every row. Per code, tables of the state record give each varying
  counter's group sum and lowest and highest prefix sums: a cumulative sum
  over the groups gives the counter at each group's end, the lowest prefix
  finds the first group that goes negative and the highest one the peak.
  Branch counts come from per-code counts of the steps past each threshold
  or, with two branches, from a varying counter's change. A counter whose
  update is the same on every branch is resolved in closed form. The group
  that holds the terminal step, the cap or a short block's end is read off
  per-code tables of the group's steps, not stepped, for all those rows at
  once: per counter, the least start value that stays >= 0 through each
  step gives the first step that goes negative, and the running highest
  prefix sums, the prefix sums and the counts past each threshold give the
  peak, the counters and the branch counts up to it. The rows that finish
  in a round are read out together, with one gather of their rows, and the
  rows left are compacted once. The buffers are made once per stepper and
  refilled in place, so a round allocates no array of a block of words.
  A batch that starts in such a state runs on its stepper alone, which
  admits runs into every free row before each round. A run that enters
  such a state from the kernel takes a row of the state's stepper, which
  steps whenever every row is taken; every stepper drains when the kernel
  is done. The run's first block is the words the kernel drew for it and
  did not use, then whole blocks follow. Counters must stay below 2**53 and
  updates within 2**20, so int64 arithmetic cannot overflow; a run `_run`
  hands over whose counters reach 2**53 finishes on the scalar path.
* The scalar path (`_run`) steps one run at a time in arbitrary-precision
  integers and resolves states as runs enter them. It is the draw-for-draw
  reference (`_vectorized=False`), it runs `simulate_one` up to the closed
  form or the block path, and it runs every batch the kernel does not take,
  one run after the other on one generator, re-keyed for each run; there
  an incomplete strategy raises only when a run reaches the state it
  misses. `simulate_one` builds a generator only for a run that draws.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from collections import Counter as TallyCounter
from dataclasses import dataclass, replace
from functools import cache
from fractions import Fraction
from math import ceil, inf, isfinite
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .graph import mec_decomposition, state_to_mec
from .model import NONDET, IncompleteStrategy, VassMdp

MASK64 = (1 << 64) - 1
BLOCK = 4096
FAST_COUNTER_LIMIT = 1 << 53
FAST_UPDATE_LIMIT = 1 << 20
MAX_IN_FLIGHT = 64  # runs the lockstep kernel steps together
RUN_BUFFER = 64  # waves per kernel block
RUN_DRAWS = 4  # kernel blocks of words a run in flight draws at a time
ROWS = 32  # runs a block-path stepper steps together

_NO_WORDS = np.empty(0, dtype=np.uint64)

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


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in 0..2**64-1, got {seed}")


@cache
def _unseeded():
    """The seed sequence of the generators `_Streams` re-keys before they
    draw: the key it gives is never used, so it gives zeros and spends no OS
    entropy or hashing on it. It is made on first use, so that importing
    this module leaves `numpy.random` unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class Unseeded(ISeedSequence):
        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return np.zeros(n_words, dtype=dtype)

    return Unseeded()


def _generator() -> np.random.Philox:
    """A generator for `_Streams` to re-key: the one place one is built."""
    return np.random.Philox(_unseeded())


class _Streams:
    """The Philox streams of the runs of one batch at seed `seed` and start
    value `n`.

    Run `run` draws the stream of key (seed, (n mod 2**32) * 2**32 + run)
    from counter (0, 0, 0, n >> 32), so the stream is a function of (seed,
    n, run) and no other triple shares it. A generator is re-keyed in place
    from one template state, and a run that has finished hands it back for
    the next run, so a batch builds no more generators than it has runs in
    flight at a time.
    """

    def __init__(self, seed: int, n: int):
        if n >> 96:
            raise ValueError("start value n must be below 2**96 for a run that draws words")
        self._low = (n & 0xFFFFFFFF) << 32
        self._key = np.array([seed, 0], dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, 0, 0, n >> 32], dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._spare: list[np.random.Philox] = []

    def open(self, run: int) -> np.random.Philox:
        """A generator at the start of run `run`'s stream."""
        bg = self._spare.pop() if self._spare else _generator()
        self._key[1] = self._low + run
        bg.state = self._state
        return bg

    def close(self, bg: np.random.Philox) -> None:
        """Take back the generator of a run that has finished."""
        self._spare.append(bg)


class _DrawStream:
    """The raw 64-bit words of one run's Philox stream, in order, for the
    scalar path: first `buf`, words already drawn from `bg` and not yet
    used, then fresh ones drawn BLOCK at a time."""

    def __init__(self, bg: np.random.Philox, buf: Optional[np.ndarray] = None):
        self.bg = bg
        self._buf = _NO_WORDS if buf is None else buf
        self._pos = 0

    def unread(self) -> np.ndarray:
        """The words drawn and not yet used."""
        return self._buf[self._pos :]

    def one(self) -> int:
        if self._pos >= len(self._buf):
            self._buf = self.bg.random_raw(BLOCK)
            self._pos = 0
        u = int(self._buf[self._pos])
        self._pos += 1
        return u


@cache
def _group_branches(bits: int) -> np.ndarray:
    """Per byte code, the branch indices of a group of `bits`-bit steps."""
    g = 8 // bits
    out = np.array([[c >> bits * (g - 1 - s) & (1 << bits) - 1 for s in range(g)] for c in range(256)])
    out.setflags(write=False)
    return out


class _StateRec:
    """One state's resolved branch table."""

    __slots__ = (
        "tids",
        "targets",
        "updates",
        "probs",
        "thresholds",
        "fast_ok",
        "block_thresholds",
        "varying",
        "constant",
        "bits",
        "group",
        "passes",
        "tables",
        "group_steps",
    )

    def __init__(self, name: str, branches: list[tuple[str, str, tuple[int, ...], Fraction]]):
        self.tids = [b[0] for b in branches]
        self.targets = [b[1] for b in branches]
        self.updates = [b[2] for b in branches]
        self.probs = [b[3] for b in branches]
        self.thresholds = _cumulative_thresholds(self.probs)
        # a single-branch self-loop is a deterministic region, which the
        # closed form finishes
        self.fast_ok = (
            all(t == name for t in self.targets)
            and len(self.updates[0]) > 0
            and 2 <= len(self.tids) <= 256
            and all(abs(u) <= FAST_UPDATE_LIMIT for upd in self.updates for u in upd)
        )
        # the block path's tables: thresholds as 0-d uint64 arrays (numpy
        # compares words against one faster than against a scalar), then per
        # counter either a column of per-branch updates (varying) or the one
        # update every branch makes (constant)
        self.block_thresholds = tuple(np.array(th, dtype=np.uint64) for th in self.thresholds)
        self.varying: list[tuple[int, np.ndarray]] = []
        self.constant: list[tuple[int, int]] = []
        # a group is `group` consecutive branch indices of `bits` bits each,
        # packed into one byte code, first step highest. Per code, `tables`
        # holds per varying counter the group's sum and its lowest and
        # highest prefix sums, both less the sum, and `passes` per threshold
        # the group's steps that pick a branch past it. With two branches a
        # varying counter's change tells how often each was taken, and
        # `passes` stays empty. `group_steps` holds per code and step of the
        # group, after that step, per counter the least start value that
        # stays >= 0 so far (minus the lowest prefix sum), then per counter
        # the highest prefix sum, then per counter the prefix sum, and per
        # threshold with `passes` the steps so far that pick a branch past
        # it; its values are within 8 * 2**20, so 32 bits hold them.
        self.bits = self.group = 0
        self.passes: list[np.ndarray] = []
        self.tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.group_steps = np.empty(0, dtype=np.int32)
        if self.fast_ok:
            for k, col in enumerate(zip(*self.updates)):
                if len(set(col)) == 1:
                    self.constant.append((k, col[0]))
                else:
                    self.varying.append((k, np.array(col, dtype=np.int64)))
            self.bits = next(b for b in (1, 2, 4, 8) if len(self.tids) <= 1 << b)
            self.group = 8 // self.bits
            branch = np.minimum(_group_branches(self.bits), len(self.tids) - 1)  # codes no block makes
            past = []  # per threshold with `passes`, per code and step
            if len(self.tids) > 2 or not self.varying:
                past = [np.cumsum(branch > j, axis=1) for j in range(len(self.thresholds))]
                self.passes = [steps[:, -1].copy() for steps in past]
            # per code, counter and step, the prefix sum
            sums = np.cumsum(np.array(self.updates, dtype=np.int64)[branch], axis=1).transpose(0, 2, 1)
            for k, _ in self.varying:
                total = sums[:, k, -1].copy()
                self.tables.append((total, sums[:, k].min(axis=1) - total, sums[:, k].max(axis=1) - total))
            need, high = -np.minimum.accumulate(sums, axis=2), np.maximum.accumulate(sums, axis=2)
            steps = np.concatenate([need, high, sums, *(p[:, None] for p in past)], axis=1, dtype=np.int32)
            self.group_steps = np.ascontiguousarray(steps.transpose(0, 2, 1))

    def pick(self, u: int) -> int:
        return bisect_right(self.thresholds, u)


@dataclass(frozen=True)
class _Cycle:
    """The cycle a deterministic region ends in, from its entry state: the
    transitions of one pass and, per counter, the pass's sum and its lowest
    and highest prefix sums."""

    tids: tuple[str, ...]
    sums: tuple[int, ...]
    low: tuple[int, ...]
    high: tuple[int, ...]


class _Resolved:
    """Model plus strategy, resolved lazily into per-state branch tables."""

    def __init__(self, m: VassMdp, strategy: Optional[Strategy]):
        self.m = m
        self.dimension = m.dimension
        self.strategy = dict(strategy) if strategy else {}
        self.owner = state_to_mec(mec_decomposition(m))
        self._recs: dict[str, _StateRec] = {}
        self._regions: dict[str, Optional[tuple[int, _Cycle]]] = {}

    def try_resolve(self, name: str) -> Optional[_StateRec]:
        """`resolve(name)`, or None where the strategy entry makes it raise;
        a run raises then when and only when it reaches `name`."""
        try:
            return self.resolve(name)
        except (ArithmeticError, AttributeError, TypeError, ValueError):
            return None

    def region(self, name: str) -> Optional[tuple[int, _Cycle]]:
        """Whether `name` lies in a deterministic region: every state its
        one-branch successors reach resolves to one branch. If so, the
        steps from `name` to the entry of the cycle the walk ends in, and
        that cycle from its entry; else None. Each state of the walk is
        memoized with it, so a state is tested once."""
        path: dict[str, int] = {}  # states not yet memoized, in walk order
        state = name
        while state not in self._regions:
            if state in path:  # the walk closed a cycle; `state` enters it
                loop = list(path)[path[state] :]
                prefix = [[0] * self.dimension]
                for s in loop:
                    prefix.append([p + u for p, u in zip(prefix[-1], self.resolve(s).updates[0])])
                cycle = _Cycle(
                    tuple(self.resolve(s).tids[0] for s in loop),
                    tuple(prefix[-1]),
                    tuple(map(min, zip(*prefix[1:]))),
                    tuple(map(max, zip(*prefix[1:]))),
                )
                for j, s in enumerate(loop):
                    self._regions[s] = (-j % len(loop), cycle)
                    del path[s]
                break
            rec = self.try_resolve(state)
            if rec is None or len(rec.tids) != 1:
                self._regions[state] = None
                break
            path[state] = len(path)
            state = rec.targets[0]
        found = self._regions[state]
        for i, s in enumerate(reversed(path), 1):
            self._regions[s] = None if found is None else (found[0] + i, found[1])
        return self._regions[name]

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


def _stats(walk: _Walk, terminated: bool) -> TrajectoryStats:
    return TrajectoryStats(
        terminated=terminated,
        steps=walk.steps,
        max_counter=tuple(walk.peak),
        transition_counts=dict(walk.counts),
        realized_type=tuple(walk.rtype),
    )


def _advance(
    res: _Resolved, walk: _Walk, stream: Union[_DrawStream, _NoWords], cap: int, vectorized: bool
) -> Optional[bool]:
    """Step `walk` on the scalar path until the run terminates or has taken
    `cap` steps, and say whether it terminated; with `vectorized`, stop
    instead (None) at a state where the closed form or the block path
    applies. `walk` is left where the run stopped."""
    state, cur, peak, counts, rtype, steps = (
        walk.state,
        walk.cur,
        walk.peak,
        walk.counts,
        walk.rtype,
        walk.steps,
    )
    ended: Optional[bool] = False
    while steps < cap:
        rec = res.resolve(state)
        if vectorized and (rec.fast_ok or res.region(state) is not None):
            ended = None
            break
        i = rec.pick(stream.one())
        counts[rec.tids[i]] += 1
        steps += 1
        cur = [c + u for c, u in zip(cur, rec.updates[i])]
        if any(c < 0 for c in cur):
            ended = True
            break
        for k, c in enumerate(cur):
            if c > peak[k]:
                peak[k] = c
        state = rec.targets[i]
        mid = res.owner.get(state)
        if mid is not None and (not rtype or rtype[-1] != mid):
            rtype.append(mid)
    walk.state, walk.cur, walk.steps = state, cur, steps
    return ended


def _run(
    res: _Resolved,
    walk: _Walk,
    stream: _DrawStream,
    cap: int,
    vectorized: bool,
) -> TrajectoryStats:
    """Finish `walk` on the scalar path, or hand it on where the closed form
    or the block path applies; `walk` is left where the run ended."""
    ended = _advance(res, walk, stream, cap, vectorized)
    if ended is not None:
        return _stats(walk, ended)
    rec = res.resolve(walk.state)
    if not rec.fast_ok:
        return _closed_form(res, walk, cap)
    ((_, stats, _),) = _Stepper(res, rec, cap, 1).add(0, walk, stream)
    return stats


class _NoWords:
    """The stream of a run in a deterministic region. Each state there picks
    its one branch whatever the word, and no later step reads the stream, so
    no word is drawn."""

    @staticmethod
    def one() -> int:
        return 0


def _closed_form(res: _Resolved, walk: _Walk, cap: int) -> TrajectoryStats:
    """Finish a run whose state lies in a deterministic region, drawing no
    word: step to the cycle's entry and through one pass, skip whole passes
    by the cycle's sums and prefix extremes, and step through the rest, less
    than one pass."""
    tail, cycle = res.region(walk.state)
    length = len(cycle.tids)
    ended = _advance(res, walk, _NoWords(), min(cap, walk.steps + tail + length), False)
    if not ended:
        # the first pass kept every counter >= 0, so only a counter the
        # cycle lowers can end the run: pass i is whole while cur + i * sum
        # + low >= 0
        passes = (cap - walk.steps) // length
        for v, s, low in zip(walk.cur, cycle.sums, cycle.low):
            if s < 0:
                passes = min(passes, (v + low) // -s + 1)
        if passes > 0:
            for k, (s, high) in enumerate(zip(cycle.sums, cycle.high)):
                walk.peak[k] = max(walk.peak[k], walk.cur[k] + (passes - 1) * max(s, 0) + high)
                walk.cur[k] += passes * s
            for tid in cycle.tids:
                walk.counts[tid] += passes
            walk.steps += passes * length
        ended = _advance(res, walk, _NoWords(), cap, False)
    return _stats(walk, ended)


# a run the stepper has finished: its key, its statistics and its generator
_Done = tuple[int, TrajectoryStats, "np.random.Philox"]

# A group's eight bytes of 0 or 1, read as one little-endian word and
# multiplied by GATHER, land in the product's top byte, first step highest.
GATHER = np.uint64(0x8040201008040201)


class _Stepper:
    """Steps the runs that sit in one block-path state, up to `size` at a
    time, one block of each run's words per round; see the module docstring.

    A run holds one row from admission to its statistics: a row of `rows`,
    whose columns hold its counters, its peaks, its counters at admission,
    its steps, then the steps it took here and, per threshold with
    `rec.passes`, those that picked a branch past it; and an entry of each
    list: its key, the transition counts and realized type it came with and,
    for a run `_run` handed over, its walk (`runs`); its generator (`gens`);
    and the words drawn for it and not used yet (`left`). Every buffer is
    made once and refilled in place by each round.
    """

    def __init__(self, res: _Resolved, rec: _StateRec, cap: int, size: int = ROWS):
        self.res, self.rec, self.cap, self.size = res, rec, cap, size
        self.end = min(cap, 1 << 62)  # the cap as an int64; no run steps 2**62 times
        d, nth = res.dimension, len(rec.thresholds)
        self.count = 0  # rows 0..count-1 are taken
        self.held = 0  # rows whose walk `_run` handed over
        self.rows = np.empty((size, 3 * d + 2 + len(rec.passes)), dtype=np.int64)
        self.runs: list[tuple[int, Optional[Mapping[str, int]], tuple[str, ...], Optional[_Walk]]] = []
        self.gens: list[np.random.Philox] = []
        self.left: list[Optional[np.ndarray]] = []
        groups = BLOCK // rec.group
        # a row's group codes; each round first compares the row's words
        # into the same memory, as a branch mask (two branches) or a branch
        # index of one byte per word
        self.codes = np.empty((size, groups), dtype=np.intp)
        self.words = self.codes.view(np.uint8)[:, :BLOCK]
        self.flags = self.words.view(bool)
        self.scratch = np.empty(BLOCK if nth > 1 else 0, dtype=bool)
        self.packed = np.empty((size, groups if nth > 1 else 0), dtype=np.uint8)
        # per varying counter, the counter after each group, less cur: every
        # other word of a buffer, since numpy sums an axis of contiguous
        # words up several times slower than a strided one; and per group a
        # table's value at its code, plus those sums, with one spare word
        # past the rows for the last bound of a `reduceat`
        self.sums = np.empty((len(rec.varying), size, groups, 2), dtype=np.int64)[..., 0]
        self.ends = np.empty(size * groups + 1, dtype=np.int64)

    def start(self, keys: range, n: int, rtype: tuple[str, ...], gens: list[np.random.Philox]) -> None:
        """Admit the fresh runs `keys` of a batch at start value `n`, on the
        generators `gens`, into the next free rows."""
        a, b, d = self.count, self.count + len(keys), self.res.dimension
        self.rows[a:b, : 3 * d] = n
        self.rows[a:b, 3 * d :] = 0
        self.runs += [(key, None, rtype, None) for key in keys]
        self.gens += gens
        self.left += [None] * len(keys)
        self.count = b

    def enter(
        self,
        key: int,
        cur: list[int],
        peak: list[int],
        steps: int,
        counts: Mapping[str, int],
        rtype: Sequence[str],
        bg: np.random.Philox,
        left: np.ndarray,
        walk: Optional[_Walk] = None,
    ) -> None:
        """Admit a run that arrives part-way, with the words drawn for it and
        not used (`left`), into the next free row."""
        self.rows[self.count] = [*cur, *peak, *cur, steps] + [0] * (1 + len(self.rec.passes))
        self.runs.append((key, counts, tuple(rtype), walk))
        self.gens.append(bg)
        self.left.append(left if len(left) else None)
        self.held += walk is not None
        self.count += 1

    def add(self, key: int, walk: _Walk, stream: _DrawStream) -> list[_Done]:
        """Take over the run `key` that `walk` and `stream` hold, as `_run`
        hands one over; step whenever every row is taken, and return the runs
        that finish meanwhile. The walk follows the run's steps, and is left
        where the run ended."""
        if max(walk.peak) >= FAST_COUNTER_LIMIT:  # beyond exact int64 range
            return [(key, _run(self.res, walk, stream, self.cap, False), stream.bg)]
        self.enter(key, walk.cur, walk.peak, walk.steps, walk.counts, walk.rtype, stream.bg, stream.unread(), walk)
        return self.step_while(self.size)

    def step_while(self, least: int) -> list[_Done]:
        """Step while at least `least` rows are taken; return the runs that
        finish meanwhile."""
        done: list[_Done] = []
        while self.count >= least:
            done += self._round()
        return done

    def drain(self) -> list[_Done]:
        """Step until every run has finished; return them."""
        return self.step_while(1)

    def _draw(self, r: int) -> np.ndarray:
        """Draw each row's next block of words and compare it, as it is
        drawn, into the row's bytes of `words`: the branch index, or with two
        branches whether the word picks the second. Returns the blocks'
        lengths: BLOCK words, fewer at the cap or where a run's words left
        from the kernel run out."""
        lens = np.minimum(self.end - self.rows[:r, 3 * self.res.dimension], BLOCK)
        ths, words = self.rec.block_thresholds, self.words
        for i, k in enumerate(lens.tolist()):
            us = self.left[i]
            if us is None:
                us = self.gens[i].random_raw(k)
            else:  # first the words the kernel drew for the run, as one block
                self.left[i] = us[k:] if len(us) > k else None
                us = us[:k]
                k = lens[i] = len(us)
            np.greater_equal(us, ths[0], out=self.flags[i, :k])
            for th in ths[1:]:
                mask = np.greater_equal(us, th, out=self.scratch[:k])
                np.add(words[i, :k], mask.view(np.uint8), out=words[i, :k])
            if k < BLOCK:
                words[i, k:] = 0  # a short block's last group reads no stale byte
        return lens

    def _codes(self, r: int) -> np.ndarray:
        """Each row's group codes, from the bytes `_draw` wrote per word."""
        rec, codes = self.rec, self.codes[:r]
        if rec.bits == 1:
            packed = codes.view(np.uint64)
            np.multiply(codes.view("<u8"), GATHER, out=packed)
            np.right_shift(packed, 56, out=packed)
        else:
            words, packed, g = self.words[:r], self.packed[:r], rec.group
            np.copyto(packed, words[:, ::g])
            for s in range(1, g):
                np.left_shift(packed, rec.bits, out=packed)
                np.bitwise_or(packed, words[:, s::g], out=packed)
            np.copyto(codes, packed)
        return codes

    def _round(self) -> list[_Done]:
        """Step every row one block and return the runs that finish."""
        rec, r, g, d = self.rec, self.count, self.rec.group, self.res.dimension
        groups = BLOCK // g
        lens = self._draw(r)
        codes = self._codes(r)
        rows = self.rows[:r]
        cur, peak, steps, passed = rows[:, :d], rows[:, d : 2 * d], rows[:, 3 * d], rows[:, 3 * d + 1 :]
        ends = self.ends[: r * groups].reshape(r, groups)
        # q: the whole groups each row takes off the tables, which stop
        # before the group that holds a terminal step
        q = lens // g
        for k, c in rec.constant:
            if c < 0:
                np.minimum(q, cur[:, k] // -c // g, out=q)
        for (k, _), (total, low, _), sums in zip(rec.varying, rec.tables, self.sums):
            sums = sums[:r]
            total.take(codes, out=ends, mode="clip")
            np.cumsum(ends, axis=1, out=sums)
            low.take(codes, out=ends, mode="clip")
            ends += sums  # the lowest value inside each group, less cur
            # the first group that goes below zero; a short block's zeroed
            # groups come after its whole ones, which q stops at
            neg = np.flatnonzero(ends.min(axis=1) < -cur[:, k])
            if len(neg):
                first = (ends[neg] < -cur[neg, k, None]).argmax(axis=1)
                q[neg] = np.minimum(q[neg], first)
        # per row, the most or the sum of `ends` over its first q groups (0
        # over none): a reduction over the segments from each row's start
        # to its q-th group and on to the next row's start
        at, whole = np.arange(r), q > 0
        bounds = np.repeat(at * groups, 2)
        bounds[1::2] += q

        def over_whole(ufunc: np.ufunc) -> np.ndarray:
            return np.where(whole, ufunc.reduceat(self.ends, bounds)[::2], 0)

        for (k, _), (_, _, high), sums in zip(rec.varying, rec.tables, self.sums):
            sums = sums[:r]
            high.take(codes, out=ends, mode="clip")
            ends += sums  # the highest value inside each group, less cur
            np.maximum(peak[:, k], cur[:, k] + over_whole(np.maximum), out=peak[:, k])
            cur[:, k] += np.where(whole, sums[at, q - 1], 0)
        for j, table in enumerate(rec.passes, 1):
            table.take(codes, out=ends, mode="clip")
            passed[:, j] += over_whole(np.add)
        advance = q * g
        passed[:, 0] += advance
        for k, c in rec.constant:
            cur[:, k] += c * advance
            if c > 0:
                np.maximum(peak[:, k], cur[:, k], out=peak[:, k])

        # the group past the tables, at most one a row: its steps up to the
        # terminal step, the cap or a short block's end, read off the
        # record's per-step tables of the group's code
        ended = np.zeros(r, dtype=bool)
        part = np.flatnonzero(advance < lens)
        if len(part):
            vals, left = cur[part], np.minimum(lens[part] - advance[part], g)
            table = rec.group_steps[codes[part, q[part]]]  # per row, step and column
            # the steps before a counter goes negative: need <= the counter
            safe = np.minimum(left, (table[:, :, :d] <= vals[:, None]).sum(axis=1).min(axis=1))
            taken, at = np.minimum(safe + 1, left), np.arange(len(part))
            after, high = table[at, taken - 1], table[at, np.maximum(safe - 1, 0), d : 2 * d]
            peak[part] = np.where(safe[:, None] > 0, np.maximum(peak[part], vals + high), peak[part])
            cur[part] = vals + after[:, 2 * d : 3 * d]
            passed[part] += np.column_stack([taken, after[:, 3 * d :]])
            advance[part] += taken
            ended[part] = safe < left  # the words past the terminal step go unused
        steps += advance
        leaving = ended | (steps == self.end)
        if self.held:
            # a walk `_run` handed over follows its run's steps, and the run
            # leaves for the scalar path once a counter reaches 2**53
            for (_, _, _, walk), walked in zip(self.runs, steps.tolist()):
                if walk is not None:
                    walk.steps = walked
            leaving |= cur.max(axis=1) >= FAST_COUNTER_LIMIT
        gone = np.flatnonzero(leaving)
        if not len(gone):
            return []

        # the leaving rows' statistics, read out at once
        done: list[_Done] = []
        if not rec.passes:  # two branches: a varying counter's change tells them apart
            k, (c0, c1) = rec.varying[0][0], rec.varying[0][1].tolist()
        for i, end, row in zip(gone.tolist(), ended[gone].tolist(), self.rows[gone].tolist()):
            vals, tops, entry = row[:d], row[d : 2 * d], row[2 * d : 3 * d]
            walked, passes = row[3 * d], row[3 * d + 1 :]
            if rec.passes:  # branch b: the steps past threshold b - 1 and not past b
                used = [a - b for a, b in zip(passes, [*passes[1:], 0])]
            else:
                second = (vals[k] - entry[k] - passes[0] * c0) // (c1 - c0)
                used = [passes[0] - second, second]
            key, base, rtype, walk = self.runs[i]
            counts = dict(base) if base else {}
            for tid, c in zip(rec.tids, used):
                if c:
                    counts[tid] = counts.get(tid, 0) + c
            if walk is not None:
                walk.cur, walk.peak, walk.steps, walk.counts = vals, tops, walked, TallyCounter(counts)
                self.held -= 1
            if end or walked == self.cap:
                stats = TrajectoryStats(end, walked, tuple(tops), counts, rtype)
            else:  # a counter of a run `_run` handed over reached 2**53
                stats = _run(self.res, walk, _DrawStream(self.gens[i], self.left[i]), self.cap, False)
            done.append((key, stats, self.gens[i]))
        kept = np.flatnonzero(~leaving)
        self.rows[: len(kept)] = self.rows[kept]
        kept = kept.tolist()
        self.runs = [self.runs[i] for i in kept]
        self.gens = [self.gens[i] for i in kept]
        self.left = [self.left[i] for i in kept]
        self.count = len(kept)
        return done


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
        # the target is a block-path state or lies in a deterministic region
        self.hand = np.empty(size, dtype=bool)
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
                self.hand[key] = recs[target].fast_ok or res.region(target) is not None
                self.enters[key] = mid is not None and mid != res.owner.get(name)
                self.tids.append(rec.tids[b])
                self.mids.append(mid)
        # a transition's keys are consecutive (pads repeat a state's last
        # branch): the first key of each, and its id
        self.tid_starts = [key for key, tid in enumerate(self.tids) if key == 0 or tid != self.tids[key - 1]]
        self.tid_names = [self.tids[key] for key in self.tid_starts]

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
        rec = res.try_resolve(name)
        if rec is None:
            return None
        recs[name] = rec
        todo.extend(rec.targets)
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
    streams = _Streams(seed, n)
    out: list[Optional[TrajectoryStats]] = [None] * runs
    # the runs in flight sit in rows 0..rows-1 of slot lists and arrays made
    # once; a run that leaves gives its row to the last one in flight, and a
    # run admitted takes the next free row
    slots = min(MAX_IN_FLIGHT, runs)
    run_ids = [0] * slots
    gens: list[Optional[np.random.Philox]] = [None] * slots
    rtypes: list[list[str]] = [[] for _ in range(slots)]
    sk_all = np.empty(slots, dtype=np.int64)  # key of each row's state
    cur_all = np.empty((slots, d), dtype=np.int64)
    peak_all = np.empty((slots, d), dtype=np.int64)
    steps_all = np.empty(slots, dtype=np.int64)
    counts_all = np.empty((slots, t.size), dtype=np.int64)  # per row and branch key
    # each row's words of RUN_DRAWS blocks, drawn in one call; every row
    # takes the words of block `phase` next, a run admitted later draws
    # only the blocks from there
    draws = np.empty((slots, RUN_DRAWS * width), dtype=np.uint64)
    phase = 0
    steppers: dict[str, _Stepper] = {}  # by block-path state
    rows = admitted = 0
    while admitted < runs or rows:
        if phase == 0:
            for i in range(rows):
                draws[i] = gens[i].random_raw(RUN_DRAWS * width)
        new = min(slots - rows, runs - admitted)
        for i, r in zip(range(rows, rows + new), range(admitted, admitted + new)):
            run_ids[i], gens[i] = r, streams.open(r)
            draws[i, phase * width :] = gens[i].random_raw((RUN_DRAWS - phase) * width)
            rtypes[i] = [] if start_mid is None else [start_mid]
        fresh = slice(rows, rows + new)
        sk_all[fresh] = t.index[start] * t.width
        cur_all[fresh] = peak_all[fresh] = n
        steps_all[fresh] = counts_all[fresh] = 0
        admitted += new
        rows += new
        cur, peak, steps, counts = cur_all[:rows], peak_all[:rows], steps_all[:rows], counts_all[:rows]

        # the waves: branch keys in order, one word per run and wave
        first = phase * width
        phase = (phase + 1) % RUN_DRAWS
        words = draws[:rows, first : first + width].T
        keys = np.empty((width, rows), dtype=np.int64)
        sk = sk_all[:rows]
        for j in range(width):
            keys[j] = t.branch(sk, words[j])
            sk = t.nxt[keys[j]]
        sk_all[:rows] = sk

        # where each row leaves the block: the step that terminates it, enters
        # a block-path state or a deterministic region, or reaches the cap,
        # whichever comes first
        pos = t.updates[keys]
        np.cumsum(pos, axis=0, out=pos)
        pos += cur
        neg = (pos < 0).any(axis=2)
        term_at = np.where(neg.any(axis=0), neg.argmax(axis=0), width)
        hand = t.hand[keys]
        hand_at = np.where(hand.any(axis=0), hand.argmax(axis=0), width)
        stop = np.minimum(np.minimum(term_at, hand_at), cap - 1 - steps)
        taken = np.minimum(stop + 1, width)
        terminated = (term_at < width) & (term_at == stop)
        live = wave < taken - terminated  # configurations reached, terminal one excluded

        cur[:] = pos[taken - 1, np.arange(rows)]
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
        # the leaving rows' statistics, read out in one call
        gone = np.flatnonzero(leaving)
        last = stop[gone]
        states = t.nxt[keys[last, gone]] // t.width
        tally = np.add.reduceat(counts[gone], t.tid_starts, axis=1)
        fields = np.column_stack([states, terminated[gone], steps[gone], cur[gone], peak[gone], tally])
        for i, at, (state, ended, walked, *values) in zip(gone.tolist(), last.tolist(), fields.tolist()):
            used = {tid: c for tid, c in zip(t.tid_names, values[2 * d :]) if c}
            if ended or walked == cap:
                peaks = tuple(values[d : 2 * d])
                out[run_ids[i]] = TrajectoryStats(bool(ended), walked, peaks, used, tuple(rtypes[i]))
                streams.close(gens[i])
                continue
            name, cur, peaks = t.names[state], values[:d], values[d : 2 * d]
            if res.region(name) is not None:
                walk = _Walk(name, cur, peaks, TallyCounter(used), rtypes[i], walked)
                out[run_ids[i]] = _closed_form(res, walk, cap)
                streams.close(gens[i])
                continue
            # the run entered a block-path state: it takes a row of the
            # state's stepper, which finishes it, first on the words drawn
            # here and not used, and steps whenever every row is taken
            stepper = steppers.get(name)
            if stepper is None:
                stepper = steppers[name] = _Stepper(res, res.resolve(name), cap, min(ROWS, runs))
            stepper.enter(run_ids[i], cur, peaks, walked, used, rtypes[i], gens[i], draws[i, first + at + 1 :].copy())
            _finish(stepper.step_while(stepper.size), out, streams)
        rows -= len(gone)
        holes = gone[gone < rows]
        movers = rows + np.flatnonzero(~leaving[rows:])
        for a in (sk_all, cur_all, peak_all, steps_all, counts_all, draws):
            a[holes] = a[movers]
        for h, m in zip(holes.tolist(), movers.tolist()):
            run_ids[h], gens[h], rtypes[h] = run_ids[m], gens[m], rtypes[m]
    for stepper in steppers.values():
        _finish(stepper.drain(), out, streams)
    return out


def _step_batch(
    res: _Resolved, rec: _StateRec, n: int, runs: int, seed: int, cap: int, start: str
) -> list[TrajectoryStats]:
    """Run a batch whose start state is a block-path state on one stepper,
    admitting runs into every free row before each round."""
    stepper = _Stepper(res, rec, cap, min(ROWS, runs))
    streams = _Streams(seed, n)
    mid = res.owner.get(start)
    rtype = () if mid is None else (mid,)
    out: list[Optional[TrajectoryStats]] = [None] * runs
    admitted = 0
    while admitted < runs or stepper.count:
        new = range(admitted, min(runs, admitted + stepper.size - stepper.count))
        stepper.start(new, n, rtype, [streams.open(r) for r in new])
        admitted = new.stop
        _finish(stepper._round(), out, streams)
    return out


def _finish(done: list[_Done], out: list, streams: _Streams) -> None:
    """Record the runs a stepper finished and take back their generators."""
    for key, stats, bg in done:
        out[key] = stats
        streams.close(bg)


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
    if not 0 <= run < 1 << 32:
        raise ValueError(f"run must be in 0..2**32-1, got {run}")
    _check_seed(seed)
    res = _Resolved(m, strategy)
    walk = _start(res, n, _init_state(m, init_state))
    if _vectorized and res.region(walk.state) is not None:
        return _closed_form(res, walk, max_steps)  # the run draws no word
    return _run(res, walk, _DrawStream(_Streams(seed, n).open(run)), max_steps, _vectorized)


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
    if not 1 <= runs <= 1 << 32:
        raise ValueError(f"runs must be in 1..2**32, got {runs}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    _check_seed(seed)
    start = _init_state(m, init_state)
    res = _Resolved(m, strategy)
    if _vectorized and res.region(start) is not None:
        # every run is the same run, and draws no word
        run = _closed_form(res, _start(res, n, start), max_steps)
        return [replace(run, transition_counts=dict(run.transition_counts)) for _ in range(runs)]
    tables = _lockstep_tables(res, start, n, max_steps) if _vectorized else None
    if tables is not None:
        rec = res.resolve(start)
        if rec.fast_ok:
            return _step_batch(res, rec, n, runs, seed, max_steps, start)
        return _lockstep(res, tables, n, runs, seed, max_steps, start)
    # one run after the other, on one re-keyed generator
    streams = _Streams(seed, n)
    out = []
    for r in range(runs):
        bg = streams.open(r)
        out.append(_run(res, _start(res, n, start), _DrawStream(bg), max_steps, _vectorized))
        streams.close(bg)
    return out


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
    strategy: Optional[Strategy] = None,
    theta: Optional[float] = None,
    max_steps: Optional[int] = None,
    init_state: Optional[str] = None,
) -> TailReport:
    """Simulate `runs` trajectories per start value and aggregate by realized
    type. The step cap per start value n is `max_steps` when given, else
    ceil(4 * n**theta) when a growth exponent hint `theta` is given, else
    10**6. Every start value is simulated under the one `strategy`.
    """
    if not n_list or sorted(set(n_list)) != list(n_list):
        raise ValueError("n_list must be strictly increasing and nonempty")
    if theta is not None and not isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if n_list[0] < 0:
        raise ValueError("start value n must be >= 0")
    _check_seed(seed)
    if theta is not None and theta < 0 and n_list[0] == 0:
        raise ValueError(f"theta {theta} < 0 gives no step cap at n = 0")
    try:  # every cap before the first run
        caps = {
            n: max_steps if max_steps is not None else (
                max(1, ceil(4 * n**theta)) if theta is not None else 10**6
            )
            for n in n_list
        }
    except OverflowError:
        raise ValueError(f"step cap 4*n**{theta} is too large to compute") from None
    groups: dict[int, tuple[TailGroup, ...]] = {}
    for n in n_list:
        stats = simulate_many(
            m,
            n,
            runs,
            seed=seed,
            strategy=strategy,
            max_steps=caps[n],
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
