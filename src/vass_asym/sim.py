"""Monte Carlo validation: exact-threshold sampling of trajectories.

Randomness discipline: every run owns an independent Philox stream, of key
(seed, (n mod 2**32) * 2**32 + run) from counter (0, 0, 0, n >> 32), and
each step owns the next raw 64-bit word of that stream, probability-1
branches included. Seeds lie in 0..2**64-1, runs in 0..2**32-1 and the
start values of runs that draw below 2**96, so no two runs share a stream.
Philox is counter-based: a stream is a function of its key and counter
alone, so a batch re-keys generators in place (`_Streams`), at a run's first
word or at any later one, drawing the words a fresh generator would, and
builds no more of them than it has runs drawing at a time. Branches are
picked by comparing the word against cumulative thresholds floor(cum *
2**64), so each branch's sampling probability is off by less than 2**-64
from its exact rational probability. A word that no branch reads is not
drawn: a run in a deterministic region (below) reads none for the rest of
its steps. Because step k always owns word k, the four execution paths
below produce byte-identical trajectories, and a run's trajectory does not
depend on which other runs execute or on which path steps it.

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
* The lockstep kernel (`_lockstep`) steps the runs of a `simulate_many`
  batch together, at most MAX_IN_FLIGHT at a time. Each wave takes one word
  from every active run's stream and maps (state, word) to a branch key
  through padded per-state threshold tables; the keys then index padded
  tables of next states and updates, and the states are chased wave by
  wave. It steps only the states that fork and the lasso tails, the states
  on a path into a ring or a region: the states a run is handed off from
  (on a ring, in a region) are left out. Where the stepped states form no
  cycle, every run leaves them within as many waves as the longest path
  through them has states, and a block is no longer. Once per block of
  RUN_BUFFER waves the updates of each counter that some stepped branch
  moves are cumulatively summed, laid out as (counter, wave, row); only the
  counters some stepped branch lowers are tested for going negative, and a
  counter no stepped branch moves keeps its value and peak. Each run's
  first terminal crossing, peaks, per-transition counts and realized-type
  entries are read off. A block's keys are scanned for a hand-off only when
  some stepped branch leads into a hand-off state, and for class entries
  only when some stepped branch enters a class other than its state's; else
  the scan would find none, and is skipped. It runs a batch when the start
  state is neither in a deterministic region nor on a ring, every state
  reachable from it resolves under the strategy, and n + cap * max|update|
  < 2**53, so that no counter can leave exact int64 range within the cap. A
  run leaves the kernel where it enters a region or a ring. The runs in
  flight hold rows of arrays made once per batch: a run that leaves gives
  its row to the last one, an admitted run takes the next free row, and
  each row draws the words of RUN_DRAWS blocks in one call (words past a
  run's end go unused). The statistics of the runs that leave in a block
  are read out of the arrays at once, one list per field. The tables are
  built from lists, one call per array.
* The block path applies while a run sits on a ring: a cycle s0 -> s1 ->
  ... -> s(L-1) -> s0 of period L whose states each send all their resolved
  branches (at most 256) to the next, one or more with two or more branches
  (`_Ring`; with L = 1, a state whose branches are all self-loops, the
  absorbing tail phase of typical models). Its per-step tables must fit
  MAX_TABLE_ROWS rows of 256 codes; a longer or wider cycle runs on the
  kernel. A run never leaves a ring, and its phase, the index of its state,
  advances by one a step. One stepper (`_Stepper`) per ring steps its runs
  in rounds. A run holds one row of the stepper's arrays from admission to
  its statistics: its counters, peaks, steps, phase and branch tallies in
  one int64 row, its key, generator and leftover words in lists. The
  buffers hold min(BLOCK, cap) words a row, and as many rows, up to the
  batch's runs, as the buffers of ROWS rows of BLOCK words hold: ROWS rows
  at a cap of BLOCK or more, about ROWS * BLOCK / cap below it, so that a
  round of short runs steps hundreds of them, and `_run`'s hand-off of a
  single run allocates one row. A row holds a generator only while its
  run's stream goes on past the round: a fresh run, or one the kernel hands
  over, takes one when its words are next drawn, re-keyed at its word
  position (step k takes word k), and gives it back right after a draw
  short of a block, which reaches the cap, or once the run finishes, so
  that the rows of a round of short runs share one; a run `_run` hands over
  keeps its own. Each round draws a
  block of at most BLOCK words from each row's stream and compares each
  word, as it is drawn, against the thresholds of its state into the row's
  bytes of a byte buffer: a word picks a branch past i iff it is >= th[i],
  the kernel's rule. This draw-and-compare loop is the round's only Python
  per row. The bytes are packed into group codes, one byte per g steps (g =
  8 when no state has more than two branches: one bit a step; fewer steps
  of more bits with more branches), and each numpy call then serves every
  row, over the groups that hold the round's longest block. The ring's
  tables are indexed by the phase at a group's first step and the code: per
  varying counter they give the group's sum and lowest and highest prefix
  sums: a cumulative sum over the groups gives the counter at each group's
  end, the lowest prefix finds the first group that goes negative and the
  highest one the peak. Branch counts come from per-index counts of the
  steps past each threshold or, with one state of two branches and the
  others of one, from a varying counter's change. A counter whose update is
  the same on every branch is resolved in closed form. The group that holds
  the terminal step, the cap or a short block's end is read off per-index
  tables of the group's steps, not stepped, for all those rows at once: per
  counter, the least start value that stays >= 0 through each step gives
  the first step that goes negative, and the running highest prefix sums,
  the prefix sums and the counts past each threshold give the peak, the
  counters and the branch counts up to it. The rows that finish in a round
  are read out together, with one gather of their rows, and the rows left
  are compacted once. The buffers are made once per stepper and refilled in
  place, so a round allocates no array of a block of words. A batch that
  starts on a ring runs on its stepper alone, which admits runs into every
  free row before each round. The runs that enter a ring in a kernel block
  take rows of the ring's stepper in one call, each with its phase; it
  steps whenever every row is taken, and every stepper drains when the
  kernel is done. A run's first block is the words the kernel drew for it
  and did not use, then whole blocks follow. Counters must stay below 2**53
  and updates within 2**20, so int64 arithmetic cannot overflow; a run
  `_run` hands over whose counters reach 2**53 finishes on the scalar path.
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
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import ceil, inf, isfinite
from typing import Iterator, Mapping, Optional, Sequence, Union

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
ROWS = 32  # runs a ring's stepper steps together
MAX_TABLE_ROWS = 1 << 12  # rows of 256 codes in a ring's per-step tables, at most

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
    from one template state, at any word of the stream: Philox makes four
    words per counter value, so word 4k on starts at counter (k, 0, 0, n >>
    32). A run hands its generator back once it has drawn what it needs,
    so a batch builds no more generators than it has runs drawing at a time.
    """

    def __init__(self, seed: int, n: int):
        if n >> 96:
            raise ValueError("start value n must be below 2**96 for a run that draws words")
        self._low = (n & 0xFFFFFFFF) << 32
        # Python ints, not arrays: the state setter reads them about twice
        # as fast
        self._key = [seed, 0]
        self._counter = [0, 0, 0, n >> 32]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0] * 4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._spare: list[np.random.Philox] = []

    def open(self, run: int, at: int = 0) -> np.random.Philox:
        """A generator at word `at` of run `run`'s stream."""
        bg = self._spare.pop() if self._spare else _generator()
        self._key[1] = self._low + run
        self._counter[0] = at >> 2
        bg.state = self._state
        if at & 3:
            bg.random_raw(at & 3)
        return bg

    def close(self, bg: np.random.Philox) -> None:
        """Take back a generator whose run draws no more from it."""
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


def _code_bits(width: int) -> int:
    """The bits a step takes in a group code, with at most `width` branches."""
    return next(b for b in (1, 2, 4, 8) if width <= 1 << b)


@cache
def _group_branches(bits: int) -> np.ndarray:
    """Per byte code, the branch indices of a group of `bits`-bit steps."""
    g = 8 // bits
    out = np.array([[c >> bits * (g - 1 - s) & (1 << bits) - 1 for s in range(g)] for c in range(256)])
    out.setflags(write=False)
    return out


class _StateRec:
    """One state's resolved branch table."""

    __slots__ = ("tids", "targets", "updates", "probs", "thresholds")

    def __init__(self, branches: list[tuple[str, str, tuple[int, ...], Fraction]]):
        self.tids = [b[0] for b in branches]
        self.targets = [b[1] for b in branches]
        self.updates = [b[2] for b in branches]
        self.probs = [b[3] for b in branches]
        self.thresholds = _cumulative_thresholds(self.probs)

    def pick(self, u: int) -> int:
        return bisect_right(self.thresholds, u)


class _Ring:
    """A cycle s0 -> s1 -> ... -> s(L-1) -> s0 of period L on the block path:
    every state sends all its resolved branches (at most 256) to the next,
    and one or more has two or more branches. A run's phase is the index of
    its state.

    The block path's tables: per phase at a block's start and per state of two
    or more branches, the offset of the state's first word in the block and
    its thresholds as 0-d uint64 arrays (`compares`; numpy compares words
    against one faster than against a scalar); the counters every branch moves
    by the same update (constant), and the others (varying). A group is
    `group` consecutive steps of `bits` bits each (from the widest state),
    packed into one byte code, first step highest; every table is indexed by
    256 * (the phase at the group's first step) + code. Per varying counter,
    `tables` holds the group's sum and its lowest and highest prefix sums,
    both less the sum, and `passes` per state and threshold the group's steps
    in that state that pick a branch past it. When one state has two branches
    and the others one (`split`), a counter those two branches move
    differently tells how often each was taken, and `passes` stays empty.
    `group_steps` holds per index and step of the group, after that step, per
    counter the least start value that stays >= 0 so far (minus the lowest
    prefix sum), then per counter the highest prefix sum, then per counter the
    prefix sum, and per column of `passes` the steps so far that count for it;
    its values are within 8 * 2**20, so 32 bits hold them. Per phase and step
    of a group these tables take 3d rows of 256 codes and at most one per
    threshold; `_Resolved` takes a ring only where they come to at most
    MAX_TABLE_ROWS rows.
    """

    def __init__(self, states: list[str], recs: list[_StateRec]):
        self.states, self.recs, self.period = states, recs, len(recs)
        self.tids = [tid for rec in recs for tid in rec.tids]
        ths = [tuple(np.array(th, dtype=np.uint64) for th in rec.thresholds) for rec in recs]
        self.compares = [[((p - a) % len(recs), t) for p, t in enumerate(ths) if t] for a in range(len(recs))]
        updates = [u for rec in recs for u in rec.updates]
        d, widths = len(updates[0]), [len(rec.tids) for rec in recs]
        self.varying: list[int] = []
        self.constant: list[tuple[int, int]] = []
        for k, col in enumerate(zip(*updates)):
            if len(set(col)) == 1:
                self.constant.append((k, col[0]))
            else:
                self.varying.append(k)
        # (state, counter, its update on the first branch, on the second)
        self.split: Optional[tuple[int, int, int, int]] = None
        if sum(widths) == len(recs) + 1:
            p = widths.index(2)
            self.split = next(((p, k, a, b) for k, (a, b) in enumerate(zip(*recs[p].updates)) if a != b), None)
        thresholds = [(p, j) for p, rec in enumerate(recs) for j in range(len(rec.thresholds))]
        columns = [] if self.split else thresholds
        # for `tally`: per state the split counter's first update; per phase
        # a and state p, L - 1 less the steps from a to p's first visit; and
        # per column of [visits | passes] and transition, +1 at the steps
        # that reach its branch (its state's visits or the steps past the
        # threshold before it) and -1 at those past it (past the next
        # threshold; the extra last row takes the -1 of a state's last branch)
        self.first = np.array([rec.updates[0][self.split[1]] if self.split else 0 for rec in recs], dtype=np.int64)
        self.lag = len(recs) - 1 - (np.arange(len(recs)) - np.arange(len(recs))[:, None]) % len(recs)
        upper, lower = [], []
        for p, rec in enumerate(recs):
            at = [len(recs) + thresholds.index((p, j)) for j in range(len(rec.thresholds))]
            upper += [p, *at]
            lower += [*at, -1]
        self.signs = np.zeros((len(recs) + len(thresholds) + 1, len(self.tids)), dtype=np.int64)
        self.signs[upper, np.arange(len(self.tids))] = 1
        self.signs[lower, np.arange(len(self.tids))] = -1
        self.signs = self.signs[:-1]
        self.bits = _code_bits(max(widths))
        self.group = g = 8 // self.bits
        # `group_steps`'s columns, laid out as (phase, step, column, code),
        # codes no block makes clipped to the state's last branch: the
        # running lowest prefix sum (negated last), the running highest one,
        # the prefix sum and the steps so far that count for each column of
        # `passes`, accumulated one step at a time over rows of 256 codes
        # (numpy accumulates an axis several times slower, and a group has at
        # most 8 steps), in int32, so that the final layout is one transposed
        # copy
        period, width = self.period, max(widths)
        at = (np.arange(period)[:, None] + np.arange(g)) % period  # the phase of each step of a group
        branch = np.minimum(_group_branches(self.bits).T, (np.array(widths) - 1)[at][..., None])
        table = np.zeros((d, period * width), dtype=np.int32)  # per counter, a (state, branch)'s update
        for p, rec in enumerate(recs):
            table[:, p * width : p * width + widths[p]] = np.array(rec.updates).T
        steps = np.empty((period, g, 3 * d + len(columns), 256), dtype=np.int32)
        low, high, sums = steps[:, :, :d], steps[:, :, d : 2 * d], steps[:, :, 2 * d : 3 * d]
        sums[:] = table.take(at[..., None] * width + branch, axis=1).transpose(1, 2, 0, 3)
        if columns:
            state, past = np.array(columns).T
            steps[:, :, 3 * d :] = (at[..., None, None] == state[:, None]) & (branch[:, :, None] > past[:, None])
        low[:, 0], high[:, 0] = sums[:, 0], sums[:, 0]
        for s in range(1, g):
            steps[:, s, 2 * d :] += steps[:, s - 1, 2 * d :]
            np.minimum(low[:, s - 1], sums[:, s], out=low[:, s])
            np.maximum(high[:, s - 1], sums[:, s], out=high[:, s])
        self.tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for k in self.varying:  # a group's last step holds its sum and extremes
            total, lowest, highest = (a[:, -1, k].astype(np.int64).ravel() for a in (sums, low, high))
            self.tables.append((total, lowest - total, highest - total))
        self.passes = [steps[:, -1, 3 * d + c].astype(np.int64).ravel() for c in range(len(columns))]
        np.negative(low, out=low)
        self.group_steps = np.ascontiguousarray(steps.transpose(0, 3, 1, 2)).reshape(period * 256, g, -1)

    def tally(self, phase: np.ndarray, taken: np.ndarray, moved: np.ndarray, passes: np.ndarray) -> np.ndarray:
        """Per run (row) and transition, in `tids` order, how often the run
        took it in `taken` steps from phase `phase`: from its count for each
        column of `passes`, or with `split` from how far the split counter
        moved (`moved`)."""
        visits = (taken[:, None] + self.lag.take(phase, axis=0)) // self.period  # the steps in each state
        if self.split:
            _, _, a, b = self.split
            passes = ((moved - visits @ self.first) // (b - a))[:, None]
        return np.concatenate([visits, passes], axis=1) @ self.signs


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
        self._rings: dict[str, Optional[tuple[int, _Ring]]] = {}

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
        that cycle from its entry; else None."""
        if name not in self._regions:
            self._follow(name)
        return self._regions[name]

    def ring(self, name: str) -> Optional[tuple[int, _Ring]]:
        """The phase of `name` and the block path's ring it lies on, or None
        where it lies on none."""
        if name not in self._regions:
            self._follow(name)
        return self._rings[name]

    def hands_off(self, name: str) -> bool:
        """Whether a run in `name` leaves the kernel and the scalar path: for
        the closed form or the block path."""
        return self.region(name) is not None or self.ring(name) is not None

    def _follow(self, name: str) -> None:
        """Follow from `name` the states that send all their resolved branches
        to one successor, and memoize the region and the ring of each state
        of the walk, so that a state is tested once. A walk that closes a
        cycle of one-branch states found a region; a cycle with a state of
        two or more branches is a ring, if the block path can step it."""
        path: dict[str, int] = {}  # states not yet memoized, in walk order
        state = name
        while state not in self._regions:
            if state in path:  # the walk closed a cycle; `state` enters it
                loop = list(path)[path[state] :]
                recs = [self.resolve(s) for s in loop]
                if all(len(rec.tids) == 1 for rec in recs):
                    prefix = [[0] * self.dimension]
                    for rec in recs:
                        prefix.append([p + u for p, u in zip(prefix[-1], rec.updates[0])])
                    cycle = _Cycle(
                        tuple(rec.tids[0] for rec in recs),
                        tuple(prefix[-1]),
                        tuple(map(min, zip(*prefix[1:]))),
                        tuple(map(max, zip(*prefix[1:]))),
                    )
                    for j, s in enumerate(loop):
                        self._regions[s], self._rings[s] = (-j % len(loop), cycle), None
                else:
                    # the rows of the ring's per-step tables (see `_Ring`)
                    widths, d = [len(rec.tids) for rec in recs], self.dimension
                    steppable = (
                        d > 0
                        and max(widths) <= 256
                        and len(loop) * 8 // _code_bits(max(widths)) * (3 * d + sum(widths) - len(loop)) <= MAX_TABLE_ROWS
                        and all(abs(u) <= FAST_UPDATE_LIMIT for rec in recs for upd in rec.updates for u in upd)
                    )
                    ring = _Ring(loop, recs) if steppable else None
                    for j, s in enumerate(loop):
                        self._regions[s], self._rings[s] = None, None if ring is None else (j, ring)
                for s in loop:
                    del path[s]
                break
            rec = self.try_resolve(state)
            if rec is None or len(set(rec.targets)) != 1:
                self._regions[state] = self._rings[state] = None
                break
            path[state] = len(path)
            state = rec.targets[0]
        # the tail into the cycle or up to the state that ends the walk: in a
        # region while its states have one branch, on no ring
        found = self._regions[state]
        for s in reversed(path):
            if found is not None and len(self._recs[s].tids) == 1:
                found = (found[0] + 1, found[1])
            else:
                found = None
            self._regions[s], self._rings[s] = found, None

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
        rec = _StateRec(branches)
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
        if vectorized and res.hands_off(state):
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
    on = res.ring(walk.state)
    if on is None:
        return _closed_form(res, walk, cap)
    phase, ring = on
    ((_, stats),) = _Stepper(res, ring, cap, 1).add(0, walk, stream, phase)
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


# a run the stepper has finished: its key and its statistics
_Done = tuple[int, TrajectoryStats]
# a run on a stepper: its key, the transition counts and realized type it
# came with and, for a run `_run` handed over, its walk
_Entry = tuple[int, Optional[Mapping[str, int]], tuple[str, ...], Optional[_Walk]]

# A group's eight bytes of 0 or 1, read as one little-endian word and
# multiplied by GATHER, land in the product's top byte, first step highest.
GATHER = np.uint64(0x8040201008040201)


class _Stepper:
    """Steps the runs that sit on one ring, up to `size` at a time, one block
    of each run's words per round; see the module docstring.

    A run holds one row from admission to its statistics: a row of `rows`,
    whose columns hold its counters, its peaks, its counters at admission,
    its steps, its phase at admission, then the steps it took here and its
    count for each column of `ring.passes`; and an entry of each list: its
    key, the transition counts and realized type it came with and, for a run
    `_run` handed over, its walk (`runs`); its generator, if it holds one
    (`gens`); and the words drawn for it and not used yet (`left`). Every
    buffer is made once, for blocks of min(BLOCK, cap) words, and refilled in
    place by each round, which lays out its (row, group) arrays at the
    buffer's front. There are as many rows, up to `runs`, as keep the buffers
    within those of ROWS rows of BLOCK words: ROWS where the cap is at least
    BLOCK, about ROWS * BLOCK / cap below it.

    A run `_run` hands over keeps the generator of its stream. Any other run
    takes one of `streams` when its stream's words are next drawn, re-keyed
    at the run's word position (its steps: step k takes word k), and gives it
    back right after a draw short of a block, which reaches the cap, or once
    the run finishes, so that a round of short runs shares one generator.
    """

    def __init__(self, res: _Resolved, ring: _Ring, cap: int, runs: int = ROWS, streams: Optional[_Streams] = None):
        self.res, self.ring, self.cap, self.streams = res, ring, cap, streams
        self.end = min(cap, 1 << 62)  # the cap as an int64; no run steps 2**62 times
        d, g, period = res.dimension, ring.group, ring.period
        span = min(BLOCK, cap)  # the most words a row steps in a round
        groups = -(-span // g)
        columns = 3 * d + 3 + len(ring.passes)

        def row_bytes(groups: int) -> int:
            # a row's share of the buffers below: its int64 columns and, per
            # group, its code and `ends` word, two words of `sums` per varying
            # counter and, with codes of more than one bit, a byte of `packed`
            return 8 * columns + groups * (16 + 16 * len(ring.varying) + (ring.bits > 1))

        self.size = size = min(runs, ROWS * row_bytes(-(-BLOCK // g)) // row_bytes(groups))
        self.count = 0  # rows 0..count-1 are taken
        self.held = 0  # rows whose walk `_run` handed over
        self.rows = np.empty((size, columns), dtype=np.int64)
        self.runs: list[_Entry] = []
        self.gens: list[Optional[np.random.Philox]] = []
        self.left: list[Optional[np.ndarray]] = []
        # a row's group codes; each round first compares the row's words
        # into the same memory, as a branch mask (two branches) or a branch
        # index of one byte per word. A round uses the groups that hold its
        # longest block: the first columns of each buffer
        self.codes = np.empty((size, groups), dtype=np.intp)
        self.words = self.codes.view(np.uint8)[:, : groups * g]
        self.flags = self.words.view(bool)
        self.scratch = np.empty(span if ring.bits > 1 else 0, dtype=bool)
        self.packed = np.empty((size, groups if ring.bits > 1 else 0), dtype=np.uint8)
        # per varying counter, the counter after each group, less cur: every
        # other word of a buffer, since numpy sums an axis of contiguous
        # words up several times slower than a strided one; and per group a
        # table's value at its code, plus those sums, with one spare word
        # past the rows for the last bound of a `reduceat`
        self.sums = np.empty((len(ring.varying), size, groups, 2), dtype=np.int64)[..., 0]
        self.ends = np.empty(size * groups + 1, dtype=np.int64)
        # per phase at a block's start, each group's offset into the tables
        self.shift = 256 * ((np.arange(period)[:, None] + g * np.arange(groups)) % period)
        self.groups = groups  # the groups of the round under way

    def start(self, keys: range, n: int, rtype: tuple[str, ...], phase: int) -> None:
        """Admit the fresh runs `keys` of a batch at start value `n` and phase
        `phase` into the next free rows."""
        a, b, d = self.count, self.count + len(keys), self.res.dimension
        self.rows[a:b, : 3 * d] = n
        self.rows[a:b, 3 * d :] = 0
        self.rows[a:b, 3 * d + 1] = phase
        self.runs += [(key, None, rtype, None) for key in keys]
        self.gens += [None] * len(keys)
        self.left += [None] * len(keys)
        self.count = b

    def enter(
        self, runs: list[_Entry], gens: list[Optional[np.random.Philox]], left: list[np.ndarray], state: np.ndarray
    ) -> list[_Done]:
        """Admit runs that arrive part-way, each with its entry of `runs`, the
        generator it keeps or None, the words drawn for it and not used
        (`left`) and a row of `state`: its counters, peaks, steps and phase.
        Step whenever every row is taken, and return the runs that finish
        meanwhile."""
        d, done = self.res.dimension, []
        while runs:
            a, k = self.count, min(self.size - self.count, len(runs))
            rows = self.rows[a : a + k]
            rows[:, : 2 * d], rows[:, 2 * d : 3 * d] = state[:k, : 2 * d], state[:k, :d]
            rows[:, 3 * d : 3 * d + 2], rows[:, 3 * d + 2 :] = state[:k, 2 * d :], 0
            self.runs += runs[:k]
            self.gens += gens[:k]
            self.left += [us if len(us) else None for us in left[:k]]
            self.held += sum(run[3] is not None for run in runs[:k])
            self.count += k
            runs, gens, left, state = runs[k:], gens[k:], left[k:], state[k:]
            done += self.step_while(self.size)
        return done

    def add(self, key: int, walk: _Walk, stream: _DrawStream, phase: int) -> list[_Done]:
        """Take over the run `key` that `walk` and `stream` hold at phase
        `phase`, as `_run` hands one over; step whenever every row is taken,
        and return the runs that finish meanwhile. The walk follows the run's
        steps, and is left where the run ended."""
        if max(walk.peak) >= FAST_COUNTER_LIMIT:  # beyond exact int64 range
            return [(key, _run(self.res, walk, stream, self.cap, False))]
        state = np.array([[*walk.cur, *walk.peak, walk.steps, phase]], dtype=np.int64)
        return self.enter([(key, walk.counts, tuple(walk.rtype), walk)], [stream.bg], [stream.unread()], state)

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

    def _draw(self, r: int, phase: np.ndarray) -> np.ndarray:
        """Draw each row's next block of words and compare it, as it is
        drawn, into the row's bytes of `words`: the branch index, or with two
        branches whether the word picks the second; each word against the
        thresholds of its state, from the row's phase `phase`. A row that
        holds no generator takes one (see the class docstring). Returns the
        blocks' lengths: BLOCK words, fewer at the cap or where a run's words
        left from the kernel run out. The round's groups are the fewest that
        hold the longest block (`groups`)."""
        ring, g, runs, gens = self.ring, self.ring.group, self.runs, self.gens
        walked = self.rows[:r, 3 * self.res.dimension]
        lens = np.minimum(self.end - walked, BLOCK)
        width, words, flags = -(-int(lens.max()) // g) * g, self.words, self.flags  # whole groups, at most
        period, compares, at = ring.period, ring.compares, phase.tolist()
        if len(compares[0]) < period:  # the bytes of one-branch states read 0
            words[:r, :width] = 0
        for i, k in enumerate(lens.tolist()):
            us = self.left[i]
            if us is None:
                bg = gens[i]
                if bg is None:  # the run's next word is its step count's
                    bg = gens[i] = self.streams.open(runs[i][0], int(walked[i]))
                us = bg.random_raw(k)
                if k < BLOCK and runs[i][3] is None:  # a short draw reaches the cap
                    self.streams.close(bg)
                    gens[i] = None
            else:  # first the words the kernel drew for the run, as one block
                self.left[i] = us[k:] if len(us) > k else None
                us = us[:k]
                k = lens[i] = len(us)
            if k < width:
                words[i, k:width] = 0  # a short block's last group reads no stale byte
            for s, ths in compares[at[i]]:  # a state's words: every period-th from its first
                state_words, state_flags = us[s::period], flags[i, s:k:period]
                np.greater_equal(state_words, ths[0], out=state_flags)
                for th in ths[1:]:
                    mask = np.greater_equal(state_words, th, out=self.scratch[: len(state_words)])
                    np.add(state_flags.view(np.uint8), mask.view(np.uint8), out=state_flags.view(np.uint8))
        self.groups = -(-int(lens.max()) // g)
        return lens

    def _codes(self, r: int, phase: np.ndarray) -> np.ndarray:
        """Each row's table indices per group: the group codes, from the
        bytes `_draw` wrote per word, plus 256 times the group's first phase,
        for rows at phases `phase`."""
        ring, groups = self.ring, self.groups
        codes = self.codes[:r, :groups]
        if ring.bits == 1:
            packed = codes.view(np.uint64)
            np.multiply(codes.view("<u8"), GATHER, out=packed)
            np.right_shift(packed, 56, out=packed)
        else:
            words, packed, g = self.words[:r, : groups * ring.group], self.packed[:r, :groups], ring.group
            np.copyto(packed, words[:, ::g])
            for s in range(1, g):
                np.left_shift(packed, ring.bits, out=packed)
                np.bitwise_or(packed, words[:, s::g], out=packed)
            np.copyto(codes, packed)
        if ring.period > 1:  # with one state every offset is 0
            offsets = self.ends[: r * groups].reshape(r, groups)  # free until the tables are read
            self.shift[:, :groups].take(phase, axis=0, out=offsets, mode="clip")
            codes += offsets
        return codes

    def _round(self) -> list[_Done]:
        """Step every row one block and return the runs that finish."""
        ring, r, g, d = self.ring, self.count, self.ring.group, self.res.dimension
        rows = self.rows[:r]
        cur, peak, steps, passed = rows[:, :d], rows[:, d : 2 * d], rows[:, 3 * d], rows[:, 3 * d + 2 :]
        phase = (rows[:, 3 * d + 1] + passed[:, 0]) % ring.period
        lens = self._draw(r, phase)
        codes = self._codes(r, phase)
        groups = self.groups
        ends = self.ends[: r * groups].reshape(r, groups)
        all_sums = self.sums[:, :r, :groups]
        # q: the whole groups each row takes off the tables, which stop
        # before the group that holds a terminal step
        q = lens // g
        for k, c in ring.constant:
            if c < 0:
                np.minimum(q, cur[:, k] // -c // g, out=q)
        for k, (total, low, _), sums in zip(ring.varying, ring.tables, all_sums):
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
            return np.where(whole, ufunc.reduceat(self.ends[: r * groups + 1], bounds)[::2], 0)

        for k, (_, _, high), sums in zip(ring.varying, ring.tables, all_sums):
            high.take(codes, out=ends, mode="clip")
            ends += sums  # the highest value inside each group, less cur
            np.maximum(peak[:, k], cur[:, k] + over_whole(np.maximum), out=peak[:, k])
            cur[:, k] += np.where(whole, sums[at, q - 1], 0)
        for j, table in enumerate(ring.passes, 1):
            table.take(codes, out=ends, mode="clip")
            passed[:, j] += over_whole(np.add)
        advance = q * g
        passed[:, 0] += advance
        for k, c in ring.constant:
            cur[:, k] += c * advance
            if c > 0:
                np.maximum(peak[:, k], cur[:, k], out=peak[:, k])

        # the group past the tables, at most one a row: its steps up to the
        # terminal step, the cap or a short block's end, read off the ring's
        # per-step tables of the group's index
        ended = np.zeros(r, dtype=bool)
        part = np.flatnonzero(advance < lens)
        if len(part):
            vals, left = cur[part], np.minimum(lens[part] - advance[part], g)
            table = ring.group_steps[codes[part, q[part]]]  # per row, step and column
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
        out = self.rows[gone]
        first, taken = out[:, 3 * d + 1], out[:, 3 * d + 2]
        k = ring.split[1] if ring.split else 0  # the counter whose change splits two branches
        tally = ring.tally(first, taken, out[:, k] - out[:, 2 * d + k], out[:, 3 * d + 3 :]).tolist()
        fields = zip(gone.tolist(), ended[gone].tolist(), out.tolist(), tally)
        for i, end, row, used in fields:
            vals, tops, walked = row[:d], row[d : 2 * d], row[3 * d]
            key, base, rtype, walk = self.runs[i]
            counts = {tid: c for tid, c in zip(ring.tids, used) if c}
            for tid, c in base.items() if base else ():
                counts[tid] = counts.get(tid, 0) + c
            if walk is not None:  # the phase at admission, plus the steps taken here
                walk.state = ring.states[(row[3 * d + 1] + row[3 * d + 2]) % ring.period]
                walk.cur, walk.peak, walk.steps, walk.counts = vals, tops, walked, TallyCounter(counts)
                self.held -= 1
            if end or walked == self.cap:
                stats = TrajectoryStats(end, walked, tuple(tops), counts, rtype)
            else:  # a counter of a run `_run` handed over reached 2**53
                stats = _run(self.res, walk, _DrawStream(self.gens[i], self.left[i]), self.cap, False)
            if walk is None and self.gens[i] is not None:
                self.streams.close(self.gens[i])
            done.append((key, stats))
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

    The kernel steps only the states that are not hand-off states (states on
    a ring and in deterministic regions): a run leaves it on entering one.
    """

    def __init__(self, res: _Resolved, recs: dict[str, _StateRec]):
        index = {name: i for i, name in enumerate(recs)}
        width = max(len(rec.tids) for rec in recs.values())
        size = len(recs) * width
        self.index = index
        self.width = width
        self.size = size
        self.names = list(recs)
        hands = {name: res.hands_off(name) for name in recs}
        stepped = [rec for name, rec in recs.items() if not hands[name]]
        # per key: its state, the state's record, and the branch it takes
        keys = [(name, rec, min(k, len(rec.tids) - 1)) for name, rec in recs.items() for k in range(width)]
        targets = [rec.targets[b] for _, rec, b in keys]
        self.tids = [rec.tids[b] for _, rec, b in keys]
        self.mids = [res.owner.get(target) for target in targets]
        self.nxt = np.array([index[target] * width for target in targets], dtype=np.int64)  # key of the target state
        # one column per branch past the first, at every key of a state (only
        # state keys are read)
        pad = (MASK64,) * (width - 1)
        ths = np.array([(rec.thresholds + pad)[: width - 1] for rec in recs.values()], dtype=np.uint64)
        self.thresholds = list(ths.T.repeat(width, axis=1))
        updates = np.array([rec.updates[b] for _, rec, b in keys], dtype=np.int64).reshape(size, res.dimension).T
        # the target lies on a ring or in a deterministic region
        hand = [hands[target] for target in targets]
        # the target may extend the realized type
        enters = [mid is not None and mid != res.owner.get(name) for (name, _, _), mid in zip(keys, self.mids)]
        self.hand, self.enters = np.array(hand, dtype=bool), np.array(enters, dtype=bool)
        # whether some key hands a run off (the kernel's start state is
        # stepped, so a stepped key leads into every hand-off state), and
        # whether some stepped key may extend the realized type; where none
        # does, the kernel skips that scan of a block's keys
        self.hands_off = any(hand)
        self.enters_class = any(e for e, (name, _, _) in zip(enters, keys) if not hands[name])
        # where the stepped states form no cycle (lasso tails), a run leaves
        # them within as many waves as the longest path through them has
        # states (`depth`), else None: peel off the stepped states whose
        # targets are all hand-off states, one layer a wave
        on, depth = {name for name in recs if not hands[name]}, 0
        while on and depth is not None:
            ends = {name for name in on if on.isdisjoint(recs[name].targets)}
            on -= ends
            depth = depth + 1 if ends else None
        self.depth: Optional[int] = depth
        # the counters some stepped branch moves, those it lowers first, and
        # per such counter the update of each key; a counter no stepped branch
        # moves keeps its value and peak in the kernel
        moves = [u for rec in stepped for u in rec.updates]
        lowers = [k for k in range(res.dimension) if any(u[k] < 0 for u in moves)]
        raises = [k for k in range(res.dimension) if k not in lowers and any(u[k] for u in moves)]
        self.moved = lowers + raises
        self.lowered = len(lowers)
        self.updates = updates[self.moved]
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

    def handed(self, keys: np.ndarray) -> np.ndarray:
        """Per row of a block's keys (wave, row), the first wave whose
        branch hands the run off, or the block's width if none does."""
        hand = self.hand[keys]
        return np.where(hand.any(axis=0), hand.argmax(axis=0), len(keys))

    def entered(self, keys: np.ndarray, live: np.ndarray) -> Iterator[tuple[int, int]]:
        """The (wave, row) pairs of a block whose branch may extend the
        realized type, among the live ones, in wave order."""
        return zip(*(a.tolist() for a in np.nonzero(self.enters[keys] & live)))


def _reachable(res: _Resolved, start: str, n: int, cap: int) -> Optional[dict[str, _StateRec]]:
    """The records of the states reachable from `start`, or None when the
    batch must run on the scalar path: a reachable state does not resolve
    under the strategy, or a counter could reach 2**53 within the cap."""
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
    return recs


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
    # a block's waves: no more than the stepped states' depth, within which
    # every run leaves them, so that no run is left after a shorter block
    span = width if t.depth is None else min(width, t.depth)
    wave = np.arange(span)[:, None]  # a block's wave index, against (wave, row) arrays
    start_mid = res.owner.get(start)
    start_type = () if start_mid is None else (start_mid,)
    streams = _Streams(seed, n)
    out: list[Optional[TrajectoryStats]] = [None] * runs
    # the runs in flight sit in rows 0..rows-1 of slot lists and arrays made
    # once; a run that leaves gives its row to the last one in flight, and a
    # run admitted takes the next free row
    slots = min(MAX_IN_FLIGHT, runs)
    row = np.arange(slots)
    row_keys = row * t.size  # each row's offset in a flat (row, key) array
    run_ids = [0] * slots
    gens: list[Optional[np.random.Philox]] = [None] * slots
    rtypes: list[tuple[str, ...]] = [()] * slots
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
    steppers: dict[_Ring, _Stepper] = {}
    rows = admitted = 0
    while admitted < runs or rows:
        if phase == 0:
            for i in range(rows):
                draws[i] = gens[i].random_raw(RUN_DRAWS * width)
        new = min(slots - rows, runs - admitted)
        fresh = slice(rows, rows + new)
        run_ids[fresh] = range(admitted, admitted + new)
        rtypes[fresh] = [start_type] * new
        tail, k = draws[:, phase * width :], (RUN_DRAWS - phase) * width
        for i, r in zip(range(rows, rows + new), run_ids[fresh]):
            gens[i] = bg = streams.open(r)
            tail[i] = bg.random_raw(k)
        sk_all[fresh] = t.index[start] * t.width
        cur_all[fresh] = peak_all[fresh] = n
        steps_all[fresh] = counts_all[fresh] = 0
        admitted += new
        rows += new
        cur, peak, steps, counts = cur_all[:rows], peak_all[:rows], steps_all[:rows], counts_all[:rows]

        # the waves: branch keys in order, one word per run and wave
        first = phase * width
        phase = (phase + 1) % RUN_DRAWS
        words = draws[:rows, first : first + span].T
        keys = np.empty((span, rows), dtype=np.int64)
        sk = sk_all[:rows]
        for j in range(span):
            keys[j] = t.branch(sk, words[j])
            sk = t.nxt[keys[j]]
        sk_all[:rows] = sk

        # per counter a stepped branch moves, its value after each wave
        # (counter, wave, row); where each row leaves the block: the step
        # that terminates it (only a counter some stepped branch lowers can
        # go negative), enters a ring or a deterministic region
        # (only if some stepped branch leads into one), or reaches the cap,
        # whichever comes first
        pos = t.updates.take(keys, axis=1)
        np.cumsum(pos, axis=1, out=pos)
        pos += cur[:, t.moved].T[:, None]
        neg = (pos[: t.lowered] < 0).any(axis=0)  # an OR of the lowered counters' masks
        term_at = np.where(neg.any(axis=0), neg.argmax(axis=0), span)
        stop = np.minimum(term_at, cap - 1 - steps)
        if t.hands_off:
            np.minimum(stop, t.handed(keys), out=stop)
        taken = np.minimum(stop + 1, span)
        terminated = (term_at < span) & (term_at == stop)
        live = wave < taken - terminated  # configurations reached, terminal one excluded

        cur[:, t.moved] = pos[:, taken - 1, row[:rows]].T
        steps += taken
        flat = (keys + row_keys[:rows])[wave < taken]
        counts += np.bincount(flat, minlength=rows * t.size).reshape(rows, t.size)
        high = np.where(live, pos, 0).max(axis=1)  # live counters and peaks are all >= 0
        peak[:, t.moved] = np.maximum(peak[:, t.moved], high.T)
        if t.enters_class:
            for j, i in t.entered(keys, live):
                mid = t.mids[keys[j, i]]
                if not rtypes[i] or rtypes[i][-1] != mid:
                    rtypes[i] += (mid,)

        leaving = stop < span
        if not leaving.any():
            continue
        # the leaving rows' statistics, read out of the arrays at once
        gone = np.flatnonzero(leaving)
        tally = np.add.reduceat(counts[gone], t.tid_starts, axis=1).tolist()
        fields = zip(gone.tolist(), terminated[gone].tolist(), steps[gone].tolist(), peak[gone].tolist(), tally)
        entering: dict[_Ring, list[tuple[int, int, dict[str, int]]]] = {}  # (row, phase, counts) by ring
        for i, ended, walked, peaks, used in fields:
            used = {tid: c for tid, c in zip(t.tid_names, used) if c}
            if ended or walked == cap:
                out[run_ids[i]] = TrajectoryStats(ended, walked, tuple(peaks), used, rtypes[i])
                streams.close(gens[i])
                continue
            # the run entered a hand-off state on its last step here
            name = t.names[t.nxt[keys[stop[i], i]] // t.width]
            if res.region(name) is not None:
                walk = _Walk(name, cur[i].tolist(), peaks, TallyCounter(used), list(rtypes[i]), walked)
                out[run_ids[i]] = _closed_form(res, walk, cap)
                streams.close(gens[i])
                continue
            streams.close(gens[i])  # the stepper re-keys one where the run's words run out
            place, ring = res.ring(name)
            entering.setdefault(ring, []).append((i, place, used))
        for ring, arrivals in entering.items():
            # the runs that entered a ring take rows of its stepper, which
            # finishes them, first on the words drawn here and not used
            stepper = steppers.get(ring)
            if stepper is None:
                stepper = steppers[ring] = _Stepper(res, ring, cap, runs, streams)
            at = [i for i, _, _ in arrivals]
            left = [draws[i, first + j + 1 :].copy() for i, j in zip(at, stop[at].tolist())]
            state = np.column_stack([cur[at], peak[at], steps[at], [place for _, place, _ in arrivals]])
            entries = [(run_ids[i], used, rtypes[i], None) for i, _, used in arrivals]
            _finish(stepper.enter(entries, [None] * len(at), left, state), out)
        rows -= len(gone)
        holes = gone[gone < rows]
        movers = rows + np.flatnonzero(~leaving[rows:])
        for a in (sk_all, cur_all, peak_all, steps_all, counts_all, draws):
            a[holes] = a[movers]
        for h, m in zip(holes.tolist(), movers.tolist()):
            run_ids[h], gens[h], rtypes[h] = run_ids[m], gens[m], rtypes[m]
    for stepper in steppers.values():
        _finish(stepper.drain(), out)
    return out


def _step_batch(
    res: _Resolved, ring: _Ring, phase: int, n: int, runs: int, seed: int, cap: int, start: str
) -> list[TrajectoryStats]:
    """Run a batch whose start state lies on a ring, at phase `phase`, on one
    stepper, admitting runs into every free row before each round."""
    stepper = _Stepper(res, ring, cap, runs, _Streams(seed, n))
    mid = res.owner.get(start)
    rtype = () if mid is None else (mid,)
    out: list[Optional[TrajectoryStats]] = [None] * runs
    admitted = 0
    while admitted < runs or stepper.count:
        new = range(admitted, min(runs, admitted + stepper.size - stepper.count))
        stepper.start(new, n, rtype, phase)
        admitted = new.stop
        _finish(stepper._round(), out)
    return out


def _finish(done: list[_Done], out: list) -> None:
    """Record the runs a stepper finished."""
    for key, stats in done:
        out[key] = stats


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
    _resolved: Optional[_Resolved] = None,
) -> list[TrajectoryStats]:
    """Sample `runs` independent trajectories, indexed by run. Run `r` equals
    `simulate_one(..., run=r)` whichever path the batch takes. `_resolved`,
    if given, is `m` resolved under `strategy` already, with the tables it
    has built."""
    if n < 0:
        raise ValueError("start value n must be >= 0")
    if not 1 <= runs <= 1 << 32:
        raise ValueError(f"runs must be in 1..2**32, got {runs}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    _check_seed(seed)
    start = _init_state(m, init_state)
    res = _Resolved(m, strategy) if _resolved is None else _resolved
    if _vectorized and res.region(start) is not None:
        # every run is the same run, and draws no word; each owns its counts
        run = _closed_form(res, _start(res, n, start), max_steps)
        fields, counts = (run.terminated, run.steps, run.max_counter), run.transition_counts
        return [TrajectoryStats(*fields, dict(counts), run.realized_type) for _ in range(runs)]
    recs = _reachable(res, start, n, max_steps) if _vectorized else None
    if recs is not None:
        on = res.ring(start)
        if on is not None:
            phase, ring = on
            return _step_batch(res, ring, phase, n, runs, seed, max_steps, start)
        return _lockstep(res, _Tables(res, recs), n, runs, seed, max_steps, start)
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
    res = _Resolved(m, strategy)  # its branch and ring tables serve every n
    for n in n_list:
        stats = simulate_many(
            m,
            n,
            runs,
            seed=seed,
            strategy=strategy,
            max_steps=caps[n],
            init_state=init_state,
            _resolved=res,
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
