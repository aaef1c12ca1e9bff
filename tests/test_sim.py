"""Simulator tests: deterministic trajectories, path equivalence, statistics."""

import json
import time
import tracemalloc
from collections import Counter as TallyCounter
from fractions import Fraction
from math import isclose

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import load_doc
from oracles import expected_update
from strategies import random_models
from vass_asym import sim
from vass_asym.model import IncompleteStrategy, parse_vass
from vass_asym.sim import (
    DegenerateInput,
    TrajectoryStats,
    ZeroWitness,
    _cumulative_thresholds,
    estimate_tails,
    fit_exponent,
    multicycle_strategy_from_x,
    simulate_many,
    simulate_one,
)

F = Fraction
ALTERNATE = {"p": "t_pq", "q": "t_qp"}  # the zero cycle's one strategy


def vass(kinds, transitions, dimension=1):
    """A model of the states `kinds` (name -> kind) and the transitions
    (id, from, to, update, prob or None)."""
    return parse_vass(
        {
            "dimension": dimension,
            "states": [{"name": name, "kind": kind} for name, kind in kinds.items()],
            "transitions": [
                {"id": tid, "from": a, "to": b, "update": list(u), **({} if p is None else {"prob": str(p)})}
                for tid, a, b, u, p in transitions
            ],
        }
    )


def coin_zero_cycle():
    """zero_cycle_2state with a coin at q: back to p, or stay at q."""
    return vass(
        {"p": "prob", "q": "prob"},
        [("t_pq", "p", "q", [1], 1), ("t_qp", "q", "p", [-1], F(1, 2)), ("t_qq", "q", "q", [0], F(1, 2))],
    )


def two_loop_choice():
    """One controlled state with +1 and -1 self-loops."""
    return parse_vass(
        json.dumps(
            {
                "dimension": 1,
                "states": [{"name": "s", "kind": "nondet"}],
                "transitions": [
                    {"id": "t_a", "from": "s", "to": "s", "update": [1]},
                    {"id": "t_b", "from": "s", "to": "s", "update": [-1]},
                ],
            }
        )
    )


# ---------------------------------------------------------------------------
# deterministic single trajectories
# ---------------------------------------------------------------------------


def test_decreasing_loop_exact_trajectory(dec_loop):
    st = simulate_one(dec_loop, 5, strategy={"p": "t_dec"})
    assert st == TrajectoryStats(
        terminated=True,
        steps=6,
        max_counter=(5,),
        transition_counts={"t_dec": 6},
        realized_type=("M1",),
    )


def test_increasing_loop_hits_cap(inc_loop):
    st = simulate_one(inc_loop, 3, strategy={"p": "t_inc"}, max_steps=10)
    assert not st.terminated
    assert st.steps == 10
    assert st.max_counter == (13,)
    assert st.transition_counts == {"t_inc": 10}
    assert st.realized_type == ("M1",)


def test_zero_cycle_oscillates_at_zero(zero_cycle):
    st = simulate_one(
        zero_cycle,
        0,
        strategy={"p": "t_pq", "q": "t_qp"},
        max_steps=101,
    )
    assert not st.terminated
    assert st.steps == 101
    assert st.max_counter == (1,)
    assert st.transition_counts == {"t_pq": 51, "t_qp": 50}
    assert st.realized_type == ("M1",)


def test_walk_peak_excludes_terminal_configuration(walk):
    # from 0 the first down-step terminates immediately: the peak is the
    # start value, never the terminal -1
    for run in range(50):
        st = simulate_one(walk, 0, run=run, seed=7)
        assert st.terminated
        assert st.max_counter[0] >= 0


def test_default_init_state_is_least_name(pump):
    st = simulate_one(pump, 1, strategy={"a": "a_q", "e": "e_e"}, max_steps=50)
    assert st.realized_type[0] == "M1"  # started in a's class


def test_unknown_init_state_rejected(walk):
    with pytest.raises(ValueError):
        simulate_one(walk, 1, init_state="nope")
    with pytest.raises(ValueError):
        simulate_one(walk, -1)
    with pytest.raises(ValueError):
        simulate_one(walk, 1, max_steps=0)


# ---------------------------------------------------------------------------
# path equivalence and determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,seed", [(0, 0), (3, 1), (7, 2), (20, 3)])
def test_fast_and_slow_paths_identical_on_walk(walk, n, seed):
    for run in range(8):
        fast = simulate_one(walk, n, run=run, seed=seed, max_steps=5000)
        slow = simulate_one(
            walk, n, run=run, seed=seed, max_steps=5000, _vectorized=False
        )
        assert fast == slow


def test_fast_and_slow_paths_identical_on_pump(pump):
    strat = {"a": "a_q", "c": "c_c", "e": "e_e"}
    for run in range(10):
        fast = simulate_one(pump, 4, run=run, seed=11, strategy=strat, max_steps=3000)
        slow = simulate_one(
            pump, 4, run=run, seed=11, strategy=strat, max_steps=3000, _vectorized=False
        )
        assert fast == slow


def test_fast_path_spans_multiple_blocks(inc_loop, closed_forms):
    # 10000 steps > one 4096 block: block chaining must stay consistent. Two
    # +1 self-loops take the block path; inc_loop's one takes the closed form
    for m, strategy in ((self_loop([(1,), (1,)]), None), (inc_loop, {"p": "t_inc"})):
        fast = simulate_one(m, 0, strategy=strategy, max_steps=10000)
        slow = simulate_one(m, 0, strategy=strategy, max_steps=10000, _vectorized=False)
        assert fast == slow
        assert fast.steps == 10000 and fast.max_counter == (10000,)
    assert closed_forms == ["p"]


def test_block_path_hands_counters_past_exact_range_to_the_scalar_path(monkeypatch):
    # a run handed to the block path from 2**53 or above stays on the scalar
    # path; one that starts below and reaches 2**53 within the cap leaves its
    # row for the scalar path in the round that crosses it
    m = self_loop([(1,), (3,)])
    scalar = []  # the steps at which the scalar path takes a run on
    inner = sim._advance

    def recording(res, walk, *args):
        scalar.append(walk.steps)
        return inner(res, walk, *args)

    monkeypatch.setattr(sim, "_advance", recording)
    for n, taken_on in ((2**53 - 5000, [0, sim.BLOCK]), (2**53, [0, 0]), (2**60, [0, 0])):
        scalar.clear()
        fast = simulate_one(m, n, seed=4, max_steps=3 * sim.BLOCK)
        assert scalar == taken_on
        assert fast == simulate_one(m, n, seed=4, max_steps=3 * sim.BLOCK, _vectorized=False)
        assert fast.max_counter[0] > 2**53 and fast.steps == 3 * sim.BLOCK


def test_simulate_many_matches_simulate_one(walk):
    batch = simulate_many(walk, 2, 12, seed=5, max_steps=2000)
    for r, st in enumerate(batch):
        assert st == simulate_one(walk, 2, run=r, seed=5, max_steps=2000)


def test_trajectory_stats_hold_python_ints(walk, pump):
    # the benchmark digests reprs, and reports serialize the values
    batches = [
        simulate_many(walk, 5, 40, seed=1, max_steps=3 * sim.BLOCK),
        simulate_many(pump, 3, 40, seed=1, strategy=pump_leave(3), max_steps=300),
    ]
    for st in (st for batch in batches for st in batch):
        values = (st.steps, *st.max_counter, *st.transition_counts.values())
        assert type(st.terminated) is bool and all(type(v) is int for v in values), st


def test_runs_differ_across_run_index_and_seed(walk):
    a = simulate_one(walk, 6, run=0, seed=0, max_steps=4000)
    b = simulate_one(walk, 6, run=1, seed=0, max_steps=4000)
    c = simulate_one(walk, 6, run=0, seed=1, max_steps=4000)
    assert len({a.steps, b.steps, c.steps}) > 1 or not (a == b == c)


# ---------------------------------------------------------------------------
# lockstep kernel against the scalar reference
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_batches(monkeypatch):
    """Counts the batches the lockstep kernel runs."""
    calls = []
    inner = sim._lockstep

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(sim, "_lockstep", counting)
    return calls


@pytest.fixture
def closed_forms(monkeypatch):
    """The states in which the closed form takes runs over, one per call (a
    deterministic batch makes one call)."""
    calls = []
    inner = sim._closed_form

    def counting(res, walk, cap):
        calls.append(walk.state)
        return inner(res, walk, cap)

    monkeypatch.setattr(sim, "_closed_form", counting)
    return calls


def assert_matches_reference(m, n, runs, **kw):
    batch = simulate_many(m, n, runs, **kw)
    assert len(batch) == runs
    for r, stats in enumerate(batch):
        assert stats == simulate_one(m, n, run=r, _vectorized=False, **kw), r
    return batch


def pump_leave(n):
    leave = F(1, n * n)
    return {"a": {"a_b": 1 - leave, "a_q": leave}, "e": "e_e"}


def test_kernel_matches_reference_on_pump(pump, kernel_batches):
    assert_matches_reference(pump, 4, 40, seed=11, strategy=pump_leave(4), max_steps=4 * 4**4)
    assert_matches_reference(pump, 6, 70, seed=2, strategy={"a": "a_b"}, max_steps=36)
    assert_matches_reference(pump, 3, 30, seed=5, strategy={"a": "a_q", "e": "e_e"}, max_steps=300)
    # runs spanning several kernel blocks
    assert_matches_reference(pump, 10, 100, seed=7, strategy={"a": "a_b"}, max_steps=400)
    assert len(kernel_batches) == 4


def padded_coins():
    """Coins at p (three branches), q (two) and r (one): with width 3, q's
    and r's key rows are padded."""
    return vass(
        dict.fromkeys("pqr", "prob"),
        [
            ("pp", "p", "p", [0], F(1, 3)),
            ("pq", "p", "q", [0], F(1, 3)),
            ("pr", "p", "r", [0], F(1, 3)),
            ("qp", "q", "p", [0], F(1, 2)),
            ("qq", "q", "q", [0], F(1, 2)),
            ("rp", "r", "p", [0], 1),
        ],
    )


def test_kernel_tables_pick_as_scalar_path():
    res = sim._Resolved(padded_coins(), None)
    tables = sim._lockstep_tables(res, "p", 0, 100)
    assert tables.width == 3
    for name, i in tables.index.items():
        rec = res.resolve(name)
        words = [0, sim.MASK64 - 1, sim.MASK64]
        words += [int(th) + e for th in rec.thresholds for e in (-1, 0)]
        for u in words:
            key = tables.branch(np.array([i * tables.width]), np.array([u], dtype=np.uint64))
            assert tables.tids[key[0]] == rec.tids[rec.pick(u)]


def test_kernel_counts_pad_keys_under_their_transition(monkeypatch, kernel_batches):
    # every word is 2**64 - 1, the one draw that takes a pad key: p picks
    # pr, and r's one branch rp sits on r's last pad key
    class Top:
        @staticmethod
        def random_raw(k):
            return np.full(k, sim.MASK64, dtype=np.uint64)

    monkeypatch.setattr(sim, "_generator", Top)
    cap = 2 * sim.RUN_BUFFER + 1
    batch = assert_matches_reference(padded_coins(), 0, 3, max_steps=cap)
    assert batch[0].transition_counts == {"pr": cap // 2 + 1, "rp": cap // 2}
    assert len(kernel_batches) == 1


def test_kernel_matches_reference_on_zero_cycle(zero_cycle, kernel_batches, closed_forms):
    # the alternating strategy makes the zero cycle a deterministic region
    batch = assert_matches_reference(zero_cycle, 2, 5, seed=4, strategy=ALTERNATE, max_steps=301)
    assert (kernel_batches, closed_forms) == ([], ["p"])
    assert {(st.terminated, st.steps) for st in batch} == {(False, 301)}
    # with a coin at q the kernel steps it; every run reaches the cap in the
    # same wave
    batch = assert_matches_reference(coin_zero_cycle(), 2, 5, seed=4, max_steps=301)
    assert len(kernel_batches) == 1
    assert {(st.terminated, st.steps) for st in batch} == {(False, 301)}


def test_kernel_block_boundary_and_runs_ending_together(kernel_batches, closed_forms):
    # a transient chain of RUN_BUFFER +1 steps enters the class {x, y} on the
    # last wave of the first kernel block, at the only peak of the run; the
    # class then counts down to termination in the same wave for every run.
    # A second branch at y, a self-loop no draw here takes, keeps the chain
    # on the kernel; without it the chain is a deterministic region
    chain = [f"s{i:02d}" for i in range(sim.RUN_BUFFER)]
    names = chain + ["x", "y"]
    transitions = [(f"t_{a}", a, b, [1], 1) for a, b in zip(names, names[1:])]
    transitions[-1] = ("t_x", "x", "y", [-1], 1)
    counts = {f"t_{a}": 1 for a in chain} | {"t_x": 65, "t_yx": 64}
    expected = TrajectoryStats(True, sim.RUN_BUFFER + 129, (sim.RUN_BUFFER,), counts, ("M1",))
    for at_y in ([("t_yx", "y", "x", [0], 1 - RARE), ("t_yy", "y", "y", [0], RARE)], [("t_yx", "y", "x", [0], 1)]):
        m = vass(dict.fromkeys(names, "prob"), transitions + at_y)
        batch = assert_matches_reference(m, 0, 3, seed=1, max_steps=1000)
        assert all(stats == expected for stats in batch)
    assert len(kernel_batches) == 1 and closed_forms == ["s00"]


def test_kernel_edge_cases(pump, walk, zero_cycle, kernel_batches, closed_forms):
    assert_matches_reference(coin_zero_cycle(), 0, 4, max_steps=1)
    assert_matches_reference(pump, 0, 6, strategy=pump_leave(2), max_steps=50)
    assert_matches_reference(pump, 5, 6, strategy=pump_leave(2), max_steps=1)
    assert len(kernel_batches) == 3
    # a start state whose two or more branches are all self-loops goes
    # straight to the block path, one in a deterministic region to the
    # closed form
    closed_forms.clear()
    assert_matches_reference(walk, 4, 6, seed=3, max_steps=400)
    assert_matches_reference(pump, 4, 6, init_state="f", max_steps=9)
    assert_matches_reference(zero_cycle, 0, 4, strategy=ALTERNATE, max_steps=1)
    assert_matches_reference(pump, 4, 6, strategy={"c": "c_c"}, init_state="c", max_steps=9)
    assert len(kernel_batches) == 3 and closed_forms == ["p", "c"]


def test_kernel_incomplete_strategy_raises_as_reference(pump, kernel_batches):
    strat = {"a": "a_q"}  # e is reachable and has no entry
    with pytest.raises(IncompleteStrategy) as batch_err:
        simulate_many(pump, 2, 8, seed=3, strategy=strat, max_steps=100)
    with pytest.raises(IncompleteStrategy) as ref_err:
        for r in range(8):
            simulate_one(pump, 2, run=r, seed=3, strategy=strat, max_steps=100, _vectorized=False)
    assert str(batch_err.value) == str(ref_err.value)
    # no run takes a step from e within two steps, so nothing is raised
    assert_matches_reference(pump, 2, 8, seed=3, strategy=strat, max_steps=2)
    assert not kernel_batches


def test_kernel_declines_counters_beyond_exact_range(pump, kernel_batches):
    batch = assert_matches_reference(pump, 2**62, 3, strategy={"a": "a_b"}, max_steps=20)
    assert not kernel_batches
    assert batch[0].max_counter[1] > 2**62


@st.composite
def models_with_strategies(draw):
    m = draw(random_models())
    strategy = {}
    for s in m.nondet_states():
        tids = [t.tid for t in m.out(s.name)]
        chosen = draw(st.lists(st.sampled_from(tids), min_size=1, unique=True))
        if len(chosen) == 1 and draw(st.booleans()):
            strategy[s.name] = chosen[0]
        else:
            weights = [draw(st.integers(1, 4)) for _ in chosen]
            strategy[s.name] = {tid: F(w, sum(weights)) for tid, w in zip(chosen, weights)}
    init = draw(st.sampled_from(m.state_names()))
    return m, strategy, init


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    models_with_strategies(),
    st.integers(0, 6),
    st.integers(1, 70),
    st.integers(1, 150),
    st.integers(0, 2**32),
)
def test_kernel_matches_reference_on_random_models(case, n, runs, cap, seed):
    m, strategy, init = case
    assert_matches_reference(m, n, runs, seed=seed, strategy=strategy, max_steps=cap, init_state=init)


# ---------------------------------------------------------------------------
# self-loop block path against the scalar reference
# ---------------------------------------------------------------------------

RARE = F(1, 2**60)  # a branch probability no draw in these tests reaches


def self_loop(updates, probs=None):
    """One probabilistic state whose branches t0, t1, ... are all self-loops
    with the given updates, uniform unless `probs` is given."""
    probs = probs or [F(1, len(updates))] * len(updates)
    return parse_vass(
        json.dumps(
            {
                "dimension": len(updates[0]),
                "states": [{"name": "s", "kind": "prob"}],
                "transitions": [
                    {"id": f"t{i}", "from": "s", "to": "s", "update": list(u), "prob": str(p)}
                    for i, (u, p) in enumerate(zip(updates, probs))
                ],
            }
        )
    )


def stepper_of(m, cap, size=sim.ROWS):
    """A stepper of `size` rows for state `s` of `m` with step cap `cap`."""
    res = sim._Resolved(m, None)
    return sim._Stepper(res, res.resolve("s"), cap, size)


def step_rows(stepper, rows):
    """Run `rows`, pairs of (words, start counters), as runs on `stepper`;
    run i's stream is its words, then `Philox(key=i)`. Each run must equal
    the scalar path on the same stream, and its final counters the start
    plus its transitions' updates. Returns each run's statistics and walk,
    in row order."""
    rec, cap, m = stepper.rec, stepper.cap, stepper.res.m
    walks = [sim._Walk("s", list(start), list(start), TallyCounter(), ["M1"]) for _, start in rows]
    done = []
    for i, ((words, _), walk) in enumerate(zip(rows, walks)):
        done += stepper.add(i, walk, sim._DrawStream(np.random.Philox(key=i), words))
    done += stepper.drain()
    stats = {key: st for key, st, _ in done}
    assert sorted(stats) == list(range(len(rows)))
    for i, (words, start) in enumerate(rows):
        walk = sim._Walk("s", list(start), list(start), TallyCounter(), ["M1"])
        stream = sim._DrawStream(np.random.Philox(key=i), words)
        assert stats[i] == sim._run(sim._Resolved(m, None), walk, stream, cap, False), i
        counts = stats[i].transition_counts
        moved = [sum(counts.get(t, 0) * u[k] for t, u in zip(rec.tids, rec.updates)) for k in range(len(start))]
        assert walks[i].cur == [c + d for c, d in zip(start, moved)]
    return [(stats[i], walks[i]) for i in range(len(rows))]


def test_block_path_picks_as_scalar_path():
    # two branches take the one-bit codes, four the two-bit codes; every word
    # is a one-step run, and one round steps up to ROWS of them
    for m in (
        self_loop([(-1, 2), (1, 0)], [F(1, 3), F(2, 3)]),
        self_loop([(-1,), (0,), (1,), (2,)], [F(1, 3), F(1, 6), F(1, 4), F(1, 4)]),
    ):
        rec = sim._Resolved(m, None).resolve("s")
        words = [0, sim.MASK64 - 1, sim.MASK64]
        words += [th + e for th in rec.thresholds for e in (-1, 0, 1)]
        rows = [(np.array([u], dtype=np.uint64), [5] * m.dimension) for u in words]
        for u, (st, walk) in zip(words, step_rows(stepper_of(m, 1), rows)):
            i = rec.pick(u)
            assert (st.steps, st.terminated) == (1, False)
            assert st.transition_counts == {rec.tids[i]: 1}
            assert walk.cur == [5 + c for c in rec.updates[i]]


def test_block_path_many_branches():
    m3 = self_loop([(-1, 2), (0, -1), (2, 0)], [F(1, 2), F(1, 4), F(1, 4)])
    m4 = self_loop([(-2,), (-1,), (1,), (3,)])
    ends = set()
    for m in (m3, m4):
        for n in (0, 5, 40):
            batch = assert_matches_reference(m, n, 6, seed=n, max_steps=5 * sim.BLOCK)
            ends |= {(st.terminated, st.steps > sim.BLOCK) for st in batch}
    assert ends == {(True, False), (True, True), (False, True)}


@pytest.mark.parametrize("n", [0, sim.BLOCK - 1, sim.BLOCK, 2 * sim.BLOCK - 1])
def test_block_path_terminal_step_on_varying_counter(n):
    # counter 1 goes negative first, at block index n % BLOCK; t1 is never
    # drawn, so counter 0 and counter 1 vary but step by +1 and -1
    m = self_loop([(1, -1, 2), (3, -2, 2)], [1 - RARE, RARE])
    rec = sim._Resolved(m, None).resolve("s")
    assert [k for k, _ in rec.varying] == [0, 1] and rec.constant == [(2, 2)]
    batch = assert_matches_reference(m, n, 2, seed=1, max_steps=3 * sim.BLOCK)
    # peaks exclude the terminal configuration, the closed-form counter's too
    expected = TrajectoryStats(True, n + 1, (2 * n, n, 3 * n), {"t0": n + 1}, ("M1",))
    assert batch == [expected, expected]


@pytest.mark.parametrize("n", [0, sim.BLOCK - 1, sim.BLOCK, 2 * sim.BLOCK - 1])
def test_block_path_terminal_step_on_constant_counter(n):
    # counter 2 steps by -1 on every branch and goes negative first, at
    # block index n % BLOCK; both branches are drawn
    m = self_loop([(1, 3, -1), (2, 0, -1)])
    rec = sim._Resolved(m, None).resolve("s")
    assert [k for k, _ in rec.varying] == [0, 1] and rec.constant == [(2, -1)]
    batch = assert_matches_reference(m, n, 3, seed=2, max_steps=3 * sim.BLOCK)
    for st in batch:
        assert st.terminated and st.steps == n + 1 and st.max_counter[2] == n
        assert sum(st.transition_counts.values()) == n + 1


@pytest.mark.parametrize("cap", [sim.BLOCK - 1, sim.BLOCK, sim.BLOCK + 1])
def test_block_path_caps_around_block_size(walk, cap):
    assert_matches_reference(walk, 30, 8, seed=4, max_steps=cap)
    # counter 1 goes negative on step n + 1: at the cap, then just past it
    m = self_loop([(1, -1), (-1, -1)])
    (last,) = assert_matches_reference(m, cap - 1, 1, max_steps=cap)
    (past,) = assert_matches_reference(m, cap, 1, max_steps=cap)
    assert (last.terminated, last.steps) == (True, cap)
    assert (past.terminated, past.steps) == (False, cap)
    assert sum(past.transition_counts.values()) == cap


def test_block_path_single_branch(closed_forms):
    # a single-branch self-loop is a deterministic region, which the closed
    # form finishes; the block path takes its twin of two equal branches
    cap = 2 * sim.BLOCK + 1
    up, down = (2, 0), (1, -1)
    (st,) = assert_matches_reference(self_loop([up]), 3, 1, max_steps=cap)
    assert st == TrajectoryStats(False, cap, (3 + 2 * cap, 3), {"t0": cap}, ("M1",))
    (st,) = assert_matches_reference(self_loop([down]), 5, 1, max_steps=cap)
    assert st == TrajectoryStats(True, 6, (10, 5), {"t0": 6}, ("M1",))
    assert closed_forms == ["s", "s"]
    (st,) = assert_matches_reference(self_loop([up, up]), 3, 1, max_steps=cap)
    assert (st.terminated, st.steps, st.max_counter) == (False, cap, (3 + 2 * cap, 3))
    (st,) = assert_matches_reference(self_loop([down, down]), 5, 1, max_steps=cap)
    assert (st.terminated, st.steps, st.max_counter) == (True, 6, (10, 5))
    assert closed_forms == ["s", "s"]


def test_block_path_from_zero(walk):
    batch = assert_matches_reference(walk, 0, 40, seed=9, max_steps=3 * sim.BLOCK)
    assert any(st.steps == 1 for st in batch) and any(st.steps > 1 for st in batch)


def test_simulate_many_runs_multi_block_walks_as_simulate_one(walk):
    # runs end inside a block with drawn words left over, which must not
    # carry into the next run on the batch's reused generator
    batch = simulate_many(walk, 40, 10, seed=8, max_steps=5 * sim.BLOCK)
    assert sum(st.steps > sim.BLOCK for st in batch) >= 2
    for r, st in enumerate(batch):
        assert st == simulate_one(walk, 40, run=r, seed=8, max_steps=5 * sim.BLOCK)


def test_stepper_takes_leftover_words_as_one_short_block():
    # a run handed to the block path with L < BLOCK words drawn and not used
    # takes those L words alone, then whole blocks straight from its stream
    left = 100
    words = np.random.Philox(key=7).random_raw(left + 2 * sim.BLOCK)
    bg = np.random.Philox(key=7)
    stepper = stepper_of(self_loop([(-1,), (1,)]), 10**9)
    walk = sim._Walk("s", [10**12], [10**12], TallyCounter(), [])
    assert stepper.add(0, walk, sim._DrawStream(bg, bg.random_raw(left))) == []
    th = stepper.rec.thresholds[0]
    for start, size in ((0, left), (left, sim.BLOCK)):
        assert stepper._draw(1).tolist() == [size]
        assert np.array_equal(stepper.flags[0, :size], words[start : start + size] >= th)
    assert np.array_equal(bg.random_raw(30), words[left + sim.BLOCK : left + sim.BLOCK + 30])


def constant_words(u, size):
    return np.full(size, u, dtype=np.uint64)


def feed_rounds(m, rounds):
    """Run each of `rounds`, lists of rows as for `step_rows`, on one stepper
    with cap BLOCK, one after the other, so row j of a round finds slot j's
    buffers as row j of the round before left them."""
    stepper = stepper_of(m, sim.BLOCK)
    for rows in rounds:
        assert len(rows) < sim.ROWS
        step_rows(stepper, rows)


def test_block_path_short_block_ignores_stale_scratch():
    # after a full block, a short block leaves the buffers' tails stale:
    # all up-steps (a high cumulative sum, every mask set), which would
    # raise the peak and the branch counts if read, or all down-steps (a
    # sum far below the next short block's start counters); rows of
    # different lengths share each round
    walk = self_loop([(-1,), (1,)])
    up, down = constant_words(sim.MASK64, sim.BLOCK), constant_words(0, sim.BLOCK)
    random = np.random.Philox(key=5).random_raw(2 * sim.BLOCK)
    feed_rounds(
        walk,
        [
            [(up, (0,)), (down, (10**6,)), (up, (0,)), (random[: sim.BLOCK], (30,))],
            [
                (down[:100], (200,)),
                (up[:100], (50,)),
                (down[:100], (10,)),  # terminates on its 11th word
                (random[sim.BLOCK : sim.BLOCK + 700], (30,)),
                (up, (0,)),
            ],
        ],
    )


@pytest.mark.parametrize(
    "updates",
    [
        [(-1, 2), (0, -1), (2, 0)],  # three branches: two-bit codes
        [(-1, 1), (1, -2)],  # two branches, two varying counters
        [(-1, 1), (1, 1)],  # a varying and a constant counter
    ],
)
def test_block_path_stale_scratch_many_branches_and_counters(updates):
    m = self_loop(updates)
    first, last = constant_words(0, sim.BLOCK), constant_words(sim.MASK64, sim.BLOCK)
    random = np.random.Philox(key=6).random_raw(3 * sim.BLOCK)
    feed_rounds(
        m,
        [
            [(last, (10**6, 10**6)), (first, (10**6, 10**6)), (random[: sim.BLOCK], (40, 40))],
            [
                (first[:100], (500, 500)),
                (last[:100], (500, 500)),
                (random[sim.BLOCK : sim.BLOCK + 300], (40, 40)),
            ],
            [(random[2 * sim.BLOCK :], (10**6, 10**6)), (last, (10**6, 10**6)), (first, (10**6, 10**6))],
            [
                (random[:37], (2, 3)),
                (first[:100], (10, 10**6)),  # counter 0 terminates
                (last[:100], (10**6, 10)),  # counter 1 terminates, with two varying counters
            ],
        ],
    )


def test_kernel_handoff_short_blocks_and_cap(kernel_batches, monkeypatch):
    # runs leave the kernel for the walk state s with their leftover words as
    # one short block: from n = 1 many terminate inside it, while others walk
    # on to the cap; all share one record, and so one set of scratch buffers
    m = parse_vass(
        json.dumps(
            {
                "dimension": 1,
                "states": [{"name": "a", "kind": "prob"}, {"name": "s", "kind": "prob"}],
                "transitions": [
                    {"id": "t_aa", "from": "a", "to": "a", "update": [0], "prob": "7/8"},
                    {"id": "t_as", "from": "a", "to": "s", "update": [0], "prob": "1/8"},
                    {"id": "t_up", "from": "s", "to": "s", "update": [1], "prob": "1/2"},
                    {"id": "t_down", "from": "s", "to": "s", "update": [-1], "prob": "1/2"},
                ],
            }
        )
    )
    blocks = []  # per run a stepper finishes: the words it had buffered, whether it terminated
    inner = sim._Stepper._round

    def recording(self):
        buffered = {key: 0 if left is None else len(left) for (key, *_), left in zip(self.runs, self.left)}
        done = inner(self)
        blocks.extend((buffered[key], st.terminated) for key, st, _ in done)
        return done

    monkeypatch.setattr(sim._Stepper, "_round", recording)
    batch = simulate_many(m, 1, 200, seed=3, max_steps=300)
    assert len(kernel_batches) == 1
    assert any(0 < size < sim.RUN_BUFFER and terminated for size, terminated in blocks)
    assert sum(not st.terminated and st.steps == 300 for st in batch) >= 3
    monkeypatch.undo()
    for r, st in enumerate(batch):
        assert st == simulate_one(m, 1, run=r, seed=3, max_steps=300, _vectorized=False), r


@pytest.mark.parametrize(
    "updates",
    [
        [(-1,), (1,)],  # the fair walk
        [(-1, 2), (0, -1), (2, 0)],  # three branches: two-bit codes
    ],
)
def test_block_path_allocates_no_block_sized_temporaries(updates):
    # after its first round has run, a round allocates no array of a block
    # of words: the traced peak grows by less than one int64 block, for
    # ROWS - 1 rows; every row reads one pre-drawn stream
    stepper = stepper_of(self_loop(updates), 10**9)
    words = np.random.Philox(key=3).random_raw(101 * sim.BLOCK)
    walks = [sim._Walk("s", [10**12] * len(updates[0]), [10**12] * len(updates[0]), TallyCounter(), []) for _ in range(sim.ROWS - 1)]
    for i, walk in enumerate(walks):
        assert stepper.add(i, walk, sim._DrawStream(None, words)) == []
    assert stepper._round() == []
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(100):
            assert stepper._round() == []
        _, top = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert top - base < sim.BLOCK * 8
    assert all(walk.steps == 101 * sim.BLOCK for walk in walks)


@st.composite
def self_loop_models(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    updates = [tuple(draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(k)]
    weights = [draw(st.integers(1, 4)) for _ in range(k)]
    return self_loop(updates, [F(w, sum(weights)) for w in weights])


# caps next to the edges of one- to eight-step groups and of blocks
EDGE_CAPS = sorted({c + e for c in (2, 4, 8, 16, sim.BLOCK, 2 * sim.BLOCK) for e in (-1, 0, 1)})


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    self_loop_models(),
    st.integers(0, 40),
    st.one_of(st.integers(1, 3 * sim.BLOCK), st.sampled_from(EDGE_CAPS)),
    st.integers(1, 2 * sim.ROWS + 3),
    st.integers(0, 2**32),
)
def test_block_path_matches_reference_on_random_self_loops(m, n, cap, runs, seed):
    # more runs than rows: slots recycle, and one round's rows have
    # different lengths once some have ended
    assert_matches_reference(m, n, runs, seed=seed, max_steps=cap)


def test_kernel_handoff_fills_two_steppers(pump, kernel_batches, closed_forms, monkeypatch):
    # under the criterion-5 strategy runs leave the pump for e (one branch:
    # the closed form) or f (two branches: the block path). A twin of e's
    # self-loop gives e two branches, and then more than ROWS wait on each
    # stepper at a time
    doc = load_doc("pump_transfer_3d.json")
    doc["transitions"].append({"id": "e_e_twin", "from": "e", "update": [0, -1, 0], "to": "e"})
    twin = parse_vass(doc)
    rounds = TallyCounter()  # (state, rows) per round
    inner = sim._Stepper._round

    def recording(self):  # a state's name is the first letter of its transitions'
        rounds[self.rec.tids[0][0], self.count] += 1
        return inner(self)

    monkeypatch.setattr(sim._Stepper, "_round", recording)
    strategy = pump_leave(3) | {"e": {"e_e": F(1, 2), "e_e_twin": F(1, 2)}}
    kw = dict(seed=4, max_steps=8 * 3**4)
    batch = assert_matches_reference(twin, 3, 150, strategy=strategy, **kw)
    assert len(kernel_batches) == 1 and not closed_forms
    for state in "ef":
        assert rounds[state, sim.ROWS] >= 2, rounds
        assert any(rows < sim.ROWS for s, rows in rounds if s == state)  # the drain
    assert {st.realized_type for st in batch} >= {("M1", "M3"), ("M1", "M4")}
    rounds.clear()
    batch = assert_matches_reference(pump, 3, 150, strategy=pump_leave(3), **kw)
    assert {s for s, _ in rounds} == {"f"}
    e_class = sim._Resolved(pump, None).owner["e"]
    assert closed_forms == ["e"] * sum(st.realized_type[-1] == e_class for st in batch)


# ---------------------------------------------------------------------------
# run start and finish: re-keyed generators, kernel rows, terminal groups
# ---------------------------------------------------------------------------


def test_rekeyed_generator_draws_as_a_fresh_one():
    # a generator reused for run after run, re-keyed in place, draws what a
    # fresh one keyed to the run draws, also after leaving words of its
    # last block of four unread
    streams = sim._Streams(7, 3)
    first = streams.open(0)
    first.random_raw(3)
    streams.close(first)
    for run in (5, 0, 2**32 - 1):
        bg = streams.open(run)
        assert bg is first
        fresh = np.random.Philox(key=np.array([7, (3 << 32) + run], dtype=np.uint64))
        assert np.array_equal(bg.random_raw(9), fresh.random_raw(9))
        streams.close(bg)


def test_streams_of_start_values_past_2_32_are_their_own(walk, dec_loop):
    # n and n + 2**32 once shared a key; the high part of n now starts the
    # counter's top word, so a start value below 2**32 keeps its stream
    low = sim._Streams(7, 3).open(0).random_raw(8)
    high = sim._Streams(7, 3 + 2**32).open(0).random_raw(8)
    assert not np.array_equal(low, high)
    assert np.array_equal(low, np.random.Philox(key=np.array([7, 3 << 32], dtype=np.uint64)).random_raw(8))
    # the counter word holds n >> 32 below 2**64; a run in a deterministic
    # region draws no word and takes any n
    with pytest.raises(ValueError, match=r"below 2\*\*96"):
        simulate_one(walk, 2**96, max_steps=5)
    assert simulate_one(dec_loop, 2**100, strategy={"p": "t_dec"}, max_steps=5).steps == 5


def test_seeds_and_runs_outside_the_key_are_rejected(walk):
    # key word 0 is the seed and run fills the low half of key word 1, so
    # a value outside them would alias another one's stream
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be in 0..2\*\*64-1"):
            simulate_one(walk, 3, seed=seed)
        with pytest.raises(ValueError, match=r"seed must be in 0..2\*\*64-1"):
            simulate_many(walk, 3, 2, seed=seed)
        with pytest.raises(ValueError, match=r"seed must be in 0..2\*\*64-1"):
            estimate_tails(walk, [3], 2, seed=seed)
    for run in (-1, 2**32):
        with pytest.raises(ValueError, match=r"run must be in 0..2\*\*32-1"):
            simulate_one(walk, 3, run=run)
    top = simulate_one(walk, 3, seed=2**64 - 1, run=2**32 - 1, max_steps=100)
    assert top == simulate_one(walk, 3, seed=2**64 - 1, run=2**32 - 1, max_steps=100, _vectorized=False)


def test_deterministic_run_builds_no_generator(zero_cycle, pump, walk, monkeypatch):
    def no_generator():
        raise AssertionError("a run built a generator")

    monkeypatch.setattr(sim, "_generator", no_generator)
    st = simulate_one(zero_cycle, 3, strategy=ALTERNATE, max_steps=1001)
    assert st == TrajectoryStats(False, 1001, (4,), {"t_pq": 501, "t_qp": 500}, ("M1",))
    st = simulate_one(pump, 4, strategy={"c": "c_c"}, init_state="c", max_steps=10)
    assert st == TrajectoryStats(True, 5, (4, 4, 8), {"c_c": 5}, ("M2",))
    with pytest.raises(AssertionError, match="built a generator"):
        simulate_one(walk, 3, max_steps=10)


def test_batches_build_a_generator_per_row_not_per_run(pump, walk, monkeypatch):
    # the kernel's rows and each stepper's rows hold one generator each, and
    # a run that finishes hands its generator to the next one
    built = []
    inner = sim._generator

    def counting():
        built.append(1)
        return inner()

    monkeypatch.setattr(sim, "_generator", counting)
    doc = load_doc("pump_transfer_3d.json")
    doc["transitions"].append({"id": "e_e_twin", "from": "e", "update": [0, -1, 0], "to": "e"})
    strategy = pump_leave(3) | {"e": {"e_e": F(1, 2), "e_e_twin": F(1, 2)}}
    simulate_many(parse_vass(doc), 3, 300, strategy=strategy, seed=4, max_steps=8 * 3**4)
    assert 0 < len(built) <= sim.MAX_IN_FLIGHT + 2 * sim.ROWS
    for batch, most in (
        (lambda: simulate_many(walk, 5, 3 * sim.ROWS + 1, seed=2, max_steps=300), sim.ROWS),
        (lambda: simulate_many(pump, 2**62, 5, strategy={"a": "a_b"}, max_steps=20), 1),  # the scalar loop
        (lambda: simulate_one(walk, 5, max_steps=300), 1),
    ):
        built.clear()
        batch()
        assert 0 < len(built) <= most


def test_stepper_runs_build_no_per_run_objects(pump, walk, closed_forms, monkeypatch):
    # a stepper run keeps its row from admission to its statistics, so no
    # walk, tally or word stream is built for it: neither in a batch on the
    # block path alone nor for the kernel's runs handed over to f. The kernel
    # builds a walk and a tally for each run the closed form finishes at e
    built = TallyCounter()
    for name in ("_Walk", "_DrawStream", "TallyCounter"):

        def counting(*args, _name=name, _inner=getattr(sim, name)):
            built[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(sim, name, counting)
    simulate_many(walk, 5, 3 * sim.ROWS + 1, seed=2, max_steps=300)
    assert not built
    batch = simulate_many(pump, 4, 200, seed=1, strategy=pump_leave(4), max_steps=8 * 4**4)
    f_class = sim._Resolved(pump, None).owner["f"]
    assert sum(st.realized_type[-1] == f_class for st in batch) > sim.ROWS
    assert closed_forms and built == TallyCounter({"_Walk": len(closed_forms), "TallyCounter": len(closed_forms)})


def test_kernel_rows_refill_past_the_slots(pump, kernel_batches, closed_forms):
    # MAX_IN_FLIGHT + 1 runs, so a run is admitted where one left, at caps
    # next to the edges of a block and of a draw of RUN_DRAWS blocks; runs
    # leave for e (the closed form) and f (the block path) with the rest of
    # their draw
    edges = (sim.RUN_BUFFER, sim.RUN_DRAWS * sim.RUN_BUFFER, 2 * sim.RUN_DRAWS * sim.RUN_BUFFER)
    for cap in sorted({c + e for c in edges for e in (-1, 0, 1)}):
        assert_matches_reference(pump, 4, sim.MAX_IN_FLIGHT + 1, seed=cap, strategy=pump_leave(4), max_steps=cap)
    assert len(kernel_batches) == 9 and closed_forms
    # every run in flight reaches the cap in the same wave; the last runs alone
    batch = assert_matches_reference(coin_zero_cycle(), 2, sim.MAX_IN_FLIGHT + 1, seed=5, max_steps=2 * sim.RUN_BUFFER)
    assert {(st.terminated, st.steps) for st in batch} == {(False, 2 * sim.RUN_BUFFER)}


# two, three and five branches, with varying and constant counters
BRANCHES = [
    [(-1, 1), (1, -1)],
    [(-1, 1), (2, 1)],
    [(-1, 2), (0, -1), (2, 0)],
    [(-1, 1), (0, 1), (1, 1), (2, 1), (3, 1)],
    [(-1, -1), (0, -1), (1, -1), (2, -1), (3, -1)],
]


@pytest.mark.parametrize("updates", BRANCHES)
def test_block_path_terminal_step_at_each_group_position(updates):
    # branch 0 lowers counter 0 by one, so a row whose words all pick it
    # terminates on step n + 1: at each position of its first groups, and
    # next to the end of a short first block, in its last, partial group.
    # Rows outnumber the stepper's 12, so they share rounds with rows that
    # go on and take rows that others left
    m = self_loop(updates)
    g = sim._Resolved(m, None).resolve("s").group
    down = constant_words(0, sim.BLOCK)
    rows = [(down, (n, 10**6)) for n in range(3 * g)]
    for size in (g - 1, 3 * g + 2):
        rows += [(down[:size], (n, 10**6)) for n in (size - 2, size - 1, size) if n >= 0]
    random = np.random.Philox(key=9).random_raw(sim.BLOCK)
    rows += [(random[: 5 * g + 3], (2, 3)), (random, (40, 40))]
    done = step_rows(stepper_of(m, 4 * sim.BLOCK, 12), rows)
    assert [(st.terminated, st.steps) for st, _ in done[: 3 * g]] == [(True, n + 1) for n in range(3 * g)]


@pytest.mark.parametrize("updates", BRANCHES)
def test_block_path_round_in_which_every_row_finishes(updates, monkeypatch):
    # ROWS runs arrive with kernel leftovers of different lengths whose first
    # n + 1 words pick branch 0, so run n terminates inside its leftover, on
    # step n + 1: at every position of its group. Every third run arrives n
    # steps before its cap and is truncated there instead. The round that
    # steps them finishes every row, and each run equals the scalar path
    m, cap = self_loop(updates), 4 * sim.BLOCK
    rounds = []  # per round, the rows stepped and the runs finished
    inner = sim._Stepper._round

    def recording(self):
        done = inner(self)
        rounds.append((self.count + len(done), len(done)))
        return done

    monkeypatch.setattr(sim._Stepper, "_round", recording)
    random = np.random.Philox(key=8).random_raw(5 * sim.ROWS)
    runs = [
        (np.concatenate([constant_words(0, n + 1), random[: 5 * n]]), n, cap - n if n % 3 == 1 else 0)
        for n in range(sim.ROWS)
    ]

    def walk_and_stream(i):
        words, n, steps = runs[i]
        walk = sim._Walk("s", [n, 10**6], [n, 10**6], TallyCounter(), ["M1"], steps)
        return walk, sim._DrawStream(np.random.Philox(key=i), words)

    stepper, done = stepper_of(m, cap), []
    for i in range(sim.ROWS):
        done += stepper.add(i, *walk_and_stream(i))
    assert rounds == [(sim.ROWS, sim.ROWS)]
    stats = {key: st for key, st, _ in done}
    for i in range(sim.ROWS):
        assert stats[i] == sim._run(sim._Resolved(m, None), *walk_and_stream(i), cap, False), i
    ends = [(stats[n].terminated, stats[n].steps) for n in range(sim.ROWS)]
    assert ends == [(False, cap) if n % 3 == 1 else (True, n + 1) for n in range(sim.ROWS)]


def test_block_path_rows_keep_their_words_when_an_earlier_row_leaves():
    # rows 1 and 2 hold words past their first block when row 0 terminates;
    # the rows left move up, each with its own words
    random = np.random.Philox(key=10).random_raw(3 * sim.BLOCK)
    rows = [(constant_words(0, 8), (3,)), (random, (10**6,)), (random[: 2 * sim.BLOCK + 5], (10**6,))]
    step_rows(stepper_of(self_loop([(-1,), (1,)]), 4 * sim.BLOCK, 3), rows)


@pytest.mark.parametrize("updates", BRANCHES)
def test_block_path_batches_past_the_rows(updates):
    # ROWS + 1 runs, with caps next to a group's and a block's edges
    m = self_loop(updates)
    for cap in (7, 9, sim.BLOCK - 1, sim.BLOCK + 1):
        assert_matches_reference(m, 4, sim.ROWS + 1, seed=cap, max_steps=cap)
    # a counter every branch lowers ends every run on the same step and round
    if updates[0][1] == -1:
        n = sim.BLOCK + 5
        batch = assert_matches_reference(m, n, sim.ROWS + 1, seed=3, max_steps=3 * sim.BLOCK)
        assert {(st.terminated, st.steps) for st in batch} == {(True, n + 1)}


# ---------------------------------------------------------------------------
# closed form on deterministic regions against the scalar reference
# ---------------------------------------------------------------------------


def steer(updates, sign):
    """`updates` moved one unit at a time, within -3..3, until their sum has
    the sign `sign`."""
    updates = list(updates)
    while True:
        total = sum(updates)
        move = (sign > 0 and total <= 0) or (sign == 0 and total < 0)
        move -= (sign < 0 and total >= 0) or (sign == 0 and total > 0)
        if not move:
            return updates
        updates[updates.index(min(updates) if move > 0 else max(updates))] += move


@st.composite
def deterministic_regions(draw):
    """A model with a deterministic region: a tail of single-branch states,
    then a cycle whose drift per counter is negative, zero or positive.
    Controlled states carry a self-loop the strategy does not take, so a
    controlled tail state is a class of its own. A coin state r may lead
    into the tail; the run starts at r or anywhere in the region."""
    d = draw(st.integers(1, 3))
    tail, length = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    names = [f"s{i}" for i in range(tail + length)]
    pass_updates = st.lists(st.integers(-3, 3), min_size=length, max_size=length)
    cycle = [steer(draw(pass_updates), draw(st.sampled_from([-1, 0, 1]))) for _ in range(d)]
    updates = [[draw(st.integers(-3, 3)) for _ in range(d)] for _ in range(tail)] + [list(u) for u in zip(*cycle)]
    kinds, transitions, strategy = {}, [], {}
    for i, (name, update) in enumerate(zip(names, updates)):
        target = names[i + 1] if i + 1 < len(names) else names[tail]
        if draw(st.booleans()):
            kinds[name] = "nondet"
            strategy[name] = f"t_{name}"
            transitions += [(f"t_{name}", name, target, update, None), (f"idle_{name}", name, name, [0] * d, None)]
        else:
            kinds[name] = "prob"
            transitions.append((f"t_{name}", name, target, update, 1))
    starts = names
    if draw(st.booleans()):
        kinds["r"] = "prob"
        transitions += [("t_rr", "r", "r", [0] * d, F(1, 2)), ("t_rs", "r", names[0], [-1] * d, F(1, 2))]
        starts = ["r", *names]
    return vass(kinds, transitions, d), strategy, draw(st.sampled_from(starts))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    deterministic_regions(),
    st.one_of(st.integers(0, 12), st.just(2**60)),
    st.one_of(st.just(1), st.integers(1, 600)),
    st.sampled_from([None, -1, 0, 1]),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_closed_form_matches_reference_on_deterministic_regions(case, n, cap, near_end, runs, seed):
    # with `near_end`, the cap lands next to run 0's terminal step, or on it;
    # else mostly mid-cycle. At n = 2**60 the kernel declines the batch and
    # `_run` hands a run entering the region over
    m, strategy, init = case
    kw = dict(seed=seed, strategy=strategy, init_state=init)
    ref = simulate_one(m, n, max_steps=cap, _vectorized=False, **kw)
    if near_end is not None and ref.terminated:
        cap = max(1, ref.steps + near_end)
    batch = assert_matches_reference(m, n, runs, max_steps=cap, **kw)
    for r, stats in enumerate(batch):
        assert stats == simulate_one(m, n, run=r, max_steps=cap, **kw), r


def test_closed_form_is_exact_past_float_range(zero_cycle, dec_loop):
    # one pass of x, y moves the counters by (+1, -1); within a pass they
    # first move by (+3, -1)
    cycle = vass({"x": "prob", "y": "prob"}, [("t_x", "x", "y", [3, -1], 1), ("t_y", "y", "x", [-2, 0], 1)], 2)
    n, cap = 2**62, 10**12
    started = time.perf_counter()
    results = [
        simulate_many(zero_cycle, n, 2, strategy=ALTERNATE, max_steps=cap)[1],
        simulate_one(dec_loop, n, strategy={"p": "t_dec"}, max_steps=cap),
        simulate_one(dec_loop, 10**11, strategy={"p": "t_dec"}, max_steps=cap),
        simulate_one(cycle, n, max_steps=cap),
        simulate_one(cycle, 10**11, max_steps=cap),
    ]
    assert time.perf_counter() - started < 0.5
    half, m = cap // 2, 10**11
    assert results == [
        TrajectoryStats(False, cap, (n + 1,), {"t_pq": half, "t_qp": half}, ("M1",)),
        TrajectoryStats(False, cap, (n,), {"t_dec": cap}, ("M1",)),
        TrajectoryStats(True, m + 1, (m,), {"t_dec": m + 1}, ("M1",)),
        TrajectoryStats(False, cap, (n + half + 2, n), {"t_x": half, "t_y": half}, ("M1",)),
        # counter 1 goes negative on the first step of pass m + 1
        TrajectoryStats(True, 2 * m + 1, (2 * m + 2, m), {"t_x": m + 1, "t_y": m}, ("M1",)),
    ]


def test_deterministic_batch_draws_no_word(zero_cycle, pump, monkeypatch, closed_forms):
    def no_word(*args):
        raise AssertionError("a deterministic batch built a word stream")

    monkeypatch.setattr(sim, "_Streams", no_word)
    monkeypatch.setattr(sim, "_generator", no_word)
    batch = simulate_many(zero_cycle, 3, 4, strategy=ALTERNATE, max_steps=1001)
    assert batch == [TrajectoryStats(False, 1001, (4,), {"t_pq": 501, "t_qp": 500}, ("M1",))] * 4
    batch[0].transition_counts["t_pq"] += 1  # each run owns its counts
    assert [st.transition_counts["t_pq"] for st in batch] == [502, 501, 501, 501]
    (st,) = simulate_many(pump, 4, 1, strategy={"c": "c_c"}, init_state="c", max_steps=10)
    assert st == TrajectoryStats(True, 5, (4, 4, 8), {"c_c": 5}, ("M2",))
    assert closed_forms == ["p", "c"]


def test_region_test_leaves_unresolved_states_to_the_run():
    # p steps down into q, which the strategy leaves out: from 0 the run
    # terminates on p's step and never needs q's entry; from 1 it reaches q
    m = vass({"p": "nondet", "q": "nondet"}, [("t_pq", "p", "q", [-1], None), ("t_qp", "q", "p", [1], None)])
    strategy = {"p": "t_pq"}
    batch = assert_matches_reference(m, 0, 3, strategy=strategy, max_steps=50)
    assert batch[0] == TrajectoryStats(True, 1, (0,), {"t_pq": 1}, ("M1",))
    message = "run reached controlled state 'q' with no strategy entry"
    for vectorized in (True, False):
        with pytest.raises(IncompleteStrategy, match=message):
            simulate_one(m, 1, strategy=strategy, max_steps=50, _vectorized=vectorized)
        with pytest.raises(IncompleteStrategy, match=message):
            simulate_many(m, 1, 3, strategy=strategy, max_steps=50, _vectorized=vectorized)


def test_region_test_resolves_each_state_once(monkeypatch):
    # 200 single-branch states in a chain back to a coin at r, where no
    # state lies in a region, and in a ring the coin leads into, where every
    # state does. A run on the chain asks the test at every state, and the
    # kernel's tables ask it at every state of the ring; the first walk
    # answers for every state on it
    names = [f"s{i:03d}" for i in range(200)]
    coin = [("t_rr", "r", "r", [1], F(1, 2)), ("t_rs", "r", "s000", [-1], F(1, 2))]
    kinds = dict.fromkeys([*names, "r"], "prob")
    chain = vass(kinds, [(f"t_{a}", a, b, [1], 1) for a, b in zip(names, [*names[1:], "r"])] + coin)
    # the ring's updates alternate +1, -1
    ring_steps = enumerate(zip(names, [*names[1:], "s000"]))
    ring = vass(kinds, [(f"t_{a}", a, b, [1 - i % 2 * 2], 1) for i, (a, b) in ring_steps] + coin)
    tested = TallyCounter()
    inner = sim._Resolved.try_resolve

    def counting(self, name):
        tested[name] += 1
        return inner(self, name)

    monkeypatch.setattr(sim._Resolved, "try_resolve", counting)
    kw = dict(init_state="s000", max_steps=1000)
    assert simulate_one(chain, 0, **kw) == simulate_one(chain, 0, _vectorized=False, **kw)
    assert set(tested) == {*names, "r"} and max(tested.values()) == 1
    tested.clear()
    res = sim._Resolved(ring, None)
    regions = [res.region(name) for name in names]
    assert tested == TallyCounter(names)
    cycle = regions[0][1]
    assert regions == [((200 - j) % 200, cycle) for j in range(200)]
    assert (cycle.sums, cycle.low, cycle.high) == ((0,), (0,), (1,))
    assert res.region("r") is None
    assert_matches_reference(ring, 5, 4, init_state="r", max_steps=1000)


# ---------------------------------------------------------------------------
# threshold arithmetic
# ---------------------------------------------------------------------------


def test_cumulative_thresholds_exact_values():
    assert list(_cumulative_thresholds([F(1, 3), F(2, 3)])) == [6148914691236517205]
    assert list(_cumulative_thresholds([F(1, 2), F(1, 2)])) == [2**63]
    assert list(_cumulative_thresholds([F(1)])) == []
    th = _cumulative_thresholds([F(1, 4), F(1, 4), F(1, 2)])
    assert list(th) == [2**62, 2**63]


# ---------------------------------------------------------------------------
# strategy handling
# ---------------------------------------------------------------------------


def test_incomplete_strategy_only_when_state_entered(pump, dec_loop):
    # c is controlled but unreachable under a_q: no entry required
    st = simulate_one(pump, 1, strategy={"a": "a_q", "e": "e_e"}, max_steps=200)
    assert st.steps > 0
    with pytest.raises(IncompleteStrategy):
        simulate_one(dec_loop, 1, strategy={})
    with pytest.raises(IncompleteStrategy):
        simulate_one(dec_loop, 1)


def test_randomized_strategy_validated(dec_loop):
    m = two_loop_choice()
    with pytest.raises(IncompleteStrategy):
        simulate_one(m, 1, strategy={"s": {"t_a": F(1, 2)}})  # sums to 1/2
    with pytest.raises(IncompleteStrategy):
        simulate_one(m, 1, strategy={"s": {"t_missing": F(1)}})
    st = simulate_one(m, 1, strategy={"s": {"t_a": F(1, 2), "t_b": F(1, 2)}})
    assert st.steps >= 1


def test_randomized_strategy_statistics():
    m = two_loop_choice()
    # biased 3/4 up: strong positive drift, runs should mostly hit the cap
    sigma = {"s": {"t_a": F(3, 4), "t_b": F(1, 4)}}
    batch = simulate_many(m, 2, 300, seed=3, strategy=sigma, max_steps=400)
    survived = sum(1 for st in batch if not st.terminated)
    assert survived > 250
    ups = sum(st.transition_counts.get("t_a", 0) for st in batch)
    total = sum(st.steps for st in batch)
    assert 0.70 < ups / total < 0.80


def test_pump_realized_types_split_between_sinks(pump):
    strat = {"a": "a_q", "e": "e_e"}
    seen = set()
    for run in range(24):
        st = simulate_one(pump, 2, run=run, seed=1, strategy=strat, max_steps=500)
        assert st.realized_type in {("M1", "M3"), ("M1", "M4")}
        seen.add(st.realized_type)
        again = simulate_one(pump, 2, run=run, seed=1, strategy=strat, max_steps=500)
        assert again == st
    assert seen == {("M1", "M3"), ("M1", "M4")}


# ---------------------------------------------------------------------------
# statistical sanity (fixed seeds, generous tolerances)
# ---------------------------------------------------------------------------


def test_walk_from_zero_halves_terminate_in_one_step(walk):
    batch = simulate_many(walk, 0, 2000, seed=2, max_steps=2000)
    one_step = sum(1 for st in batch if st.terminated and st.steps == 1)
    assert isclose(one_step / 2000, 0.5, abs_tol=0.04)


# ---------------------------------------------------------------------------
# tail aggregation
# ---------------------------------------------------------------------------


def test_estimate_tails_caps_and_groups(walk):
    rep = estimate_tails(walk, [4, 8], 200, seed=1, theta=2)
    assert rep.n_list == (4, 8)
    assert rep.caps == {4: 64, 8: 256}
    for n in (4, 8):
        (g,) = rep.groups[n]
        assert g.realized_type == ("M1",)
        assert g.runs == 200
        assert g.terminated + g.truncated == 200
        assert not g.low_sample
        assert (g.median_steps is None) == (2 * g.terminated <= g.runs)
        assert rep.group(n, ("M1",)) is g
        assert rep.group(n, ("M9",)) is None


def test_estimate_tails_max_steps_overrides_theta(walk):
    rep = estimate_tails(walk, [4], 10, seed=1, theta=2, max_steps=17)
    assert rep.caps == {4: 17}
    (g,) = rep.groups[4]
    assert g.low_sample


def test_estimate_tails_fixed_strategy_medians(dec_loop):
    rep = estimate_tails(dec_loop, [2, 5], 4, seed=0, strategy={"p": "t_dec"})
    assert rep.group(2, ("M1",)).median_steps == 3.0
    assert rep.group(5, ("M1",)).median_steps == 6.0
    assert rep.group(5, ("M1",)).median_peaks == (5.0,)


def test_estimate_tails_rejects_bad_n_list(walk):
    with pytest.raises(ValueError):
        estimate_tails(walk, [], 10)
    with pytest.raises(ValueError):
        estimate_tails(walk, [4, 4], 10)
    with pytest.raises(ValueError):
        estimate_tails(walk, [8, 4], 10)


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------


def test_fit_exponent_recovers_power_laws():
    assert isclose(fit_exponent([2, 4, 8], [4.0, 16.0, 64.0]), 2.0, abs_tol=1e-9)
    assert isclose(
        fit_exponent([2, 4, 8, 16], [8.0, 64.0, 512.0, 4096.0]), 3.0, abs_tol=1e-9
    )


def test_fit_exponent_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        fit_exponent([2, 4], [4.0, 16.0])
    with pytest.raises(DegenerateInput):
        fit_exponent([2, 4, 4], [4.0, 16.0, 16.0])
    with pytest.raises(DegenerateInput):
        fit_exponent([2, 4, 8], [4.0, 0.0, 64.0])
    with pytest.raises(DegenerateInput):
        fit_exponent([2, 4, 8], [4.0, None, 64.0])
    with pytest.raises(DegenerateInput):
        fit_exponent([2, 4, 8], [4.0, 16.0])


# ---------------------------------------------------------------------------
# strategies from flow witnesses
# ---------------------------------------------------------------------------


def test_multicycle_strategy_from_flow():
    m = two_loop_choice()
    sigma = multicycle_strategy_from_x(m, {"t_a": F(2), "t_b": F(1)})
    assert sigma == {"s": {"t_a": F(2, 3), "t_b": F(1, 3)}}
    st = simulate_one(m, 1, strategy=sigma, max_steps=50)
    assert st.steps >= 1


def test_multicycle_strategy_rejects_degenerate_flows(zero_cycle):
    m = two_loop_choice()
    with pytest.raises(ZeroWitness):
        multicycle_strategy_from_x(m, {"t_a": F(0), "t_b": F(0)})
    with pytest.raises(ValueError):
        multicycle_strategy_from_x(m, {"t_a": F(-1), "t_b": F(2)})
    # zero-outflow states are simply absent from the strategy
    sigma = multicycle_strategy_from_x(zero_cycle, {"t_pq": F(0), "t_qp": F(1)})
    assert sigma == {"q": {"t_qp": F(1)}}


def test_expected_update_exact(walk, dec_loop, zero_cycle):
    assert expected_update(walk, None, "p") == (F(0),)
    assert expected_update(dec_loop, {"p": "t_dec"}, "p") == (F(-1),)
    m = two_loop_choice()
    sigma = {"s": {"t_a": F(2, 3), "t_b": F(1, 3)}}
    assert expected_update(m, sigma, "s") == (F(1, 3),)
    assert expected_update(zero_cycle, {"p": "t_pq"}, "p") == (F(1),)
    with pytest.raises(IncompleteStrategy):
        expected_update(m, None, "s")
    # validated as the simulator validates it
    with pytest.raises(IncompleteStrategy):
        expected_update(zero_cycle, {"p": {"t_pq": "2"}}, "p")
    with pytest.raises(IncompleteStrategy):
        expected_update(zero_cycle, {"p": "ghost"}, "p")
