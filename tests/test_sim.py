"""Simulator tests: deterministic trajectories, path equivalence, statistics."""

import json
import time
import tracemalloc
from collections import Counter as TallyCounter
from contextlib import contextmanager
from fractions import Fraction
from math import isclose

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import load_doc
from oracles import expected_update, reference_block_tables
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
    # on a ring of period 3 the scalar path goes on from the state the run
    # reached, whose branches differ from its neighbours'
    ring = vass(
        dict.fromkeys("abc", "prob"),
        [("a1", "a", "b", [1], F(1, 2)), ("a3", "a", "b", [3], F(1, 2)), ("b", "b", "c", [2], 1), ("c", "c", "a", [0], 1)],
    )
    for start in "abc":
        scalar.clear()
        fast = simulate_one(ring, 2**53 - 5000, seed=5, max_steps=3 * sim.BLOCK, init_state=start)
        assert scalar == [0, sim.BLOCK]
        assert fast == simulate_one(ring, 2**53 - 5000, seed=5, max_steps=3 * sim.BLOCK, init_state=start, _vectorized=False)


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


@contextmanager
def recorded(owner, name):
    """The arguments of every call of `owner.name` inside the block."""
    calls = []
    inner = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return inner(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, recording)
        yield calls


@pytest.fixture
def kernel_batches():
    """Counts the batches the lockstep kernel runs."""
    with recorded(sim, "_lockstep") as calls:
        yield calls


@pytest.fixture
def chased_waves():
    """Counts the waves the lockstep kernel chases state by state, one
    `_Tables.branch` call each."""
    with recorded(sim._Tables, "branch") as calls:
        yield calls


@pytest.fixture
def ring_batches():
    """Counts the batches that start on a ring and run on its stepper."""
    with recorded(sim, "_step_batch") as calls:
        yield calls


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


def test_kernel_matches_reference_on_pump(pump, kernel_batches, ring_batches):
    assert_matches_reference(pump, 4, 40, seed=11, strategy=pump_leave(4), max_steps=4 * 4**4)
    assert_matches_reference(pump, 6, 70, seed=2, strategy={"a": "a_b"}, max_steps=36)
    assert_matches_reference(pump, 3, 30, seed=5, strategy={"a": "a_q", "e": "e_e"}, max_steps=300)
    # runs spanning several blocks
    assert_matches_reference(pump, 10, 100, seed=7, strategy={"a": "a_b"}, max_steps=400)
    # under a -> a_b, a and b form a ring of period 2, which the kernel
    # leaves to the ring's stepper
    assert len(kernel_batches) == 2 and len(ring_batches) == 2


def test_ring_batches_build_no_kernel_tables(pump):
    # a batch that starts on a ring runs on its stepper alone and never reads
    # the kernel's tables; one that starts on a forking state builds them once
    with recorded(sim, "_Tables") as built:
        simulate_many(pump, 16, 40, seed=1, strategy={"a": "a_b"}, max_steps=256)
        assert len(built) == 0
        simulate_many(pump, 4, 40, seed=1, strategy=pump_leave(4), max_steps=300)
        assert len(built) == 1


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
    tables = sim._Tables(res, sim._reachable(res, "p", 0, 100))
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
    # a start state on a ring (here two or more branches, all self-loops)
    # goes straight to the block path, one in a deterministic region to the
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


def ring_of_states(res, name):
    """The states of the ring `name` lies on, from `name`, as the block path
    takes one: a cycle of states that each resolve and send every branch
    (at most 256, each moving a counter by at most 2**20) to the next, one
    or more with two or more branches, whose per-step tables take at most
    MAX_TABLE_ROWS rows of 256 codes; else None."""
    ring, rec = [name], res.try_resolve(name)
    while rec is not None and len(set(rec.targets)) == 1 and rec.targets[0] != name:
        if rec.targets[0] in ring:  # `name` is on the tail into a cycle
            return None
        ring.append(rec.targets[0])
        rec = res.try_resolve(ring[-1])
    if rec is None or len(set(rec.targets)) != 1:
        return None
    recs = [res.resolve(state) for state in ring]
    widths = [len(r.tids) for r in recs]
    fits = max(widths) <= 256 and all(abs(u) <= sim.FAST_UPDATE_LIMIT for r in recs for upd in r.updates for u in upd)
    if fits:  # per phase and step of a group: 3 rows per counter, 1 per threshold
        steps = 8 // next(b for b in (1, 2, 4, 8) if max(widths) <= 1 << b)
        fits = len(ring) * steps * (3 * res.dimension + sum(widths) - len(ring)) <= sim.MAX_TABLE_ROWS
    forks = any(len(r.tids) > 1 for r in recs)
    return ring if fits and forks else None


def hand_off(res, name):
    """Whether `name` is a hand-off state, which the kernel does not step:
    on a ring, or one whose one-branch successors reach only one-branch
    states (a deterministic region)."""
    seen, state = set(), name
    while state not in seen:
        seen.add(state)
        rec = res.try_resolve(state)
        if rec is None or len(rec.tids) != 1:
            break
        state = rec.targets[0]
    else:
        return True
    return res.try_resolve(name) is not None and ring_of_states(res, name) is not None


@st.composite
def models_with_strategies(draw):
    """A random model of two or more states, a random memoryless strategy
    and a start state: one the kernel steps (it resolves and is no hand-off
    state) where there is one, so that the batch is neither one closed-form
    run nor a ring's. A one-state model has none, and every state has two or
    more transitions, so that most models have a state that forks; a state
    resolves to one branch where the strategy chooses one."""
    m = draw(random_models(min_states=2, min_branches=2))
    strategy = {}
    for s in m.nondet_states():
        tids = [t.tid for t in m.out(s.name)]
        chosen = draw(st.lists(st.sampled_from(tids), min_size=1, unique=True))
        if len(chosen) == 1 and draw(st.booleans()):
            strategy[s.name] = chosen[0]
        else:
            weights = [draw(st.integers(1, 4)) for _ in chosen]
            strategy[s.name] = {tid: F(w, sum(weights)) for tid, w in zip(chosen, weights)}
    res = sim._Resolved(m, strategy)
    stepped = [name for name in m.state_names() if res.try_resolve(name) is not None and not hand_off(res, name)]
    return m, strategy, draw(st.sampled_from(stepped or m.state_names()))


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


def test_random_model_draws_mostly_reach_the_kernel_or_a_ring():
    # the start is drawn among the states the kernel steps, so most draws
    # step there or, after a hand-off, on a ring's stepper, rather than in
    # one closed-form run or on the scalar path
    reached = []

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(models_with_strategies(), st.integers(0, 6), st.integers(0, 2**32))
    def draw(case, n, seed):
        m, strategy, init = case
        with recorded(sim, "_lockstep") as batches, recorded(sim._Stepper, "_round") as rounds:
            try:
                simulate_many(m, n, 3, seed=seed, strategy=strategy, max_steps=60, init_state=init)
            except IncompleteStrategy:
                pass
        reached.append(bool(batches or rounds))

    draw()
    assert len(reached) == 200 and sum(reached) > 150, sum(reached)


def stepped_states(m, strategy, init):
    """The resolver of `strategy`, and the states the kernel steps from `init`
    with their records."""
    res = sim._Resolved(m, strategy)
    seen, todo, found = set(), [init], []
    while todo:
        name = todo.pop()
        rec = res.try_resolve(name)
        if name in seen or rec is None or hand_off(res, name):
            continue
        seen.add(name)
        found.append((name, rec))
        todo += rec.targets
    return res, found


def stepped_keys_need(m, strategy, init):
    """Whether some branch of a state the kernel steps from `init` hands the
    run off, and whether one enters a class other than its state's."""
    res, stepped = stepped_states(m, strategy, init)
    targets = [(name, target) for name, rec in stepped for target in rec.targets]
    enters = [res.owner.get(target) not in (None, res.owner.get(name)) for name, target in targets]
    return any(hand_off(res, target) for _, target in targets), any(enters)


def entered_runs(calls):
    """Per run that recorded calls of `_Stepper.enter` admitted: its stepper
    and its phase."""
    for stepper, runs, _, _, state in calls:
        assert len(runs) == len(state)
        yield from ((stepper, phase) for phase in state[:, -1].tolist())


def countdown_lasso(tail, entry="a"):
    """The countdown cycle after a lasso tail of `tail` coins t000, t001, ...,
    each moving the counters as a does, the last leading into `entry`."""
    m = countdown_cycle()
    names = [f"t{i:03d}" for i in range(tail)]
    transitions = [(t.tid, t.source, t.target, t.update, t.prob) for t in m.transitions]
    for a, b in zip(names, [*names[1:], entry]):
        transitions += [(f"{a}_0", a, b, [-1, 0, 0], F(1, 3)), (f"{a}_1", a, b, [-1, 0, 1], F(2, 3))]
    return vass(dict.fromkeys([*names, "a", "b"], "prob"), transitions, 3)


def test_kernel_chases_forking_states_and_lasso_tails(pump, kernel_batches, ring_batches, chased_waves):
    # under a -> a_b, a and b form a ring: the batch runs on its stepper
    assert_matches_reference(pump, 6, 70, seed=2, strategy={"a": "a_b"}, max_steps=300)
    assert (len(kernel_batches), len(ring_batches), len(chased_waves)) == (0, 1, 0)
    # a forks to b and q, and q to e and f
    assert_matches_reference(pump, 4, 40, seed=11, strategy=pump_leave(4), max_steps=300)
    assert len(kernel_batches) == 1 and chased_waves and len(chased_waves) % sim.RUN_BUFFER == 0
    # no state forks on a lasso tail, which the kernel chases into the ring
    # {a, b}, entered at either phase: its five waves, after which every run
    # has left the kernel
    for entry in "ab":
        chased_waves.clear()
        with recorded(sim._Stepper, "enter") as entered:
            batch = assert_matches_reference(countdown_lasso(5, entry), 40, 60, seed=3, init_state="t000", max_steps=300)
        assert len(chased_waves) == 5 and len(list(entered_runs(entered))) == 60
        assert {stepper.ring.states[phase] for stepper, phase in entered_runs(entered)} == {entry}
        assert {(st.terminated, st.steps) for st in batch} == {(True, 41)}
    assert len(kernel_batches) == 3 and len(ring_batches) == 1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models_with_strategies(), st.integers(0, 6), st.integers(1, 150), st.integers(0, 2**32))
def test_kernel_hands_random_models_off_at_rings_and_regions(case, n, cap, seed):
    # the kernel steps only states that are not hand-off states, and a run
    # it hands to a stepper enters that ring at the phase of its state
    m, strategy, init = case
    with recorded(sim, "_lockstep") as batches, recorded(sim._Stepper, "enter") as entered:
        try:
            assert_matches_reference(m, n, 3, seed=seed, strategy=strategy, max_steps=cap, init_state=init)
        except IncompleteStrategy:
            return
    res = sim._Resolved(m, strategy)
    assert not batches or not hand_off(res, init)
    for stepper, phase in entered_runs(entered):
        ring = ring_of_states(res, stepper.ring.states[phase])
        assert ring is not None and ring == stepper.ring.states[phase:] + stepper.ring.states[:phase]


@contextmanager
def block_scans():
    """The calls of the kernel's per-block hand-off scan and class-entry
    scan; it skips each where no stepped key can need it."""
    with recorded(sim._Tables, "handed") as handed, recorded(sim._Tables, "entered") as entered:
        yield handed, entered


def enter_without_hand_off():
    """A transient coin-free state p leading into the class {q, r}, whose
    states step on the kernel: p's branch enters a class, and no branch
    hands a run off."""
    return vass(
        dict.fromkeys("pqr", "prob"),
        [
            ("pq", "p", "q", [1], 1),
            ("qq", "q", "q", [1], F(1, 2)),
            ("qr", "q", "r", [-1], F(1, 2)),
            ("rq", "r", "q", [-1], 1),
        ],
    )


def hand_off_without_enter():
    """A coin p that loops or moves to the transient state s, which leads
    into the one-branch self-loop z (a deterministic region): p's branch to
    s hands the run off and enters no class."""
    return vass(
        dict.fromkeys("psz", "prob"),
        [
            ("pp", "p", "p", [1], F(3, 4)),
            ("ps", "p", "s", [0], F(1, 4)),
            ("sz", "s", "z", [-1], 1),
            ("zz", "z", "z", [-1], 1),
        ],
    )


@pytest.mark.parametrize(
    "case, handed, entered",
    [
        ("pump-stay", False, False),  # a and b loop in M1
        ("pump-leave", True, True),  # q's branches hand off into e's and f's classes
        ("enter", False, True),
        ("hand-off", True, False),
    ],
)
def test_kernel_scans_a_block_only_for_what_its_stepped_keys_need(case, handed, entered, pump, kernel_batches):
    # pump-stay's a and b form a ring: no state is stepped on the kernel, so
    # no key needs either scan, and the batch runs on the ring's stepper
    m, kw = {
        "pump-stay": (pump, dict(strategy={"a": "a_b"}, max_steps=300)),
        "pump-leave": (pump, dict(strategy=pump_leave(3), max_steps=300)),
        "enter": (enter_without_hand_off(), dict(max_steps=200)),
        "hand-off": (hand_off_without_enter(), dict(max_steps=200)),
    }[case]
    init = min(m.state_names())
    assert stepped_keys_need(m, kw.get("strategy"), init) == (handed, entered)
    with block_scans() as (handed_calls, entered_calls):
        batch = assert_matches_reference(m, 3, 70, seed=5, **kw)
    assert len(kernel_batches) == (case != "pump-stay")
    assert (bool(handed_calls), bool(entered_calls)) == (handed, entered)
    if case == "enter":  # every run enters {q, r} on its first step
        assert {st.realized_type for st in batch} == {("M1",)} and all(st.steps > 1 for st in batch)
    if case == "hand-off":  # p is transient; the closed form takes every run from s into z's class
        assert {st.realized_type for st in batch} == {("M1",)}
        assert all("zz" in st.transition_counts for st in batch)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    models_with_strategies(),
    st.integers(0, 6),
    st.integers(1, 40),
    st.integers(1, 150),
    st.integers(0, 2**32),
)
def test_kernel_skips_block_scans_exactly_when_no_stepped_key_needs_them(case, n, runs, cap, seed):
    m, strategy, init = case
    with recorded(sim, "_lockstep") as batches, block_scans() as (handed, entered):
        try:
            assert_matches_reference(m, n, runs, seed=seed, strategy=strategy, max_steps=cap, init_state=init)
        except IncompleteStrategy:
            return
    if batches:
        assert (bool(handed), bool(entered)) == stepped_keys_need(m, strategy, init)


COUNTER_MOVES = {"lowered": (-2, 2), "raised": (0, 2), "unmoved": (0, 0)}


# caps next to the edges of one- to eight-step groups and of blocks
EDGE_CAPS = sorted({c + e for c in (2, 4, 8, 16, sim.BLOCK, 2 * sim.BLOCK) for e in (-1, 0, 1)})


@st.composite
def one_successor_cycles(draw):
    """A cycle of 1-5 coin states in which every state sends its 1, 2, 3 or
    5 branches to the next and one or more has two or more, on 1-3 counters,
    and a coin p that loops or enters the cycle at a drawn state. Per
    counter, the cycle's branches lower and raise it, only raise it, or leave
    it. The run starts at p, where the kernel steps it, or anywhere on the
    cycle. Two branches of p enter the cycle, so that runs may enter at a
    state other than the one the ring's phases count from."""
    k, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    moves = [COUNTER_MOVES[draw(st.sampled_from(sorted(COUNTER_MOVES)))] for _ in range(d)]
    names = [f"c{i}" for i in range(k)]
    widths = [draw(st.sampled_from([1, 2, 3, 5])) for _ in names]
    if max(widths) == 1:
        widths[draw(st.integers(0, k - 1))] = 2
    transitions = []
    for a, b, width in zip(names, [*names[1:], names[0]], widths):
        weights = [draw(st.integers(1, 4)) for _ in range(width)]
        for j, w in enumerate(weights):
            update = [draw(st.integers(lo, hi)) for lo, hi in moves]
            transitions.append((f"{a}_{j}", a, b, update, F(w, sum(weights))))
    loop = [draw(st.integers(-1, 1)) for _ in range(d)]
    transitions += [("p_p", "p", "p", loop, F(1, 3))]
    transitions += [(f"p_in{j}", "p", draw(st.sampled_from(names)), [0] * d, F(1, 3)) for j in range(2)]
    return vass(dict.fromkeys([*names, "p"], "prob"), transitions, d), draw(st.sampled_from(["p", *names]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    one_successor_cycles(),
    st.integers(0, 70),
    st.integers(1, 2 * sim.ROWS + 3),
    st.one_of(st.integers(1, 3 * sim.RUN_BUFFER + 1), st.sampled_from(EDGE_CAPS)),
    st.integers(0, 2**32),
)
def test_cycle_stepper_matches_reference_on_one_successor_cycles(case, n, runs, cap, seed):
    # periods 1 to 5 with one- to eight-step groups, so a group may start at
    # any phase; runs start at every phase or enter from the kernel at p
    m, init = case
    with recorded(sim, "_step_batch") as batches, recorded(sim, "_lockstep") as kernel:
        assert_matches_reference(m, n, runs, seed=seed, max_steps=cap, init_state=init)
    assert (len(batches), len(kernel)) == ((0, 1) if init == "p" else (1, 0))


def countdown_cycle():
    """Two coins a and b, each lowering counter 0 by one whichever branch it
    takes: a run from n terminates at step n + 1. No branch moves counter 1,
    and counter 2 is only raised, by 0, 1 or 2."""
    return vass(
        dict.fromkeys("ab", "prob"),
        [
            ("a0", "a", "b", [-1, 0, 0], F(1, 3)),
            ("a1", "a", "b", [-1, 0, 1], F(2, 3)),
            ("b0", "b", "a", [-1, 0, 1], F(1, 2)),
            ("b1", "b", "a", [-1, 0, 2], F(1, 2)),
        ],
        dimension=3,
    )


@pytest.mark.parametrize("n", [0, sim.RUN_BUFFER - 1, sim.RUN_BUFFER, 2 * sim.RUN_BUFFER - 1])
def test_kernel_walk_terminates_at_each_end_of_a_block(n, kernel_batches, ring_batches, chased_waves):
    # the kernel walks a lasso tail of one-successor coins, chasing it wave by
    # wave; the terminal step n + 1 falls on wave n mod RUN_BUFFER of its
    # block: the first wave for n = 0 and RUN_BUFFER, the last for the
    # others. The same runs from either state of the cycle run on its stepper
    cap = 3 * sim.RUN_BUFFER
    batch = assert_matches_reference(countdown_lasso(cap), n, 5, seed=n, init_state="t000", max_steps=cap)
    assert {(st.terminated, st.steps, st.max_counter[:2]) for st in batch} == {(True, n + 1, (n, n))}
    assert n == 0 or len({st.max_counter[2] for st in batch}) > 1  # the raised counter varies
    assert len(kernel_batches) == 1 and len(chased_waves) == (n // sim.RUN_BUFFER + 1) * sim.RUN_BUFFER
    for start in "ab":
        batch = assert_matches_reference(countdown_cycle(), n, 5, seed=n, init_state=start, max_steps=cap)
        assert {(st.terminated, st.steps, st.max_counter[:2]) for st in batch} == {(True, n + 1, (n, n))}
    assert len(kernel_batches) == 1 and len(ring_batches) == 2


@pytest.mark.parametrize("cap", [1, sim.RUN_BUFFER // 2, sim.RUN_BUFFER, sim.RUN_BUFFER + 5])
def test_kernel_walk_caps_inside_a_block(cap, kernel_batches, ring_batches, chased_waves):
    # as above, with every run reaching the cap on the tail, or on the cycle
    n = 3 * sim.RUN_BUFFER
    batch = assert_matches_reference(countdown_lasso(n), n, 5, seed=cap, init_state="t000", max_steps=cap)
    assert {(st.terminated, st.steps, st.max_counter[:2]) for st in batch} == {(False, cap, (n, n))}
    assert len(kernel_batches) == 1 and len(chased_waves) == -(-cap // sim.RUN_BUFFER) * sim.RUN_BUFFER
    for start in "ab":
        batch = assert_matches_reference(countdown_cycle(), n, 5, seed=cap, init_state=start, max_steps=cap)
        assert {(st.terminated, st.steps, st.max_counter[:2]) for st in batch} == {(False, cap, (n, n))}
    assert len(kernel_batches) == 1 and len(ring_batches) == 2


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


def ring_of(m, name="s", strategy=None):
    """The ring that state `name` of `m` lies on under `strategy`, or None."""
    on = sim._Resolved(m, strategy).ring(name)
    return None if on is None else on[1]


def stepper_of(m, cap, size=sim.ROWS):
    """A stepper of `size` rows for the self-loop state `s` of `m` with step
    cap `cap`."""
    res = sim._Resolved(m, None)
    return sim._Stepper(res, res.ring("s")[1], cap, size)


def step_rows(stepper, rows):
    """Run `rows`, pairs of (words, start counters), as runs on `stepper`;
    run i's stream is its words, then `Philox(key=i)`. Each run must equal
    the scalar path on the same stream, and its final counters the start
    plus its transitions' updates. Returns each run's statistics and walk,
    in row order."""
    (rec,), cap, m = stepper.ring.recs, stepper.cap, stepper.res.m
    walks = [sim._Walk("s", list(start), list(start), TallyCounter(), ["M1"]) for _, start in rows]
    done = []
    for i, ((words, _), walk) in enumerate(zip(rows, walks)):
        done += stepper.add(i, walk, sim._DrawStream(np.random.Philox(key=i), words), 0)
    done += stepper.drain()
    stats = {key: st for key, st in done}
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


@pytest.mark.parametrize("branches", [2, 3, 5, 17, 256])
@pytest.mark.parametrize("moves", ["varying", "constant", "both"])
def test_block_path_tables_match_reference_construction(branches, moves):
    # 2, 3, 5, 17 and 256 branches take 1-, 2-, 4- and 8-bit codes; per
    # counter every branch makes the same update (constant) or not (varying)
    varying = [(b % 7 - 3, (-1) ** b * (b % 3)) for b in range(branches)]
    constant = [(-1, 2)] * branches
    updates = {
        "varying": varying,
        "constant": constant,
        "both": [(u, c, v) for (u, _), (c, _), (_, v) in zip(varying, constant, varying)],
    }[moves]
    ring = ring_of(self_loop(updates))
    assert ring.period == 1 and ring.bits == {2: 1, 3: 2, 5: 4, 17: 8, 256: 8}[branches]
    assert bool(ring.varying) == (moves != "constant") and bool(ring.constant) == (moves != "varying")
    assert_tables_match_reference(ring)


def assert_tables_match_reference(ring):
    passes, tables, group_steps = reference_block_tables(ring)
    assert (len(ring.passes), len(ring.tables)) == (len(passes), len(tables))
    got = [*ring.passes, *(a for table in ring.tables for a in table)]
    for got, want in zip(got, [*passes, *(a for table in tables for a in table)]):
        assert got.dtype == want.dtype and got.flags.c_contiguous and np.array_equal(got, want)
    assert ring.group_steps.dtype == group_steps.dtype and ring.group_steps.flags.c_contiguous
    assert np.array_equal(ring.group_steps, group_steps)


def ring_model(widths, moves):
    """A ring of coins c0, c1, ... with `widths` branches each, in which
    branch j of state p moves counter k by `moves(p, j, k)`, on two counters."""
    names = [f"c{p}" for p in range(len(widths))]
    transitions = [
        (f"{a}_{j}", a, b, [moves(p, j, k) for k in range(2)], F(1, width))
        for p, (a, b, width) in enumerate(zip(names, [*names[1:], names[0]], widths))
        for j in range(width)
    ]
    return vass(dict.fromkeys(names, "prob"), transitions, 2)


RING_WIDTHS = [[1, 2], [2, 1, 1], [2, 2], [1, 3, 1], [5, 1, 2], [2, 1, 1, 1, 17], [1] * 15 + [3]]


@pytest.mark.parametrize(
    "widths, fits",
    [
        ([2], True),
        ([2, 1, 1], True),
        ([2] + [1] * 72, True),
        ([2] + [1] * 73, False),
        ([255] * 4, True),
        ([256] * 4, False),
        ([256] * 16, False),
    ],
    ids=lambda w: f"{len(w)}x{max(w)}" if isinstance(w, list) else str(w),
)
def test_rings_run_on_their_stepper_while_their_tables_fit(widths, fits, kernel_batches, ring_batches):
    # a ring's per-step tables take, per phase and step of a group, 3 rows
    # of 256 codes per counter and at most 1 per threshold. On 2 counters,
    # one two-branch state (groups of 8 one-bit steps) and L - 1 one-branch
    # states take L * 8 * (6 + 1) rows, which fit MAX_TABLE_ROWS up to L =
    # 73; four states of 255 branches (one step a group) take 4 * (6 + 4 *
    # 254) = 4088 rows, four of 256 take 4104, sixteen of 256 take 16 * (6 +
    # 16 * 255). A ring past the bound runs on the kernel
    period, steps = len(widths), 8 if max(widths) == 2 else 1
    assert (period * steps * (6 + sum(widths) - period) <= sim.MAX_TABLE_ROWS) == fits
    m = ring_model(widths, lambda p, j, k: (j + p) % 7 - 3 + k)
    assert (ring_of(m, "c0") is None) == (not fits)
    assert_matches_reference(m, 5, 12, seed=period, init_state=f"c{period // 2}", max_steps=300)
    assert (len(ring_batches), len(kernel_batches)) == ((1, 0) if fits else (0, 1))


@pytest.mark.parametrize("widths", RING_WIDTHS, ids=lambda w: "-".join(map(str, w)))
@pytest.mark.parametrize("moves", ["varying", "constant", "equal-split"])
def test_ring_tables_match_reference_construction(widths, moves):
    # periods 2 to 16, groups of 1, 2, 4 and 8 steps, so a group may start
    # at any phase; a ring with one two-branch state splits its branches by
    # a counter's change unless the two branches move every counter alike
    move = {
        "varying": lambda p, j, k: (p + 2 * j + k) % 5 - 2,
        "constant": lambda p, j, k: -1 if k else 2,
        "equal-split": lambda p, j, k: (p + k) % 3 - 1,
    }[moves]
    ring = ring_of(ring_model(widths, move), "c0")
    assert ring.period == len(widths) and ring.bits == {2: 1, 3: 2, 5: 4, 17: 8}[max(widths)]
    assert (ring.split is not None) == (sorted(widths)[-2:] == [1, 2] and moves == "varying")
    assert_tables_match_reference(ring)


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
    ring = ring_of(m)
    assert ring.varying == [0, 1] and ring.constant == [(2, 2)]
    batch = assert_matches_reference(m, n, 2, seed=1, max_steps=3 * sim.BLOCK)
    # peaks exclude the terminal configuration, the closed-form counter's too
    expected = TrajectoryStats(True, n + 1, (2 * n, n, 3 * n), {"t0": n + 1}, ("M1",))
    assert batch == [expected, expected]


@pytest.mark.parametrize("n", [0, sim.BLOCK - 1, sim.BLOCK, 2 * sim.BLOCK - 1])
def test_block_path_terminal_step_on_constant_counter(n):
    # counter 2 steps by -1 on every branch and goes negative first, at
    # block index n % BLOCK; both branches are drawn
    m = self_loop([(1, 3, -1), (2, 0, -1)])
    ring = ring_of(m)
    assert ring.varying == [0, 1] and ring.constant == [(2, -1)]
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
    assert stepper.add(0, walk, sim._DrawStream(bg, bg.random_raw(left)), 0) == []
    th = stepper.ring.recs[0].thresholds[0]
    for start, size in ((0, left), (left, sim.BLOCK)):
        assert stepper._draw(1, np.zeros(1, dtype=np.int64)).tolist() == [size]
        assert stepper.groups == -(-size // 8)  # a round's groups hold its longest block
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
        blocks.extend((buffered[key], st.terminated) for key, st in done)
        return done

    monkeypatch.setattr(sim._Stepper, "_round", recording)
    batch = simulate_many(m, 1, 200, seed=3, max_steps=300)
    assert len(kernel_batches) == 1
    assert any(0 < size < sim.RUN_BUFFER and terminated for size, terminated in blocks)
    assert sum(not st.terminated and st.steps == 300 for st in batch) >= 3
    monkeypatch.undo()
    for r, st in enumerate(batch):
        assert st == simulate_one(m, 1, run=r, seed=3, max_steps=300, _vectorized=False), r


@pytest.mark.parametrize("cap, groups", [(1, 1), (100, 13), (sim.BLOCK, sim.BLOCK // 8), (10**9, sim.BLOCK // 8)])
def test_stepper_buffers_hold_one_block_of_at_most_the_cap(cap, groups):
    stepper = stepper_of(self_loop([(-1,), (1,)]), cap)
    assert stepper.codes.shape == (sim.ROWS, groups) and stepper.ends.shape == (sim.ROWS * groups + 1,)


def buffer_bytes(stepper):
    """The bytes of a stepper's arrays, each view counted with its owner."""
    owners = {}
    for a in vars(stepper).values():
        if isinstance(a, np.ndarray):
            owner = a if a.base is None else a.base
            owners[id(owner)] = owner.nbytes
    return sum(owners.values())


# a self-loop of one-bit codes, one of two-bit codes with a column of passes,
# and a ring of period 2, each with its start state
BUDGET_RINGS = {
    "walk": (self_loop([(-1,), (1,)]), "s"),
    "three branches": (self_loop([(-1, 2), (0, -1), (2, 0)]), "s"),
    "period 2": (ring_model([2, 3], lambda p, j, k: (2 * j - 1) * (p + k + 1)), "c1"),
}


@pytest.mark.parametrize("cap", [1, 3, 4, 5, 7, 8, 9, 100, 256, *(sim.BLOCK + e for e in (-sim.BLOCK // 2, -1, 0, 1)), 10**9])
@pytest.mark.parametrize("ring", list(BUDGET_RINGS))
def test_stepper_rows_fill_the_word_budget(cap, ring):
    # a stepper holds as many rows, up to its runs, as the buffers of ROWS
    # rows of BLOCK words hold: ROWS at a cap of BLOCK or more, more below it
    m, start = BUDGET_RINGS[ring]
    res = sim._Resolved(m, None)
    _, ring = res.ring(start)

    def row_bytes(cap):  # a row's share of a stepper's buffers
        one, two = (buffer_bytes(sim._Stepper(res, ring, cap, runs)) for runs in (1, 2))
        return two - one

    stepper = sim._Stepper(res, ring, cap, 10**9)
    assert stepper.size * row_bytes(cap) <= sim.ROWS * row_bytes(sim.BLOCK) < (stepper.size + 1) * row_bytes(cap)
    assert buffer_bytes(stepper) <= buffer_bytes(sim._Stepper(res, ring, sim.BLOCK))
    assert stepper.size == sim.ROWS if cap >= sim.BLOCK else stepper.size > sim.ROWS or cap > sim.BLOCK // 2
    assert sim._Stepper(res, ring, cap, 5).size == 5


def test_cap_1_batch_of_many_runs_keeps_its_buffers_within_the_budget(walk):
    # one-step runs take thousands of rows a round, and no more than the
    # budget holds: the batch's runs take several rounds
    runs = 20000
    with recorded(sim._Stepper, "_round") as rounds:
        batch = simulate_many(walk, 3, runs, seed=6, max_steps=1)
    (stepper,) = {id(s): s for (s,) in rounds}.values()
    assert 100 * sim.ROWS < stepper.size < runs and len(rounds) == -(-runs // stepper.size)
    assert buffer_bytes(stepper) <= buffer_bytes(sim._Stepper(stepper.res, stepper.ring, sim.BLOCK))
    for r, st in enumerate(batch):
        assert st == simulate_one(walk, 3, run=r, seed=6, max_steps=1, _vectorized=False), r


@pytest.mark.parametrize("ring", list(BUDGET_RINGS))
def test_wide_steppers_match_reference_past_their_rows(ring):
    # caps on both sides of a group's edge and of BLOCK, each with one run
    # more than its stepper's rows, so that a run takes a row another left
    m, start = BUDGET_RINGS[ring]
    res = sim._Resolved(m, None)
    _, ring = res.ring(start)
    g = ring.group
    for cap in (g, g + 1, 40 * g, 40 * g + 1, sim.BLOCK - 1, sim.BLOCK):
        runs = sim._Stepper(res, ring, cap, 10**9).size + 1
        assert_matches_reference(m, 300, runs, seed=cap, init_state=start, max_steps=cap)


@pytest.mark.parametrize(
    "updates",
    [
        [(-1,), (1,)],  # the fair walk
        [(-1, 2), (0, -1), (2, 0)],  # three branches: two-bit codes
    ],
)
def test_block_path_allocates_no_block_sized_temporaries(updates):
    assert_rounds_allocate_no_block(self_loop(updates), "s")


@pytest.mark.parametrize("ring", list(BUDGET_RINGS))
def test_wide_stepper_allocates_no_block_sized_temporaries(ring):
    # below a cap of BLOCK a stepper holds more rows, and each fresh run
    # reaches the cap in its round: after the first round, a round frees
    # less than one byte per word of the round once it has read out its
    # rows, whose statistics it returns
    m, start = BUDGET_RINGS[ring]
    res = sim._Resolved(m, None)
    phase, ring = res.ring(start)
    cap = sim.BLOCK // 2
    stepper = sim._Stepper(res, ring, cap, 10**9, sim._Streams(3, 10**12))
    size, freed = stepper.size, []
    assert size > sim.ROWS
    for r in range(6):
        stepper.start(range(r * size, (r + 1) * size), 10**12, (), phase)
        tracemalloc.start()
        try:
            done = stepper._round()
            now, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [st.steps for _, st in done] == [cap] * size
        freed.append(top - now)
        del done
    assert max(freed[1:]) < size * cap


def test_ring_path_allocates_no_block_sized_temporaries():
    # a ring of period 2 adds each group's phase to its codes
    assert_rounds_allocate_no_block(ring_model([2, 3], lambda p, j, k: (2 * j - 1) * (p + k + 1)), "c1")


def assert_rounds_allocate_no_block(m, start):
    # after its first round has run, a round allocates no array of a block
    # of words: the traced peak grows by less than one int64 block, for
    # ROWS - 1 rows that start at `start`; every row reads one pre-drawn
    # stream
    res = sim._Resolved(m, None)
    phase, ring = res.ring(start)
    stepper = sim._Stepper(res, ring, 10**9)
    words = np.random.Philox(key=3).random_raw(101 * sim.BLOCK)
    d = m.dimension
    walks = [sim._Walk(start, [10**12] * d, [10**12] * d, TallyCounter(), []) for _ in range(sim.ROWS - 1)]
    for i, walk in enumerate(walks):
        assert stepper.add(i, walk, sim._DrawStream(None, words), phase) == []
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
    # self-loop gives e two branches, and then more runs than a stepper has
    # rows wait on each at a time: ROWS rows at a cap of BLOCK or more, more
    # below it, where they stay within the word budget
    doc = load_doc("pump_transfer_3d.json")
    doc["transitions"].append({"id": "e_e_twin", "from": "e", "update": [0, -1, 0], "to": "e"})
    twin = parse_vass(doc)
    rounds = TallyCounter()  # (state, rows, the stepper's rows) per round
    inner = sim._Stepper._round

    def recording(self):  # a state's name is the first letter of its transitions'
        rounds[self.ring.tids[0][0], self.count, self.size] += 1
        return inner(self)

    monkeypatch.setattr(sim._Stepper, "_round", recording)
    strategy = pump_leave(3) | {"e": {"e_e": F(1, 2), "e_e_twin": F(1, 2)}}
    for cap, runs in ((8 * 3**4, 900), (2 * sim.BLOCK, 150)):
        rounds.clear()
        batch = assert_matches_reference(twin, 3, runs, strategy=strategy, seed=4, max_steps=cap)
        assert not closed_forms
        for state in "ef":
            sizes = {size for s, _, size in rounds if s == state}
            assert len(sizes) == 1 and (sizes == {sim.ROWS} if cap >= sim.BLOCK else min(sizes) > 4 * sim.ROWS)
            assert sum(k for (s, rows, size), k in rounds.items() if s == state and rows == size) >= 2, rounds
            assert any(rows < size for s, rows, size in rounds if s == state)  # the drain
        assert {st.realized_type for st in batch} >= {("M1", "M3"), ("M1", "M4")}
    assert len(kernel_batches) == 2
    rounds.clear()
    batch = assert_matches_reference(pump, 3, 150, strategy=pump_leave(3), seed=4, max_steps=8 * 3**4)
    assert {s for s, _, _ in rounds} == {"f"}
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


@pytest.mark.parametrize("at", [0, 1, 3, 4, 5, 64, 256, 4 * sim.BLOCK + 2])
def test_generator_rekeyed_at_a_word_draws_the_stream_from_there(at):
    # Philox makes four words per counter value, so a generator re-keyed at
    # word 4k starts at counter k; at another word it skips the rest of its
    # four. The start value's high part stays in the counter's top word
    streams = sim._Streams(7, 3 + 2**32)
    bg = streams.open(5, at)
    key = np.array([7, (3 << 32) + 5], dtype=np.uint64)
    words = np.random.Philox(key=key, counter=np.array([0, 0, 0, 1], dtype=np.uint64)).random_raw(at + 9)
    assert np.array_equal(bg.random_raw(9), words[at:])
    streams.close(bg)  # and back at the stream's start
    assert streams.open(5) is bg and np.array_equal(bg.random_raw(at + 9), words)


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


@pytest.fixture
def generators_built(monkeypatch):
    """One entry per generator built."""
    built = []
    inner = sim._generator

    def counting():
        built.append(1)
        return inner()

    monkeypatch.setattr(sim, "_generator", counting)
    return built


def test_batches_build_a_generator_per_row_not_per_run(pump, walk, generators_built):
    # a kernel row holds a generator while its run is in flight, and a
    # stepper row only while its run's stream goes on past the round; a run
    # that is done drawing hands its generator to the next one. Below a cap
    # of BLOCK every stepper row's draw reaches the cap, so the rows of a
    # round share one generator
    built = generators_built
    doc = load_doc("pump_transfer_3d.json")
    doc["transitions"].append({"id": "e_e_twin", "from": "e", "update": [0, -1, 0], "to": "e"})
    strategy = pump_leave(3) | {"e": {"e_e": F(1, 2), "e_e_twin": F(1, 2)}}
    for cap in (8 * 3**4, 3 * sim.BLOCK):
        built.clear()
        simulate_many(parse_vass(doc), 3, 300, strategy=strategy, seed=4, max_steps=cap)
        assert 0 < len(built) <= sim.MAX_IN_FLIGHT + 2 * sim.ROWS
    for batch, most in (
        (lambda: simulate_many(walk, 5, 3 * sim.ROWS + 1, seed=2, max_steps=300), 1),
        (lambda: simulate_many(walk, 5, 3 * sim.ROWS + 1, seed=2, max_steps=3 * sim.BLOCK), sim.ROWS),
        (lambda: simulate_many(pump, 2**62, 5, strategy={"a": "a_b"}, max_steps=20), 1),  # the scalar loop
        (lambda: simulate_one(walk, 5, max_steps=300), 1),
    ):
        built.clear()
        batch()
        assert 0 < len(built) <= most


@contextmanager
def round_rows():
    """The stepper and its rows taken at each `_Stepper._round` call."""
    calls = []
    inner = sim._Stepper._round

    def recording(self):
        calls.append((self, self.count))
        return inner(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim._Stepper, "_round", recording)
        yield calls


def test_pump_stay_batch_runs_one_round_on_one_generator(pump, generators_built):
    # the word budget holds all 400 runs of a cap of 256 in one round, and
    # each row's one draw reaches the cap, so the rows share one generator
    kw = dict(seed=1000, strategy={"a": "a_b"}, max_steps=256)
    with round_rows() as rounds:
        batch = simulate_many(pump, 16, 400, **kw)
    assert [rows for _, rows in rounds] == [400] and len(generators_built) == 1
    for r, stats in enumerate(batch):
        assert stats == simulate_one(pump, 16, run=r, _vectorized=False, **kw), r


def lasso_into_pump_stay(tail):
    """The pump with `tail` coins t0, t1, ... in front of a, each sending
    both its branches to the next (the last to a), one of which raises
    counter 3: under a -> a_b, a lasso tail into the ring {a, b}."""
    doc = load_doc("pump_transfer_3d.json")
    names = [f"t{i}" for i in range(tail)]
    for a, b in zip(names, [*names[1:], "a"]):
        doc["states"].append({"name": a, "kind": "prob"})
        doc["transitions"] += [
            {"id": f"{a}_{j}", "from": a, "update": [0, 0, j], "to": b, "prob": "1/2"} for j in (0, 1)
        ]
    return parse_vass(doc)


def test_kernel_handoffs_fill_a_wide_stepper_and_rekey_after_their_leftover_words(kernel_batches):
    # 600 runs walk three coins on the kernel into pump-stay's ring, 64 a
    # block: they fill the ring's stepper, which at cap 256 holds hundreds
    # of rows and steps when they are all taken. A run admitted with one,
    # two or three kernel blocks of a draw left gives its generator back on
    # leaving the kernel, steps its leftover words, and re-keys at its next
    # word (64, 128 or 192), where its stream goes on
    m, kw = lasso_into_pump_stay(3), dict(seed=1000, strategy={"a": "a_b"}, max_steps=256, init_state="t0")
    with round_rows() as rounds, recorded(sim._Streams, "open") as opened:
        batch = simulate_many(m, 16, 600, **kw)
    (stepper,) = {id(s): s for s, _ in rounds}.values()
    assert 4 * sim.ROWS < stepper.size < 600 and len(kernel_batches) == 1
    assert rounds[0][1] == stepper.size and len(rounds) >= 2
    assert {tuple(at) for _, _, *at in opened} == {(), (64,), (128,), (192,)}
    assert {(st.terminated, st.steps == 256) for st in batch} == {(True, False), (False, True)}
    for r, stats in enumerate(batch):
        assert stats == simulate_one(m, 16, run=r, _vectorized=False, **kw), r


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
    g = ring_of(m).group
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
        done += stepper.add(i, *walk_and_stream(i), 0)
    assert rounds == [(sim.ROWS, sim.ROWS)]
    stats = {key: st for key, st in done}
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
    batch[2].transition_counts["t_new"] = 1
    assert [st.transition_counts["t_pq"] for st in batch] == [502, 501, 501, 501]
    assert ["t_new" in st.transition_counts for st in batch] == [False, False, True, False]
    assert len({id(st.transition_counts) for st in batch}) == 4
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


@pytest.mark.parametrize("strategy", [{"a": "a_b"}, pump_leave(4)], ids=["pump-stay", "pump-leave"])
def test_estimate_tails_resolves_once_for_every_start_value(pump, strategy, monkeypatch):
    # one resolver serves every n of a call: each state's branch table and
    # each ring's tables are built once, as in a call with one n
    built = TallyCounter()
    for cls in (sim._Resolved, sim._StateRec, sim._Ring):

        def counting(self, *args, _inner=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _inner(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    estimate_tails(pump, [4], 50, seed=1, strategy=strategy, max_steps=300)
    once = TallyCounter(built)
    built.clear()
    rep = estimate_tails(pump, [4, 8, 16], 50, seed=1, strategy=strategy, max_steps=300)
    # a and b under a -> a_b; else a, b, q, e and f, with f's self-loops
    assert built == once == {"_Resolved": 1, "_StateRec": 2 if strategy == {"a": "a_b"} else 5, "_Ring": 1}
    assert all(sum(g.runs for g in rep.groups[n]) == 50 for n in (4, 8, 16))


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
