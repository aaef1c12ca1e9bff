"""Shared hypothesis generators for random models."""

from fractions import Fraction

from hypothesis import strategies as st

from vass_asym.model import State, Transition, VassMdp

_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3), min_size=1, max_size=4, unique=True
)


@st.composite
def random_models(draw, max_states=4, max_dim=3, max_update=9, min_dim=1, min_states=1, min_branches=1):
    names = draw(
        st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=3),
            min_size=min_states,
            max_size=max_states,
            unique=True,
        )
    )
    dim = draw(st.integers(min_dim, max_dim))
    states = [State(name, draw(st.sampled_from(["nondet", "prob"]))) for name in names]
    transitions = []
    tid = 0
    for s in states:
        k = draw(st.integers(min_branches, 3))
        targets = [draw(st.sampled_from(names)) for _ in range(k)]
        if s.kind == "prob":
            weights = [draw(st.integers(1, 5)) for _ in range(k)]
            total = sum(weights)
            probs = [Fraction(w, total) for w in weights]
        else:
            probs = [None] * k
        for tgt, pr in zip(targets, probs):
            upd = tuple(draw(st.integers(-max_update, max_update)) for _ in range(dim))
            transitions.append(Transition(f"t{tid:03d}", s.name, upd, tgt, pr))
            tid += 1
    return VassMdp(dim, states, transitions)


@st.composite
def two_part_models(draw, max_states=3, max_update=3):
    """The disjoint union of two random one-counter models: at least two
    classes, since every model has one. The second part's states are
    renamed with a `z` prefix and its transitions to `u###`."""
    a = draw(random_models(max_states=max_states, max_dim=1, max_update=max_update))
    b = draw(random_models(max_states=max_states, max_dim=1, max_update=max_update))
    states = list(a.states) + [State(f"z{s.name}", s.kind) for s in b.states]
    transitions = list(a.transitions) + [
        Transition(f"u{t.tid[1:]}", f"z{t.source}", t.update, f"z{t.target}", t.prob)
        for t in b.transitions
    ]
    return VassMdp(1, states, transitions)


def random_model_from_rng(rng, n_states, dim, max_update, strongly_connected=False):
    """Seeded-random model builder for countable corpus tests.

    With strongly_connected=True a full cycle of filler transitions (random
    updates) is laid down first, so every state can reach every other.
    """
    names = [f"s{i}" for i in range(n_states)]
    kinds = {name: rng.choice(["nondet", "prob"]) for name in names}
    states = [State(name, kinds[name]) for name in names]
    raw: dict[str, list[tuple[str, tuple[int, ...]]]] = {name: [] for name in names}

    def rand_update():
        return tuple(rng.randint(-max_update, max_update) for _ in range(dim))

    if strongly_connected:
        for i, name in enumerate(names):
            raw[name].append((names[(i + 1) % n_states], rand_update()))
    for name in names:
        extra = rng.randint(0 if raw[name] else 1, 2)
        for _ in range(extra):
            raw[name].append((rng.choice(names), rand_update()))

    transitions = []
    tid = 0
    for name in names:
        outs = raw[name]
        if kinds[name] == "prob":
            weights = [rng.randint(1, 5) for _ in outs]
            total = sum(weights)
            probs = [Fraction(w, total) for w in weights]
        else:
            probs = [None] * len(outs)
        for (tgt, upd), pr in zip(outs, probs):
            transitions.append(Transition(f"t{tid:03d}", name, upd, tgt, pr))
            tid += 1
    return VassMdp(dim, states, transitions)
