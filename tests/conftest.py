import json
from pathlib import Path

import pytest

from vass_asym.model import parse_vass

MODELS = Path(__file__).resolve().parent.parent / "models"

# Draw 6 of `random_model_from_rng(Random(4242), randint(2, 4), randint(2, 3), 2)`.
# Along M2,M1, M2 pumps both counters and M1 then pumps T:t000, the drain
# loop at s0. M1's maximal flow with nothing zeroed uses t000 and spends no
# counter, so the fluctuation hint is true; a flow of the zeroed class that
# uses t000 alone drains both counters.
HINT_DRAW = {
    "dimension": 2,
    "states": [
        {"name": "s0", "kind": "nondet"},
        {"name": "s1", "kind": "prob"},
        {"name": "s2", "kind": "prob"},
        {"name": "s3", "kind": "nondet"},
    ],
    "transitions": [
        {"id": "t000", "from": "s0", "update": [-2, -1], "to": "s0"},
        {"id": "t001", "from": "s0", "update": [2, 1], "to": "s2"},
        {"id": "t002", "from": "s1", "update": [1, 2], "to": "s2", "prob": "1"},
        {"id": "t003", "from": "s2", "update": [0, -1], "to": "s1", "prob": "2/3"},
        {"id": "t004", "from": "s2", "update": [1, -2], "to": "s0", "prob": "1/3"},
        {"id": "t005", "from": "s3", "update": [2, 1], "to": "s3"},
        {"id": "t006", "from": "s3", "update": [-1, -1], "to": "s1"},
    ],
}


def load_model(name):
    return parse_vass((MODELS / name).read_text())


def load_doc(name):
    return json.loads((MODELS / name).read_text())


@pytest.fixture
def walk():
    """Single probabilistic state, one counter, fair +-1 steps."""
    return load_model("random_walk_1d.json")


@pytest.fixture
def pump():
    """Three counters, four end-component classes, one router state."""
    return load_model("pump_transfer_3d.json")


@pytest.fixture
def hint_draw():
    return parse_vass(HINT_DRAW)


@pytest.fixture
def dec_loop():
    return load_model("decreasing_loop.json")


@pytest.fixture
def inc_loop():
    return load_model("increasing_loop.json")


@pytest.fixture
def zero_cycle():
    return load_model("zero_cycle_2state.json")
