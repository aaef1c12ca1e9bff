"""Expected outcomes: what the benchmark compares each operation against.

``reference.json`` holds, per input, the outcome the program gave when the
file was recorded (``record.py``):

* analyze: the exit class, the report's model digest, and the label, tag and
  exactness of every measure along every type;
* energy: the exit class and the decision;
* simulate: a digest of every run's ``TrajectoryStats`` and the step total.

Witness payloads are not part of an outcome, so a change that finds another
valid witness is not a failure; a changed label, decision or trajectory is.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Exception classes and the exit class the command line gives them.
EXIT_CLASSES = {
    "NotDagLike": 2,
    "PreconditionViolated": 2,
    "TooManyStrategies": 2,
    "AttestationError": 3,
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_key(doc: dict, pivot: str | None) -> str:
    """Digest of an input as the benchmark generated it, independent of the
    program; a gadget is keyed by its graph and pivot."""
    return sha256(json.dumps({"doc": doc, "pivot": pivot}, sort_keys=True))


def exit_class(exc: BaseException) -> int | None:
    """The command line's exit class for an exception, None if unexpected."""
    return EXIT_CLASSES.get(type(exc).__name__)


def analysis_outcome(doc: dict) -> list[str]:
    """Label, tag and exactness of every measure along every type."""
    return sorted(
        "|".join(
            [
                mkey,
                ",".join(e["type"]),
                e["label"],
                "" if e["bound"] is None else str(e["bound"]),
                e["tag"],
                "exact" if e["exact"] else "extended",
            ]
        )
        for mkey, entries in doc["estimates"].items()
        for e in entries
    )


def energy_doc(ans) -> dict:
    """The ``energy --json`` document of an answer."""
    return {
        "status": ans.status,
        "strategy": ans.strategy,
        "component": sorted(ans.bscc_states) if ans.bscc_states else None,
        "note": ans.note,
    }


def trajectories_digest(stats) -> str:
    """Digest of a batch's per-run TrajectoryStats, in run order."""
    h = hashlib.sha256()
    for st in stats:
        h.update(
            repr(
                (
                    st.terminated,
                    st.steps,
                    tuple(st.max_counter),
                    sorted(st.transition_counts.items()),
                    tuple(st.realized_type),
                )
            ).encode("utf-8")
        )
    return h.hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())
