"""Command line interface.

Subcommands: `analyze` (growth classification report), `check` (re-check a
report against its model), `simulate` (Monte Carlo tail estimation), `mecs`
/ `types` (structure inspection), `energy` (non-losing component decision),
`gen-hamiltonian` (graph-to-model reduction).

Exit codes: 0 success; 1 invalid input (bad JSON, schema or validation
errors, unknown names, bad options, a report that cannot be read or names
another model); 2 out of scope (class graph not DAG-like where the analysis
requires it, enumeration bounds exceeded); 3 a witness failed its exact
re-check (`attestation failure:`), or an internal invariant did not hold
(`InternalError`, or a bare `KeyError`: a lookup no valid input misses;
unknown transition and vertex names raise `KeyError` subclasses and exit 1).

`analyze` runs `build_analysis`, the one analysis path for every
dimension. It validates the measures and derives the classes, DAG-likeness,
the types with their reach certificates and the transition owners once; the
regime only labels each (measure, type): the behaviour inventory's case
table with one counter (`onedim`), the type's DAG pipeline with more
(`dichotomy.classify_dag`). The report lists each class solve once, taken
from the inventory or from the types' pipelines (`_ser_solves`). It attests
the report by running `check.check_report` on the document before emitting
it; README § analyze and `schemas/analysis_report.schema.json` describe the
report's fields.
"""

from __future__ import annotations

import argparse
import io
import csv
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from . import __version__
from .check import AttestationError, ReportError, check_report
from .dichotomy import (
    Estimate,
    NotDagLike,
    RankingFunction,
    SystemIWitness,
    classify_dag,
    compute_maximal_solutions,
)
from .graph import (
    Mec,
    Reach,
    TooManyTypes,
    enumerate_types,
    is_dag_like,
    mec_decomposition,
    transition_to_mec,
)
from .model import (
    Counter,
    IncompleteStrategy,
    InternalError,
    Measure,
    SchemaError,
    Termination,
    TransitionCount,
    UnknownTransition,
    ValidationError,
    VassMdp,
    measure_key,
    model_digest,
    parse_measure,
    parse_rational,
    parse_vass,
    serialize_vass,
)
from .onedim import (
    BoundedZeroWitness,
    ClassInventory,
    TooManyStrategies,
    VertexNotInGraph,
    bounded_zero_witness,
    compute_inventory,
    energy_safe,
    hamiltonian_reduction,
    labels_from_inventory,
)
from .sim import TailReport, _Resolved, estimate_tails, multicycle_strategy_from_x

INITIAL_CONVENTION = (
    "runs start in the lexicographically least state name unless overridden, "
    "with every counter at the scale parameter n"
)


class _CliError(Exception):
    """Usage error raised instead of argparse's default exit."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _CliError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def _ser_class(mec: Mec) -> dict:
    return {"id": mec.mid, "states": sorted(mec.states), "transitions": sorted(mec.transitions)}


def _ser_reach(reach: dict[tuple[str, str], Reach]) -> list:
    return [
        {
            "from": a,
            "to": b,
            "values": {s: _frac(v) for s, v in sorted(values.items()) if v != 0},
            "choice": {s: t for s, t in sorted(choice.items()) if values[s] != 0},
        }
        for (a, b), (values, choice) in sorted(reach.items())
    ]


def _ser_zero_cycle(w: BoundedZeroWitness) -> dict:
    return {
        "class": w.mec_id,
        "strategy": dict(sorted(w.strategy.items())),
        "component": sorted(w.component_states),
        "stationary": {s: _frac(v) for s, v in sorted(w.stationary.items())},
    }


def _ser_flow(w: SystemIWitness) -> dict:
    return {
        "flow": {tid: _frac(v) for tid, v in sorted(w.x.items()) if v != 0},
        "positive_counters": sorted(w.positive_counters),
        "positive_transitions": sorted(w.positive_transitions),
    }


def _ser_ranking(r: RankingFunction) -> dict:
    return {
        "counter_coefficients": {str(c): _frac(v) for c, v in sorted(r.y.items())},
        "state_offsets": {s: _frac(v) for s, v in sorted(r.z.items())},
        "strict_controlled_transitions": sorted(r.strict_nondet),
        "strict_probabilistic_states": sorted(r.strict_prob),
    }


def _ser_solves(mecs: list[Mec], solves: dict[tuple[str, tuple[int, ...]], tuple]) -> list:
    """Each (class, zeroed counters) solve once, by class order, then zeroed set."""
    order = {mec.mid: k for k, mec in enumerate(mecs)}
    return [
        {
            "class": mid,
            "zeroed_counters": list(zeroed),
            "flow": _ser_flow(witness),
            "ranking": _ser_ranking(ranking),
        }
        for (mid, zeroed), (witness, ranking) in sorted(
            solves.items(), key=lambda item: (order[item[0][0]], item[0][1])
        )
    ]


def _ser_estimate(beta: tuple[str, ...], est: Estimate) -> dict:
    return {
        "type": list(beta),
        "label": est.label.value,
        "tag": est.tag,
        "exact": est.exact,
        "bound": est.bound,
        "note": est.note,
        "beyond_quadratic_hint": est.beyond_quadratic_hint,
        "witnesses": dict(est.witnesses),
    }


def _ser_inventory(inv: Optional[ClassInventory]) -> Optional[dict]:
    if inv is None:
        return None
    out = {}
    for mid in sorted(inv.flags):
        f = inv.flags[mid]
        witnesses: dict = {}
        if f.kept_states is not None:
            witnesses["zero_cycle_kept_states"] = sorted(f.kept_states)
        if f.kept_transitions is not None:
            witnesses["zero_cycle_kept_transitions"] = sorted(f.kept_transitions)
        if f.uz_component is not None:
            witnesses["oscillating_component"] = sorted(f.uz_component)
        if f.uz_defect_transition is not None:
            witnesses["oscillation_defect_transition"] = f.uz_defect_transition
        out[mid] = {
            "increasing": f.increasing,
            "bounded_zero": f.bounded_zero,
            "unbounded_zero": f.unbounded_zero,
            "zero_cycle_transitions": sorted(f.bz_transitions),
            "oscillation_transitions": sorted(f.uz_transitions),
            "witnesses": witnesses,
        }
    return out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _validate_measures(m: VassMdp, measures: Optional[list[Measure]]) -> None:
    for ms in measures or []:
        if isinstance(ms, Counter) and not (1 <= ms.index <= m.dimension):
            raise ValueError(
                f"counter index {ms.index} out of range 1..{m.dimension}"
            )
        if isinstance(ms, TransitionCount) and not m.has_transition(ms.tid):
            raise UnknownTransition(ms.tid)


def _list_types(
    m: VassMdp, mecs: list[Mec], dag: bool, max_type_len: Optional[int]
) -> tuple[int, bool, list, dict]:
    """The types of at most `max_type_len` classes (by default as many as the
    model has, at least 1) with their reach certificates, the length used,
    and whether the list is complete: a DAG-like class graph visits each
    class at most once."""
    max_len = max(1, len(mecs)) if max_type_len is None else max_type_len
    types, reach = enumerate_types(m, max_len, mecs)
    return max_len, dag and max_len >= len(mecs), types, reach


def build_analysis(
    m: VassMdp,
    measures: Optional[list[Measure]] = None,
    max_type_len: Optional[int] = None,
) -> dict:
    """Classify, serialize, and attest: the `analyze` subcommand's payload,
    for every measure by default (see the module docstring). The attestation
    is `check_report` run on the document itself."""
    _validate_measures(m, measures)
    mecs = mec_decomposition(m)
    dag = is_dag_like(m, mecs)
    if m.dimension >= 2 and not dag:  # before paying for the type enumeration
        raise NotDagLike()
    if measures is None:
        measures = (
            [Termination()]
            + [Counter(c) for c in range(1, m.dimension + 1)]
            + [TransitionCount(t.tid) for t in m.transitions]
        )
    max_type_len, complete, types, reach = _list_types(m, mecs, dag, max_type_len)
    owner = transition_to_mec(mecs)

    estimates: dict[str, dict[tuple[str, ...], Estimate]] = {
        measure_key(ms): {} for ms in measures
    }
    inventory, zero_cycle = None, None
    solves: dict[tuple[str, tuple[int, ...]], tuple[SystemIWitness, RankingFunction]] = {}
    if m.dimension == 1:
        inventory = compute_inventory(m, mecs)
        solves = {(mid, ()): (f.flow, f.ranking) for mid, f in inventory.flags.items()}
        # the zero-cycle witness matters only where no class admits positive drift
        if not inventory.any_increasing:
            zero_cycle = bounded_zero_witness(m, inventory)
        for ts in types:
            for ms in measures:
                estimates[measure_key(ms)][ts.mecs] = labels_from_inventory(
                    inventory, ms, ts.mecs, owner
                )
    else:
        by_id = {mec.mid: mec for mec in mecs}
        for ts in types:
            beta_mecs = [by_id[b] for b in ts.mecs]
            for ms in measures:
                # a hint reads its class's unzeroed solve, listed by the one-class types
                est, pipeline = classify_dag(m, beta_mecs, ms, owner, solves)
                estimates[measure_key(ms)][ts.mecs] = est
                for step in pipeline or ():  # the same walk for every measure
                    key = (step.mec_id, tuple(sorted(step.zeroed)))
                    solves.setdefault(key, (step.witness, step.ranking))

    doc = {
        "tool": {"name": "vass-asym", "version": __version__},
        "model": {
            "digest": model_digest(m),
            "dimension": m.dimension,
            "states": len(m.states),
            "transitions": len(m.transitions),
        },
        "initial_convention": INITIAL_CONVENTION,
        "classes": [_ser_class(mec) for mec in mecs],
        "dag_like": dag,
        "types_complete": complete,
        "max_type_len": max_type_len,
        "types": [
            {"classes": list(ts.mecs), "weight": _frac(ts.weight)} for ts in types
        ],
        "reach": _ser_reach(reach),
        "inventory": _ser_inventory(inventory),
        "zero_cycle_witness": None if zero_cycle is None else _ser_zero_cycle(zero_cycle),
        "solves": _ser_solves(mecs, solves),
        "estimates": {
            mkey: [_ser_estimate(beta, est) for beta, est in per_type.items()]
            for mkey, per_type in estimates.items()
        },
    }
    try:
        checks = check_report(m, doc)
    except ReportError as e:  # the analysis wrote what its checker cannot read
        raise InternalError(str(e)) from None
    doc["attestation"] = {"exact_arithmetic": True, "checks": checks}
    return doc


def _analysis_text(doc: dict) -> str:
    lines = [
        f"model sha256:{doc['model']['digest'][:16]} dimension={doc['model']['dimension']} "
        f"states={doc['model']['states']} transitions={doc['model']['transitions']}",
        "classes:",
    ]
    for cls in doc["classes"]:
        lines.append(
            f"  {cls['id']}: states={{{','.join(cls['states'])}}} "
            f"transitions={{{','.join(cls['transitions'])}}}"
        )
    shape = "DAG-like" if doc["dag_like"] else "not DAG-like"
    complete = "complete" if doc["types_complete"] else f"cut at length {doc['max_type_len']}"
    lines.append(f"class graph: {shape}; {len(doc['types'])} types ({complete})")
    lines.append("types:")
    for ts in doc["types"]:
        lines.append(f"  ({','.join(ts['classes'])}) weight={ts['weight']}")
    if doc["inventory"] is not None:
        lines.append("behaviour inventory:")
        for mid, f in doc["inventory"].items():
            parts = [f"increasing={f['increasing']}"]
            if f["bounded_zero"] is not None:
                parts.append(f"zero_cycles={f['bounded_zero']}")
                parts.append(f"oscillation={f['unbounded_zero']}")
            lines.append(f"  {mid}: {' '.join(parts)}")
    lines.append("estimates:")
    for mkey, entries in doc["estimates"].items():
        for e in entries:
            flag = "exact" if e["exact"] else "extended"
            extra = f" bound={e['bound']}" if e["bound"] is not None else ""
            hint = " growth-may-exceed-degree-2" if e["beyond_quadratic_hint"] else ""
            lines.append(
                f"  {mkey} | ({','.join(e['type'])}): {e['label']}{extra} "
                f"{flag} [{e['tag']}]{hint}"
            )
            if e["note"]:
                lines.append(f"      note: {e['note']}")
    lines.append(
        f"attestation: {doc['attestation']['checks']} exact re-substitution checks passed"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _load_strategy(arg: str, m: VassMdp):
    """--strategy argument: a JSON file path, or witness:<class-id> to derive
    a randomized strategy from that class's maximal pumping flow. A file's
    every entry must resolve as the simulator resolves it; a state without
    an entry fails only when a run reaches it."""
    if not arg:
        raise ValueError("--strategy expects a JSON file or witness:<class-id>, got ''")
    if arg.startswith("witness:"):
        mid = arg[len("witness:") :]
        for mec in mec_decomposition(m):
            if mec.mid == mid:
                w, _ = compute_maximal_solutions(m, mec)
                return multicycle_strategy_from_x(m, w.x)
        raise ValueError(f"no class named {mid!r}")
    doc = _read_json(arg)
    if not isinstance(doc, dict):
        raise ValueError("strategy file must map state names to choices")
    unknown = sorted(set(doc) - set(m.state_names()))
    if unknown:
        raise ValueError(f"strategy file names unknown states {unknown}")
    probabilistic = sorted(set(doc) - {s.name for s in m.nondet_states()})
    if probabilistic:
        raise ValueError(f"strategy file names probabilistic states {probabilistic}")
    out: dict[str, Union[str, dict[str, Fraction]]] = {}
    for state, entry in doc.items():
        if isinstance(entry, str):
            out[state] = entry
        elif isinstance(entry, dict):
            out[state] = {
                tid: parse_rational(p, f"strategy for {state!r}, transition {tid!r}")
                for tid, p in entry.items()
            }
        else:
            raise ValueError(
                f"strategy for {state!r} must be a transition id or a distribution"
            )
    resolved = _Resolved(m, out)
    for state in out:  # the simulator's own check, also where no run goes
        resolved.resolve(state)
    return out


def _ser_strategy(strategy) -> Optional[dict]:
    if strategy is None:
        return None
    return {
        state: entry if isinstance(entry, str) else {t: _frac(p) for t, p in entry.items()}
        for state, entry in strategy.items()
    }


def build_sim_report(m: VassMdp, rep: TailReport, init_state: str, runs: int, strategy) -> dict:
    return {
        "tool": {"name": "vass-asym", "version": __version__},
        "model": {"digest": model_digest(m), "dimension": m.dimension},
        "initial_convention": INITIAL_CONVENTION,
        "seed": rep.seed,
        "init_state": init_state,
        "runs_per_n": runs,
        "strategy": _ser_strategy(strategy),
        "n_list": list(rep.n_list),
        "caps": {str(n): c for n, c in rep.caps.items()},
        "groups": [
            {
                "n": n,
                "realized_type": list(g.realized_type),
                "runs": g.runs,
                "terminated": g.terminated,
                "truncated": g.truncated,
                "low_sample": g.low_sample,
                "median_steps": g.median_steps,
                "median_peaks": list(g.median_peaks),
            }
            for n in rep.n_list
            for g in rep.groups[n]
        ],
    }


def _sim_text(doc: dict) -> str:
    lines = [
        f"model sha256:{doc['model']['digest'][:16]} dimension={doc['model']['dimension']} "
        f"init={doc['init_state']} seed={doc['seed']} runs_per_n={doc['runs_per_n']}"
    ]
    for n in doc["n_list"]:
        lines.append(f"n={n} cap={doc['caps'][str(n)]}")
        for g in doc["groups"]:
            if g["n"] != n:
                continue
            med = "-" if g["median_steps"] is None else f"{g['median_steps']:g}"
            peaks = ",".join("-" if p is None else f"{p:g}" for p in g["median_peaks"])
            warn = " LOW-SAMPLE" if g["low_sample"] else ""
            lines.append(
                f"  ({','.join(g['realized_type'])}) runs={g['runs']} "
                f"terminated={g['terminated']} truncated={g['truncated']} "
                f"median_steps={med} median_peaks=[{peaks}]{warn}"
            )
    return "\n".join(lines)


def _sim_csv(doc: dict, dimension: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["n", "realized_type", "runs", "terminated", "truncated", "low_sample", "median_steps"]
        + [f"median_peak_{c}" for c in range(1, dimension + 1)]
        + ["cap"]
    )
    for g in doc["groups"]:
        writer.writerow(
            [
                g["n"],
                "+".join(g["realized_type"]),
                g["runs"],
                g["terminated"],
                g["truncated"],
                int(g["low_sample"]),
                "" if g["median_steps"] is None else g["median_steps"],
            ]
            + ["" if p is None else p for p in g["median_peaks"]]
            + [doc["caps"][str(g["n"])]]
        )
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _read_model(path: str) -> VassMdp:
    return parse_vass(Path(path).read_text())


def _read_json(path: str):
    """The JSON document in file `path`; one nested deeper than the decoder
    recurses is bad input too."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _cmd_analyze(args) -> int:
    m = _read_model(args.model)
    measures = [parse_measure(s) for s in args.measure] if args.measure else None
    doc = build_analysis(m, measures, args.max_type_len)
    if args.json:
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        _emit(_analysis_text(doc), args.output)
    return 0


def _cmd_check(args) -> int:
    checks = check_report(_read_model(args.model), _read_json(args.report))
    _emit(f"{checks} exact re-substitution checks passed", None)
    return 0


def _cmd_simulate(args) -> int:
    m = _read_model(args.model)
    try:  # an empty entry is no integer either
        n_list = [int(part) for part in args.n.split(",")]
    except ValueError:
        raise ValueError(f"--n expects comma-separated integers, got {args.n!r}") from None
    strategy = None if args.strategy is None else _load_strategy(args.strategy, m)
    init = min(m.state_names()) if args.init_state is None else args.init_state
    rep = estimate_tails(
        m,
        n_list,
        args.runs,
        seed=args.seed,
        strategy=strategy,
        theta=args.theta,
        max_steps=args.max_steps,
        init_state=init,
    )
    doc = build_sim_report(m, rep, init, args.runs, strategy)
    if args.csv:
        _emit(_sim_csv(doc, m.dimension), args.output)
    elif args.json:
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        _emit(_sim_text(doc), args.output)
    return 0


def _cmd_mecs(args) -> int:
    m = _read_model(args.model)
    mecs = mec_decomposition(m)
    dag = is_dag_like(m, mecs)
    if args.json:
        doc = {"classes": [_ser_class(mec) for mec in mecs], "dag_like": dag}
        _emit(json.dumps(doc, indent=2), args.output)
        return 0
    lines = [
        f"{mec.mid}: states={{{','.join(sorted(mec.states))}}} "
        f"transitions={{{','.join(sorted(mec.transitions))}}}"
        for mec in mecs
    ]
    lines.append("class graph: " + ("DAG-like" if dag else "not DAG-like"))
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_types(args) -> int:
    m = _read_model(args.model)
    mecs = mec_decomposition(m)
    max_len, complete, types, _ = _list_types(m, mecs, is_dag_like(m, mecs), args.max_type_len)
    if args.json:
        doc = {
            "max_type_len": max_len,
            "complete": complete,
            "types": [
                {"classes": list(ts.mecs), "weight": _frac(ts.weight)} for ts in types
            ],
        }
        _emit(json.dumps(doc, indent=2), args.output)
        return 0
    lines = [f"({','.join(ts.mecs)}) weight={ts.weight}" for ts in types]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_energy(args) -> int:
    m = _read_model(args.model)
    ans = energy_safe(m, brute_bound=args.brute_bound)
    if args.json:
        doc = {
            "status": ans.status,
            "strategy": ans.strategy,
            "component": sorted(ans.bscc_states) if ans.bscc_states else None,
            "note": ans.note,
        }
        _emit(json.dumps(doc, indent=2), args.output)
        return 0
    lines = [ans.status]
    if ans.strategy:
        lines.append(
            "strategy: " + ", ".join(f"{s}->{t}" for s, t in sorted(ans.strategy.items()))
        )
    if ans.bscc_states:
        lines.append(f"component: {{{','.join(sorted(ans.bscc_states))}}}")
    if ans.note:
        lines.append(f"note: {ans.note}")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_gen_hamiltonian(args) -> int:
    doc = _read_json(args.graph)
    m = hamiltonian_reduction(doc, args.pivot)
    _emit(json.dumps(serialize_vass(m), indent=2), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="vass-asym",
        description="Exact asymptotic growth classification and Monte Carlo "
        "validation for probabilistic counter machines.",
    )
    parser.add_argument("--version", action="version", version=f"vass-asym {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="classify growth of measures along class-visit types")
    p.add_argument("model", help="model JSON file")
    p.add_argument(
        "--measure",
        action="append",
        metavar="L|C:<c>|T:<t>",
        help="measure to classify (repeatable; default: all)",
    )
    p.add_argument(
        "--max-type-len",
        type=int,
        default=None,
        help="longest class-visit sequence to enumerate (default: number of classes)",
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the JSON report")
    fmt.add_argument("--text", action="store_true", help="emit the text report (default)")
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("check", help="re-check every witness of an analysis report exactly")
    p.add_argument("model", help="model JSON file")
    p.add_argument("report", help="the model's `analyze --json` report")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="estimate measure tails by simulation")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--n", required=True, help="comma-separated start values, increasing")
    p.add_argument("--runs", type=int, required=True, help="trajectories per start value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--strategy",
        default=None,
        help="strategy JSON file, or witness:<class-id> to derive one from "
        "that class's maximal pumping flow",
    )
    p.add_argument("--theta", type=float, default=None, help="cap steps at ceil(4*n**theta)")
    p.add_argument("--max-steps", type=int, default=None, help="fixed step cap (overrides --theta)")
    p.add_argument("--init-state", default=None, help="start state (default: least name)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="emit CSV rows")
    fmt.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mecs", help="list the class decomposition")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_mecs)

    p = sub.add_parser("types", help="list realizable class-visit sequences with weights")
    p.add_argument("model")
    p.add_argument("--max-type-len", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_types)

    p = sub.add_parser("energy", help="decide existence of a non-losing bottom component")
    p.add_argument("model")
    p.add_argument("--brute-bound", type=int, default=10**6)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser(
        "gen-hamiltonian",
        help="encode undirected-graph Hamiltonicity as a one-counter energy model",
    )
    p.add_argument("graph", help='graph JSON file: {"vertices": [...], "edges": [[a,b],...]}')
    p.add_argument("pivot", help="vertex whose visit the counter meters")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen_hamiltonian)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (NotDagLike, TooManyStrategies, TooManyTypes) as e:
        print(f"out of scope: {e}", file=sys.stderr)
        return 2
    except AttestationError as e:
        print(f"attestation failure: {e}", file=sys.stderr)
        return 3
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (
        SchemaError,
        ValidationError,
        UnknownTransition,
        IncompleteStrategy,
        VertexNotInGraph,
        json.JSONDecodeError,
        ValueError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyError as e:  # a lookup no input should miss: a bug
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
