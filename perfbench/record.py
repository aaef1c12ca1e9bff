"""Record the expected outcomes in ``reference.json``.

    python3 perfbench/record.py

Runs every operation of every workload and input variant once and stores its
outcome (see ``check.py``). Before a one-counter analysis is stored, its labels
are cross-checked against strategy enumeration: behaviour flags rebuilt from
``brute_force_classify`` and fed to ``labels_from_inventory`` must give the
same label, bound, tag and exactness for every measure and type; a
disagreement aborts the recording. Re-record only when a change to the
program's outputs is intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import signal
import sys

import check
import inputs
import worker


def oracle_inventory(m, mecs):
    """Behaviour flags of every class, from strategy enumeration alone."""
    from vass_asym.graph import state_to_mec
    from vass_asym.onedim import BsccClass, ClassInventory, MecFlags, brute_force_classify, chain_bscc_transitions

    owner = state_to_mec(mecs)
    agg = {mec.mid: {"inc": False, "bz": False, "uz": False, "bzt": set(), "uzt": set()} for mec in mecs}
    for (key, b), cls in brute_force_classify(m).items():
        (mid,) = {owner[s] for s in b}
        a = agg[mid]
        tids = chain_bscc_transitions(m, dict(key), b)
        if cls is BsccClass.INCREASING:
            a["inc"] = True
        elif cls is BsccClass.BOUNDED_ZERO:
            a["bz"] = True
            a["bzt"] |= tids
        elif cls is BsccClass.UNBOUNDED_ZERO:
            a["uz"] = True
            a["uzt"] |= tids
    flags = {}
    for mec in mecs:
        a = agg[mec.mid]
        if a["inc"]:
            flags[mec.mid] = MecFlags(mec.mid, True, None, None, frozenset(), frozenset())
        else:
            flags[mec.mid] = MecFlags(
                mec.mid, False, a["bz"], a["uz"], frozenset(a["bzt"]), frozenset(a["uzt"]) - frozenset(a["bzt"])
            )
    return ClassInventory(flags=flags)


def oracle_disagreements(m, doc: dict) -> list[str]:
    """Report entries whose label differs from the strategy-enumeration one."""
    from vass_asym.graph import mec_decomposition, transition_to_mec
    from vass_asym.model import parse_measure
    from vass_asym.onedim import labels_from_inventory

    mecs = mec_decomposition(m)
    inv = oracle_inventory(m, mecs)
    owner = transition_to_mec(mecs)
    out = []
    for mkey, entries in doc["estimates"].items():
        for e in entries:
            want = labels_from_inventory(inv, parse_measure(mkey), tuple(e["type"]), owner)
            got = (e["label"], e["bound"], e["tag"], e["exact"])
            if got != (want.label.value, want.bound, want.tag, want.exact):
                out.append(f"{mkey} along {e['type']}: analyzer {got}, enumeration {want}")
    return out


def main() -> int:
    import vass_asym.cli  # noqa: F401

    signal.signal(signal.SIGALRM, worker._on_alarm)
    ref: dict = {"variants": inputs.VARIANTS, "analyze": {}, "energy": {}, "simulate": {}}
    for name in inputs.WORKLOADS:
        for variant in range(inputs.VARIANTS):
            specs_list, ops = inputs.workload(worker.ROOT, name, variant)
            specs = {m.name: m for m in specs_list}
            models = worker.build_models(specs_list, {m.name: json.dumps(m.doc) for m in specs_list})
            runner = worker.Runner(models)
            runner.capture_simulations()
            for op in ops:
                spec = specs[op.model]
                key = check.input_key(spec.doc, spec.pivot)
                table = ref[op.kind]
                if (op.label if op.kind == "simulate" else key) in table:
                    continue
                ex = runner.run(op)
                if ex.exit is None:
                    print(f"{name}: {op.label}: {ex.error}", file=sys.stderr)
                    return 1
                if op.kind == "simulate":
                    table[op.label] = {"input": key, "trajectories": ex.trajectories, "steps": ex.steps}
                elif op.kind == "energy":
                    entry = {"model": op.model, "exit": ex.exit}
                    if ex.exit == 0:
                        entry["status"] = json.loads(ex.text)["status"]
                    table[key] = entry
                else:
                    entry = {"model": op.model, "exit": ex.exit}
                    if ex.exit == 0:
                        doc = json.loads(ex.text)
                        entry["model_digest"] = doc["model"]["digest"]
                        if doc["model"]["dimension"] == 1:
                            wrong = oracle_disagreements(models[op.model], doc)
                            if wrong:
                                print(f"{op.label}: " + "; ".join(wrong[:5]), file=sys.stderr)
                                return 1
                            entry["oracle"] = "labels agree with strategy enumeration"
                        entry["outcome"] = check.analysis_outcome(doc)
                    table[key] = entry
                print(f"{name} v{variant}: {op.label} {ex.seconds:.2f}s exit {ex.exit}", file=sys.stderr)
    check.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
