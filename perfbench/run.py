"""stabledec benchmark: closed-loop ``analyze`` and ``verify`` over fixed game
populations, with checked outputs and counted failures.

One client in one process, no threads: each operation waits for the previous
one. The operations are the user's commands ``stabledec analyze <game> --all
--json`` and ``stabledec verify <game> --decomposition ... --limit N``, run
in process through ``stabledec.cli.main`` with the game JSON on stdin and
stdout captured. Every output is checked outside the timed spans; an
operation fails on a non-zero exit, a raised error or a check mismatch.

    python3 perfbench/run.py --workload roommate-rings --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 2 --population 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays every
analysis and verification through the library's layers under spans and
prints the per-layer metrics instead. The last line of stdout is the result
as one JSON object. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# the keys of workloads.WORKLOADS, known here before stabledec can be imported
WORKLOAD_NAMES = ("marriage-graph", "roommate-rings", "split-markets")
# closedloop.DEFAULT_VERIFY_LIMIT, the limit the known failures were measured with
DEFAULT_VERIFY_LIMIT = 20000


def run_workload(args) -> int:
    # these modules import stabledec, which main() has put on the path
    import closedloop
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seeds = workload.generator_seeds(args.population)
    base, extra = seeds[:workloads.POPULATION_SIZE], seeds[workloads.POPULATION_SIZE:]
    env = closedloop.environment()
    failures: Counter = Counter()
    setup_s = None if args.trace else closedloop.measure_setup(failures)
    tracer = tracing.Tracer() if args.trace else None
    run = closedloop.Run(
        workloads.games(workload, args.population), args.seed,
        args.verify_limit, tracer,
    )
    measured = run.loop(args.seconds)
    # setup failures are never known ones
    unexpected = list(failures) + closedloop.unexpected_failures(
        workload.name, args.population, args.verify_limit, run.failures)
    failures.update(run.failures_by_reason())

    print(f"workload {workload.name}  seed {args.seed}  population {args.population} "
          f"(generator seeds {base[0]}..{base[-1]}{''.join(f', {s}' for s in extra)})  "
          f"measured {measured:.1f} s  "
          f"verify --limit {args.verify_limit}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("input properties: " + "  ".join(
        f"{k} {v:.4g}" for k, v in run.input_properties().items()))
    print("failures by reason: "
          + (json.dumps(dict(sorted(failures.items()))) if failures else "none"))
    print("failed games by reason: " + (json.dumps(
        {f"{r} (game {g})": n for (r, g), n in sorted(run.failures.items())})
        if run.failures else "none"))
    print("unexpected failures: " + ("; ".join(unexpected) if unexpected else "none"))
    if args.trace:
        metrics = run.per_layer()
        units = closedloop.PER_LAYER
        stages = {f"{s}_s": metrics[f"{s}_s"] for s in closedloop.ANALYZE_STAGES}
        total = sum(stages.values())
        print("share of traced analysis time: " + "  ".join(
            f"{m} {v / total:.1%}" for m, v in stages.items()))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload.name}-seed{args.seed}-pop{args.population}.json"
        trace_file.write_text(json.dumps({
            "env": env, "workload": workload.name, "seed": args.seed,
            "population": args.population,
            "counts": dict(tracer.counts), "spans": tracer.spans,
        }))
        print(f"spans written to perfbench/out/{trace_file.name}")
    else:
        metrics, notes = run.end_to_end(setup_s)
        units = closedloop.END_TO_END
        for note in notes:
            print(note)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--population", str(args.population),
               "--verify-limit", str(args.verify_limit)]
        status = subprocess.run(cmd).returncode or status
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0, help="seed of the loop order and the checks")
    p.add_argument("--seconds", type=int, default=15,
                   help="least time the loop measures; one pass over the population "
                        "may take longer")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--population", type=int, default=0,
                   help="game population; 1 and above hold games no default run sees")
    p.add_argument("--verify-limit", type=int, default=DEFAULT_VERIFY_LIMIT,
                   help="--limit of every verify operation")
    args = p.parse_args(argv)
    if args.seconds < 1 or args.population < 0 or args.verify_limit < 1:
        p.error("--seconds and --verify-limit must be positive, --population not negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stabledec" / "cli.py").is_file():
        print("perfbench: run from a stabledec checkout; src/stabledec is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
