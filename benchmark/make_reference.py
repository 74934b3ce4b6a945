"""Record benchmark/reference.json from the code in this checkout.

Usage (from the repository root): ``python3 benchmark/make_reference.py``.
Runs every command of every workload once per seed of the pool, untimed
and without tracing, and stores the digests that run.py compares against.
Takes about five minutes on two cores. Re-record only when an output is
meant to change, and say which in the change that does it.
"""

import json
import os
import sys

import run

sys.path.insert(0, run.SRC)

import session  # noqa: E402  (needs src on sys.path)


def command_digest(command, slot):
    out_dir = os.path.join(run.WORK, command.name)
    argv = run.cli_argv(command.args + ["--out", out_dir], False, None)
    outcome = run.run_process(argv, os.path.join(run.WORK, f"{command.name}.log"))
    digest, problems, _ = run.check_command(command, out_dir, outcome.exit, None, slot)
    if problems:
        raise SystemExit(f"{command.name} seed {slot}: {problems}")
    print(f"{command.name} seed {slot}: exit {outcome.exit}", flush=True)
    return digest


def main():
    run.prepare_work()
    reference = {"seed_pool": run.SEED_POOL}
    (entropy,) = run.ball_entropy_commands(0, toy=False)
    reference["entropy"] = command_digest(entropy, 0)
    for slot in range(run.SEED_POOL):
        for command in run.flag_sampler_commands(slot, toy=False):
            reference.setdefault(command.name, {})[str(slot)] = \
                command_digest(command, slot)
    state = session.setup(session.FULL)
    cocycles = {}
    for slot in range(run.SEED_POOL):
        summary = session.operation(state, slot, session.FULL)
        problems = run.check_session(summary, None, slot)
        if problems:
            raise SystemExit(f"class-spectrum seed {slot}: {problems}")
        cocycles[str(slot)] = summary["cocycles"]
        print(f"class-spectrum seed {slot}", flush=True)
    reference["class-spectrum"] = {"classes": summary["classes"],
                                   "cocycles": cocycles}
    with open(run.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
