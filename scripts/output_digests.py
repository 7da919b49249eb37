"""Print a SHA-256 digest of every output the benchmark workloads write.

For each seed and each workload of ``perfbench/session.py`` (explain-short
at the default config, explain-fine at 300 steps, evaluate-short and
explain-long), this writes the workload's corpus chunks, trains the model
on the bundled corpus and runs the workload's ``minfeat`` command on every
chunk in-process, all through the benchmark's own set-up and run
functions. The checkpoint the set-up trains gets one
``sha256  workload/seedS/model.json`` line and each output one
``sha256  workload/seedS/output-K.jsonl`` line, so two checkouts can be
compared with diff:

    PYTHONPATH=src python3 scripts/output_digests.py --seeds 0 3 7

A change that claims byte-identical checkpoints and outputs should print
the same lines as its parent commit. ``--workloads`` and ``--chunks``
narrow the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

from session import WORKLOADS, Paths, file_sha256, resolved_config, run_command, set_up  # noqa: E402


def workload_digests(name: str, seed: int, workdir: str, chunks: int | None = None) -> list[str]:
    """Train the workload's model and run its command on its first
    `chunks` chunks (all by default) under workdir; return one digest
    line for the checkpoint, then one per output."""
    workload = WORKLOADS[name]
    paths = Paths(workdir, workload)
    with open(paths.config, "w", encoding="utf-8") as fh:
        json.dump(resolved_config(workload), fh, sort_keys=True)
    # The CLI's own messages go to stderr, keeping stdout to digest lines.
    with contextlib.redirect_stdout(sys.stderr):
        if set_up(paths, seed) != 0:
            raise SystemExit(f"{name} seed {seed}: minfeat train failed")
        reps = [run_command(paths, k) for k in range(min(workload.chunks, chunks or workload.chunks))]
    lines = [f"{file_sha256(paths.model)}  {name}/seed{seed}/{os.path.basename(paths.model)}"]
    for chunk, rep in enumerate(reps):
        if rep["exit_code"] != 0 or rep["sha256"] is None:
            raise SystemExit(f"{name} seed {seed} chunk {chunk}: minfeat exited {rep['exit_code']}")
        lines.append(f"{rep['sha256']}  {name}/seed{seed}/{os.path.basename(paths.output(chunk))}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3, 7], help="corpus seeds")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--chunks", type=int, help="run only the first CHUNKS chunks of each workload")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as root:
        for seed in args.seeds:
            for name in args.workloads:
                workdir = os.path.join(root, f"{name}-seed{seed}")
                os.mkdir(workdir)
                for line in workload_digests(name, seed, workdir, args.chunks):
                    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
