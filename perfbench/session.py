"""One workload session of the minfeat benchmark, run in its own process.

    python3 perfbench/session.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR

The process pins itself to one CPU, builds the workload's corpora from the
seed, trains the toy model through the CLI, loads the checkpoint, and then
runs the workload's ``minfeat`` command in-process through
``minfeat.cli.main``. It only
measures: output checks happen in the parent (``run.py``), so the peak
resident memory of this process belongs to the workload. The raw
measurements go to ``DIR/session.json``.

With ``--trace 0`` it times the set-up several times and then runs the
command on one chunk of the corpus after another, wrapping around, for
``--seconds`` seconds; some chunk always runs twice, so determinism can be
checked. With ``--trace 1`` it alternates two untraced and two traced
sessions (set-up plus the command on the first chunk) and writes each
traced session's spans to ``DIR/spans-<k>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any

from minfeat.cli import main as minfeat_main
from minfeat.config import load_config
from minfeat.corpus import CorpusRecord, save_corpus
from minfeat.data import build_toy_corpus
from minfeat.model import load_model

from tracer import Tracer, function_stats, spans_to_json

SETUP_REPEATS = 5
TRACED_SESSIONS = 2


@dataclass(frozen=True)
class Workload:
    """A minfeat command run chunk by chunk over a generated corpus.

    The corpus holds ``per_band`` records for each (min_len, max_len)
    band, each band drawn by ``build_toy_corpus`` from its own seed and
    the bands interleaved, so every chunk of ``chunk`` records has the
    same length mix. One command explains or evaluates one chunk.
    """

    command: str
    bands: tuple[tuple[int, int], ...]
    per_band: int
    chunk: int
    overrides: dict[str, Any] = field(default_factory=dict)

    @property
    def chunks(self) -> int:
        return self.per_band * len(self.bands) // self.chunk


# The shapes and configs pick which layer dominates. A chunk keeps one
# command near 1-3 s; the corpus is large enough that a run sees well over
# a hundred distinct records, so the throughput reflects the code more than
# the sentences one seed draws. BENCHMARK.json gates explain-fine and
# evaluate-short only: on a shared 2-core host the throughput of
# explain-short and explain-long spread by 0.31 and 0.27 over ten and five
# seeds, beyond the largest bound a gate may have. They stay here for runs
# by hand. explain-long's fixed-length bands keep the DP table sizes alike
# from seed to seed.
WORKLOADS = {
    "explain-short": Workload("explain", ((11, 13),), 200, 20),
    "explain-fine": Workload("explain", ((11, 13),), 100, 10, {"steps": 300}),
    "evaluate-short": Workload("evaluate", ((11, 13),), 200, 20),
    "explain-long": Workload("explain", tuple((n, n) for n in range(24, 33, 2)), 8, 10),
}


def workload_chunks(workload: Workload, seed: int) -> list[list[CorpusRecord]]:
    bands = [
        build_toy_corpus(workload.per_band, seed * 1000 + band, min_len, max_len)
        for band, (min_len, max_len) in enumerate(workload.bands)
    ]
    corpus = [
        replace(records[i], id=f"{records[i].id}-band{band}")
        for i in range(workload.per_band)
        for band, records in enumerate(bands)
    ]
    return [corpus[k : k + workload.chunk] for k in range(0, len(corpus), workload.chunk)]


def resolved_config(workload: Workload) -> dict[str, Any]:
    """The full flat config: built-in defaults plus the workload's overrides.

    The environment is ignored here; run.py refuses to start when any
    MINFEAT_* variable is set, so the CLI resolves exactly this mapping.
    """
    values = load_config(None, env={})
    values.update(workload.overrides)
    return values


class Paths:
    def __init__(self, workdir: str, workload: Workload) -> None:
        self.workdir = workdir
        self.workload = workload
        self.config = os.path.join(workdir, "config.json")
        self.train_corpus = os.path.join(workdir, "train.jsonl")
        self.model = os.path.join(workdir, "model.json")

    def corpus(self, chunk: int) -> str:
        return os.path.join(self.workdir, f"corpus-{chunk}.jsonl")

    def output(self, chunk: int) -> str:
        return os.path.join(self.workdir, f"output-{chunk}.jsonl")

    def train_argv(self) -> list[str]:
        return ["train", "--config", self.config, "--corpus", self.train_corpus, "--out", self.model]

    def command_argv(self, chunk: int) -> list[str]:
        return [
            self.workload.command,
            "--config", self.config,
            "--corpus", self.corpus(chunk),
            "--model", self.model,
            "--out", self.output(chunk),
        ]  # fmt: skip


def set_up(paths: Paths, seed: int) -> int:
    """Write the corpora, train through the CLI, load the checkpoint.

    The model is trained on the bundled corpus (200 records of 11-13
    tokens), as a user would train it once; only the explained or
    evaluated corpus comes from the seed. Every workload shares that
    model and its vocabulary.
    """
    save_corpus(build_toy_corpus(), paths.train_corpus)
    for k, chunk in enumerate(workload_chunks(paths.workload, seed)):
        save_corpus(chunk, paths.corpus(k))
    exit_code = minfeat_main(paths.train_argv())
    load_model(paths.model)
    return exit_code


def timed(fn, *args) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def file_sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run_command(paths: Paths, chunk: int) -> dict[str, Any]:
    output = paths.output(chunk)
    if os.path.exists(output):
        os.remove(output)
    wall, exit_code = timed(minfeat_main, paths.command_argv(chunk))
    return {"chunk": chunk, "wall_s": wall, "exit_code": exit_code, "sha256": file_sha256(output)}


def measure(paths: Paths, seed: int, seconds: float) -> dict[str, Any]:
    setups = [timed(set_up, paths, seed) for _ in range(SETUP_REPEATS)]
    chunks = paths.workload.chunks
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        reps.append(run_command(paths, len(reps) % chunks))
    if len(reps) <= chunks:
        # No chunk ran twice yet; repeat one so determinism is checked.
        reps.append(run_command(paths, 0))
    return {
        "setup_s": [wall for wall, _ in setups],
        "setup_exit_codes": [code for _, code in setups],
        "reps": reps,
    }


def trace(paths: Paths, seed: int, workload_name: str) -> dict[str, Any]:
    setup_codes, untraced, traced = [], [], []
    for k in range(TRACED_SESSIONS):
        setup_wall, setup_code = timed(set_up, paths, seed)
        rep = run_command(paths, 0)
        rep["session_s"] = setup_wall + rep["wall_s"]
        setup_codes.append(setup_code)
        untraced.append(rep)

        with Tracer(f"{workload_name}-seed{seed}-pid{os.getpid()}-{k}") as tracer:
            setup_wall, setup_code = timed(set_up, paths, seed)
            # A span is appended when its call returns, so every set-up span
            # precedes the command's.
            setup_spans = len(tracer.spans)
            rep = run_command(paths, 0)
        with open(os.path.join(paths.workdir, f"spans-{k}.json"), "w", encoding="utf-8") as fh:
            json.dump({**spans_to_json(tracer.run_id, tracer.spans), "command_from": setup_spans}, fh)
        setup_codes.append(setup_code)
        rep["session_s"] = setup_wall + rep["wall_s"]
        rep["setup_stats"] = function_stats(tracer.spans[:setup_spans])
        rep["command_stats"] = function_stats(tracer.spans[setup_spans:])
        rep["counts"] = dict(tracer.counts)
        traced.append(rep)
    return {"setup_exit_codes": setup_codes, "untraced": untraced, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    # One CPU for the whole session. The CLI's pool runs six threads; spread
    # over two shared vCPUs, their interpreter-lock hand-offs turned host
    # contention into throughput swings of up to 45% between adjacent runs,
    # while the same runs on one CPU stayed within 5%. The price: this
    # benchmark cannot show what the pool gains from a second core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]
    paths = Paths(args.workdir, workload)
    with open(paths.config, "w", encoding="utf-8") as fh:
        json.dump(resolved_config(workload), fh, sort_keys=True)
    if args.trace:
        result = trace(paths, args.seed, args.workload)
    else:
        result = measure(paths, args.seed, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.workdir, "session.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
