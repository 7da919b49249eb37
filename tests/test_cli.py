"""End-to-end command-line flows: train, explain, evaluate, error exits."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minfeat
from minfeat.cli import main
from minfeat.corpus import save_corpus
from minfeat.data import build_toy_corpus
from minfeat.errors import InputError
from minfeat.knapsack import MAX_TABLE_CELLS
from minfeat.model import Model, load_model
from minfeat.reports import read_reports, write_reports
from test_reports import sample_report


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A small corpus, a fast config, and a model trained through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    config = root / "config.json"
    model = root / "model.json"
    save_corpus(build_toy_corpus(size=24, seed=3), str(corpus))
    config.write_text(json.dumps({"epochs": 40, "steps": 10, "n_iter": 3}), encoding="utf-8")
    code = main(["train", "--corpus", str(corpus), "--out", str(model), "--config", str(config)])
    assert code == 0
    return {"root": root, "corpus": corpus, "config": config, "model": model}


class TestTrain:
    def test_reports_accuracy_and_writes_checkpoint(self, cli_env, capsys):
        out = cli_env["root"] / "model2.json"
        code = main(
            [
                "train",
                "--corpus",
                str(cli_env["corpus"]),
                "--out",
                str(out),
                "--config",
                str(cli_env["config"]),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "training accuracy" in captured.out
        load_model(str(out))

    def test_same_invocation_same_bytes(self, cli_env):
        a, b = cli_env["root"] / "m_a.json", cli_env["root"] / "m_b.json"
        for out in (a, b):
            args = ["train", "--corpus", str(cli_env["corpus"]), "--out", str(out)]
            assert main(args + ["--config", str(cli_env["config"])]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_1_quietly(self, cli_env, tmp_path, unbuffered):
        # `minfeat train ... | true`: the reader is gone before the first
        # message; with or without a stdout buffer the run must not print
        # a traceback, and the checkpoint is still written.
        out = tmp_path / "model.json"
        src = str(Path(minfeat.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        argv = ["train", "--corpus", str(cli_env["corpus"]), "--out", str(out)]
        argv += ["--config", str(cli_env["config"])]
        entry_point = "import sys; from minfeat.cli import main; sys.exit(main())"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", entry_point, *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        load_model(str(out))

    def test_missing_corpus_exits_2(self, cli_env, capsys):
        code = main(
            ["train", "--corpus", str(cli_env["root"] / "nope.jsonl"), "--out", "x.json"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, cli_env):
        code = main(
            [
                "train",
                "--corpus",
                str(cli_env["corpus"]),
                "--out",
                str(cli_env["root"] / "m.json"),
                "--seed",
                "-1",
            ]
        )
        assert code == 2
        # explain validates its seed in CidrConfig, not in the CLI.
        code = main(
            [
                "explain",
                "--corpus",
                str(cli_env["corpus"]),
                "--model",
                str(cli_env["model"]),
                "--out",
                str(cli_env["root"] / "r.jsonl"),
                "--seed",
                "-1",
            ]
        )
        assert code == 2

    def test_seed_beyond_64_bits_exits_2(self, cli_env, tmp_path, capsys):
        # The seed key is shared with explain and evaluate, which reject it.
        out = tmp_path / "m.json"
        args = ["train", "--corpus", str(cli_env["corpus"]), "--out", str(out)]
        assert main(args + ["--seed", str(2**64)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, cli_env, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"warmup": 3}), encoding="utf-8")
        code = main(
            [
                "train",
                "--corpus",
                str(cli_env["corpus"]),
                "--out",
                str(tmp_path / "m.json"),
                "--config",
                str(bad),
            ]
        )
        assert code == 2

    def test_non_finite_config_value_exits_2(self, cli_env, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"learning_rate": Infinity}', encoding="utf-8")
        code = main(
            [
                "train",
                "--corpus",
                str(cli_env["corpus"]),
                "--out",
                str(tmp_path / "m.json"),
                "--config",
                str(bad),
            ]
        )
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_label_above_an_empty_class_exits_2(self, tmp_path, capsys):
        # Labels 0 and 10**12 would ask for 10**12 + 1 output classes; the
        # gap is named before any parameter is allocated.
        corpus = tmp_path / "gap.jsonl"
        corpus.write_text(
            '{"id":"a","text":"good plot","label":0}\n{"id":"b","text":"bad plot","label":1000000000000}\n',
            encoding="utf-8",
        )
        out = tmp_path / "m.json"
        assert main(["train", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert "label 1000000000000 leaves class 1" in capsys.readouterr().err
        assert not out.exists()


def _drop_w2(payload):
    del payload["w2"]


def _truncate_w1(payload):
    payload["w1"] = payload["w1"][:-1]


def _wrong_embed_dim(payload):
    payload["embed_dim"] = 8


def _nan_in_b1(payload):
    payload["b1"][0] = float("nan")


def _extra_vocab_word(payload):
    payload["vocab"]["zzzz"] = len(payload["vocab"])


def _set(field, value):
    def corrupt(payload):
        payload[field] = value

    corrupt.__name__ = f"_{field}_{value}"
    return corrupt


def _whole_float_hidden_dim(payload):
    payload["hidden_dim"] = float(payload["hidden_dim"])


def _float_vocab_index(payload):
    word = next(w for w, index in payload["vocab"].items() if index == 3)
    payload["vocab"][word] = 3.4


def _one_class(payload):
    payload["num_classes"] = 1
    payload["w2"] = payload["w2"][:1]
    payload["b2"] = payload["b2"][:1]


def _beyond_float_in_b1(payload):
    payload["b1"][0] = 10**400


def _beyond_float_in_embedding(payload):
    payload["embedding"][1][0] = -(10**400)


class TestExplain:
    def _explain(self, cli_env, out, extra=()):
        return main(
            [
                "explain",
                "--corpus",
                str(cli_env["corpus"]),
                "--model",
                str(cli_env["model"]),
                "--out",
                str(out),
                "--config",
                str(cli_env["config"]),
                *extra,
            ]
        )

    def test_writes_one_report_per_record(self, cli_env, capsys):
        out = cli_env["root"] / "reports.jsonl"
        assert self._explain(cli_env, out) == 0
        assert "wrote 24 reports" in capsys.readouterr().out
        reports = read_reports(str(out))
        assert len(reports) == 24
        assert all(r.oov_count == 0 for r in reports)

    def test_one_forward_per_record(self, cli_env, tmp_path, monkeypatch):
        # The forward that picks the explained class also gives the
        # report's probability; refinement works on the pair scores alone.
        corpus = tmp_path / "three.jsonl"
        save_corpus(build_toy_corpus(size=24, seed=3)[:3], str(corpus))
        calls = []
        forward = Model.forward
        monkeypatch.setattr(Model, "forward", lambda self, x: calls.append(1) or forward(self, x))
        out = tmp_path / "r.jsonl"
        argv = ["explain", "--corpus", str(corpus), "--model", str(cli_env["model"]), "--out", str(out)]
        assert main(argv + ["--config", str(cli_env["config"])]) == 0
        assert len(calls) == 3
        model = load_model(str(cli_env["model"]))
        for report in read_reports(str(out)):
            probs = forward(model, model.embed([model.vocab.token_to_index[w] for w in report.tokens]))
            assert report.predicted_probability == float(probs.max())

    def test_repeat_runs_byte_identical(self, cli_env):
        a, b = cli_env["root"] / "r_a.jsonl", cli_env["root"] / "r_b.jsonl"
        assert self._explain(cli_env, a) == 0
        assert self._explain(cli_env, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oov_tokens_warned_and_counted(self, cli_env, tmp_path, capsys):
        corpus = tmp_path / "oov.jsonl"
        corpus.write_text(
            '{"id":"x","text":"zzzz good nice plot","label":1}\n', encoding="utf-8"
        )
        out = tmp_path / "r.jsonl"
        code = main(
            [
                "explain",
                "--corpus",
                str(corpus),
                "--model",
                str(cli_env["model"]),
                "--out",
                str(out),
                "--config",
                str(cli_env["config"]),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "out-of-vocabulary" in captured.err
        assert read_reports(str(out))[0].oov_count == 1

    def test_seed_flag_recorded_in_reports(self, cli_env, tmp_path):
        out = tmp_path / "r.jsonl"
        assert self._explain(cli_env, out, extra=["--seed", "11"]) == 0
        assert read_reports(str(out))[0].seed == 11

    def test_seed_beyond_64_bits_exits_2(self, cli_env, tmp_path, capsys):
        # Philox keys are unsigned 64-bit words; 2**64 is a named config
        # error, not an overflow traceback.
        out = tmp_path / "r.jsonl"
        assert self._explain(cli_env, out, extra=["--seed", str(2**64)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("q, named", [(308, "quantization digits"), (400, "q must lie in")])
    def test_quantization_digits_beyond_float_range_exit_2(self, cli_env, tmp_path, capsys, q, named):
        # 10**400 is no finite float; 10**308 is, but scales the capacity
        # to inf. Both are named config errors, not overflow tracebacks.
        config = tmp_path / "q.json"
        config.write_text(json.dumps({"steps": 10, "n_iter": 3, "q": q}), encoding="utf-8")
        out = tmp_path / "r.jsonl"
        args = ["explain", "--corpus", str(cli_env["corpus"]), "--model", str(cli_env["model"])]
        assert main(args + ["--out", str(out), "--config", str(config)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_table_beyond_cell_limit_exits_2(self, cli_env, tmp_path, capsys):
        # At q = 10 a three-pair record whose capacity (about 0.015) stays
        # below its weight sum needs about 6e8 table cells, more than
        # MAX_TABLE_CELLS: the batched quantize still names the limit.
        config = tmp_path / "q.json"
        config.write_text(json.dumps({"steps": 10, "n_iter": 3, "q": 10}), encoding="utf-8")
        out = tmp_path / "r.jsonl"
        args = ["explain", "--corpus", str(cli_env["corpus"]), "--model", str(cli_env["model"])]
        assert main(args + ["--out", str(out), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "table cells" in err and f"limit {MAX_TABLE_CELLS}" in err
        assert not out.exists()

    def test_capacities_that_fit_every_pair_need_no_table(self, cli_env, tmp_path, capsys):
        # On 64-token records a capacity can reach 1.6e5 quantized units
        # over about 2000 pairs, 3.2e8 cells, yet fit every pair: the DP
        # builds no table there, so the cell limit does not apply.
        corpus = tmp_path / "long.jsonl"
        save_corpus(build_toy_corpus(10, seed=5, min_len=64, max_len=64), str(corpus))
        out = tmp_path / "r.jsonl"
        args = ["explain", "--corpus", str(corpus), "--model", str(cli_env["model"])]
        assert main(args + ["--out", str(out), "--config", str(cli_env["config"])]) == 0
        assert "wrote 10 reports" in capsys.readouterr().out
        assert len(read_reports(str(out))) == 10

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (_drop_w2, "w2"),
            (_truncate_w1, "w1"),
            (_wrong_embed_dim, "embedding"),
            (_nan_in_b1, "b1"),
            (_extra_vocab_word, "embedding"),
            # Scalars must be JSON integers, not booleans or floats that
            # int() would truncate into a valid-looking checkpoint.
            (_set("pad_index", True), "pad_index"),
            (_set("pad_index", 0.9), "pad_index"),
            (_set("num_classes", 2.5), "num_classes"),
            (_set("embed_dim", 16.7), "embed_dim"),
            (_whole_float_hidden_dim, "hidden_dim"),
            (_float_vocab_index, "vocab"),
            # Dimensions below their least values: a width of zero, and
            # one class, whose every attribution and metric is zero.
            (_set("embed_dim", 0), "embed_dim must be >= 1"),
            (_set("hidden_dim", 0), "hidden_dim must be >= 1"),
            (_one_class, "num_classes must be >= 2"),
            # The PAD embedding is the IG baseline and every removal.
            (_set("pad_index", 5), "pad_index 5 is not vocab['[pad]']"),
            # JSON integers beyond float range.
            (_beyond_float_in_b1, "'b1' is not a numeric array"),
            (_beyond_float_in_embedding, "'embedding' is not a numeric array"),
            # Only the JSON integer 1, not "1", 1.0 or true.
            (_set("format_version", "1"), "unsupported checkpoint version '1', expected 1"),
            (_set("format_version", 1.0), "unsupported checkpoint version 1.0"),
            (_set("format_version", True), "unsupported checkpoint version True"),
            # The loader pads with PAD_TOKEN, the checkpoint's own [pad].
            (_set("pad_token", "xyz"), "model checkpoint pad_token 'xyz' is not '[pad]'"),
        ],
    )
    def test_invalid_checkpoint_exits_2(self, cli_env, tmp_path, capsys, corrupt, named):
        payload = json.loads(cli_env["model"].read_text(encoding="utf-8"))
        corrupt(payload)
        assert self._explain_with_checkpoint(cli_env, tmp_path, payload) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def _explain_with_checkpoint(self, cli_env, tmp_path, payload, corpus=None):
        """Exit code of explain into tmp_path/r.jsonl with payload as the
        checkpoint, on the fixture's corpus unless one is given."""
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        args = ["explain", "--corpus", str(corpus or cli_env["corpus"]), "--model", str(bad)]
        return main(args + ["--out", str(tmp_path / "r.jsonl"), "--config", str(cli_env["config"])])

    def test_huge_embedding_entry_names_the_cell_limit_in_one_line(self, cli_env, tmp_path, capsys):
        # An entry of 1e200 scales a knapsack capacity past any table;
        # the message prints the capacity and cell count in short form.
        payload = json.loads(cli_env["model"].read_text(encoding="utf-8"))
        payload["embedding"][1][0] = 1e200
        assert self._explain_with_checkpoint(cli_env, tmp_path, payload) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            rf"error: quantized capacity \S{{1,9}} needs \S{{1,9}} table cells \(limit {MAX_TABLE_CELLS}\); "
            "lower the quantization digits",
            line,
        )

    def test_pad_row_near_float_maximum_prints_the_named_error_alone(self, cli_env, tmp_path, capsys):
        # The baseline and a sentence with two OOV (padded) words pool to
        # inf without a numpy warning: the non-finite path is the one
        # message, and no warning turns into an exit 70 under pytest.
        payload = json.loads(cli_env["model"].read_text(encoding="utf-8"))
        payload["embedding"][payload["pad_index"]][0] = 1.7e308
        corpus = tmp_path / "oov.jsonl"
        corpus.write_text('{"id":"x","text":"zzzz yyyy good nice plot","label":1}\n', encoding="utf-8")
        assert self._explain_with_checkpoint(cli_env, tmp_path, payload, corpus) == 2
        assert capsys.readouterr().err == "error: path start or offsets contain non-finite values\n"

    def test_word_row_near_float_maximum_prints_the_named_error_alone(self, cli_env, tmp_path, capsys):
        # A finite word row of -1.7e308 pools and integrates finitely, but
        # its delta times the path's gradient sum overflows without a
        # numpy warning: the non-finite score is the one message, and no
        # warning turns into an exit 70 under pytest.
        payload = json.loads(cli_env["model"].read_text(encoding="utf-8"))
        payload["embedding"][1][0] = -1.7e308
        assert self._explain_with_checkpoint(cli_env, tmp_path, payload) == 2
        assert capsys.readouterr().err == "error: attribution scores contain non-finite values\n"

    # A finite parameter near the float maximum can overflow a pooled sum:
    # numpy warns, and the run stops on the non-finite check with exit 2.
    # Outside pytest's warnings-as-errors that warning is only printed.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(data=st.data())
    @settings(max_examples=80)
    def test_corrupted_checkpoint_exits_0_or_2(self, cli_env, data):
        # One checkpoint field, vocabulary entry or parameter entry takes
        # a wrong-typed, out-of-range or huge value: the load names it
        # (exit 2), or the run explains on (exit 0), never a traceback.
        payload = json.loads(cli_env["model"].read_text(encoding="utf-8"))
        target = data.draw(st.sampled_from(["field", "vocab", "embedding", "w1", "b1", "w2", "b2"]))
        if target == "field":
            container, key = payload, data.draw(st.sampled_from(sorted(payload)))
        elif target == "vocab":
            container, key = payload["vocab"], data.draw(st.sampled_from(sorted(payload["vocab"])))
        else:
            container = payload[target]
            if isinstance(container[0], list):
                container = container[data.draw(st.integers(0, len(container) - 1))]
            key = data.draw(st.integers(0, len(container) - 1))
        container[key] = data.draw(_BAD_CHECKPOINT_VALUES)
        root = cli_env["root"]
        model, corpus, config = (root / f"fuzz-{name}" for name in ("model.json", "corpus.jsonl", "config.json"))
        model.write_text(json.dumps(payload), encoding="utf-8")
        two_records = cli_env["corpus"].read_text(encoding="utf-8").splitlines(True)[:2]
        corpus.write_text("".join(two_records), encoding="utf-8")
        config.write_text(json.dumps({"steps": 4, "n_iter": 2}), encoding="utf-8")
        args = ["explain", "--corpus", str(corpus), "--model", str(model), "--config", str(config)]
        assert main(args + ["--out", str(root / "fuzz-reports.jsonl")]) in (0, 2)


_BAD_CHECKPOINT_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([[], {}, [[]], [1.0, [2.0]]]),
    st.integers(-3, 40),
    st.sampled_from([2**63, 2**64, 10**400, -(10**400)]),
    st.floats(),
)


class TestEvaluate:
    def test_prints_table_and_writes_rows(self, cli_env, capsys):
        out = cli_env["root"] / "metrics.jsonl"
        code = main(
            [
                "evaluate",
                "--corpus",
                str(cli_env["corpus"]),
                "--model",
                str(cli_env["model"]),
                "--config",
                str(cli_env["config"]),
                "--methods",
                "cidr,random",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "method" in captured.out
        assert "cidr" in captured.out and "random" in captured.out
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["method"] for row in rows] == ["cidr", "random"]
        assert all(row["n"] == 24 for row in rows)

    def test_oov_tokens_warned(self, cli_env, tmp_path, capsys):
        corpus = tmp_path / "oov.jsonl"
        corpus.write_text(
            '{"id":"x","text":"zzzz good nice plot","label":1}\n', encoding="utf-8"
        )
        code = main(
            [
                "evaluate",
                "--corpus",
                str(corpus),
                "--model",
                str(cli_env["model"]),
                "--config",
                str(cli_env["config"]),
                "--methods",
                "cidr",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "warning: 1 out-of-vocabulary tokens were treated as PAD\n"
        assert captured.out.splitlines()[1].split()[0] == "cidr"

    def test_widest_seed_keeps_table_columns(self, cli_env, capsys):
        seed = 2**64 - 1
        code = main(
            [
                "evaluate",
                "--corpus",
                str(cli_env["corpus"]),
                "--model",
                str(cli_env["model"]),
                "--config",
                str(cli_env["config"]),
                "--methods",
                "cidr,random",
                "--seed",
                str(seed),
            ]
        )
        assert code == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["method", "LO", "Comp", "FMS", "N", "seed"]
        assert [row.split()[0] for row in rows] == ["cidr", "random"]
        for row in rows:
            fields = row.split()
            assert len(fields) == 6
            assert int(fields[4]) == 24
            assert int(fields[5]) == seed

    def test_unknown_method_exits_2(self, cli_env, capsys):
        code = main(
            [
                "evaluate",
                "--corpus",
                str(cli_env["corpus"]),
                "--model",
                str(cli_env["model"]),
                "--methods",
                "oracle",
            ]
        )
        assert code == 2
        assert "oracle" in capsys.readouterr().err

    def test_repeated_method_exits_2(self, cli_env, capsys):
        args = ["evaluate", "--corpus", str(cli_env["corpus"]), "--model", str(cli_env["model"])]
        assert main(args + ["--methods", "cidr,cidr"]) == 2
        captured = capsys.readouterr()
        assert "['cidr'] are requested more than once" in captured.err
        assert captured.out == ""

    def test_corrupt_model_exits_2(self, cli_env, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("not json", encoding="utf-8")
        code = main(
            [
                "evaluate",
                "--corpus",
                str(cli_env["corpus"]),
                "--model",
                str(bad),
                "--methods",
                "random",
            ]
        )
        assert code == 2


def _run_with(cli_env, command, out, **inputs):
    """Exit code of command on the fixture's inputs, with the given files in their place."""
    paths = {name: cli_env[name] for name in ("corpus", "config", "model")} | inputs
    argv = [command, "--out", str(out), "--corpus", str(paths["corpus"]), "--config", str(paths["config"])]
    return main(argv if command == "train" else argv + ["--model", str(paths["model"])])


def _with_member(source, path, member):
    """Write source's text to path with member inserted first in its first JSON object."""
    path.write_text(source.read_text(encoding="utf-8").replace("{", "{" + member + ",", 1), encoding="utf-8")
    return path


class TestFiles:
    @pytest.mark.parametrize(
        "command, key, value",
        [("train", "beta", 5), ("train", "q", -1)]
        + [(command, key, value) for command in ("explain", "evaluate")
           for key, value in (("epochs", -3), ("batch_size", 0), ("learning_rate", -1))]
        + [(command, key, 10**15) for command in ("train", "explain", "evaluate") for key in ("steps", "n_iter")],
    )  # fmt: skip
    def test_config_invalid_for_any_command_exits_2_naming_the_key(
        self, cli_env, tmp_path, capsys, command, key, value
    ):
        # A key no step of this command reads is still checked: a config
        # file is valid for every command or for none.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "out"
        assert _run_with(cli_env, command, out, config=config) == 2
        assert re.search(rf"^error: .*\b{key}\b", capsys.readouterr().err, re.MULTILINE)
        assert not out.exists()

    @pytest.mark.parametrize(
        "role, key, value, what",
        [("config", "steps", 300, "config"), ("corpus", "text", "x", "line 1: record"),
         ("model", "num_classes", 2, "model checkpoint"), ("report", "seed", 0, "line 1: report line")],
    )  # fmt: skip
    def test_repeated_key_is_an_input_error_naming_it(self, cli_env, tmp_path, capsys, role, key, value, what):
        # json.loads would keep the last value; RFC 8259 leaves the meaning
        # of a repeated key unpredictable, so every input file refuses it.
        source = cli_env.get(role, tmp_path / "reports.jsonl")
        if role == "report":
            write_reports([sample_report()], str(source))
        bad = _with_member(source, tmp_path / f"{role}.bad", json.dumps({key: value})[1:-1])
        message = f"{what} is not valid JSON: repeated key {key!r}"
        if role == "report":
            with pytest.raises(InputError, match=f"^{message}$"):
                read_reports(str(bad))
            return
        for command in ("explain", "evaluate") if role == "model" else ("train", "explain", "evaluate"):
            out = tmp_path / "out"
            assert _run_with(cli_env, command, out, **{role: bad}) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "value, detail",
        [("1" + "0" * 5000, "Exceeds the limit (4300 digits)"),
         ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded")],
        ids=["long-integer", "deep-nesting"],
    )  # fmt: skip
    @pytest.mark.parametrize("role", ["corpus", "config", "model"])
    def test_json_beyond_the_parser_exits_2_naming_it(self, cli_env, tmp_path, capsys, role, value, detail):
        # json.loads raises ValueError or RecursionError here, not JSONDecodeError.
        bad = _with_member(cli_env[role], tmp_path / f"{role}.bad", f'"extra":{value}')
        out = tmp_path / "r.jsonl"
        assert _run_with(cli_env, "explain", out, **{role: bad}) == 2
        what = {"corpus": "line 1: record", "config": "config", "model": "model checkpoint"}[role]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} is not valid JSON: {detail}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["corpus", "config", "model"])
    def test_input_not_utf8_exits_2_naming_it(self, cli_env, tmp_path, capsys, role):
        bad = tmp_path / f"{role}.bad"
        bad.write_bytes(b"\xff" + cli_env[role].read_bytes())
        out = tmp_path / "r.jsonl"
        assert _run_with(cli_env, "explain", out, **{role: bad}) == 2
        err = capsys.readouterr().err
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff in position 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["in-missing-directory", "is-a-directory"])
    @pytest.mark.parametrize("command", ["train", "explain", "evaluate"])
    def test_unwritable_out_exits_2_naming_it(self, cli_env, tmp_path, capsys, command, where):
        missing = where == "in-missing-directory"
        out = tmp_path / "missing" / "out" if missing else tmp_path / "out"
        if not missing:
            out.mkdir()
        assert _run_with(cli_env, command, out) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}: " in err
        assert "Traceback" not in err
        # No temporary file is left behind.
        assert os.listdir(tmp_path) == ([] if missing else ["out"])
        assert out.is_dir() != missing
