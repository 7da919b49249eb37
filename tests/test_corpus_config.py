"""Corpus file handling, tokenization, config resolution, bundled data."""

from __future__ import annotations

import ast
import json
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import minfeat
from minfeat.config import ALL_KEYS, cidr_config_from, load_config, train_config_from
from minfeat.corpus import CorpusRecord, load_corpus, save_corpus, tokenize
from minfeat.data import (
    DEFAULT_ANCHOR_RATE,
    FILLER_WORDS,
    INTENSE_NEGATIVE,
    INTENSE_POSITIVE,
    MILD_NEGATIVE,
    MILD_POSITIVE,
    build_toy_corpus,
)
from minfeat.errors import ConfigError, InputError
from minfeat.model import TrainConfig
from minfeat.pipeline import CidrConfig


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The  Movie\twas GOOD") == ["the", "movie", "was", "good"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestCorpusRecord:
    def test_validation(self):
        with pytest.raises(InputError):
            CorpusRecord(id="", text="x", label=0)
        with pytest.raises(InputError):
            CorpusRecord(id="a", text="  ", label=0)
        with pytest.raises(InputError):
            CorpusRecord(id="a", text="x", label=-1)
        # Field types are the record's own check, whether it comes from a
        # corpus line or from Python.
        with pytest.raises(InputError, match="^label must be an integer$"):
            CorpusRecord(id="a", text="x", label=True)
        with pytest.raises(InputError, match="^id must be a string$"):
            CorpusRecord(id=5, text="x", label=0)
        with pytest.raises(InputError, match="^text must be a string$"):
            CorpusRecord(id="a", text=None, label=0)


class TestLoadCorpus:
    def test_round_trip(self, tmp_path):
        records = [CorpusRecord(id="a", text="good movie", label=1), CorpusRecord(id="b", text="bad", label=0)]
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, str(path))
        assert load_corpus(str(path)) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","text":"x","label":0}\n\n\n{"id":"b","text":"y","label":1}\n', encoding="utf-8")
        assert [r.id for r in load_corpus(str(path))] == ["a", "b"]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id":"a","text":"x","label":0}\r\n{"id":"b","text":"y","label":1}\r\n')
        assert len(load_corpus(str(path))) == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","text":"x","label":0}\n{broken\n', encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_corpus(str(path))
        assert "line 2" in str(err.value)

    def test_duplicate_id_reports_both_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id":"a","text":"x","label":0}\n{"id":"b","text":"y","label":1}\n{"id":"a","text":"z","label":0}\n',
            encoding="utf-8",
        )
        with pytest.raises(InputError) as err:
            load_corpus(str(path))
        assert "lines 1 and 3" in str(err.value)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","text":"x"}\n', encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_corpus(str(path))
        assert "label" in str(err.value)

    def test_boolean_label_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","text":"x","label":true}\n', encoding="utf-8")
        with pytest.raises(InputError):
            load_corpus(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_corpus(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_corpus(str(tmp_path / "nope.jsonl"))


class TestLoadConfig:
    def test_defaults_without_sources(self):
        values = load_config()
        assert values["beta"] == 0.5
        assert values["epsilon"] == 0.5
        assert values["n_iter"] == 10
        assert values["epochs"] == 80
        assert values["seed"] == 0  # pipeline seed is the shared default

    def test_each_default_is_every_owning_dataclass_default(self):
        # seed belongs to both dataclasses, so both must share its default:
        # TrainConfig() then trains the model `minfeat train` writes.
        values = load_config()
        for key in ALL_KEYS:
            owners = [cls() for cls in (CidrConfig, TrainConfig) if key in {f.name for f in fields(cls)}]
            assert owners, key
            assert all(values[key] == getattr(owner, key) for owner in owners), key

    def test_env_keyword_takes_no_overrides(self):
        # MINFEAT_* overrides are gone; passing one must fail, not be ignored.
        assert load_config(None, env={}) == {**asdict(CidrConfig()), **asdict(TrainConfig())}
        with pytest.raises(TypeError, match="MINFEAT_"):
            load_config(None, env={"MINFEAT_BETA": "0.75"})

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": 0.25, "epochs": 5}), encoding="utf-8")
        values = load_config(path=str(path))
        assert values["beta"] == 0.25
        assert values["epochs"] == 5
        assert values["t"] == 0.5

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"betta": 0.5}), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path=str(path))
        assert "betta" in str(err.value)
        assert "beta" in str(err.value)  # the valid keys are listed

    def test_boolean_rejected_for_int_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_iter": True}), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path=str(path))

    @pytest.mark.parametrize(
        "literal",
        ["Infinity", "-Infinity", "NaN", "1" + "0" * 400],
        ids=["Infinity", "-Infinity", "NaN", "int-beyond-float"],
    )
    def test_non_finite_file_value_rejected(self, tmp_path, literal):
        path = tmp_path / "cfg.json"
        path.write_text('{"learning_rate": %s}' % literal, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path=str(path))

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path=str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(InputError):
            load_config(path=str(path))

    def test_split_into_typed_configs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "epochs": 3}), encoding="utf-8")
        values = load_config(path=str(path))
        cidr = cidr_config_from(values)
        train = train_config_from(values)
        assert cidr.seed == 9
        assert train.seed == 9  # one shared seed key feeds both
        assert train.epochs == 3

    def test_float_field_given_an_integer_holds_a_float(self):
        assert type(CidrConfig(beta=1).beta) is float
        assert type(TrainConfig(learning_rate=1).learning_rate) is float

    def test_integer_accepted_for_float_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": 1}), encoding="utf-8")
        beta = load_config(path=str(path))["beta"]
        assert beta == 1.0 and type(beta) is float
        path.write_text(json.dumps({"t": 1}), encoding="utf-8")
        with pytest.raises(ConfigError, match="t must lie"):
            load_config(path=str(path))  # range-checked as the file is read


_ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # Config comes from the defaults, a file and --seed. An environment
    # read would be another source, which no report or metrics row records.
    found = []
    for path in sorted(Path(minfeat.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in _ENV_READS]
    assert found == []


class TestBuildToyCorpus:
    def test_deterministic(self):
        assert build_toy_corpus(size=30, seed=5) == build_toy_corpus(size=30, seed=5)
        assert build_toy_corpus(size=30, seed=5) != build_toy_corpus(size=30, seed=6)

    def test_labels_alternate_and_ids_unique(self):
        corpus = build_toy_corpus(size=20)
        assert [r.label for r in corpus] == [i % 2 for i in range(20)]
        assert len({r.id for r in corpus}) == 20

    def test_sentence_structure(self):
        mild = set(MILD_POSITIVE) | set(MILD_NEGATIVE)
        intense = set(INTENSE_POSITIVE) | set(INTENSE_NEGATIVE)
        fillers = set(FILLER_WORDS)
        for record in build_toy_corpus(size=60):
            words = tokenize(record.text)
            assert 11 <= len(words) <= 13
            own_mild = MILD_POSITIVE if record.label == 1 else MILD_NEGATIVE
            own_intense = INTENSE_POSITIVE if record.label == 1 else INTENSE_NEGATIVE
            mild_hits = [w for w in words if w in mild]
            intense_hits = [w for w in words if w in intense]
            rest = [w for w in words if w not in mild and w not in intense]
            assert all(w in fillers for w in rest)
            if len(mild_hits) == 2:  # majority sentence
                assert all(w in own_mild for w in mild_hits)
                assert len(intense_hits) == 1
                assert intense_hits[0] not in own_intense
            else:  # anchor sentence
                assert len(mild_hits) == 1
                assert mild_hits[0] not in own_mild
                assert len(intense_hits) == 1
                assert intense_hits[0] in own_intense

    def test_anchor_rate_validated(self):
        with pytest.raises(ValueError):
            build_toy_corpus(size=4, anchor_rate=1.5)
        with pytest.raises(ValueError):
            build_toy_corpus(size=4, min_len=2)
        with pytest.raises(ValueError):
            build_toy_corpus(size=4, min_len=12, max_len=11)

    def test_default_rate_mixes_both_shapes(self):
        corpus = build_toy_corpus()
        mild = set(MILD_POSITIVE) | set(MILD_NEGATIVE)
        anchors = sum(1 for r in corpus if len([w for w in tokenize(r.text) if w in mild]) == 1)
        assert 0 < anchors < len(corpus)
        assert abs(anchors / len(corpus) - DEFAULT_ANCHOR_RATE) < 0.15
