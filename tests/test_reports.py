"""Explanation report records and their canonical JSON-lines serialization."""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfeat.errors import InputError
from minfeat.reports import (
    ExplanationReport,
    MfsEntry,
    PairScoreEntry,
    read_reports,
    report_from_dict,
    report_from_line,
    report_to_dict,
    report_to_line,
    write_reports,
)


def sample_report(**overrides) -> ExplanationReport:
    base = dict(
        instance_id="toy-0001",
        tokens=("good", "nice", "plot"),
        predicted_class=1,
        predicted_probability=0.9,
        ig=(0.4, 0.3, -0.1),
        positive_pairs=(PairScoreEntry(i=0, j=1, cig=0.8),),
        mfs_pairs=(MfsEntry(i=0, j=1, frequency=1.0),),
        mfs_words=(0, 1),
        u1=0.7,
        u2=0.2,
        u2_prime=(0.15, 0.12),
        degenerate=False,
        oov_count=0,
        config={"beta": 0.5, "seed": 0},
        seed=0,
        comp=0.3,
        lo=-0.4,
        fms=1.0,
    )
    base.update(overrides)
    return ExplanationReport(**base)


def _line_with(field: str, value) -> str:
    """The sample report's JSON line with one field replaced."""
    raw = report_to_dict(sample_report())
    raw[field] = value
    return json.dumps(raw)


class TestValidation:
    def test_score_length_must_match_tokens(self):
        with pytest.raises(InputError):
            sample_report(ig=(0.4, 0.3))

    @pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (-1, 1), (0, 3)])
    def test_pair_indices_in_range_and_ordered(self, i, j):
        with pytest.raises(InputError):
            sample_report(positive_pairs=(PairScoreEntry(i=i, j=j, cig=0.1),))

    def test_mfs_pair_indices_checked_too(self):
        with pytest.raises(InputError):
            sample_report(mfs_pairs=(MfsEntry(i=0, j=9, frequency=0.5),))

    def test_word_indices_in_range(self):
        with pytest.raises(InputError):
            sample_report(mfs_words=(0, 7))


class TestRoundTrip:
    def test_dict_round_trip(self):
        report = sample_report()
        assert report_from_dict(report_to_dict(report)) == report

    def test_line_round_trip(self):
        report = sample_report(degenerate=True, mfs_pairs=(), mfs_words=(), u2_prime=())
        assert report_from_line(report_to_line(report)) == report

    def test_line_is_canonical(self):
        a = sample_report(config={"beta": 0.5, "seed": 0})
        b = sample_report(config={"seed": 0, "beta": 0.5})
        assert report_to_line(a) == report_to_line(b)
        assert "\n" not in report_to_line(a)

    def test_missing_field_named(self):
        raw = report_to_dict(sample_report())
        del raw["fms"]
        with pytest.raises(InputError) as err:
            report_from_dict(raw)
        assert "fms" in str(err.value)

    def test_bad_json_rejected(self):
        with pytest.raises(InputError):
            report_from_line("{oops")

    @pytest.mark.parametrize(
        "line,cause",
        [
            ("[]", "JSON object"),
            ("5", "JSON object"),
            ("null", "JSON object"),
            (_line_with("tokens", 5), "tokens"),
            (_line_with("u1", "x"), "u1"),
            (_line_with("ig", [0.4, None, -0.1]), "ig"),
            (_line_with("positive_pairs", [{"i": 0, "cig": 0.8}]), "positive_pairs"),
            (_line_with("mfs_pairs", [7]), "mfs_pairs"),
            (_line_with("config", 3), "config"),
            (_line_with("config", [["beta", 0.5]]), "config"),
            (_line_with("tokens", "abc"), "tokens"),
            (_line_with("tokens", ["good", 1, "plot"]), "tokens"),
            (_line_with("degenerate", "false"), "degenerate"),
            (_line_with("degenerate", 0), "degenerate"),
            (_line_with("predicted_class", 1.7), "predicted_class"),
            (_line_with("predicted_class", "1"), "predicted_class"),
            (_line_with("predicted_class", True), "predicted_class"),
            (_line_with("oov_count", 0.0), "oov_count"),
            (_line_with("seed", "0"), "seed"),
            (_line_with("mfs_words", [0, 1.0]), "mfs_words"),
            (_line_with("mfs_words", [0, True]), "mfs_words"),
            (_line_with("positive_pairs", [{"i": 0.0, "j": 1, "cig": 0.8}]), "positive_pairs"),
            (_line_with("mfs_pairs", [{"i": 0, "j": "1", "frequency": 1.0}]), "mfs_pairs"),
            (_line_with("u1", True), "u1"),
            (_line_with("u2", 10**400), "u2"),
            (_line_with("instance_id", 7), "instance_id"),
        ],
        ids=[
            "list",
            "number",
            "null",
            "tokens",
            "u1",
            "ig",
            "pair-key",
            "mfs-pair",
            "config",
            "config-pairs",
            "tokens-string",
            "tokens-non-string",
            "degenerate-string",
            "degenerate-int",
            "class-float",
            "class-string",
            "class-bool",
            "oov-float",
            "seed-string",
            "words-float",
            "words-bool",
            "pair-index-float",
            "mfs-index-string",
            "u1-bool",
            "u2-overflow",
            "instance-id",
        ],
    )
    def test_malformed_line_names_cause(self, line, cause):
        with pytest.raises(InputError) as err:
            report_from_line(line)
        assert cause in str(err.value)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "field,path",
        [
            ("predicted_probability", ()),
            ("u1", ()),
            ("u2", ()),
            ("comp", ()),
            ("lo", ()),
            ("fms", ()),
            ("ig", (1,)),
            ("u2_prime", (0,)),
            ("positive_pairs", (0, "cig")),
            ("mfs_pairs", (0, "frequency")),
        ],
    )
    def test_non_finite_float_named(self, field, path, value):
        # json.loads reads the NaN, Infinity and -Infinity tokens json.dumps writes.
        raw = json.loads(report_to_line(sample_report()))
        slot, key = raw, field
        for step in path:
            slot, key = slot[key], step
        slot[key] = value
        with pytest.raises(InputError, match=f"{field}.*finite"):
            report_from_line(json.dumps(raw))


def asdict_form(report: ExplanationReport) -> dict:
    """report_to_dict as dataclasses.asdict builds it: the reference."""
    payload = asdict(report)
    payload["tokens"] = list(report.tokens)
    payload["config"] = dict(report.config)
    return payload


def many_pair_report() -> ExplanationReport:
    n = 13
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return sample_report(
        tokens=tuple(f"w{k}" for k in range(n)),
        ig=tuple(0.1 * k - 0.4 for k in range(n)),
        positive_pairs=tuple(PairScoreEntry(i=i, j=j, cig=0.01 * (i + j) + 1e-17) for i, j in pairs),
        mfs_pairs=tuple(MfsEntry(i=i, j=j, frequency=0.1 * (j % 10)) for i, j in pairs[::7]),
        mfs_words=tuple(sorted({k for p in pairs[::7] for k in p})),
        u2_prime=tuple(0.001 * k for k in range(10)),
        config={"beta": 0.5, "n_iter": 10, "q": 3, "seed": 0, "steps": 300},
    )


class TestHandWrittenDict:
    @pytest.mark.parametrize(
        "report",
        [
            sample_report(),
            sample_report(
                degenerate=True, positive_pairs=(), mfs_pairs=(), mfs_words=(), u1=0.0, u2=0.0, u2_prime=()
            ),
            sample_report(tokens=("good", "<unk>", "<unk>"), oov_count=2),
            many_pair_report(),
        ],
        ids=["plain", "degenerate", "oov", "many-pairs"],
    )
    def test_matches_the_asdict_form(self, report):
        assert report_to_dict(report) == asdict_form(report)
        expected = json.dumps(asdict_form(report), sort_keys=True, separators=(",", ":"))
        assert report_to_line(report) == expected

    def test_config_is_a_copy(self):
        report = sample_report()
        report_to_dict(report)["config"]["beta"] = 9.0
        assert report.config["beta"] == 0.5


# One value of each JSON kind; a field takes a value of a kind it does not accept.
_KIND_VALUES = {"null": None, "bool": True, "string": "x", "integer": 2, "float": 0.5, "list": [], "object": {}}
_NUMBER = {"integer", "float"}
# The kinds each field accepts: top-level fields, the first element of
# each list field, and the fields of the first pair entries.
_ACCEPTED_KINDS = {
    ("instance_id",): {"string"},
    ("tokens",): {"list"},
    ("tokens", 0): {"string"},
    ("predicted_class",): {"integer"},
    ("predicted_probability",): _NUMBER,
    ("ig",): {"list"},
    ("ig", 0): _NUMBER,
    ("positive_pairs",): {"list"},
    ("positive_pairs", 0): {"object"},
    ("positive_pairs", 0, "i"): {"integer"},
    ("positive_pairs", 0, "j"): {"integer"},
    ("positive_pairs", 0, "cig"): _NUMBER,
    ("mfs_pairs",): {"list"},
    ("mfs_pairs", 0): {"object"},
    ("mfs_pairs", 0, "i"): {"integer"},
    ("mfs_pairs", 0, "j"): {"integer"},
    ("mfs_pairs", 0, "frequency"): _NUMBER,
    ("mfs_words",): {"list"},
    ("mfs_words", 0): {"integer"},
    ("u1",): _NUMBER,
    ("u2",): _NUMBER,
    ("u2_prime",): {"list"},
    ("u2_prime", 0): _NUMBER,
    ("degenerate",): {"bool"},
    ("oov_count",): {"integer"},
    ("config",): {"object"},
    ("seed",): {"integer"},
    ("comp",): _NUMBER,
    ("lo",): _NUMBER,
    ("fms",): _NUMBER,
}


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """One report file the corruption tests rewrite for each example."""
    return tmp_path_factory.mktemp("fuzz") / "reports.jsonl"


class TestFiles:
    def test_every_field_has_a_type_swap(self):
        assert {path[0] for path in _ACCEPTED_KINDS} == set(report_to_dict(sample_report()))

    @given(data=st.data())
    @settings(max_examples=200)
    def test_type_swapped_field_raises_input_error(self, fuzz_file, data):
        # Any field, list element or pair-entry field of the second line
        # takes a value of a JSON kind it does not accept.
        path = data.draw(st.sampled_from(sorted(_ACCEPTED_KINDS, key=str)))
        kind = data.draw(st.sampled_from(sorted(set(_KIND_VALUES) - _ACCEPTED_KINDS[path])))
        raw = json.loads(report_to_line(sample_report()))
        container = raw
        for key in path[:-1]:
            container = container[key]
        container[path[-1]] = _KIND_VALUES[kind]
        fuzz_file.write_text(report_to_line(sample_report()) + "\n" + json.dumps(raw) + "\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_reports(str(fuzz_file))
        assert str(err.value).startswith("line 2: ")

    @given(data=st.data())
    @settings(max_examples=200)
    def test_corrupted_bytes_read_or_raise_input_error(self, fuzz_file, data):
        # Bytes of the second line are replaced by up to three random
        # bytes: the file reads back, or read_reports raises InputError,
        # never another exception.
        good = report_to_line(many_pair_report()).encode("utf-8")
        start = data.draw(st.integers(0, len(good) - 1))
        end = data.draw(st.integers(start, min(start + 3, len(good))))
        line = good[:start] + data.draw(st.binary(max_size=3)) + good[end:]
        fuzz_file.write_bytes(good + b"\n" + line + b"\n")
        try:
            read = read_reports(str(fuzz_file))
        except InputError:
            return
        assert read[0] == many_pair_report()
    def test_write_then_read(self, tmp_path):
        reports = [sample_report(), sample_report(instance_id="toy-0002", seed=3)]
        path = tmp_path / "reports.jsonl"
        write_reports(reports, str(path))
        assert read_reports(str(path)) == reports

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        write_reports([sample_report()], str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        assert len(read_reports(str(path))) == 1

    def test_line_separator_inside_a_string_is_text(self, tmp_path):
        report = sample_report(instance_id="toy\u2028\u2029\x85one")
        path = tmp_path / "reports.jsonl"
        raw = json.dumps(json.loads(report_to_line(report)), ensure_ascii=False)
        assert "\u2028" in raw
        path.write_text(raw + "\n", encoding="utf-8")
        assert read_reports(str(path)) == [report]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_reports(str(tmp_path / "absent.jsonl"))

    def test_file_not_utf8_rejected_naming_it(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        path.write_bytes(b"\xff" + report_to_line(sample_report()).encode("utf-8"))
        with pytest.raises(InputError) as err:
            read_reports(str(path))
        assert str(err.value).startswith(f"cannot read report file {path}: ")

    @pytest.mark.parametrize(
        "bad_line,cause",
        [
            (report_to_line(sample_report())[:40], "not valid JSON"),
            (_line_with("u1", "x"), "'u1'"),
        ],
        ids=["truncated-json", "malformed-field"],
    )
    def test_bad_line_named_by_number(self, tmp_path, bad_line, cause):
        # A blank line 2 still counts, so the bad record is line 4.
        good = report_to_line(sample_report())
        path = tmp_path / "reports.jsonl"
        path.write_text("\n".join([good, "", good, bad_line, good]) + "\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_reports(str(path))
        assert str(err.value).startswith("line 4: ")
        assert cause in str(err.value)

    def test_identical_inputs_identical_bytes(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_reports([sample_report()], str(first))
        write_reports([sample_report()], str(second))
        assert first.read_bytes() == second.read_bytes()
