"""Explanation report records and their canonical JSON-lines serialization."""

from __future__ import annotations

import json

import pytest

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


class TestFiles:
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

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_reports(str(tmp_path / "absent.jsonl"))

    def test_identical_inputs_identical_bytes(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_reports([sample_report()], str(first))
        write_reports([sample_report()], str(second))
        assert first.read_bytes() == second.read_bytes()
