import csv
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import emocast.corpus
import emocast.emotion
import emocast.lexical
import emocast.pipeline
from emocast.cli import main
from emocast.clustering import best_kmeans
from emocast.emotion import EMOTION_COLUMNS

from synth import build_planted_corpus


def run_cli(*args):
    return main([str(a) for a in args])


def changed_metadata(fixtures_dir, tmp_path):
    """A copy of the fixture metadata with one gender changed."""
    path = tmp_path / "metadata.csv"
    path.write_text((fixtures_dir / "metadata.csv").read_text().replace("MARCUS,male", "MARCUS,female"))
    return path


def copied_inputs(fixtures_dir, tmp_path):
    """The fixture inputs copied under tmp_path, and the CLI arguments naming them."""
    inputs = tmp_path / "inputs"
    shutil.copytree(fixtures_dir, inputs, ignore=shutil.ignore_patterns("golden"))
    return inputs, [
        "--scripts", inputs / "scripts",
        "--metadata", inputs / "metadata.csv",
        "--lexicon", inputs / "lexicon.tsv",
        "--out", tmp_path / "out",
    ]


def stale_warning(stage, artifact, producer):
    return f"warning: {stage}: {artifact} was not made from the current inputs and settings; rerun {producer}"


@pytest.fixture
def fixture_args(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    return [
        "--scripts", fixtures_dir / "scripts",
        "--metadata", fixtures_dir / "metadata.csv",
        "--lexicon", fixtures_dir / "lexicon.tsv",
        "--out", out,
    ], out


class TestParseStage:
    def test_matches_golden_characters_json(self, fixtures_dir, fixture_args):
        args, out = fixture_args
        assert run_cli("parse", *args) == 0
        golden = (fixtures_dir / "golden" / "characters.json").read_bytes()
        assert (out / "characters.json").read_bytes() == golden

    def test_corpus_written(self, fixture_args):
        args, out = fixture_args
        run_cli("parse", *args)
        corpus = json.loads((out / "corpus.json").read_text())
        assert len(corpus["records"]) == 6
        genders = {rec["gender"] for rec in corpus["records"]}
        assert genders == {"female", "male"}


class TestStagedRuns:
    def test_score_after_parse(self, fixture_args):
        args, out = fixture_args
        run_cli("parse", *args)
        assert run_cli("score", *args) == 0
        with (out / "emotions.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert list(rows[0])[3 : 3 + 32] == list(EMOTION_COLUMNS)

    def test_score_without_parse_fails(self, fixture_args):
        args, _ = fixture_args
        assert run_cli("score", *args) == 1

    @pytest.mark.parametrize("k", [3, 12])
    def test_cluster_kmeans_is_best_kmeans(self, tmp_path, k):
        # k = 3 reuses the SSE sweep's result; k = 12 lies above the sweep
        inputs = build_planted_corpus(tmp_path / "inputs", seed=0)
        out = tmp_path / "out"
        args = [
            "--scripts", inputs["scripts"],
            "--metadata", inputs["metadata"],
            "--lexicon", inputs["lexicon"],
            "--out", out,
        ]
        for stage in ("parse", "score"):
            assert run_cli(stage, *args) == 0, stage
        assert run_cli("cluster", *args, "--k", k) == 0
        with (out / "emotions.csv").open(newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["no_affect"] != "true"]
        matrix = [[float(row[name]) for name in EMOTION_COLUMNS] for row in rows]
        with (out / "clusters.csv").open(newline="") as fh:
            labels = [int(row["kmeans_cluster"]) for row in csv.DictReader(fh)]
        assert labels == best_kmeans(matrix, k, seed=42).assignments

    def test_two_affect_rows_fall_back_to_one_unknown_cluster(self, fixture_args, capsys):
        # two points give a two-point SSE curve, too short for an elbow; both
        # unknown, so each method's one cluster has the ratio nan
        args, out = fixture_args
        for stage in ("parse", "score"):
            assert run_cli(stage, *args) == 0, stage
        path = out / "emotions.csv"
        header, *rows = (line.split(",") for line in path.read_text(encoding="utf-8").splitlines())
        for i, cells in enumerate(rows):
            cells[2] = "unknown"
            cells[-2] = "false" if i < 2 else "true"
        path.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("cluster", *args, "--k", "auto") == 0
        assert "[cluster] k=1 (elbow), 2 characters, 4 no-affect excluded" in capsys.readouterr().out
        with (out / "ssecurve.csv").open(newline="") as fh:
            assert [row["k"] for row in csv.DictReader(fh)] == ["1", "2"]
        with (out / "composition.csv").open(newline="") as fh:
            composition = list(csv.DictReader(fh))
        assert [(row["method"], row["cluster"], row["ratio"]) for row in composition] == [
            ("kmeans", "0", "nan"), ("ward", "0", "nan")
        ]

    def test_all_stages_compose(self, fixture_args):
        args, out = fixture_args
        for stage in ("parse", "score", "cluster", "project"):
            assert run_cli(stage, *args) == 0, stage
        staged = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert "cluster_cache.json" in staged
        assert "manifest.json" in staged  # both routes record the same fingerprints

        out2 = out.parent / "out2"
        args2 = [a if a != out else out2 for a in args]
        assert run_cli("run-all", *args2) == 0
        # the same artifacts, and no temp file left behind by either route
        assert sorted(os.listdir(out2)) == sorted([*staged, "report.json"])
        for name, content in staged.items():
            assert (out2 / name).read_bytes() == content, name


class TestRunAll:
    @pytest.mark.parametrize(
        "route", [("run-all",), ("parse", "score", "cluster", "project")], ids=["run-all", "staged"]
    )
    def test_text_read_and_scored_once(self, fixture_args, monkeypatch, route):
        calls = {"load_lexicon": 0, "tokenize": 0, "corpus_from_json": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(emocast.emotion, "load_lexicon")
        counted(emocast.lexical, "tokenize")
        counted(emocast.corpus, "corpus_from_json")
        counted(emocast.pipeline, "corpus_from_json")
        args, out = fixture_args
        per_command = {}
        for command in route:
            before = dict(calls)
            assert run_cli(command, *args) == 0, command
            per_command[command] = {name: calls[name] - before[name] for name in calls}
        dialogues = sum(len(rec["dialogues"]) for rec in json.loads((out / "corpus.json").read_text())["records"])
        scored = {"load_lexicon": 1, "tokenize": dialogues}
        none = dict.fromkeys(calls, 0)
        if route == ("run-all",):
            assert per_command == {"run-all": {**scored, "corpus_from_json": 0}}
        else:  # only score reads corpus.json, and it scores for the stats and word tables too
            assert per_command == {
                "parse": none, "score": {**scored, "corpus_from_json": 1}, "cluster": none, "project": none
            }

    def test_report_consistent_with_corpus(self, fixture_args):
        args, out = fixture_args
        assert run_cli("run-all", *args) == 0
        report = json.loads((out / "report.json").read_text())
        corpus = json.loads((out / "corpus.json").read_text())
        assert report["summary"]["characters"] == len(corpus["records"])
        assert report["summary"]["dialogues"] == sum(
            len(r["dialogues"]) for r in corpus["records"]
        )
        assert (
            report["summary"]["female"] + report["summary"]["male"] + report["summary"]["unknown"]
            == report["summary"]["characters"]
        )
        assert len(report["tests"]) == 32
        clustered = report["clusters"]["assignments"]
        assert len(clustered) + report["clusters"]["excluded_no_affect"] == len(corpus["records"])
        assert all(0 <= row["kmeans"] < report["clusters"]["k"] for row in clustered)

    def test_all_artifacts_exist(self, fixture_args):
        args, out = fixture_args
        run_cli("run-all", *args)
        expected = [
            "characters.json", "corpus.json", "emotions.csv", "stats.csv", "timebins.csv",
            "clusters.csv", "composition.csv", "ssecurve.csv", "tsne.csv", "tsne.svg",
            "wordfreq.csv", "report.json",
        ]
        for name in expected:
            assert (out / name).is_file(), name

    def test_auto_k_matches_elbow_of_emitted_curve(self, fixture_args):
        from emocast.clustering import elbow_detect

        args, out = fixture_args
        run_cli("run-all", *args)
        report = json.loads((out / "report.json").read_text())
        with (out / "ssecurve.csv").open(newline="") as fh:
            curve = [(int(r["k"]), float(r["sse"])) for r in csv.DictReader(fh)]
        assert report["clusters"]["auto"] is True
        assert report["clusters"]["k"] == elbow_detect(curve)

    def test_fixed_k_respected(self, fixture_args):
        args, out = fixture_args
        assert run_cli("run-all", *args, "--k", "3") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["clusters"]["k"] == 3
        assert report["clusters"]["auto"] is False


class TestErrors:
    def test_missing_lexicon_names_path(self, fixtures_dir, tmp_path, capsys):
        code = run_cli(
            "run-all",
            "--scripts", fixtures_dir / "scripts",
            "--metadata", fixtures_dir / "metadata.csv",
            "--lexicon", tmp_path / "nope.tsv",
            "--out", tmp_path / "out",
        )
        assert code != 0
        assert "nope.tsv" in capsys.readouterr().err

    def test_missing_required_option(self, capsys):
        assert run_cli("parse") == 2
        assert "--scripts" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["explode", "stats", "words"])
    def test_unknown_subcommand_rejected(self, fixture_args, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *fixture_args[0])
        assert exc.value.code == 2

    def test_parse_error_names_script_file(self, fixtures_dir, tmp_path, capsys):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "flatfile.txt").write_text("all lines\nat the same\nindent level\n")
        code = run_cli(
            "parse",
            "--scripts", scripts,
            "--metadata", fixtures_dir / "metadata.csv",
            "--lexicon", fixtures_dir / "lexicon.tsv",
            "--out", tmp_path / "out",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "parse" in err and "flatfile.txt" in err

    def test_bad_jsonl_record_names_file_and_line(self, fixtures_dir, tmp_path, capsys):
        inputs, args = copied_inputs(fixtures_dir, tmp_path)
        path = inputs / "scripts" / "glass_orchard.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace('"left": 396', '"left": "x"')
        path.write_text("".join(lines), encoding="utf-8")
        assert run_cli("parse", *args) == 1
        assert capsys.readouterr().err == (
            "error in stage parse: glass_orchard.jsonl: line 3: bad positional block: "
            "invalid literal for int() with base 10: 'x'\n"
        )

    @pytest.mark.parametrize(
        "record",
        [
            '{"text": null, "left": 396}',
            '{"text": 7, "left": true}',
            '{"text": "ELENA", "left": "396"}',
        ],
        ids=["null-text", "number-text-bool-left", "string-left"],
    )
    def test_mistyped_jsonl_record_names_file_and_line(self, fixtures_dir, tmp_path, capsys, record):
        inputs, args = copied_inputs(fixtures_dir, tmp_path)
        path = inputs / "scripts" / "glass_orchard.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = record + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert run_cli("parse", *args) == 1
        assert capsys.readouterr().err == (
            "error in stage parse: glass_orchard.jsonl: line 3: bad positional block: "
            "'text' must be a JSON string and 'left' a JSON number\n"
        )

    def test_one_gender_corpus_fails_score_unrecorded(self, fixtures_dir, tmp_path, capsys):
        # the U battery needs both groups; score writes emotions.csv, then fails before its record
        inputs, args = copied_inputs(fixtures_dir, tmp_path)
        metadata = inputs / "metadata.csv"
        metadata.write_text(metadata.read_text().replace(",male,", ",female,"))
        assert run_cli("parse", *args) == 0
        capsys.readouterr()
        assert run_cli("score", *args) == 1
        assert "error in stage score: need at least one row in each of 'female' and 'male'" in capsys.readouterr().err
        assert (tmp_path / "out" / "emotions.csv").is_file()
        assert json.loads((tmp_path / "out" / "manifest.json").read_text()).keys() == {"parse"}
        assert run_cli("run-all", *args) == 1

    @pytest.mark.parametrize(
        "command, name",
        [
            ("parse", "scripts/harbor_lights.txt"),
            ("run-all", "scripts/glass_orchard.jsonl"),
            ("parse", "metadata.csv"),
            ("run-all", "metadata.csv"),
            ("run-all", "lexicon.tsv"),
            ("score", "lexicon.tsv"),
        ],
    )
    def test_non_utf8_input_names_file_and_line(self, fixtures_dir, tmp_path, capsys, command, name):
        inputs, args = copied_inputs(fixtures_dir, tmp_path)
        if command == "score":
            assert run_cli("parse", *args) == 0
        path = inputs / name
        lines = path.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run_cli(command, *args) == 1
        err = capsys.readouterr().err
        assert f"error in stage {command}: {path.name}: line 3: not valid UTF-8" in err
        assert err.count("\n") == 1  # one error line, no traceback

    def test_non_utf8_config_names_file_and_line(self, fixture_args, tmp_path, capsys):
        args, _ = fixture_args
        config = tmp_path / "run.conf"
        config.write_bytes(b"seed = 1\r\nk = 2\r\n# caf\xe9\r\n")
        assert run_cli("parse", *args, "--config", config) == 2
        assert f"{config}: line 3: not valid UTF-8" in capsys.readouterr().err

    def _failed_after_warning(self, capsys, command, artifact, producer):
        """The one error line of ``command``, after the one warning that the
        hand-edited ``artifact`` is not what ``producer`` recorded."""
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2, lines  # the warning and one error line, no traceback
        assert lines[0] == stale_warning(command, artifact, producer)
        assert lines[1].startswith(f"error in stage {command}: ")
        return lines[1]

    def _cluster_with_emotions_line(self, fixture_args, capsys, lineno, mangle, command="cluster"):
        args, out = fixture_args
        for stage in ("parse", "score"):
            assert run_cli(stage, *args) == 0, stage
        path = out / "emotions.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = ",".join(mangle(lines[lineno - 1].split(",")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli(command, *args) == 1
        return self._failed_after_warning(capsys, command, "emotions.csv", "score")

    def test_bad_emotions_cell_names_file_and_line(self, fixture_args, capsys):
        err = self._cluster_with_emotions_line(
            fixture_args, capsys, 4, lambda cells: [*cells[:5], "x", *cells[6:]]
        )
        assert "emotions.csv: line 4" in err
        assert "could not convert string to float: 'x'" in err

    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    @pytest.mark.parametrize("command", ["cluster", "project"])
    def test_non_finite_emotions_cell_names_file_and_line(self, fixture_args, capsys, command, cell):
        err = self._cluster_with_emotions_line(
            fixture_args, capsys, 4, lambda cells: [*cells[:5], cell, *cells[6:]], command
        )
        assert "emotions.csv: line 4: emotion values must be finite" in err

    @pytest.mark.parametrize("cell", ["-0.5", "1.5", "1e200"])
    @pytest.mark.parametrize("command", ["cluster", "project"])
    def test_emotions_cell_outside_unit_interval_names_file_and_line(self, fixture_args, capsys, command, cell):
        # rejected before any numpy arithmetic: no RuntimeWarning, and stderr is
        # the stale warning and the error line only
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self._cluster_with_emotions_line(
                fixture_args, capsys, 4, lambda cells: [*cells[:5], cell, *cells[6:]], command
            )
        assert "emotions.csv: line 4: emotion values must lie in [0, 1]" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["cluster", "project"])
    def test_bad_gender_label_names_file_and_line(self, fixture_args, capsys, command):
        err = self._cluster_with_emotions_line(
            fixture_args, capsys, 2, lambda cells: [*cells[:2], "Female", *cells[3:]], command
        )
        assert "emotions.csv: line 2: gender must be female/male/unknown, got 'Female'" in err

    def test_emotions_field_past_csv_limit_names_file_and_line(self, fixture_args, capsys):
        err = self._cluster_with_emotions_line(fixture_args, capsys, 3, lambda cells: ["x" * 200_000, *cells[1:]])
        assert err == "error in stage cluster: cluster: emotions.csv: line 3: field larger than field limit (131072)"

    def test_emotions_header_names_file_and_line(self, fixture_args, capsys):
        err = self._cluster_with_emotions_line(fixture_args, capsys, 1, lambda cells: ["film", *cells[1:]])
        assert err == "error in stage cluster: cluster: emotions.csv: line 1: expected the emotions.csv header"

    @pytest.mark.parametrize(
        "command, artifact, producer",
        [
            ("cluster", "emotions.csv", "score"),
            ("project", "emotions.csv", "score"),
            ("score", "corpus.json", "parse"),
        ],
    )
    def test_non_utf8_artifact_names_file_and_line(self, fixture_args, capsys, command, artifact, producer):
        args, out = fixture_args
        for stage in ("parse", "score"):
            assert run_cli(stage, *args) == 0, stage
        path = out / artifact
        lines = path.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run_cli(command, *args) == 1
        err = self._failed_after_warning(capsys, command, artifact, producer)
        message = f"{artifact}: line 3: not valid UTF-8: invalid start byte (byte 0xff)"
        assert err == f"error in stage {command}: {command}: {message}"

    def test_non_utf8_byte_past_the_first_read_names_its_line(self, fixture_args, capsys):
        # emotions.csv is decoded as it streams; a bad byte deep in it is named by line too
        args, out = fixture_args
        for stage in ("parse", "score"):
            assert run_cli(stage, *args) == 0, stage
        path = out / "emotions.csv"
        lines = path.read_bytes().split(b"\n")
        lines = [lines[0], *lines[1:-1] * 100, b""]  # 600 rows, far past one read
        lines[400] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run_cli("cluster", *args) == 1
        err = self._failed_after_warning(capsys, "cluster", "emotions.csv", "score")
        message = "emotions.csv: line 401: not valid UTF-8: invalid start byte (byte 0xff)"
        assert err == f"error in stage cluster: cluster: {message}"

    def test_short_emotions_row_names_file_and_line(self, fixture_args, capsys):
        err = self._cluster_with_emotions_line(fixture_args, capsys, 3, lambda cells: cells[:20])
        assert "emotions.csv: line 3" in err
        assert "expected 37 fields" in err

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda rec: rec.pop("year"), "records[1] has no 'year'"),
            (lambda rec: rec.update(gender="Female"), "records[1]: gender must be female/male/unknown, got 'Female'"),
            (lambda rec: rec.update(dialogues="Hello."), "records[1]: 'dialogues' is a str, not a list"),
            (
                lambda rec: rec.update(name=rec["name"] + "\udc80"),
                "records[1]: a string holds a lone surrogate, which UTF-8 cannot encode",
            ),
        ],
        ids=["no-year", "gender-label", "dialogues-string", "lone-surrogate"],
    )
    def test_malformed_corpus_record_names_file_and_record(self, fixture_args, capsys, mangle, message):
        args, out = fixture_args
        assert run_cli("parse", *args) == 0
        path = out / "corpus.json"
        corpus = json.loads(path.read_text(encoding="utf-8"))
        mangle(corpus["records"][1])
        path.write_text(json.dumps(corpus), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("score", *args) == 1
        err = self._failed_after_warning(capsys, "score", "corpus.json", "parse")
        assert err == f"error in stage score: score: corpus.json: {message}"

    def test_corpus_nested_too_deep_names_file(self, fixture_args, capsys):
        args, out = fixture_args
        assert run_cli("parse", *args) == 0
        (out / "corpus.json").write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        capsys.readouterr()
        assert run_cli("score", *args) == 1
        err = self._failed_after_warning(capsys, "score", "corpus.json", "parse")
        assert err.startswith("error in stage score: score: corpus.json: maximum recursion depth exceeded")

    def test_duplicate_movie_stem_rejected(self, fixtures_dir, tmp_path, capsys):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        source = (fixtures_dir / "scripts" / "harbor_lights.txt").read_text()
        (scripts / "same.txt").write_text(source)
        (scripts / "same.jsonl").write_text(
            (fixtures_dir / "scripts" / "glass_orchard.jsonl").read_text()
        )
        code = run_cli(
            "parse",
            "--scripts", scripts,
            "--metadata", fixtures_dir / "metadata.csv",
            "--lexicon", fixtures_dir / "lexicon.tsv",
            "--out", tmp_path / "out",
        )
        assert code == 1
        assert "already seen" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_supplies_paths(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "run.conf"
        config.write_text(
            f"scripts = {fixtures_dir / 'scripts'}\n"
            f"metadata = {fixtures_dir / 'metadata.csv'}\n"
            f"lexicon = {fixtures_dir / 'lexicon.tsv'}\n"
            f"out = {out}\n"
            "# comment line\n"
            "seed = 7\n"
            "k = 2\n"
        )
        assert run_cli("parse", "--config", config) == 0
        assert (out / "characters.json").exists()

    def test_flags_override_config(self, fixtures_dir, tmp_path):
        out_config = tmp_path / "from_config"
        out_flag = tmp_path / "from_flag"
        config = tmp_path / "run.conf"
        config.write_text(
            f"scripts = {fixtures_dir / 'scripts'}\n"
            f"metadata = {fixtures_dir / 'metadata.csv'}\n"
            f"lexicon = {fixtures_dir / 'lexicon.tsv'}\n"
            f"out = {out_config}\n"
        )
        assert run_cli("parse", "--config", config, "--out", out_flag) == 0
        assert (out_flag / "characters.json").exists()
        assert not out_config.exists()

    def test_top_words_flag_and_key(self, fixtures_dir, fixture_args, tmp_path):
        args, out = fixture_args
        assert run_cli("run-all", *args, "--top-words", 1) == 0
        with (out / "wordfreq.csv").open(newline="") as fh:
            ranks = [int(row["rank"]) for row in csv.DictReader(fh)]
        assert ranks and set(ranks) == {1}

        config = tmp_path / "run.conf"
        config.write_text("top_words = 2\n")
        assert run_cli("score", *args, "--config", config) == 0
        with (out / "wordfreq.csv").open(newline="") as fh:
            assert max(int(row["rank"]) for row in csv.DictReader(fh)) == 2

    @pytest.mark.parametrize("line", ["strict = ture", "seed = x", "k = many", "perplexity = hot"])
    def test_bad_value_names_file_and_key(self, fixture_args, tmp_path, capsys, line):
        args, out = fixture_args
        config = tmp_path / "bad.conf"
        config.write_text(line + "\n")
        assert run_cli("parse", *args, "--config", config) == 2
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert str(config) in err and repr(key) in err
        assert not out.exists()

    def test_bad_flag_value_names_flag(self, fixture_args, capsys):
        args, _ = fixture_args
        assert run_cli("parse", *args, "--seed", "x") == 2
        assert "--seed" in capsys.readouterr().err

    def test_strict_false_in_config(self, fixtures_dir, fixture_args, tmp_path):
        args, out = fixture_args
        run_cli("parse", *args)
        args[args.index("--metadata") + 1] = changed_metadata(fixtures_dir, tmp_path)
        config = tmp_path / "run.conf"
        config.write_text("strict = false\n")
        assert run_cli("score", *args, "--config", config) == 0
        config.write_text("strict = yes\n")
        assert run_cli("score", *args, "--config", config) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--k", "0"),
            ("--seed", "-1"),
            ("--perplexity", "0"),
            ("--perplexity", "nan"),
            ("--perplexity", "inf"),
            ("--min-dialogues", "-1"),
            ("--bin-years", "0"),
            ("--top-words", "0"),
        ],
    )
    def test_bad_setting_rejected_before_any_stage(self, fixture_args, capsys, flag, value):
        args, out = fixture_args
        assert run_cli("run-all", *args, flag, value) == 2
        setting = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {setting} must be ")
        assert not out.exists()

    def test_malformed_line_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("seed = 1\ngarbage\n")
        assert run_cli("parse", "--config", config) == 2
        assert f"{config}: line 2: expected key = value" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("mystery = 1\n")
        assert run_cli("parse", "--config", config) == 2
        assert "mystery" in capsys.readouterr().err


class TestStaleness:
    """manifest.json records what parse and score made their artifacts from;
    a stage that reads one compares the record with the content and the
    settings it is given now, not with mtimes."""

    def test_stale_warns_by_default(self, fixtures_dir, fixture_args, capsys, tmp_path):
        args, out = fixture_args
        run_cli("parse", *args)
        args[args.index("--metadata") + 1] = changed_metadata(fixtures_dir, tmp_path)
        capsys.readouterr()
        assert run_cli("score", *args) == 0
        assert stale_warning("score", "corpus.json", "parse") in capsys.readouterr().err

    def test_stale_fails_with_strict(self, fixtures_dir, fixture_args, tmp_path, capsys):
        args, out = fixture_args
        run_cli("parse", *args)
        args[args.index("--metadata") + 1] = changed_metadata(fixtures_dir, tmp_path)
        assert run_cli("score", *args, "--strict") == 1
        assert "corpus.json was not made from the current inputs and settings; rerun parse" in capsys.readouterr().err

    def test_changed_setting_fails_with_strict(self, fixture_args, capsys):
        args, out = fixture_args
        assert run_cli("parse", *args, "--min-dialogues", 5) == 0
        capsys.readouterr()
        assert run_cli("score", *args, "--min-dialogues", 1, "--strict") == 1
        assert "corpus.json was not made from the current inputs and settings; rerun parse" in capsys.readouterr().err
        assert not (out / "emotions.csv").exists()

    def test_touched_unchanged_inputs_pass_strict(self, fixtures_dir, tmp_path, capsys):
        inputs, args = copied_inputs(fixtures_dir, tmp_path)
        assert run_cli("run-all", *args) == 0
        future = time.time() + 60
        for path in [inputs / "lexicon.tsv", inputs / "metadata.csv", *(inputs / "scripts").iterdir()]:
            os.utime(path, (future, future))
        capsys.readouterr()
        for stage in ("cluster", "score", "project"):
            assert run_cli(stage, *args, "--strict") == 0, stage
        assert "was not made" not in capsys.readouterr().err

    def test_missing_record_warns(self, fixture_args, capsys):
        args, out = fixture_args
        assert run_cli("parse", *args) == 0
        (out / "manifest.json").unlink()
        capsys.readouterr()
        assert run_cli("score", *args) == 0
        # the fixture lexicon's multi-word entry is warned about after it
        assert capsys.readouterr().err.splitlines()[0] == stale_warning("score", "corpus.json", "parse")
        assert json.loads((out / "manifest.json").read_text()).keys() == {"score"}

    def test_run_all_failed_partway_is_stale(self, fixtures_dir, tmp_path, capsys):
        inputs, args = copied_inputs(fixtures_dir, tmp_path)
        assert run_cli("run-all", *args) == 0
        changed_metadata(fixtures_dir, inputs)  # overwrites the copy
        # parse and score rewrite their artifacts, then cluster fails: 6 characters
        assert run_cli("run-all", *args, "--k", 100) == 1
        capsys.readouterr()
        assert run_cli("cluster", *args, "--strict") == 1
        assert "emotions.csv was not made from the current inputs and settings; rerun score" in capsys.readouterr().err
        assert run_cli("score", *args, "--strict") == 1
        assert "corpus.json was not made from the current inputs and settings; rerun parse" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["cluster", "project"])
    @pytest.mark.parametrize("upstream", ["changed-metadata", "deleted-corpus"])
    def test_stale_upstream_of_emotions(self, fixtures_dir, tmp_path, capsys, upstream, stage):
        inputs, args = copied_inputs(fixtures_dir, tmp_path)
        assert run_cli("run-all", *args) == 0
        if upstream == "changed-metadata":
            changed_metadata(fixtures_dir, inputs)  # overwrites the copy
        else:
            (tmp_path / "out" / "corpus.json").unlink()
        capsys.readouterr()
        # only parse is named: emotions.csv itself is still what score recorded
        assert run_cli(stage, *args) == 0
        assert capsys.readouterr().err.splitlines() == [stale_warning(stage, "corpus.json", "parse")]
        assert run_cli(stage, *args, "--strict") == 1
        assert "corpus.json was not made from the current inputs and settings; rerun parse" in capsys.readouterr().err


def test_cli_import_leaves_hashlib_out():
    # hashlib loads OpenSSL (several MB); only the fingerprint helper imports it
    env = dict(os.environ)
    src = str(Path(emocast.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, emocast.cli; sys.exit('hashlib' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
