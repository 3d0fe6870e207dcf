"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glsmooth
from corpus_util import make_reports
from glsmooth import training
from glsmooth.cli import _FIELD_OF, _SETTINGS, _TRAIN_FLAGS, _require_outputs, main
from glsmooth.dataset import stats_path_for
from glsmooth.training import TrainConfig, read_examples, save_model, train

DATA_DIR = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_reports(path, reports):
    with open(path, "w") as fh:
        for rec in reports:
            fh.write(json.dumps(rec) + "\n")


class TestTable1:
    def test_default_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8  # header + 7 rows
        assert "0    1.000  [0.5000, 0.5000]" in out
        assert "3   -0.250  [-0.1250, 1.1250]" in out
        assert "-3   -0.250  [1.1250, -0.1250]" in out

    def test_unit_slope(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--k", "1", "--r0", "1")
        assert code == 0
        row_u1 = [l for l in out.splitlines() if l.strip().startswith("1 ")][0]
        assert "0.000" in row_u1
        # the words follow the row's own rate, not the default table's
        assert row_u1.endswith("Moderately confident (no smoothing: one-hot)")

    def test_bad_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--k", "banana")
        assert code == 1
        assert "rational" in err

    def test_non_positive_k_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "table1", "--k", "-1/4")
        assert code == 1


class TestBuildValidate:
    def test_build_then_validate(self, tmp_path, capsys):
        src = tmp_path / "reports.jsonl"
        write_reports(src, make_reports(30, seed=2))
        out = tmp_path / "ds.jsonl"
        code, stdout, _ = run_cli(
            capsys, "build", "--input", str(src), "--out", str(out)
        )
        assert code == 0
        assert out.exists() and (tmp_path / "ds.jsonl.stats.json").exists()
        assert "wrote" in stdout

        code, stdout, _ = run_cli(capsys, "validate", "--input", str(out))
        assert code == 0
        assert "ok:" in stdout

    def test_missing_lexicon_names_path(self, tmp_path, capsys):
        src = tmp_path / "reports.jsonl"
        write_reports(src, make_reports(3, seed=1))
        code, _, err = run_cli(
            capsys,
            "build",
            "--input",
            str(src),
            "--out",
            str(tmp_path / "ds.jsonl"),
            "--lexicon",
            "/nope/lexicon.tsv",
        )
        assert code == 2
        assert "/nope/lexicon.tsv" in err

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "build", "--input", "/nope/in.jsonl", "--out", str(tmp_path / "o")
        )
        assert code == 2

    def test_intercept_over_one_is_usage_error(self, tmp_path, capsys):
        # |u| = 3 has a rate of 3/2 - 3*5/12 < 1, yet u = 0 would have 3/2
        src, out = tmp_path / "reports.jsonl", tmp_path / "ds.jsonl"
        write_reports(src, [{"patient_id": "p", "study_id": "s", "text": "No pneumothorax."}])
        code, _, err = run_cli(capsys, "build", "--input", str(src), "--out", str(out),
                               "--r0", "3/2")
        assert code == 1 and "r0" in err
        assert not out.exists()
        assert run_cli(capsys, "build", "--input", str(src), "--out", str(out))[0] == 0
        code, _, err = run_cli(capsys, "validate", "--input", str(out), "--r0", "3/2")
        assert code == 1 and "r0" in err

    def test_custom_k_changes_rates(self, tmp_path, capsys):
        src = tmp_path / "reports.jsonl"
        write_reports(
            src, [{"patient_id": "p", "study_id": "s", "text": "No pneumothorax."}]
        )
        out = tmp_path / "ds.jsonl"
        code, _, _ = run_cli(
            capsys, "build", "--input", str(src), "--out", str(out), "--k", "0.375"
        )
        assert code == 0
        rec = json.loads(out.read_text().splitlines()[0])
        # r = -0.375*3 + 1
        assert rec["r"] == pytest.approx(-0.125)

        # validating against the wrong slope must fail
        code, _, err = run_cli(capsys, "validate", "--input", str(out))
        assert code == 2
        code, _, _ = run_cli(capsys, "validate", "--input", str(out), "--k", "0.375")
        assert code == 0

    @pytest.mark.parametrize("bad", [20, 25])
    def test_validate_quotes_twenty_problems(self, tmp_path, capsys, bad):
        record = {"study_id": "s", "category": "Nope", "y": 1, "u": 3, "r": -0.25,
                  "target_neg": 0.0, "target_pos": 1.0, "cue": None}
        path = tmp_path / "ds.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for _ in range(bad)))
        code, _, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2
        quoted = [f"line {i}: unknown category 'Nope'" for i in range(1, 21)]
        more = f"; and {bad - 20} more problem(s)" if bad > 20 else ""
        assert err == "error: " + "; ".join(quoted) + more + "\n"
        with pytest.raises(glsmooth.errors.DataError) as exc:
            glsmooth.validate_dataset(path)
        assert f"error: {exc.value}\n" == err

    def test_build_idempotent(self, tmp_path, capsys):
        src = tmp_path / "reports.jsonl"
        write_reports(src, make_reports(20, seed=4))
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, "build", "--input", str(src), "--out", str(out_a))
        run_cli(capsys, "build", "--input", str(src), "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_custom_taxonomy_after_default_build(self, tmp_path, capsys):
        # the parser keeps compiled vocabularies between builds in one process;
        # each build must still match its own taxonomy's phrases
        src, taxonomy = tmp_path / "reports.jsonl", tmp_path / "custom.tsv"
        write_reports(src, [{"patient_id": "p1", "study_id": "s1",
                             "text": "Small effusion. Possible opacity."}])
        taxonomy.write_text("effusion\tEffusion\nopacity\tConsolidation\n")
        outs = [tmp_path / f"{name}.jsonl" for name in ("default", "custom", "again")]
        for out, extra in zip(outs, ([], ["--taxonomy", str(taxonomy)], [])):
            assert run_cli(capsys, "build", "--input", str(src), "--out", str(out), *extra)[0] == 0
        custom = [json.loads(line) for line in outs[1].read_text().splitlines()]
        assert [(r["category"], r["u"]) for r in custom] == [("Consolidation", 1), ("Effusion", 3)]
        assert outs[0].read_text() == outs[2].read_text() == ""

    @pytest.mark.parametrize(
        "golden, extra", [("build_golden", []), ("build_golden.k0375", ["--k", "0.375"])]
    )
    def test_build_golden_bytes(self, tmp_path, capsys, golden, extra):
        # multi-mention and multi-cue reports, merged duplicates, escaped study
        # ids and malformed lines: the committed files pin dataset and sidecar bytes
        out = tmp_path / "ds.jsonl"
        code, stdout, _ = run_cli(
            capsys, "build", "--input", str(DATA_DIR / "build_golden.reports.jsonl"),
            "--out", str(out), *extra,
        )
        assert (code, stdout) == (0, f"wrote 25 records to {out} (6 malformed)\n")
        assert out.read_bytes() == (DATA_DIR / f"{golden}.jsonl").read_bytes()
        stats = tmp_path / "ds.jsonl.stats.json"
        assert stats.read_bytes() == (DATA_DIR / f"{golden}.jsonl.stats.json").read_bytes()


class TestTrainEval:
    @pytest.fixture()
    def data_file(self, tmp_path, capsys):
        path = tmp_path / "train.jsonl"
        code, _, _ = run_cli(
            capsys,
            "gen-synthetic",
            "--n",
            "300",
            "--d",
            "4",
            "--profile",
            "3:0.0,0:0.4",
            "--out",
            str(path),
            "--seed",
            "5",
        )
        assert code == 0
        return path

    def test_train_writes_model_and_metrics(self, tmp_path, capsys, data_file):
        model_path = tmp_path / "model.json"
        metrics_path = tmp_path / "metrics.jsonl"
        code, out, _ = run_cli(
            capsys,
            "train",
            "--data",
            str(data_file),
            "--model-out",
            str(model_path),
            "--metrics-out",
            str(metrics_path),
            "--epochs",
            "4",
            "--warmup-epochs",
            "2",
        )
        assert code == 0
        assert model_path.exists()
        lines = [json.loads(l) for l in metrics_path.read_text().splitlines()]
        assert len(lines) == 5  # 4 epochs + summary
        assert lines[-1]["summary"] is True
        assert lines[0]["samples_used"] < lines[-2]["samples_used"]

    def test_eval_matches_final_training_auc(self, tmp_path, capsys, data_file):
        model_path = tmp_path / "model.json"
        metrics_path = tmp_path / "metrics.jsonl"
        run_cli(
            capsys,
            "train",
            "--data",
            str(data_file),
            "--model-out",
            str(model_path),
            "--metrics-out",
            str(metrics_path),
            "--epochs",
            "3",
        )
        summary = json.loads(metrics_path.read_text().splitlines()[-1])
        code, out, _ = run_cli(
            capsys, "eval", "--data", str(data_file), "--model", str(model_path)
        )
        assert code == 0
        # stdout carries six decimals; the metrics file keeps full precision
        assert float(out.split()[1]) == pytest.approx(summary["final_auc"], abs=5e-7)

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("command", ["eval", "build"])
    def test_eval_reads_examples_from_a_pipe(self, tmp_path, capsys, data_file, command):
        # cat data | glsmooth eval --data /dev/stdin: the examples are read in
        # one pass, so a pipe gives the file's line.  A reader that read its
        # input twice would find no examples the second time.  build reads
        # its 300 reports from a pipe the same way, across two blocks.
        if command == "eval":
            model_path = tmp_path / "model.json"
            argv = ["train", "--data", str(data_file), "--model-out", str(model_path),
                    "--epochs", "2"]
            assert run_cli(capsys, *argv)[0] == 0
            source, outputs = data_file, []
            flag, rest = "--data", ["--model", str(model_path)]
        else:
            source, out = tmp_path / "reports.jsonl", tmp_path / "ds.jsonl"
            write_reports(source, make_reports(300, seed=3))
            outputs = [out, tmp_path / "ds.jsonl.stats.json"]
            flag, rest = "--input", ["--out", str(out)]
        on_file = run_cli(capsys, command, flag, str(source), *rest)
        assert on_file[0] == 0
        written = [path.read_bytes() for path in outputs]
        for path in outputs:
            path.unlink()
        proc = subprocess.run(
            [sys.executable, "-m", "glsmooth.cli", command, flag, "/dev/stdin", *rest],
            input=source.read_text(), capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(glsmooth.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == on_file
        assert [path.read_bytes() for path in outputs] == written

    def test_train_idempotent(self, tmp_path, capsys, data_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            run_cli(
                capsys,
                "train",
                "--data",
                str(data_file),
                "--model-out",
                str(target),
                "--epochs",
                "3",
                "--seed",
                "9",
            )
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_writes_nine_row_table(self, tmp_path, capsys, data_file):
        out = tmp_path / "sweep.tsv"
        code, stdout, _ = run_cli(
            capsys,
            "sweep",
            "--data",
            str(data_file),
            "--k",
            "0.375,0.4167,0.458",
            "--warmup",
            "3,5,7",
            "--out",
            str(out),
            "--epochs",
            "8",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k\twarmup\tauc"
        assert len(lines) == 10  # header + 3x3 grid
        assert lines[1].startswith("0.375\t3\t")
        assert lines[9].startswith("0.458\t7\t")
        for row in lines[1:]:
            assert np.isfinite(float(row.split("\t")[2]))

    def test_config_file_supplies_defaults(self, tmp_path, capsys, data_file):
        config = tmp_path / "run.conf"
        config.write_text("seed=9\nepochs=3\n")
        flagged = tmp_path / "flagged.json"
        configured = tmp_path / "configured.json"
        run_cli(
            capsys,
            "train",
            "--data",
            str(data_file),
            "--model-out",
            str(flagged),
            "--epochs",
            "3",
            "--seed",
            "9",
        )
        run_cli(
            capsys,
            "--config",
            str(config),
            "train",
            "--data",
            str(data_file),
            "--model-out",
            str(configured),
        )
        assert flagged.read_bytes() == configured.read_bytes()

    def test_flags_override_config_file(self, tmp_path, capsys, data_file):
        config = tmp_path / "run.conf"
        config.write_text("epochs=2\n")
        model_path = tmp_path / "m.json"
        metrics_path = tmp_path / "metrics.jsonl"
        run_cli(
            capsys,
            "--config",
            str(config),
            "train",
            "--data",
            str(data_file),
            "--model-out",
            str(model_path),
            "--metrics-out",
            str(metrics_path),
            "--epochs",
            "4",
        )
        lines = metrics_path.read_text().splitlines()
        assert len(lines) == 5  # 4 epochs + summary

    def test_sweep_ignores_config_warmup_epochs(self, tmp_path, capsys, data_file):
        # A config file train and sweep share may set warmup_epochs; the grid's
        # --warmup sets sweep's warm-up.  With 2 epochs, a base config that
        # took warmup_epochs=3 would be rejected (exit 1).
        config = tmp_path / "run.conf"
        config.write_text("warmup_epochs=3\n")
        tables = []
        for prefix in ((), ("--config", str(config))):
            out = tmp_path / f"sweep{len(prefix)}.tsv"
            argv = [*prefix, "sweep", "--data", str(data_file), "--k", "0.375,5/12",
                    "--warmup", "0,1", "--out", str(out), "--epochs", "2"]
            assert run_cli(capsys, *argv)[0] == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_bare_train_uses_library_defaults(self, tmp_path, capsys, data_file):
        cli_model, lib_model = tmp_path / "cli.json", tmp_path / "lib.json"
        argv = ["train", "--data", str(data_file), "--model-out", str(cli_model)]
        assert run_cli(capsys, *argv)[0] == 0
        save_model(train(read_examples(data_file), TrainConfig())[0], lib_model)
        assert cli_model.read_bytes() == lib_model.read_bytes()

    def test_unknown_config_key(self, tmp_path, capsys, data_file):
        config = tmp_path / "run.conf"
        config.write_text("flux_capacitor=1\n")
        code, _, err = run_cli(
            capsys,
            "--config",
            str(config),
            "train",
            "--data",
            str(data_file),
            "--model-out",
            str(tmp_path / "m.json"),
        )
        assert code == 1
        assert "flux_capacitor" in err

    def test_config_key_given_twice(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("seed=1\n# again\nseed=2\n")
        code, _, err = run_cli(capsys, "--config", str(config), "table1")
        assert (code, err) == (1, "error: config line 3: duplicate key 'seed' (line 1)\n")

    def test_config_byte_order_mark(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("k=1/3\n", encoding="utf-8-sig")
        code, _, err = run_cli(capsys, "--config", str(config), "-v", "table1")
        assert code == 0 and "'k': '1/3'" in err

    @pytest.mark.parametrize("line, command", [
        ("epochs=two", ["table1"]),
        ("epochs=two", ["build", "--input", "reports.jsonl", "--out", "ds.jsonl"]),
        ("n=ten", ["train", "--data", "ex.jsonl", "--model-out", "m.json"]),
        ("k=abc", ["eval", "--data", "ex.jsonl", "--model", "m.json"]),
        ("r0=1/0", ["validate", "--input", "ds.jsonl"]),
        ("arch=cnn", ["table1"]),
        ("loss=focal", ["gen-synthetic", "--profile", "3:0.0", "--out", "ex.jsonl"]),
        ("k=0", ["eval", "--data", "ex.jsonl", "--model", "m.json"]),
        ("r0=3/2", ["gen-synthetic", "--profile", "3:0.0", "--out", "ex.jsonl"]),
    ])
    def test_bad_config_value_is_usage_error_for_every_command(self, tmp_path, line, command):
        # Every value is checked when the file is read, also one the command
        # has no flag for; the input files need not exist, as none is opened.
        config = tmp_path / "run.conf"
        config.write_text(f"seed=1\n{line}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "glsmooth.cli", "--config", str(config), *command],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(glsmooth.__file__).parents[1])},
        )
        key = line.partition("=")[0]
        assert proc.returncode == 1
        assert f"config key {key}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize(
        "line", ["r0=3/2", "k=0", "k=-1/4", "k=1e400", "r0=-1e400", "k=3e307\nr0=-1.7e308"]
    )
    @pytest.mark.parametrize("command", [
        ["build", "--input", "reports.jsonl", "--out", "ds.jsonl"],
        ["validate", "--input", "ds.jsonl"],
        ["train", "--data", "ex.jsonl", "--model-out", "m.json"],
        ["eval", "--data", "ex.jsonl", "--model", "m.json"],
        ["sweep", "--data", "ex.jsonl", "--k", "5/12", "--warmup", "0", "--out", "s.tsv"],
        ["gen-synthetic", "--profile", "3:0.0", "--out", "ex.jsonl"],
    ], ids=lambda command: command[0])
    def test_config_rates_are_checked_when_read(
        self, tmp_path, monkeypatch, capsys, line, command
    ):
        # The file's own k and r0 must make valid rate parameters, whether or
        # not the command takes them; no input file need exist.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.conf"
        config.write_text(f"seed=1\n{line}\n")
        code, _, table1_err = run_cli(capsys, "--config", str(config), "table1")
        assert code == 1 and table1_err.startswith("error: ")
        assert run_cli(capsys, "--config", str(config), *command) == (1, "", table1_err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    def test_gen_synthetic_golden_bytes(self, tmp_path, capsys):
        # the committed files pin the example and truth formats byte for byte
        out, truth = tmp_path / "gen.jsonl", tmp_path / "gen.truth.jsonl"
        code, _, _ = run_cli(
            capsys, "gen-synthetic", "--n", "50", "--d", "3",
            "--profile", "3:0.02,2:0.1,1:0.25,0:0.45", "--seed", "7",
            "--out", str(out), "--truth-out", str(truth),
        )
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / "gen_synthetic_golden.jsonl").read_bytes()
        assert truth.read_bytes() == (DATA_DIR / "gen_synthetic_golden.truth.jsonl").read_bytes()


class TestMalformedInput:
    """A bad line or bad bytes in any input file is a data error, never a traceback."""

    @pytest.fixture()
    def files(self, tmp_path, capsys):
        files = {
            "reports": tmp_path / "reports.jsonl",
            "dataset": tmp_path / "ds.jsonl",
            "examples": tmp_path / "train.jsonl",
            "model": tmp_path / "model.json",
            "lexicon": tmp_path / "lexicon.tsv",
            "taxonomy": tmp_path / "taxonomy.tsv",
            "config": tmp_path / "run.conf",
        }
        files["eval"] = files["examples"]
        write_reports(files["reports"], make_reports(5, seed=1))
        files["lexicon"].write_text("likely\t2\tuncertainty_cue\n")
        files["taxonomy"].write_text("pneumonia\tPneumonia\n")
        files["config"].write_text("seed=1\n")
        for argv in (
            ["build", "--input", files["reports"], "--out", files["dataset"]],
            ["gen-synthetic", "--n", "40", "--d", "3", "--profile", "3:0.0,0:0.4",
             "--out", files["examples"]],
            ["train", "--data", files["examples"], "--model-out", files["model"],
             "--epochs", "1"],
        ):
            assert run_cli(capsys, *map(str, argv))[0] == 0
        return files

    @staticmethod
    def argv(command, files, out):
        argv = {
            "build": ["build", "--input", files["reports"], "--out", out],
            "validate": ["validate", "--input", files["dataset"]],
            "train": ["train", "--data", files["examples"], "--model-out", out,
                      "--epochs", "1"],
            "eval": ["eval", "--data", files["examples"], "--model", files["model"]],
            "sweep": ["sweep", "--data", files["examples"], "--k", "5/12",
                      "--warmup", "0", "--out", out, "--epochs", "1"],
            "eval-data": ["sweep", "--data", files["examples"], "--eval-data", files["eval"],
                          "--k", "5/12", "--warmup", "0", "--out", out, "--epochs", "1"],
            "lexicon": ["build", "--input", files["reports"], "--out", out,
                        "--lexicon", files["lexicon"]],
            "taxonomy": ["build", "--input", files["reports"], "--out", out,
                         "--taxonomy", files["taxonomy"]],
            "config": ["--config", files["config"], "table1"],
        }[command]
        return [str(arg) for arg in argv]

    @pytest.mark.parametrize("path", ["empty", "directory"])
    @pytest.mark.parametrize(
        "command, target, kind",
        [("build", "reports", "input"), ("validate", "dataset", "input"),
         ("train", "examples", "data"), ("eval", "examples", "data"), ("eval", "model", "model"),
         ("sweep", "examples", "data"), ("eval-data", "eval", "eval data"),
         ("lexicon", "lexicon", "lexicon"),
         ("taxonomy", "taxonomy", "taxonomy"), ("config", "config", "config")],
    )
    def test_empty_path_or_directory_names_the_file(
        self, tmp_path, capsys, files, command, target, kind, path
    ):
        # An empty path is the working directory to Path; neither it nor a
        # directory reaches open(), whose "Is a directory: '.'" names no file.
        files[target] = "" if path == "empty" else tmp_path
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv(command, files, out))
        message = "file path is empty" if path == "empty" else f"file is a directory: {tmp_path}"
        assert (code, err) == (2, f"error: {kind} {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, target",
        [("validate", "dataset"), ("train", "examples"), ("eval", "examples"),
         ("sweep", "examples")],
    )
    def test_non_object_line(self, tmp_path, capsys, files, command, target):
        with open(files[target], "a") as fh:
            fh.write("5\n")
        code, _, err = run_cli(capsys, *self.argv(command, files, tmp_path / "out"))
        assert code == 2
        assert "expected a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, target",
        [("build", "reports"), ("validate", "dataset"), ("train", "examples"),
         ("eval", "model"), ("lexicon", "lexicon"), ("taxonomy", "taxonomy"),
         ("config", "config")],
    )
    def test_non_utf8_bytes(self, tmp_path, capsys, files, command, target):
        # A JSON Lines file names the line holding the bytes; a table or a
        # JSON document names the file alone.
        lineno = files[target].read_bytes().count(b"\n") + 1
        with open(files[target], "ab") as fh:
            fh.write(b"\xff\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv(command, files, out))
        assert code == 2
        where = f"line {lineno}: " if target in ("reports", "dataset", "examples") else ""
        assert f"{files[target]}: {where}not valid UTF-8" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("layout", ["written", "compact"])
    @pytest.mark.parametrize(
        "command, target, bad",
        [("validate", "dataset", {"y": 5}), ("eval", "examples", {"y": 5})],
    )
    def test_bad_line_before_non_utf8_bytes_fails_first(
        self, tmp_path, capsys, files, command, target, bad, layout
    ):
        # Line 1 breaks a field rule and line 3 holds a byte that is not UTF-8,
        # in one block and one text-decoder chunk: line 1's error comes first,
        # and validate, which names every bad line, names line 3 after it.
        separators = (", ", ": ") if layout == "written" else (",", ":")
        records = [json.loads(line) for line in files[target].read_text().splitlines()]
        records[0].update(bad)
        lines = [json.dumps(record, separators=separators).encode() for record in records]
        lines[2] = b'{"note": "\xff", ' + lines[2][1:]
        files[target].write_bytes(b"\n".join(lines) + b"\n")
        code, _, err = run_cli(capsys, *self.argv(command, files, tmp_path / "out"))
        rest = f"; {files[target]}: line 3: not valid UTF-8 (invalid start byte)"
        assert (code, err) == (
            2, f"error: line 1: y must be 0 or 1{rest if command == 'validate' else ''}\n"
        )

    @pytest.mark.parametrize(
        "command, target",
        [("build", "reports"), ("validate", "dataset"), ("eval", "examples")],
    )
    def test_non_utf8_line_is_named(self, tmp_path, capsys, files, command, target):
        # The only fault is at line 400, blocks and text-decoder chunks past line 1.
        if target == "reports":
            write_reports(files["reports"], make_reports(450, seed=1))
        lines = (files[target].read_bytes().splitlines(keepends=True) * 400)[:450]
        lines[399] = b'{"note": "\xff", ' + lines[399][1:]
        files[target].write_bytes(b"".join(lines))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv(command, files, out))
        assert (code, err) == (
            2, f"error: {files[target]}: line 400: not valid UTF-8 (invalid start byte)\n"
        )
        assert not out.exists()

    # Lines the JSON decoder itself cannot turn into a value, with the reason given.
    UNDECODABLE = pytest.mark.parametrize(
        "line, reason",
        [("[" * 100_000 + "]" * 100_000, "nested too deeply"), ("1" * 5000, "integer too long")],
        ids=["nested", "long-integer"],
    )

    @UNDECODABLE
    @pytest.mark.parametrize(
        "command, target",
        [("validate", "dataset"), ("train", "examples"), ("eval", "examples")],
    )
    def test_undecodable_line(self, tmp_path, capsys, files, command, target, line, reason):
        lineno = len(files[target].read_text().splitlines()) + 1
        with open(files[target], "a") as fh:
            fh.write(line + "\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv(command, files, out))
        assert code == 2
        assert f"line {lineno}: invalid record ({reason})" in err
        assert "Traceback" not in err
        assert not out.exists()

    @UNDECODABLE
    def test_undecodable_report_line_is_malformed(self, tmp_path, capsys, files, line, reason):
        first, *rest = files["reports"].read_text().splitlines()
        files["reports"].write_text("\n".join([first, line, *rest]) + "\n")
        out = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, *self.argv("build", files, out))
        assert code == 0
        assert "(1 malformed)" in stdout
        assert out.read_text() == files["dataset"].read_text()
        stats = json.loads((tmp_path / "out.stats.json").read_text())
        assert stats["malformed_records"] == [f"line 2: invalid record ({reason})"]

    @pytest.mark.parametrize(
        "command, target, patch, message",
        [
            pytest.param("train", "examples", {"features": ["a", 1.0, 2.0]},
                         "features must be a non-empty list of finite numbers",
                         id="train-features-string"),
            pytest.param("train", "examples", {"features": [10**400, 1.0, 2.0]},
                         "features must be a non-empty list of finite numbers",
                         id="train-features-huge-int"),
            pytest.param("train", "examples", {"y": True, "u": 3.0},
                         "y must be 0 or 1; u must be an integer in {-3..3}",
                         id="train-y-bool-u-float"),
            pytest.param("eval", "examples", {"u": "3"}, "u must be an integer in {-3..3}",
                         id="eval-u-string"),
            pytest.param("validate", "dataset", {"r": "x"}, "r must be a number",
                         id="validate-r-string"),
            pytest.param("validate", "dataset", {"target_neg": None},
                         "target_neg must be a number", id="validate-target_neg-null"),
            pytest.param("validate", "dataset", {"y": True}, "y must be 0 or 1",
                         id="validate-y-bool"),
            pytest.param("validate", "dataset", {"category": []}, "category must be a string",
                         id="validate-category-list"),
            pytest.param("validate", "dataset", {"study_id": 5}, "study_id must be a string",
                         id="validate-study_id-int"),
            pytest.param("validate", "dataset", {"study_id": [1, 2]},
                         "study_id must be a string", id="validate-study_id-list"),
            pytest.param("validate", "dataset", {"study_id": {}}, "study_id must be a string",
                         id="validate-study_id-object"),
            pytest.param("validate", "dataset", {"cue": 5}, "cue must be a string or null",
                         id="validate-cue-int"),
        ],
    )
    def test_mistyped_field(self, tmp_path, capsys, files, command, target, patch, message):
        first, *rest = files[target].read_text().splitlines()
        files[target].write_text("\n".join([json.dumps({**json.loads(first), **patch})] + rest))
        code, _, err = run_cli(capsys, *self.argv(command, files, tmp_path / "out"))
        assert code == 2
        assert f"line 1: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"architecture": "linear"}', "model weights must be exactly W, b"),
            ("{not json", "invalid JSON"),
            ("[1, 2]", "expected a JSON object"),
            ('{"architecture": "linear", "weights": {"W": [[1, 2, 3]], "b": [0, 0]}}',
             "mismatched shapes"),
            ('{"architecture": "linear", "weights": {"W": [["a"]], "b": [0, 0]}}',
             "arrays of numbers"),
            pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON (nested too deeply)",
                         id="nested"),
            pytest.param('{"hidden_width": ' + "1" * 5000 + "}",
                         "invalid JSON (integer too long)", id="long-integer"),
            # a bool is no number here, as in example and dataset files
            pytest.param('{"architecture": "linear", "weights": {"W": [[true, false], [0, 1],'
                         ' [1, 0]], "b": [0, 0]}}', "model weights must be arrays of numbers",
                         id="bool-weights"),
        ],
    )
    def test_bad_model_file(self, tmp_path, capsys, files, content, message):
        files["model"].write_text(content)
        code, _, err = run_cli(capsys, *self.argv("eval", files, tmp_path / "out"))
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    def test_eval_feature_dimension_mismatch(self, tmp_path, capsys, files):
        files["examples"].write_text(json.dumps({"features": [0.0] * 4, "y": 1, "u": 3}) + "\n")
        code, _, err = run_cli(capsys, *self.argv("eval", files, tmp_path / "out"))
        assert code == 2
        assert "data has 4 features, model expects 3" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_feature_vector(self, tmp_path, capsys, files, command):
        files["examples"].write_text(json.dumps({"features": [], "y": 1, "u": 3}) + "\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv(command, files, out))
        assert code == 2
        assert "line 1: features must be a non-empty list of finite numbers" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("token", ["NaN", "1e400"])
    @pytest.mark.parametrize("bad_y", [False, True], ids=["alone", "before-bad-y"])
    def test_non_finite_feature_names_its_line(self, tmp_path, capsys, files, command, token,
                                               bad_y):
        # a non-finite feature fails its own line, before a later line can fail
        lines = files["examples"].read_text().splitlines()
        features = ["1.0"] * (len(json.loads(lines[0])["features"]) - 1) + [token]
        lines[1] = f'{{"features": [{", ".join(features)}], "y": 1, "u": 3}}'
        if bad_y:
            lines[3] = json.dumps({**json.loads(lines[3]), "y": 5})
        files["examples"].write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv(command, files, out))
        assert (code, err) == (
            2, "error: line 2: features must be a non-empty list of finite numbers\n"
        )
        assert not out.exists()

    def test_sweep_split_without_eval_rows(self, tmp_path, capsys, files):
        first = files["examples"].read_text().splitlines()[0]
        files["examples"].write_text(first + "\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv("sweep", files, out))
        assert code == 2
        assert "the 75/25 split of 1 example(s) leaves the eval split empty" in err
        assert not out.exists()

    @pytest.mark.parametrize("eval_file, code, message", [
        ("wide", 2, "data has 4 features, model expects 3"),
        ("one-class", 3, "AUC undefined: both classes must be present"),
        (None, 3, "AUC undefined: both classes must be present"),  # the 75/25 split
    ])
    def test_sweep_checks_eval_data_before_the_first_cell(self, tmp_path, capsys, files,
                                                          eval_file, code, message):
        records = [json.loads(line) for line in files["examples"].read_text().splitlines()]
        if eval_file == "wide":
            records = [{**rec, "features": [0.5] * 4} for rec in records]
        else:  # every effective label 1: y = 0 where the score is negative, else 1
            records = [{**rec, "y": int(rec["u"] >= 0)} for rec in records]
        path = files["examples"] if eval_file is None else tmp_path / "eval.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        argv = self.argv("sweep", files, tmp_path / "out")
        if eval_file is not None:
            argv += ["--eval-data", str(path)]
        with mock.patch.object(training, "train", wraps=training.train) as counted:
            assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")
        assert counted.call_count == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eval_data", [False, True], ids=["split", "eval-data"])
    def test_sweep_checks_warmup_rows_before_the_first_cell(self, tmp_path, capsys, files,
                                                            eval_data):
        # A warm-up trains on the |u| = 3 rows alone, and the training data has
        # none: the (k, 0) cell must not train before the error.
        lines = files["examples"].read_text().splitlines()
        argv = self.argv("sweep", files, tmp_path / "out")
        argv[argv.index("--warmup") + 1] = "0,1"
        if eval_data:
            (tmp_path / "eval.jsonl").write_text("".join(line + "\n" for line in lines))
            argv += ["--eval-data", str(tmp_path / "eval.jsonl")]
        records = [{**json.loads(line), "u": 2} for line in lines]
        files["examples"].write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with mock.patch.object(training, "train", wraps=training.train) as counted:
            assert run_cli(capsys, *argv) == (1, "", "error: warmup_epochs > 0 requires at least"
                                              " one extreme-confidence (|u|=3) example\n")
        assert counted.call_count == 0
        assert not (tmp_path / "out").exists()


class TestOutputPaths:
    """A bad output path exits 2 before the work, names the file kind, and writes nothing."""

    # (command, flag, kind, the cli function that does the work)
    FLAGS = [
        ("build", "--out", "dataset output", "build_dataset_file"),
        ("train", "--model-out", "model output", "read_examples"),
        ("train", "--metrics-out", "metrics output", "read_examples"),
        ("sweep", "--out", "sweep output", "read_examples"),
        ("gen-synthetic", "--out", "examples output", "write_examples"),
        ("gen-synthetic", "--truth-out", "truth output", "write_examples"),
    ]

    @pytest.fixture()
    def inputs(self, tmp_path, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        write_reports(inputs / "reports.jsonl", make_reports(5, seed=1))
        argv = ["gen-synthetic", "--n", "40", "--d", "3", "--profile", "3:0.0,0:0.4",
                "--out", str(inputs / "examples.jsonl")]
        assert run_cli(capsys, *argv)[0] == 0
        return inputs

    @staticmethod
    def argv(command, inputs, outputs):
        """The command's argv writing each output flag to ``outputs[flag]``."""
        examples = str(inputs / "examples.jsonl")
        argv, flags = {
            "build": (["build", "--input", str(inputs / "reports.jsonl")], ["--out"]),
            "train": (["train", "--data", examples, "--epochs", "1"],
                      ["--model-out", "--metrics-out"]),
            "sweep": (["sweep", "--data", examples, "--k", "5/12", "--warmup", "0",
                       "--epochs", "1"], ["--out"]),
            "gen-synthetic": (["gen-synthetic", "--n", "40", "--d", "3",
                               "--profile", "3:0.0,0:0.4"], ["--out", "--truth-out"]),
        }[command]
        return argv + [arg for flag in flags for arg in (flag, str(outputs[flag]))]

    @pytest.mark.parametrize("case", ["empty", "directory", "missing parent"])
    @pytest.mark.parametrize("command, flag, kind, work", FLAGS,
                             ids=[command + flag for command, flag, *_ in FLAGS])
    def test_bad_output_path(self, tmp_path, capsys, inputs, case, command, flag, kind, work):
        out = tmp_path / "out"
        out.mkdir()
        outputs = {name: out / name.lstrip("-") for name in ("--out", "--model-out",
                                                             "--metrics-out", "--truth-out")}
        outputs[flag] = {"empty": "", "directory": out,
                         "missing parent": out / "missing" / "file"}[case]
        message = {"empty": "file path is empty", "directory": f"file is a directory: {out}",
                   "missing parent": f"file directory not found: {out / 'missing'}"}[case]
        with mock.patch(f"glsmooth.cli.{work}") as worked:
            got = run_cli(capsys, *self.argv(command, inputs, outputs))
        assert got == (2, "", f"error: {kind} {message}\n")
        assert worked.call_count == 0
        assert list(out.iterdir()) == []

    def test_stats_sidecar_is_checked_with_the_dataset(self, tmp_path, capsys, inputs):
        out = tmp_path / "ds.jsonl"
        (tmp_path / "ds.jsonl.stats.json").mkdir()
        got = run_cli(capsys, *self.argv("build", inputs, {"--out": out}))
        stats = tmp_path / "ds.jsonl.stats.json"
        assert got == (2, "", f"error: stats output file is a directory: {stats}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["symlink", "symlink to no file", "hard link"])
    def test_stats_sidecar_naming_the_dataset(self, tmp_path, capsys, inputs, case):
        # The sidecar would overwrite the dataset just written.
        out, stats = tmp_path / "ds.jsonl", tmp_path / "ds.jsonl.stats.json"
        if case != "symlink to no file":
            out.write_text("kept\n")
        if case == "hard link":
            os.link(out, stats)
        else:
            stats.symlink_to(out)
        with mock.patch("glsmooth.cli.build_dataset_file") as worked:
            got = run_cli(capsys, *self.argv("build", inputs, {"--out": out}))
        assert got == (
            2, "", f"error: dataset output and stats output name the same file: {out}\n"
        )
        assert worked.call_count == 0
        if case == "symlink to no file":
            assert not out.exists()
        else:
            assert out.read_text() == "kept\n"

    # (command, first flag, its kind, second flag, its kind, the function doing the work)
    PAIRS = [
        ("train", "--model-out", "model output", "--metrics-out", "metrics output",
         "read_examples"),
        ("gen-synthetic", "--out", "examples output", "--truth-out", "truth output",
         "write_examples"),
    ]

    @pytest.mark.parametrize("case", ["same path", "other spelling", "symlink", "hard link"])
    @pytest.mark.parametrize("command, first, kind, second, other, work", PAIRS,
                             ids=[pair[0] for pair in PAIRS])
    def test_two_outputs_naming_one_file(
        self, tmp_path, capsys, inputs, case, command, first, kind, second, other, work
    ):
        out = tmp_path / "out"
        out.mkdir()
        target = out / "file"
        if case in ("symlink", "hard link"):
            target.write_text("kept\n")
        named = {"same path": target, "other spelling": out / ".." / "out" / "file",
                 "symlink": out / "link", "hard link": out / "link"}[case]
        if case == "symlink":
            named.symlink_to(target)
        elif case == "hard link":
            os.link(target, named)
        before = sorted(path.name for path in out.iterdir())
        with mock.patch(f"glsmooth.cli.{work}") as worked:
            got = run_cli(capsys, *self.argv(command, inputs, {first: target, second: named}))
        assert got == (2, "", f"error: {kind} and {other} name the same file: {target}\n")
        assert worked.call_count == 0
        assert sorted(path.name for path in out.iterdir()) == before
        if target.exists():
            assert target.read_text() == "kept\n"

    # (command, output flag, its kind, input flag, its kind, the function doing the work)
    OVERWRITES = [
        ("build", "--out", "dataset output", "--input", "input", "build_dataset_file"),
        ("build", "--out", "dataset output", "--taxonomy", "taxonomy", "build_dataset_file"),
        ("train", "--model-out", "model output", "--data", "data", "read_examples"),
        ("train", "--metrics-out", "metrics output", "--config", "config", "read_examples"),
        ("sweep", "--out", "sweep output", "--eval-data", "eval data", "read_examples"),
        ("gen-synthetic", "--out", "examples output", "--config", "config", "write_examples"),
        ("gen-synthetic", "--truth-out", "truth output", "--config", "config",
         "write_examples"),
    ]

    @pytest.mark.parametrize("case", ["same path", "other spelling", "symlink", "hard link"])
    @pytest.mark.parametrize("command, flag, kind, input_flag, input_kind, work", OVERWRITES,
                             ids=[row[0] + row[1] + row[3] for row in OVERWRITES])
    def test_output_naming_an_input(self, tmp_path, capsys, inputs, case, command, flag, kind,
                                    input_flag, input_kind, work):
        source = tmp_path / "source"
        source.write_bytes(b"seed=3\n" if input_flag == "--config" else {
            "--input": inputs / "reports.jsonl",
            "--taxonomy": Path(glsmooth.__file__).parent / "data" / "taxonomy.tsv",
        }.get(input_flag, inputs / "examples.jsonl").read_bytes())
        before = source.read_bytes()
        named = {"same path": source, "other spelling": tmp_path / ".." / tmp_path.name
                 / "source", "symlink": tmp_path / "link", "hard link": tmp_path / "link"}[case]
        if case == "symlink":
            named.symlink_to(source)
        elif case == "hard link":
            os.link(source, named)
        outputs = {name: tmp_path / name.lstrip("-") for name in ("--out", "--model-out",
                                                                 "--metrics-out", "--truth-out")}
        outputs[flag] = named
        argv = self.argv(command, inputs, outputs)
        if input_flag == "--config":
            argv = ["--config", str(source), *argv]
        elif input_flag in argv:
            argv[argv.index(input_flag) + 1] = str(source)
        else:
            argv += [input_flag, str(source)]
        with mock.patch(f"glsmooth.cli.{work}") as worked:
            got = run_cli(capsys, *argv)
        assert got == (2, "", f"error: {kind} {named} would overwrite the {input_kind} file"
                              f" {source}\n")
        assert worked.call_count == 0
        assert source.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["in", "source"] + ["link"] * (case in ("symlink", "hard link")))

    # (command, the flag of the output written first, that of the output written second;
    # None for build's stats sidecar, which is named after --out)
    WRITE_ORDER = [
        ("build", "--out", None),
        ("train", "--model-out", "--metrics-out"),
        ("gen-synthetic", "--out", "--truth-out"),
    ]

    @pytest.mark.parametrize("command, first, second", WRITE_ORDER,
                             ids=[row[0] for row in WRITE_ORDER])
    def test_full_disk_at_the_second_output(self, tmp_path, capsys, inputs, command, first,
                                            second):
        # Every check passes, so the first output is written before opening the
        # second one fails: the run exits 2 with a one-line error and leaves the
        # first output whole and the second one absent.
        outputs = {flag: tmp_path / flag.lstrip("-") for flag in ("--out", "--model-out",
                                                                 "--metrics-out", "--truth-out")}
        second_path = stats_path_for(outputs[first]) if second is None else outputs[second]
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(second_path))
        real_open = open

        def open_on_a_full_disk(file, *args, **kwargs):
            if os.fspath(file) == str(second_path):
                raise full
            return real_open(file, *args, **kwargs)

        with mock.patch("builtins.open", open_on_a_full_disk):
            code, out, err = run_cli(capsys, *self.argv(command, inputs, outputs))
        assert (code, out, err) == (2, "", f"error: {full}\n")  # one line, no traceback
        assert outputs[first].stat().st_size > 0
        assert not second_path.exists()

    def test_device_and_pipe_pass(self, tmp_path, capsys, inputs):
        outputs = {"--out": tmp_path / "ex.jsonl", "--truth-out": os.devnull}
        code, out, _ = run_cli(capsys, *self.argv("gen-synthetic", inputs, outputs))
        assert (code, out) == (0, f"wrote 40 examples to {tmp_path / 'ex.jsonl'}\n")
        # A device may be named by both outputs of one command.
        for command in ("train", "gen-synthetic"):
            both = dict.fromkeys(["--out", "--model-out", "--metrics-out", "--truth-out"],
                                 os.devnull)
            code, _, err = run_cli(capsys, *self.argv(command, inputs, both))
            assert (code, err) == (0, "")
            # ... and be an input as well.
            code, _, err = run_cli(capsys, "--config", os.devnull,
                                   *self.argv(command, inputs, both))
            assert (code, err) == (0, "")
        if hasattr(os, "mkfifo"):
            os.mkfifo(tmp_path / "fifo")
            fifo = str(tmp_path / "fifo")
            _require_outputs((fifo, "pipe"), (fifo, "pipe"))  # checked without opening it


class TestDivergence:
    """A model that diverges exits 3 and is not saved."""

    @pytest.mark.parametrize("weight_decay, what", [("10", "weights"), ("0", "scores")])
    def test_divergence_exits_3_without_saving(self, tmp_path, capsys, weight_decay, what):
        data, model = tmp_path / "ex.jsonl", tmp_path / "model.json"
        profile = "3:0.02,2:0.1,1:0.25,0:0.45"
        argv = ["gen-synthetic", "--n", "200", "--d", "3", "--profile", profile, "--seed", "1",
                "--out", str(data)]
        assert run_cli(capsys, *argv)[0] == 0
        train = ["train", "--data", str(data), "--model-out", str(model), "--lr", "1e308",
                 "--epochs", "1", "--batch-size", "1000", "--lr-warmup-epochs", "0",
                 "--weight-decay", weight_decay]
        # a fresh interpreter prints what a user sees: the error, no numpy RuntimeWarning
        proc = subprocess.run(
            [sys.executable, "-m", "glsmooth.cli", *train], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(glsmooth.__file__).parents[1])},
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: training diverged: non-finite {what} after epoch 1\n"
        assert not model.exists()

    @pytest.mark.parametrize("flags, error", [
        # The cells compute no per-step loss: a NaN probability makes the
        # weights NaN, which the epoch's end reports.
        pytest.param(["--lr", "1e308"], "training diverged: non-finite weights after epoch 1",
                     id="lr"),
        # Rates whose loss could overflow keep the per-step loss and its check.
        pytest.param(["--k", "4e307"], "non-finite loss at epoch 1, batch starting 0", id="k"),
    ])
    def test_sweep_divergence_exits_3_without_a_table(self, tmp_path, capsys, flags, error):
        data, out = tmp_path / "ex.jsonl", tmp_path / "sweep.tsv"
        argv = ["gen-synthetic", "--n", "200", "--d", "3", "--profile", "3:0.02,0:0.45",
                "--seed", "1", "--out", str(data)]
        assert run_cli(capsys, *argv)[0] == 0
        sweep = ["sweep", "--data", str(data), "--k", "5/12", "--warmup", "0", "--out", str(out),
                 "--epochs", "1", "--lr-warmup-epochs", "0", *flags]
        proc = subprocess.run(
            [sys.executable, "-m", "glsmooth.cli", *sweep], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(glsmooth.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {error}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, batch", [
        pytest.param("train", ["--k", "2e306", "--model-out", "model.json",
                               "--metrics-out", "metrics.jsonl"], 352, id="train"),
        # The sweep's 450-row training split sums to 1.7e308 per epoch at
        # k = 2e306, which is finite; at 3e306 it overflows.
        pytest.param("sweep", ["--k", "3e306", "--warmup", "0", "--out", "sweep.tsv"], 320,
                     id="sweep"),
    ])
    def test_overflowing_loss_total_exits_3(self, tmp_path, capsys, command, flags, batch):
        # Every row's loss is finite, but the epoch's running total overflows;
        # the mean loss would be written as -Infinity, which is not JSON.
        data = tmp_path / "ex.jsonl"
        argv = ["gen-synthetic", "--n", "600", "--d", "5", "--profile",
                "3:0.0,2:0.1,1:0.25,0:0.5", "--seed", "3", "--out", str(data)]
        assert run_cli(capsys, *argv)[0] == 0
        proc = subprocess.run(
            [sys.executable, "-m", "glsmooth.cli", command, "--data", str(data),
             "--epochs", "2", *flags],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(glsmooth.__file__).parents[1])},
        )
        error = f"error: non-finite loss at epoch 1, batch starting {batch}\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", error)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ex.jsonl"]

    def test_eval_overflow_exits_3(self, tmp_path, capsys):
        # Finite weights whose scores overflow: 10 * 1e308 is inf, and inf - inf is NaN.
        data, model = tmp_path / "ex.jsonl", tmp_path / "model.json"
        rows = [([10.0, 10.0], 1), ([-10.0, -10.0], 0), ([5.0, 5.0], 1)]
        data.write_text("".join(
            json.dumps({"features": features, "y": y, "u": 3}) + "\n" for features, y in rows
        ))
        weights = {"W": [[1e308, -1e308], [1e308, -1e308]], "b": [0.0, 0.0]}
        model.write_text(json.dumps(
            {"architecture": "linear", "hidden_width": None, "weights": weights}
        ))
        argv = ["eval", "--data", str(data), "--model", str(model)]
        error = "error: non-finite scores: the model overflows on this data\n"
        assert run_cli(capsys, *argv) == (3, "", error)
        proc = subprocess.run(
            [sys.executable, "-m", "glsmooth.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(glsmooth.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", error)

    def test_negative_lr_warmup_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "ex.jsonl"
        argv = ["gen-synthetic", "--n", "20", "--d", "2", "--profile", "3:0.0", "--out", str(data)]
        assert run_cli(capsys, *argv)[0] == 0
        code, _, err = run_cli(capsys, "train", "--data", str(data), "--model-out",
                               str(tmp_path / "m.json"), "--lr-warmup-epochs", "-3")
        assert code == 1
        assert "lr_warmup_epochs must be >= 0" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--data", "x.jsonl")
        assert code == 1

    def test_sweep_has_no_warmup_epochs_flag(self, tmp_path):
        argv = ["sweep", "--data", "x.jsonl", "--k", "0.375", "--warmup", "1",
                "--out", str(tmp_path / "s.tsv"), "--warmup-epochs", "2"]
        proc = subprocess.run(
            [sys.executable, "-m", "glsmooth.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(glsmooth.__file__).parents[1])},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: unrecognized arguments: --warmup-epochs 2\n")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "s.tsv").exists()

    @pytest.mark.parametrize("argv, setting", [
        (["build", "--input", "{missing}", "--out", "{out}", "--r0", "3/2"], "r0"),
        (["validate", "--input", "{missing}", "--r0", "3/2"], "r0"),
        (["train", "--data", "{missing}", "--model-out", "{out}", "--epochs", "0"], "epochs"),
        (["train", "--data", "{missing}", "--model-out", "{out}", "--r0", "3/2"], "r0"),
        (["sweep", "--data", "{missing}", "--k", "5/12", "--warmup", "0", "--out", "{out}",
          "--r0", "3/2"], "r0"),
        (["sweep", "--data", "{missing}", "--k", "banana", "--warmup", "0", "--out", "{out}"],
         "--k"),
        (["sweep", "--data", "{missing}", "--k", "0", "--warmup", "0", "--out", "{out}"],
         "slope k"),
        (["sweep", "--data", "{missing}", "--k", "5/12", "--warmup", "x", "--out", "{out}"],
         "--warmup"),
        (["sweep", "--data", "{missing}", "--eval-data", "{missing}", "--k", "5/12",
          "--warmup", "0,9", "--epochs", "2", "--out", "{out}"], "warmup_epochs"),
        (["table1", "--r0", "3/2"], "r0"),
        (["sweep", "--data", "{missing}", "--k", ",", "--warmup", "0", "--out", "{out}"],
         "at least one k"),
        # the lowest rate r0 - 3k must convert to a float, not only each alone
        (["build", "--input", "{missing}", "--out", "{out}", "--k", "1e400"], "overflow"),
        (["validate", "--input", "{missing}", "--r0=-1e400"], "overflow"),
        (["train", "--data", "{missing}", "--model-out", "{out}", "--k", "3e307",
          "--r0=-1.7e308"], "overflow"),
        (["sweep", "--data", "{missing}", "--k", "1e400", "--warmup", "0", "--out", "{out}"],
         "overflow"),
        (["sweep", "--data", "{missing}", "--k", "3e307", "--warmup", "0", "--out", "{out}",
          "--r0=-1.7e308"], "overflow"),
        (["table1", "--k", "1e400"], "overflow"),
        (["table1", "--r0=-1e400"], "overflow"),
        (["table1", "--k", "3e307", "--r0=-1.7e308"], "overflow"),
        # an infinite rate is a bad setting, not a diverged run (exit 3)
        (["train", "--data", "{missing}", "--model-out", "{out}", "--lr", "1e5000"],
         "learning_rate must be positive and finite, got inf"),
        (["train", "--data", "{missing}", "--model-out", "{out}", "--lr", "inf"],
         "learning_rate must be positive and finite, got inf"),
        (["train", "--data", "{missing}", "--model-out", "{out}", "--weight-decay", "inf"],
         "weight_decay must be >= 0 and finite, got inf"),
        (["sweep", "--data", "{missing}", "--k", "5/12", "--warmup", "0", "--out", "{out}",
          "--lr", "1e5000"], "learning_rate must be positive and finite, got inf"),
        (["sweep", "--data", "{missing}", "--k", "5/12", "--warmup", "0", "--out", "{out}",
          "--weight-decay", "inf"], "weight_decay must be >= 0 and finite, got inf"),
    ])
    def test_bad_setting_exits_1_before_input_is_read(self, tmp_path, capsys, argv, setting):
        paths = {"missing": str(tmp_path / "missing.jsonl"), "out": str(tmp_path / "out")}
        code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 1
        assert setting in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, error", [
        (["train", "--data", "{data}", "--model-out", "{out}", "--arch", "mlp_1hidden",
          "--hidden-width", str(2**62)],
         f"hidden_width {2**62} is too large: no 3 x {2**62} weights can be allocated"),
        (["sweep", "--data", "{data}", "--k", "5/12", "--warmup", "0", "--out", "{out}",
          "--arch", "mlp_1hidden", "--hidden-width", str(2**63)],
         f"hidden_width {2**63} is too large: no 3 x {2**63} weights can be allocated"),
        (["gen-synthetic", "--n", str(2**62), "--d", "3", "--profile", "3:0.0", "--out", "{out}"],
         f"n x d is too large: no {2**62} x 3 features can be allocated"),
        (["gen-synthetic", "--n", "4", "--d", str(2**62), "--profile", "3:0.0", "--out", "{out}"],
         f"n x d is too large: no 4 x {2**62} features can be allocated"),
        (["gen-synthetic", "--n", str(2**64), "--d", "3", "--profile", "3:0.0", "--out", "{out}"],
         f"n x d is too large: no {2**64} x 3 features can be allocated"),
    ])
    def test_setting_numpy_refuses_is_one_line_error(self, tmp_path, capsys, argv, error):
        # Only sizes numpy refuses before allocating anything (2**62 floats and up).
        data = tmp_path / "ex.jsonl"
        assert run_cli(capsys, "gen-synthetic", "--n", "40", "--d", "3", "--profile",
                       "3:0.0,0:0.4", "--out", str(data))[0] == 0
        paths = {"data": str(data), "out": str(tmp_path / "out")}
        got = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert got == (1, "", f"error: {error}\n")
        assert not (tmp_path / "out").exists()

    def test_setting_types_match_train_config(self):
        # A flag parses with its default's type, so each training default must
        # have the type its TrainConfig field declares.
        declared = typing.get_type_hints(TrainConfig)
        for key in _TRAIN_FLAGS:
            assert type(_SETTINGS[key]) is declared[_FIELD_OF.get(key, key)]

    def test_gen_synthetic_bad_profile(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "gen-synthetic",
            "--profile",
            "nonsense",
            "--out",
            str(tmp_path / "x.jsonl"),
        )
        assert code == 1

    @pytest.mark.parametrize("profile, level", [("3:0.1,3:0.4", 3), ("1:0.2,2:0.1,01:0.3", 1)])
    def test_gen_synthetic_repeated_profile_level(self, tmp_path, capsys, profile, level):
        out = tmp_path / "x.jsonl"
        code, _, err = run_cli(capsys, "gen-synthetic", "--profile", profile, "--out", str(out))
        assert (code, err) == (1, f"error: --profile gives level {level} more than once\n")
        assert not out.exists()


# Each config key's values inside its own range and outside it (a value that
# does not parse counts as outside).  The values inside also keep the rules
# between settings: warm-up at most 1 epoch, at least 1 epoch, a hidden width.
CONFIG_VALUES = {
    "seed": (["0", "7"], ["-1", "x"]),
    "k": (["5/12", "1"], ["0", "-1/4", "1/0", "1e400"]),
    "r0": (["1", "3/4", "-1"], ["3/2", "abc", "-1e400"]),
    "epochs": (["1", "2"], ["0", "-3", "two"]),
    "warmup_epochs": (["0", "1"], ["-1", "0.5"]),
    "lr": (["0.01", "1e-3"], ["0", "-1", "nan", "inf", "1e5000"]),
    "batch_size": (["1", "16"], ["0", "-2"]),
    "weight_decay": (["0", "0.5"], ["-0.1", "nan", "inf", "1e5000"]),
    "lr_warmup_epochs": (["0", "2"], ["-1"]),
    "arch": (["linear", "mlp_1hidden"], ["cnn"]),
    "hidden_width": (["1", "4"], ["x"]),
    "loss": (["gls", "ce"], ["focal"]),
    "n": (["10", "20"], ["0", "-5"]),
    "d": (["2", "3"], ["1", "0"]),
}
# Every subcommand, its input files missing; gen-synthetic has none.
CONFIG_COMMANDS = {
    "table1": ["table1"],
    "build": ["build", "--input", "{dir}/reports.jsonl", "--out", "{dir}/ds.jsonl"],
    "validate": ["validate", "--input", "{dir}/ds.jsonl"],
    "train": ["train", "--data", "{dir}/ex.jsonl", "--model-out", "{dir}/m.json"],
    "eval": ["eval", "--data", "{dir}/ex.jsonl", "--model", "{dir}/m.json"],
    "sweep": ["sweep", "--data", "{dir}/ex.jsonl", "--k", "5/12", "--warmup", "0",
              "--out", "{dir}/s.tsv"],
    "gen-synthetic": ["gen-synthetic", "--profile", "3:0.0", "--out", "{dir}/gen.jsonl"],
}


@st.composite
def config_line(draw):
    """(key, value, whether the value is in the key's own range)."""
    key = draw(st.sampled_from(sorted(CONFIG_VALUES)))
    inside = draw(st.booleans())
    return key, draw(st.sampled_from(CONFIG_VALUES[key][not inside])), inside


def test_config_values_cover_every_setting():
    assert CONFIG_VALUES.keys() == _SETTINGS.keys()


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(config_line(), min_size=1, max_size=4))
@example(lines=[("lr", "1e5000", False)])
@example(lines=[("weight_decay", "inf", False)])
def test_config_file_is_valid_or_not_for_every_command(lines):
    # A value outside its own range, or a key given twice, is a usage error
    # when the file is read: exit 1 and table1's message under every
    # subcommand, and no file made.  With each key once and every value
    # inside, each command goes on to its missing input.
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.conf"
        config.write_text("".join(f"{key}={value}\n" for key, value, _ in lines))
        outcomes = {}
        for name, argv in CONFIG_COMMANDS.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--config", str(config), *(arg.format(dir=tmp) for arg in argv)])
            outcomes[name] = code, err.getvalue()
        made = sorted(p.name for p in Path(tmp).iterdir())
    table1 = outcomes.pop("table1")
    keys = [key for key, _, _ in lines]
    if not all(inside for _, _, inside in lines) or len(set(keys)) < len(keys):
        assert table1[0] == 1 and table1[1].startswith("error: ")
        assert outcomes == dict.fromkeys(outcomes, table1)
        assert made == ["run.conf"]
    else:
        assert table1 == (0, "")
        assert outcomes.pop("gen-synthetic") == (0, "")
        for code, err in outcomes.values():
            assert code == 2 and "file not found" in err
        assert made == ["gen.jsonl", "run.conf"]


# Rates whose exact terms are too long to print, or to read: each is invalid.
LONG_RATES = [
    ("k", "-1e5000"),
    ("k", "1e5000"),
    ("r0", "1e5000"),
    ("r0", "-1e5000"),
    ("k", "1/1" + "0" * 5000),
    ("r0", "0." + "9" * 5000),
    ("k", "-" + "7" * 3000 + "/" + "3" * 2999),
]
# The subcommands that take --k and --r0 (sweep's --k is its list of slopes).
RATE_FLAG_COMMANDS = ("table1", "build", "validate", "train", "sweep")


@pytest.mark.parametrize("key, value", LONG_RATES, ids=lambda v: v[:12])
def test_long_rational_is_a_usage_error_for_every_command(tmp_path, key, value):
    config = tmp_path / "run.conf"
    config.write_text(f"{key}={value}\n")
    runs = []
    for name, argv in CONFIG_COMMANDS.items():
        argv = [arg.format(dir=tmp_path) for arg in argv]
        runs.append((name, "config", ["--config", str(config), *argv]))
        if name in RATE_FLAG_COMMANDS:
            runs.append((name, "flag", [*argv, f"--{key}={value}"]))
    for name, where, argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        message = err.getvalue()
        assert code == 1, (name, where)
        assert message.startswith("error: ") and "Traceback" not in message, (name, where)
        assert len(message) < 200, (name, where, message[:200])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]
