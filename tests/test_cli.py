"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glsmooth
from corpus_util import make_reports
from glsmooth.cli import main

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
            "lexicon": ["build", "--input", files["reports"], "--out", out,
                        "--lexicon", files["lexicon"]],
            "taxonomy": ["build", "--input", files["reports"], "--out", out,
                         "--taxonomy", files["taxonomy"]],
            "config": ["--config", files["config"], "table1"],
        }[command]
        return [str(arg) for arg in argv]

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
        with open(files[target], "ab") as fh:
            fh.write(b"\xff\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv(command, files, out))
        assert code == 2
        assert f"{files[target]}: not valid UTF-8" in err
        assert "Traceback" not in err
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
            ("train", "examples", {"features": ["a", 1.0, 2.0]},
             "features must be a list of numbers"),
            ("train", "examples", {"features": [10**400, 1.0, 2.0]},
             "features must be a list of numbers"),
            ("train", "examples", {"y": True, "u": 3.0},
             "y must be an integer; u must be an integer"),
            ("eval", "examples", {"u": "3"}, "u must be an integer"),
            ("validate", "dataset", {"r": "x"}, "r must be a number"),
            ("validate", "dataset", {"target_neg": None}, "target_neg must be a number"),
            ("validate", "dataset", {"y": True}, "y must be an integer"),
            ("validate", "dataset", {"category": []}, "category must be a string"),
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
        assert "line 1: features must not be empty" in err
        assert not out.exists()

    def test_sweep_split_without_eval_rows(self, tmp_path, capsys, files):
        first = files["examples"].read_text().splitlines()[0]
        files["examples"].write_text(first + "\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.argv("sweep", files, out))
        assert code == 2
        assert "the 75/25 split of 1 example(s) leaves the eval split empty" in err
        assert not out.exists()


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
