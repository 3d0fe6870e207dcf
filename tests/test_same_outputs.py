"""The output-comparison script runs and finds what differs."""

from pathlib import Path

import glsmooth
import same_outputs

SRC = Path(glsmooth.__file__).resolve().parents[1]


def test_one_tree_against_itself_differs_nowhere(capsys):
    assert same_outputs.main([str(SRC), str(SRC), "--rows", "200"]) == 0
    assert capsys.readouterr().out == f"{len(same_outputs.CALLS)} calls, 0 difference(s)\n"


def test_differences_are_named(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for folder, model in ((a, "{}"), (b, "[]")):
        folder.mkdir()
        (folder / "model.json").write_text(model)
    (a / "extra.tsv").write_text("")
    ok = [(0, b"")] * len(same_outputs.CALLS)
    changed = [(0, b"auc 0.5\n"), (3, b""), (2, b"")] + ok[3:]
    failed_both = [(0, b""), (0, b""), (2, b"")] + ok[3:]
    calls = [" ".join(argv) for argv in same_outputs.CALLS]
    assert same_outputs.differences(a, b, failed_both, changed) == [
        f"stdout differs: {calls[0]}",
        f"exit code 0 != 3: {calls[1]}",
        f"exit code 2 under both trees: {calls[2]}",
        "extra.tsv: written under one tree only",
        "model.json: bytes differ",
    ]
