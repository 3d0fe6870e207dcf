"""Byte-mutation fuzz of the exit-code contract of build, validate, train, eval and sweep.

Each example takes one input of ``build`` or ``validate`` (a report file, a
lexicon, a taxonomy or a dataset), or the example file of ``train``, ``eval``
and ``sweep`` (as its data or its eval data), mutates its bytes and runs the
command in process through ``cli.main``.  Whatever the bytes, the exit code
is one of 0 (success), 1 (usage), 2 (data) or 3 (numeric), stderr holds no
traceback, and a dataset that ``build`` writes passes ``validate`` with the
same slope.  Model files for ``eval`` are drawn as JSON documents near a
valid model, or as a saved model's bytes mutated.
"""

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import glsmooth
from glsmooth import dataset, training
from glsmooth.cli import main
from test_dataset import oracle_validate_dataset

DATA_DIR = Path(__file__).parent / "data"
PACKAGE_DATA = Path(glsmooth.__file__).parent / "data"

SEEDS = {
    "reports": (DATA_DIR / "build_golden.reports.jsonl").read_bytes(),
    "dataset": (DATA_DIR / "build_golden.jsonl").read_bytes(),
    "lexicon": (PACKAGE_DATA / "lexicon.tsv").read_bytes(),
    "taxonomy": (PACKAGE_DATA / "taxonomy.tsv").read_bytes(),
}

# Bytes that mean something to one of the readers: JSON and TSV syntax, line
# ends, a NUL, a lone UTF-8 lead byte, a byte that is never UTF-8, a BOM, a
# Unicode line separator, and text that parses as a number or a category.
SPECIAL = [
    b"\x00", b"\xff", b"\xc3", b"\xef\xbb\xbf", b"\xe2\x80\xa8", b"\t", b"\n", b"\r", b"\r\n",
    b'"', b"\\", b"{", b"}", b"[", b"]", b",", b":", b"#", b" ", b"-", b"0", b"7", b"1e400",
    b"NaN", b"null", b"true", b"Pneumonia", b"no", b".", b"\xce\xa3",
]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to four edits: overwrite, insert, delete, copy a line or cut short."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["overwrite", "insert", "delete", "line", "truncate"]))
        piece = draw(st.one_of(st.sampled_from(SPECIAL), st.binary(min_size=1, max_size=4)))
        if edit == "overwrite":
            data = data[:at] + piece + data[at + len(piece):]
        elif edit == "insert":
            data = data[:at] + piece + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 16)):]
        elif edit == "line":
            lines = data.splitlines(keepends=True) or [b""]
            data += lines[draw(st.integers(0, len(lines) - 1))]
        else:
            data = data[:at]
    return data


def outputs(*argv):
    """(exit code, stdout, stderr) of one command run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def run(*argv):
    code, _, err = outputs(*argv)
    return code, err


def check(code, err):
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err, err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(SEEDS)),
    data=st.data(),
    k=st.sampled_from([[], ["--k", "0.375"]]),
)
def test_mutated_input_keeps_the_exit_code_contract(tmp_path_factory, kind, data, k):
    work = tmp_path_factory.getbasetemp() / "fuzz"
    files = {name: work / f"{name}.in" for name in SEEDS}
    if not work.exists():
        work.mkdir()
        for name, seed in SEEDS.items():
            files[name].write_bytes(seed)
    files[kind] = work / f"{kind}.mutated"
    files[kind].write_bytes(data.draw(mutated(SEEDS[kind])))
    out = work / "out.jsonl"
    out.unlink(missing_ok=True)
    if kind == "dataset":
        argv = ("validate", "--input", files["dataset"], *k)
        with mock.patch.object(dataset, "READ_BLOCK_LINES", 4):
            code, stdout, err = outputs(*argv)
        check(code, err)
        # The block-wise validate says what the line-by-line one said.
        with mock.patch("glsmooth.cli.validate_dataset", oracle_validate_dataset):
            assert (code, stdout, err) == outputs(*argv)
        return
    code, err = run(
        "build", "--input", files["reports"], "--out", out,
        "--lexicon", files["lexicon"], "--taxonomy", files["taxonomy"], *k,
    )
    check(code, err)
    if code == 0:
        assert run("validate", "--input", out, *k) == (0, "")


EXAMPLES = (DATA_DIR / "gen_synthetic_golden.jsonl").read_bytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_example_file_keeps_the_exit_code_contract(tmp_path_factory, data):
    # Blocks of 4 lines, so that one file mixes blocks read whole and blocks
    # read line by line.
    work = tmp_path_factory.getbasetemp() / "fuzz-examples"
    model = work / "model.json"
    if not work.exists():
        work.mkdir()
        (work / "golden.jsonl").write_bytes(EXAMPLES)
        assert run("train", "--data", work / "golden.jsonl", "--model-out", model,
                   "--epochs", "1", "--warmup-epochs", "0") == (0, "")
    mutated_file = work / "examples.mutated"
    mutated_file.write_bytes(data.draw(mutated(EXAMPLES)))
    with mock.patch.object(training, "READ_BLOCK_LINES", 4):
        check(*run("eval", "--data", mutated_file, "--model", model))
        check(*run("train", "--data", mutated_file, "--model-out", work / "out.json",
                   "--epochs", "1", "--warmup-epochs", "0"))
        grid = ("--k", "5/12,1/3", "--warmup", "0,1", "--epochs", "1", "--out", work / "s.tsv")
        check(*run("sweep", "--data", mutated_file, *grid))
        check(*run("sweep", "--data", work / "golden.jsonl", "--eval-data", mutated_file, *grid))


# JSON values other than a finite number: what a weight entry must not be.
NOT_A_NUMBER = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.just([]), st.just({}),
    st.sampled_from([float("nan"), float("inf"), 10**400, -(10**309), [1.0], [[0.5]]]),
    st.just(json.loads("[" * 40 + "1" + "]" * 40)),  # more axes than numpy iterates over
)
WEIGHT_SHAPES = {"W": (3, 2), "b": (2,), "W1": (3, 2), "b1": (2,), "W2": (2, 2), "b2": (2,)}


@st.composite
def model_document(draw):
    """A model file's JSON: each part valid or not, near the shapes of a d = 3 model."""
    architecture = draw(st.sampled_from([*training.ARCHITECTURES * 4, "cnn", None]))
    names = ["W", "b"] if architecture == "linear" else ["W1", "b1", "W2", "b2"]
    if not draw(st.integers(0, 4)):
        names = draw(st.lists(st.sampled_from([*WEIGHT_SHAPES, "x"]), unique=True))

    def array(shape):
        if not shape:
            if draw(st.integers(0, 39)):
                return draw(st.floats(-1e3, 1e3) | st.integers(-5, 5))
            return draw(NOT_A_NUMBER)
        return [array(shape[1:]) for _ in range(shape[0])]

    weights = {}
    for name in names:
        shape = WEIGHT_SHAPES.get(name, (2,))
        if not draw(st.integers(0, 9)):
            shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        weights[name] = array(shape)
    document = {"architecture": architecture, "hidden_width": 2, "weights": weights}
    if not draw(st.integers(0, 9)):
        document["weights"] = draw(NOT_A_NUMBER)
    return json.dumps(document).encode()


def leaves(value):
    """The items of a nested list, in order; a value that is no list is its own leaf."""
    return [leaf for item in value for leaf in leaves(item)] if type(value) is list else [value]


# A saved linear model for d = 3, as save_model writes it, for byte mutation.
MODEL = json.dumps(
    {"architecture": "linear", "hidden_width": None,
     "weights": {"W": [[0.5, -0.25], [1.0, 0.0], [-2.0, 3.5]], "b": [0.0, 0.125]}},
    indent=2,
).encode() + b"\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=st.one_of(model_document(), mutated(MODEL)))
@example(document=MODEL.replace(b"0.5", b"true"))
def test_model_file_keeps_the_exit_code_contract(tmp_path_factory, document):
    work = tmp_path_factory.getbasetemp() / "fuzz-models"
    examples, model = work / "examples.jsonl", work / "model.json"
    if not work.exists():
        work.mkdir()
        examples.write_bytes(EXAMPLES)
    model.write_bytes(document)
    code, stdout, err = outputs("eval", "--data", examples, "--model", model)
    check(code, err)
    assert (code == 0) == stdout.startswith("auc ")
    if code == 0:  # every weight was a JSON number: a bool is not one
        weights = json.loads(document)["weights"]
        assert all(type(x) in (int, float) for w in weights.values() for x in leaves(w))

