"""Command-line entry point.

Subcommands: build, validate, train, eval, sweep, table1, gen-synthetic.
Exit codes follow a stable contract for scripting:

    0  success
    1  usage error (bad flags, bad configuration values)
    2  data error (missing files, malformed inputs, failed validation)
    3  numeric failure (non-finite loss, undefined metric)

An optional ``--config`` file (key=value lines, '#' comments) supplies
defaults; explicit flags override it.  All randomness is funneled through the
single --seed value.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .dataset import build_dataset_file, stats_path_for, validate_dataset
from .errors import ConfigError, DataError, NumericError
from .fileio import table_lines
from .reports import default_lexicon, load_lexicon
from .smoothing import DEFAULT_PARAMS, SmoothingParams, score_rate_table
from .taxonomy import default_taxonomy, load_taxonomy
from .training import (
    ARCHITECTURES,
    LOSS_MODES,
    WRITE_BLOCK_ROWS,
    TrainConfig,
    check_setting,
    evaluate,
    load_model,
    read_examples,
    save_model,
    sweep,
    sweep_configs,
    synthetic_noisy_generator,
    train,
    write_examples,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# The training flags in the order they are registered.  Each sets the
# TrainConfig field of its name, but for the two in _FIELD_OF.
_TRAIN_FLAGS = ("epochs", "warmup_epochs", "lr", "batch_size", "weight_decay",
                "lr_warmup_epochs", "arch", "hidden_width", "loss", "seed")
_FIELD_OF = {"lr": "learning_rate", "arch": "architecture"}
_DEFAULT_CONFIG = TrainConfig()

# Flags that may also come from the config file, with their built-in default;
# the default's type parses the flag and the file value.  A flag left unset
# falls back to the config file, then here.  Training defaults are
# TrainConfig's, rate defaults DEFAULT_PARAMS'; seed leads, as -v prints it.
_SETTINGS = {
    "seed": _DEFAULT_CONFIG.seed,
    "k": str(DEFAULT_PARAMS.k),
    "r0": str(DEFAULT_PARAMS.r0),
    **{key: getattr(_DEFAULT_CONFIG, _FIELD_OF.get(key, key)) for key in _TRAIN_FLAGS},
    "n": 1000,
    "d": 10,
}
_CHOICES = {"arch": ARCHITECTURES, "loss": LOSS_MODES}


def _read_config_file(path: str) -> dict[str, object]:
    """The file's settings, each parsed as its flag would be.

    Every value is checked here, whether or not the subcommand takes it, so a
    config file is valid or invalid for all subcommands alike: each against
    its own range (``training.check_setting``), and the file's own ``k`` and
    ``r0`` must make valid ``SmoothingParams``, each alone and together.
    Rules between settings (``warmup_epochs <= epochs``, an mlp's
    ``hidden_width``) are checked once the flags are merged in, when the
    subcommand makes its ``TrainConfig``.  Each key is given at most once.
    """
    values: dict[str, object] = {}
    rates: dict[str, Fraction] = {}
    seen: dict[str, int] = {}
    for lineno, line in table_lines(_require_file(path, "config"), "config"):
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r} (line {seen[key]})")
        try:
            values[key] = type(_SETTINGS[key])(value)
        except ValueError:
            raise ConfigError(f"config key {key}: cannot parse {value!r}")
        if key in ("k", "r0"):
            rates[key] = _fraction(value, f"config key {key}")
        with _config_keys(key):
            check_setting(_FIELD_OF.get(key, key), values[key])
            if key in rates:
                SmoothingParams(**{key: rates[key]})
    # Each rate is valid alone; together they may still overflow a float.
    with _config_keys(*rates):
        SmoothingParams(**rates)
    return values


@contextlib.contextmanager
def _config_keys(*keys: str):
    """Prefix a ConfigError raised inside with the config keys it concerns."""
    try:
        yield
    except ConfigError as exc:
        named = f"key {keys[0]}" if len(keys) == 1 else f"keys {', '.join(keys)}"
        raise ConfigError(f"config {named}: {exc}") from None


def _resolve_settings(args: argparse.Namespace) -> None:
    config = getattr(args, "config", None)
    file_values = _read_config_file(config) if config is not None else {}
    for key, default in _SETTINGS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, file_values.get(key, default))


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    # Fraction reads each number (a decimal's digits joined) with int, which
    # takes at most this many digits (0: no limit).
    limit = sys.get_int_max_str_digits()
    longest = max(map(len, re.findall(r"\d+", text.replace(".", ""))), default=0)
    if 0 < limit < longest:
        raise ConfigError(f"{flag} holds a number of {longest} digits; at most {limit} are read")
    raise ConfigError(f"{flag} must be a rational like 5/12 or 0.417, got {text!r}")


def _smoothing_params(args) -> SmoothingParams:
    """The rate parameters of the subcommand's flags; one it lacks keeps its default."""
    keys = [key for key in ("k", "r0") if hasattr(args, key)]
    return SmoothingParams(**{key: _fraction(getattr(args, key), f"--{key}") for key in keys})


def _require_path(path: str, what: str) -> Path:
    """``path``, refused when it is empty or names a directory.

    ``Path("")`` is the working directory, so an empty path is refused by
    name.  ``what`` names the file in the messages ("input", "model output").
    """
    if not path:
        raise DataError(f"{what} file path is empty")
    p = Path(path)
    if p.is_dir():
        raise DataError(f"{what} file is a directory: {path}")
    return p


def _require_file(path: str, what: str) -> Path:
    """``path``, which must name something that exists and is not a directory.

    A pipe or a device (``/dev/stdin``) passes.
    """
    p = _require_path(path, what)
    if not p.exists():
        raise DataError(f"{what} file not found: {path}")
    return p


# The input files a command may read: the attribute of its flag, and its kind.
_INPUT_FLAGS = {"input": "input", "lexicon": "lexicon", "taxonomy": "taxonomy",
                "data": "data", "eval_data": "eval data", "config": "config"}


def _input_files(args) -> list[tuple[str, str]]:
    """The (path, kind) of each input file the command's flags name."""
    return [(getattr(args, key), kind) for key, kind in _INPUT_FLAGS.items()
            if getattr(args, key, None) is not None]


def _require_outputs(*outputs: tuple[str | None, str], inputs=()) -> None:
    """Refuse (path, kind) outputs that open() would fail on, before any work is done.

    An empty path, a directory and a path whose parent directory is missing
    are refused by name; None is an optional output left unset.  Two
    outputs that name one file, by their resolved paths or, where both
    exist, by ``os.path.samefile``, are refused too, as the second would
    overwrite the first.  So is an output naming one of the command's
    (path, kind) ``inputs``, by ``os.path.samefile``, which it would
    overwrite.  A pipe or a device (``/dev/stdout``) passes, also named
    twice or as an input.
    """
    named = [(Path(path), path, what) for path, what in outputs if path is not None]
    for p, path, what in named:
        if not _require_path(path, what).parent.is_dir():
            raise DataError(f"{what} file directory not found: {p.parent}")
    for (a, path, what), (b, _, other) in itertools.combinations(named, 2):
        if a.exists() and not a.is_file():  # a pipe or a device
            continue
        if os.path.realpath(a) == os.path.realpath(b) or (
            a.exists() and b.exists() and os.path.samefile(a, b)
        ):
            raise DataError(f"{what} and {other} name the same file: {path}")
    for (p, path, what), (source, kind) in itertools.product(named, inputs):
        # An input that is missing, a pipe or a device cannot be overwritten.
        if Path(source).is_file() and p.exists() and os.path.samefile(p, source):
            raise DataError(f"{what} {path} would overwrite the {kind} file {source}")


def _train_config(args) -> TrainConfig:
    """The TrainConfig of the settings; a key the subcommand lacks keeps its default."""
    keys = [key for key in _TRAIN_FLAGS if hasattr(args, key)]
    fields = {_FIELD_OF.get(key, key): getattr(args, key) for key in keys}
    return TrainConfig(smoothing_params=_smoothing_params(args), **fields)


def cmd_build(args) -> int:
    params = _smoothing_params(args)
    _require_outputs((args.out, "dataset output"), (str(stats_path_for(args.out)), "stats output"),
                     inputs=_input_files(args))
    stats = build_dataset_file(
        _require_file(args.input, "input"),
        args.out,
        default_lexicon() if args.lexicon is None
        else load_lexicon(_require_file(args.lexicon, "lexicon")),
        default_taxonomy() if args.taxonomy is None
        else load_taxonomy(_require_file(args.taxonomy, "taxonomy")),
        params,
    )
    print(
        f"wrote {stats.record_count} records to {args.out} "
        f"({len(stats.malformed_records)} malformed)"
    )
    return 0


def cmd_validate(args) -> int:
    params = _smoothing_params(args)
    stats = validate_dataset(_require_file(args.input, "input"), params)
    print(f"ok: {stats.record_count} records, all invariants hold")
    for u in sorted(stats.per_score_counts):
        print(f"  u={u:+d}: {stats.per_score_counts[u]}")
    return 0


def _metric_value(x: float):
    return None if math.isnan(x) else x


def cmd_train(args) -> int:
    config = _train_config(args)
    _require_outputs((args.model_out, "model output"), (args.metrics_out, "metrics output"),
                     inputs=_input_files(args))
    examples = read_examples(_require_file(args.data, "data"))
    model, history = train(examples, config)
    save_model(model, args.model_out)
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8", newline="\n") as fh:
            for m in history:
                fh.write(json.dumps({**asdict(m), "auc": _metric_value(m.auc)}) + "\n")
            final = history[-1]
            fh.write(
                json.dumps(
                    {
                        "summary": True,
                        "epochs": len(history),
                        "final_auc": _metric_value(final.auc),
                        "final_mean_loss": final.mean_loss,
                    }
                )
                + "\n"
            )
    print(f"trained {len(history)} epochs, final auc {history[-1].auc:.6f}")
    return 0


def cmd_eval(args) -> int:
    examples = read_examples(_require_file(args.data, "data"))
    model = load_model(_require_file(args.model, "model"))
    print(f"auc {evaluate(model, examples):.6f}")
    return 0


def cmd_sweep(args) -> int:
    config = _train_config(args)
    k_tokens = [tok.strip() for tok in args.k_values.split(",") if tok.strip()]
    warmups = []
    for tok in args.warmup.split(","):
        tok = tok.strip()
        if tok:
            try:
                warmups.append(int(tok))
            except ValueError:
                raise ConfigError(f"--warmup entries must be integers, got {tok!r}")
    k_values = [_fraction(tok, "--k") for tok in k_tokens]
    # Every cell's settings, checked before the data is read.
    sweep_configs(config, k_values, warmups)
    _require_outputs((args.out, "sweep output"), inputs=_input_files(args))
    data = _require_file(args.data, "data")
    eval_data = None if args.eval_data is None else _require_file(args.eval_data, "eval data")
    examples = read_examples(data)
    eval_examples = None if eval_data is None else read_examples(eval_data)
    cells = sweep(examples, config, k_values, warmups, eval_dataset=eval_examples)
    labels = [token for token in k_tokens for _ in warmups]
    lines = ["k\twarmup\tauc"] + [
        f"{token}\t{cell.warmup_epochs}\t{cell.auc:.6f}" for token, cell in zip(labels, cells)
    ]
    output = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(output)
    print(output, end="")
    return 0


def cmd_table1(args) -> int:
    rows = score_rate_table(_smoothing_params(args))
    print(f"{'u':>3}  {'r':>7}  {'target':<19} interpretation")
    for row in rows:
        target = f"[{float(row.target[0]):.4f}, {float(row.target[1]):.4f}]"
        print(f"{row.u:>3}  {float(row.r):>7.3f}  {target:<19} {row.interpretation}")
    return 0


def _parse_profile(text: str) -> dict[int, float]:
    profile = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"--profile entries look like LEVEL:PROB, got {item!r}")
        level, _, prob = item.partition(":")
        try:
            level, prob = int(level), float(prob)
        except ValueError:
            raise ConfigError(f"cannot parse profile entry {item!r}")
        if level in profile:
            raise ConfigError(f"--profile gives level {level} more than once")
        profile[level] = prob
    if not profile:
        raise ConfigError("--profile must contain at least one LEVEL:PROB entry")
    return profile


def cmd_gen_synthetic(args) -> int:
    # The generator checks the settings first, so a bad one still exits 1;
    # it reads no input, and no output is opened before every path passes.
    data = synthetic_noisy_generator(args.n, args.d, _parse_profile(args.profile), args.seed)
    _require_outputs((args.out, "examples output"), (args.truth_out, "truth output"),
                     inputs=_input_files(args))
    write_examples(args.out, data.examples)
    if args.truth_out is not None:
        labels = data.true_labels.tolist()
        with open(args.truth_out, "wb") as fh:
            for start in range(0, len(labels), WRITE_BLOCK_ROWS):
                block = range(start, min(start + WRITE_BLOCK_ROWS, len(labels)))
                fh.write(b"".join(
                    b'{"index": %d, "true_y": %d}\n' % (i, labels[i]) for i in block
                ))
    print(f"wrote {args.n} examples to {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="glsmooth", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key=value defaults file; flags override it")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="echo resolved settings to stderr"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_setting(p, key, **kwargs):
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(_SETTINGS[key]),
                       choices=_CHOICES.get(key), **kwargs)

    def add_rate_flags(p):
        add_setting(p, "k", help=f"rate slope as a rational (default {_SETTINGS['k']})")
        add_setting(p, "r0", help=f"rate intercept as a rational (default {_SETTINGS['r0']})")

    def add_train_flags(p, *skip):
        for key in _TRAIN_FLAGS:
            if key not in skip:
                add_setting(p, key)

    p = sub.add_parser("build", help="parse reports into a labeled dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon", help="cue lexicon TSV (default: built-in)")
    p.add_argument("--taxonomy", help="phrase->category TSV (default: built-in)")
    p.add_argument("--out", required=True, help="dataset path; stats go to <out>.stats.json")
    add_rate_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="re-check every invariant of a dataset file")
    p.add_argument("--input", required=True)
    add_rate_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a classifier on (features, y, u) records")
    p.add_argument("--data", required=True)
    p.add_argument("--model-out", dest="model_out", required=True)
    p.add_argument("--metrics-out", dest="metrics_out")
    add_train_flags(p)
    add_rate_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="AUC of a saved model on a held-out file")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid over rate slopes and warm-up durations")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data", dest="eval_data")
    p.add_argument("--k", dest="k_values", required=True, help="comma-separated rationals")
    p.add_argument("--warmup", required=True, help="comma-separated epoch counts")
    p.add_argument("--out", required=True)
    add_train_flags(p, "warmup_epochs")  # the grid's --warmup sets warm-up
    add_setting(p, "r0")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="print the seven-level score/rate/target mapping")
    add_rate_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("gen-synthetic", help="generate a noisy synthetic training file")
    add_setting(p, "n")
    add_setting(p, "d")
    p.add_argument("--profile", required=True, help='e.g. "3:0.0,2:0.1,1:0.25,0:0.5"')
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", dest="truth_out", help="write hidden true labels here")
    add_setting(p, "seed")
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


# parse_args leaves a parser as it was, so one parser serves every call in a
# process; building one takes about 2.5 ms (2-core Xeon), so it is built once.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _resolve_settings(args)
        if args.verbose:
            resolved = {
                key: getattr(args, key) for key in _SETTINGS if hasattr(args, key)
            }
            print(f"settings: {resolved}", file=sys.stderr)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
