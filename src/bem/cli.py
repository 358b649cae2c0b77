"""Command-line front end: synthesize, train, refine, evaluate, sweep, replay.

Training flags (and ``--config`` keys) and ``synth`` flags come from the
``TrainConfig`` and ``SynthSpec`` fields, with their types and defaults.

Exit codes: 0 success, 2 usage, 3 data/validation/memory, 4 numerical failure.
Every file-writing command drops a ``key = value`` manifest alongside its
outputs recording the exact argv, the effective configuration and the SHA-256
of each deterministic output, so a run can be replayed and verified bit for
bit; a replay leaves the manifest it reads as it found it. A record's relative
paths start at its run's directory (``run_dir``), and replay runs only from
there (exit 2 elsewhere). Timing fields (and the step log, which contains
per-step wall-clock) are excluded from that guarantee. The bits also depend on
the setup: numpy, its BLAS, the BLAS thread settings and OpenBLAS's kernel
(``blas_kernel``). The manifest records it and replay does not compare it, but
a failed replay names each setup field that differs from the recorded one. No
command overwrites another command's manifest (exit 2).
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import inspect
import json
import math
import os
import shlex
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (ALIGN_POLICIES, align, load_labels, load_model,
                     load_table, save_model, write_labels, write_table,
                     _atomic_open, _atomic_write_text, _lines)
from .elbo import Edge
from .errors import (BemError, ConfigError, DataError, EvalError,
                     NumericalError, ShapeError, TrainingError)
from .evalkit import (cluster_ratio_detail, classify_accuracy, concat_tables,
                      hit_recall, make_split, random_project,
                      similarity_histogram, train_classifier)
from .rng import named_rng
from .synthgen import SynthSpec, generate, oracle_error
from .trainer import TrainConfig, refine, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Training flag and config-file key -> TrainConfig field; the field's default
# gives the type and the default.
TRAIN_KEYS = {
    "nB": "n_batch", "epochs": "epochs", "lambda1": "lambda1",
    "lambda2": "lambda2", "lr": "learning_rate", "nh": "hidden_dim",
    "n_iter": "n_iter", "seed": "seed",
}
TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}
SWEEP_PARAMS = ["lambda1", "lambda2", "lr", "nB", "nh", "epochs"]

# Environment variables that set the BLAS thread count, or OpenBLAS's kernel
# (detected from the CPU unless OPENBLAS_CORETYPE names one).
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "OPENBLAS_CORETYPE")

# synth flags named differently from their SynthSpec fields.
SYNTH_FLAGS = {"n_entities": "n", "n_clusters": "clusters", "jitter_scale": "jitter"}


class UsageError(Exception):
    pass


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs (``SkylakeX``, ``Haswell``), or
    ``unknown`` on another BLAS or any failure to ask it."""
    try:  # numpy's wheels bundle scipy-openblas, whose symbols carry a 64_ suffix
        for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
            handle = ctypes.CDLL(str(lib))
            corename = (getattr(handle, "scipy_openblas_get_corename64_", None)
                        or handle.openblas_get_corename)
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode() or "unknown"
    except (OSError, AttributeError, ValueError):  # no library, no symbol, no name
        pass
    return "unknown"


def setup_records() -> dict[str, str]:
    """The manifest's setup fields, as this process sees them: what the bits
    depend on besides the inputs and the configuration."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    records = {"tool_version": __version__, "numpy_version": np.__version__,
               "blas_name": str(blas.get("name")), "blas_version": str(blas.get("version")),
               "blas_kernel": blas_kernel()}
    records.update((f"env.{var}", json.dumps(os.environ[var]) if var in os.environ else "unset")
                   for var in BLAS_ENV_VARS)
    return records


def write_manifest(path: Path, command: str, argv: list[str], seed, config: dict,
                   args, inputs: tuple, outputs: list, wall_s: float) -> None:
    """Write the run record ``path``: an ``input.<dest>`` line per input flag
    given, and per ``(flag, path, hashed)`` output, in list order, an
    ``output.<name>`` line and, when hashed, its ``sha256.<name>``."""
    lines = [f"command = {command}"]
    lines += [f"{key} = {value}" for key, value in setup_records().items()]
    lines += [f"created_utc = {datetime.now(timezone.utc).isoformat()}", f"seed = {seed}",
              f"argv = {json.dumps(list(argv))}", f"wall_clock_s = {wall_s:.3f}",
              f"run_dir = {json.dumps(os.path.relpath(Path.cwd(), path.parent.resolve()))}"]
    lines += [f"input.{dest} = {getattr(args, dest)}" for dest in sorted(inputs)
              if getattr(args, dest) is not None]
    for _, out, hashed in outputs:
        lines.append(f"output.{out.name} = {out}")
        if hashed:
            lines.append(f"sha256.{out.name} = {_sha256_file(out)}")
    lines += [f"cfg.{key} = {config[key]}" for key in sorted(config)]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _run_dir(manifest, record: dict) -> Path:
    """The directory a record's run was made in: its ``run_dir`` (a JSON string,
    relative to the manifest's directory), or the current one for a record without."""
    try:
        run_dir = json.loads(record["run_dir"]) if "run_dir" in record else os.getcwd()
        run_dir = Path(manifest).parent.resolve() / run_dir
    except (ValueError, TypeError):  # not JSON, or not a string
        raise DataError(f"{manifest}: run_dir record is not a JSON string")
    return Path(os.path.normpath(run_dir))  # a lexical "..", exact below a resolved path


def _refuse_overwrites(args, inputs: tuple, outputs: list, manifest: Path,
                       what: str = "an output") -> None:
    """UsageError (exit 2), before anything is read, when an output or the
    manifest would replace an input or an earlier output, or when the
    manifest path holds another command's record, or one that lists an
    existing file that this run neither reads nor writes. ``inputs`` are the
    dests of the input flags (each flag is ``--<dest>``), ``outputs`` lists
    ``(flag, path, hashed)``, the manifest counts as an ``--out`` output and
    ``what`` says what the outputs are. Paths compare resolved."""
    taken = {Path(getattr(args, dest)).resolve(): f"an input (--{dest})"
             for dest in inputs if getattr(args, dest) is not None}
    for flag, path, _ in [("--out", manifest, True), *outputs]:
        key = Path(path).resolve()
        if key in taken:
            raise UsageError(f"{flag} {path} would overwrite {taken[key]}")
        taken[key] = f"{what} ({flag})"
    try:  # a file that is not a manifest records nothing
        record = read_manifest(manifest) if manifest.is_file() else {}
    except DataError:
        record = {}
    if (recorded := record.get("command")) not in (None, args.command):
        raise UsageError(f"--out {manifest} would overwrite the record of a {recorded} run")
    run_dir = _run_dir(manifest, record)
    for path in (run_dir / value for key, value in record.items() if key.startswith("output.")):
        if path.exists() and path.resolve() not in taken:
            raise UsageError(f"--out {manifest} would leave {path} unrecorded")


def _key_values(path, sep: str, error, raw: bytes | None = None):
    """Yield ``(lineno, key, value)`` per line of ``path`` (of ``raw``, its
    bytes, when given) that is neither blank nor a ``#`` comment, split at
    its first ``sep``; ``error`` names a line without."""
    for lineno, line in _lines(path, raw):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if sep not in line:
            raise error(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split(sep, 1)
        yield lineno, key.strip(), value


def read_manifest(path, raw: bytes | None = None) -> dict:
    return {key: value for _, key, value in _key_values(path, " = ", DataError, raw)}


def read_config_file(path, allowed: set[str]) -> dict[str, tuple[int, str]]:
    """Each key's line number and stripped value."""
    values: dict[str, tuple[int, str]] = {}
    for lineno, key, value in _key_values(path, "=", ConfigError):
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r} "
                              f"(first set on line {values[key][0]})")
        values[key] = lineno, value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def resolve_train_options(args) -> tuple[TrainConfig, str]:
    """Merge flags over config-file values over the TrainConfig defaults; an
    error in a config-file value names its file and line."""
    file_values: dict[str, tuple[int, str]] = {}
    if args.config:
        allowed = {*TRAIN_KEYS, "normalize", "mode", "edge", "align"}
        file_values = read_config_file(args.config, allowed)

    def at(key) -> str:
        """``<config>:<line>: `` when ``key``'s value comes from the file, else ''."""
        if getattr(args, key) is not None or key not in file_values:
            return ""
        return f"{args.config}:{file_values[key][0]}: "

    def pick(key, parse=str, default=None):
        """The flag, else the parsed config-file value, else ``default``."""
        flag = getattr(args, key)
        if flag is not None:
            return flag
        if key not in file_values:
            return default
        try:
            return parse(file_values[key][1])
        except ValueError as exc:
            raise ConfigError(f"{at(key)}bad config value for {key}: {exc}") from None

    mode = pick("mode", default="p")
    if mode not in ("p", "i"):
        raise UsageError(f"{at('mode')}unknown mode {mode!r}")
    edge_name = pick("edge", default=Edge.IDENTITY.value if mode == "i" else None)
    if mode == "i" and edge_name != Edge.IDENTITY.value:
        raise UsageError(f"{at('edge') or at('mode')}--mode i fixes the identity edge; "
                         "drop --edge or use identity")
    values = {}
    if edge_name is not None:
        try:
            values["edge"] = Edge(edge_name)
        except ValueError:
            raise UsageError(f"{at('edge')}unknown edge {edge_name!r}") from None
    normalize = pick("normalize", _parse_bool)
    if normalize is not None:
        values["normalize_inputs"] = normalize
    for key, name in TRAIN_KEYS.items():
        value = pick(key, type(TRAIN_FIELDS[name].default))
        if value is not None:
            values[name] = value
        if at(key):  # checked alone, so that the error names its line
            try:
                TrainConfig(**{name: value}).validate()
            except ConfigError as exc:
                raise ConfigError(f"{at(key)}{exc}") from None
    cfg = TrainConfig(**values)
    cfg.validate()
    align_policy = pick("align", default="intersect")
    if align_policy not in ALIGN_POLICIES:
        raise UsageError(f"{at('align')}unknown alignment policy {align_policy!r}")
    return cfg, align_policy


def _steplog_text(report) -> str:
    lines = ["step\telbo\trecon\tkl\twall_s"]
    for r in report.records:
        lines.append(f"{r.step}\t{r.elbo:.17g}\t{r.recon:.17g}\t{r.kl:.17g}\t{r.wall_s:.6f}")
    return "\n".join(lines) + "\n"


def _emit_report(pairs, report: Path | None, summary: Path | None) -> None:
    text = "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"
    sys.stdout.write(text)
    if report is not None:
        report.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(report, text)
        # strict JSON: a non-finite figure is the string report.txt holds
        values = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in pairs}
        _atomic_write_text(summary, json.dumps(values, indent=2, sort_keys=True,
                                               allow_nan=False) + "\n")


def cmd_synth(args, argv) -> int:
    t0 = time.perf_counter()
    out_dir = Path(args.out)
    if out_dir.exists() and not args.force:
        raise DataError(f"output directory {out_dir} exists; pass --force to overwrite")
    paths = {name: out_dir / name for name in ("kg.tsv", "bg.tsv", "labels.tsv", "truth.tsv")}
    outputs, manifest = [("--out", p, True) for p in paths.values()], out_dir / "manifest.txt"
    _refuse_overwrites(args, (), outputs, manifest)
    spec = SynthSpec(**{f.name: getattr(args, f.name)
                        for f in dataclasses.fields(SynthSpec)})
    truth = generate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(truth.kg, paths["kg.tsv"])
    write_table(truth.bg, paths["bg.tsv"])
    write_labels(truth.labels, paths["labels.tsv"])
    write_table(truth.clean_bg, paths["truth.tsv"])
    write_manifest(manifest, "synth", argv, spec.seed, vars(spec).copy(), args, (), outputs,
                   time.perf_counter() - t0)
    print(f"wrote {len(paths) + 1} files to {out_dir}")
    return EXIT_OK


def _load_aligned(kg_path, bg_path, policy: str):
    kg = load_table(kg_path)
    bg = load_table(bg_path)
    kg, bg, result = align(kg, bg, policy=policy)
    if result.dropped_kg or result.dropped_bg:
        print(f"aligned on {result.kept} ids "
              f"(dropped {result.dropped_kg} kg, {result.dropped_bg} bg)",
              file=sys.stderr)
    return kg, bg


def cmd_train(args, argv) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    steplog = Path(args.log) if args.log else out.with_name(out.name + ".steplog.tsv")
    manifest = out.with_name(out.name + ".manifest.txt")
    inputs, outputs = ("kg", "bg", "config"), [("--out", out, True), ("--log", steplog, False)]
    _refuse_overwrites(args, inputs, outputs, manifest, what="the model or its manifest")
    cfg, policy = resolve_train_options(args)
    kg, bg = _load_aligned(args.kg, args.bg, policy)
    proj_net, infer_net, report = train(kg, bg, cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(proj_net, infer_net, cfg, out)
    _atomic_write_text(steplog, _steplog_text(report))
    write_manifest(manifest, "train", argv, cfg.seed, cfg.to_dict(), args, inputs, outputs,
                   time.perf_counter() - t0)
    final = report.records[-1]
    print(f"trained {report.n_steps} steps; final elbo {final.elbo:.6f}; "
          f"checksum {report.param_checksum[:16]}")
    return EXIT_OK


def cmd_refine(args, argv) -> int:
    """Write refined tables in the model's input space: unit rows when it was
    trained with normalization."""
    t0 = time.perf_counter()
    out_dir = Path(args.out)
    kg_path, bg_path = out_dir / "kg_refined.tsv", out_dir / "bg_refined.tsv"
    manifest = out_dir / "manifest.txt"
    inputs, outputs = ("kg", "bg", "model"), [("--out", path, True) for path in (kg_path, bg_path)]
    _refuse_overwrites(args, inputs, outputs, manifest)
    proj_net, infer_net, cfg = load_model(args.model)
    kg, bg = _load_aligned(args.kg, args.bg, "intersect")
    kg, bg, _ = cfg.model_inputs(kg, bg)
    try:
        kg_refined, bg_refined = refine(kg, bg, proj_net, infer_net)
    except ShapeError as exc:
        raise ShapeError(f"model does not fit tables {args.kg} / {args.bg}: {exc}")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(kg_refined, kg_path)
    write_table(bg_refined, bg_path)
    write_manifest(manifest, "refine", argv, cfg.seed, cfg.to_dict(), args, inputs, outputs,
                   time.perf_counter() - t0)
    print(f"wrote refined tables for {len(kg_refined)} entities to {out_dir}")
    return EXIT_OK


def _eval_classify(args, table, labels):
    ids = tuple(eid for eid in table.ids if eid in labels)
    if not ids:
        raise EvalError("no labeled entities overlap the table")

    def accuracy(tab, seed):
        split = make_split(ids, seed, args.train_frac)
        model = train_classifier(tab, labels, split, reg=args.reg,
                                 epochs=args.epochs, lr=args.lr)
        return classify_accuracy(model, tab, labels, split.test_ids)

    accs = [accuracy(table, args.seed + offset) for offset in range(args.splits)]
    pairs = [("task", "classify"), ("n_labeled", len(ids)),
             ("splits", args.splits),
             ("accuracy_mean", float(np.mean(accs))),
             ("accuracy_sd", float(np.std(accs)))]
    for s, acc in enumerate(accs):
        pairs.append((f"accuracy.split{s}", acc))
    if args.project_dim is not None:
        proj_accs = [accuracy(random_project(table, args.project_dim,
                                             named_rng(args.seed, f"eval.proj.{p}")),
                              args.seed)
                     for p in range(args.n_proj)]
        pairs += [("project_dim", args.project_dim), ("n_proj", args.n_proj),
                  ("proj_accuracy_mean", float(np.mean(proj_accs))),
                  ("proj_accuracy_stderr",
                   float(np.std(proj_accs) / np.sqrt(len(proj_accs))))]
    return pairs


def _eval_histogram(args, table, path: Path | None):
    hist = similarity_histogram(table, args.n_pairs, args.bins,
                                named_rng(args.seed, "eval.hist"))
    pairs = [("task", "histogram"), ("n_pairs", hist.n_pairs),
             ("n_used", hist.n_used), ("n_skipped", hist.n_skipped),
             ("mass_sum", float(np.sum(hist.mass))),
             ("mean_abs_cosine", hist.mean()),
             ("variance_abs_cosine", hist.variance())]
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = "\n".join(f"{lo:.17g}\t{hi:.17g}\t{mass:.17g}"
                         for lo, hi, mass in hist.rows())
        _atomic_write_text(path, rows + "\n")
    return pairs


def _eval_cluster_ratio(table, labels):
    detail = cluster_ratio_detail(table, labels)
    return [("task", "cluster-ratio"), ("cluster_ratio", detail.ratio),
            ("max_within", detail.max_within),
            ("min_between", detail.min_between),
            ("n_classes", detail.n_classes)]


def _eval_recall(args, table, labels):
    attrs = {eid: ls[0] for eid, ls in labels.items()}
    users = [eid for eid in table.ids if eid in attrs]
    if not users:
        raise EvalError("no labeled entities overlap the table")
    rng = named_rng(args.seed, "eval.recall")
    n_users = min(args.n_users, len(users))
    chosen = [users[i] for i in rng.choice(len(users), size=n_users, replace=False)]
    triggers = {uid: [uid] for uid in chosen}
    truth = {uid: {attrs[uid]} for uid in chosen}
    result = hit_recall(table, table, triggers, truth, attrs, args.k)
    return [("task", "recall"), ("k", args.k), ("n_users", n_users),
            ("recall", result.recall), ("hits", result.hits),
            ("retrieved", result.retrieved),
            ("skipped_triggers", result.skipped_triggers)]


def cmd_eval(args, argv) -> int:
    t0 = time.perf_counter()
    if args.task != "histogram" and args.labels is None:
        raise UsageError(f"--task {args.task} needs --labels")
    if args.splits < 1 or args.n_proj < 1 or args.n_users < 1:
        raise UsageError("--splits, --n-proj and --n-users must be positive")
    report, summary, histogram, manifest = (
        Path(args.out) / name if args.out else None
        for name in ("report.txt", "summary.json", "histogram.tsv", "manifest.txt"))
    if args.task != "histogram":
        histogram = None
    inputs = ("table", "table2", "labels")
    outputs = [("--out", path, True) for path in (report, summary, histogram) if path]
    if manifest is not None:
        _refuse_overwrites(args, inputs, outputs, manifest)
    table = load_table(args.table)
    if args.table2:
        table = concat_tables(table, load_table(args.table2))
    labels = None if args.task == "histogram" else load_labels(args.labels)
    if args.task == "classify":
        pairs = _eval_classify(args, table, labels)
    elif args.task == "histogram":
        pairs = _eval_histogram(args, table, histogram)
    elif args.task == "cluster-ratio":
        pairs = _eval_cluster_ratio(table, labels)
    else:
        pairs = _eval_recall(args, table, labels)
    _emit_report(pairs, report, summary)
    if manifest is not None:
        write_manifest(manifest, "eval", argv, args.seed, dict(pairs), args, inputs, outputs,
                       time.perf_counter() - t0)
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    t0 = time.perf_counter()
    if len(args.values) < 2:
        raise UsageError("sweep needs at least 2 values")
    if args.metric == "oracle-error" and not args.truth:
        raise UsageError("--metric oracle-error needs --truth")
    field = TRAIN_KEYS[args.param]
    cast = type(TRAIN_FIELDS[field].default)
    values = []
    for v in args.values:
        if cast is int and not float(v).is_integer():
            raise UsageError(f"{args.param} takes integers, got {v}")
        values.append(cast(v))
    out_dir = Path(args.out)
    table_path, manifest = out_dir / "sweep.tsv", out_dir / "manifest.txt"
    model_paths = [out_dir / f"model_{args.param}_{value}.bem" for value in values]
    inputs = ("kg", "bg", "truth", "config")
    outputs = [("--out", path, True) for path in (table_path, *model_paths)]
    _refuse_overwrites(args, inputs, outputs, manifest,
                       what="the model for another --values entry")
    base_cfg, policy = resolve_train_options(args)
    kg, bg = _load_aligned(args.kg, args.bg, policy)
    if args.metric == "oracle-error":
        truth_table = load_table(args.truth)
        oracle_error(bg, truth_table)  # fail on missing truth rows before training
        # Normalization is not a sweep parameter: one preparation serves all runs.
        kg_in, bg_in, bg_norms = base_cfg.model_inputs(kg, bg)
    # Every value is checked against the aligned tables before the first run.
    cfgs = [dataclasses.replace(base_cfg, **{field: value}) for value in values]
    for cfg in cfgs:
        cfg.validate(len(kg))
    rows = []
    for value, cfg, model_path in zip(values, cfgs, model_paths):
        proj_net, infer_net, report = train(kg, bg, cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.metric == "elbo":
            window = min(50, report.n_steps)
            metric = float(np.mean(report.elbo_trace()[-window:]))
        else:
            # Scored in input scale: the refined BG rows times the input row norms.
            _, bg_refined = refine(kg_in, bg_in, proj_net, infer_net)
            rescaled = bg_refined.with_matrix(bg_refined.matrix * bg_norms)
            metric = oracle_error(rescaled, truth_table)
        save_model(proj_net, infer_net, cfg, model_path)
        rows.append((args.param, value, args.metric, metric, report.param_checksum))
        print(f"{args.param} = {value}: {args.metric} = {metric:.6f}")
    lines = ["param\tvalue\tmetric\tmetric_value\tchecksum"]
    lines += [f"{p}\t{v}\t{m}\t{mv:.17g}\t{ck}" for p, v, m, mv, ck in rows]
    _atomic_write_text(table_path, "\n".join(lines) + "\n")
    write_manifest(manifest, "sweep", argv, base_cfg.seed, base_cfg.to_dict(), args, inputs,
                   outputs, time.perf_counter() - t0)
    return EXIT_OK


def cmd_replay(args, argv) -> int:
    recorded_bytes = Path(args.manifest).read_bytes()
    entries = read_manifest(args.manifest, recorded_bytes)
    if "argv" not in entries:
        raise DataError(f"{args.manifest}: manifest lacks an argv record")
    try:
        recorded = json.loads(entries["argv"])
    except json.JSONDecodeError:
        raise DataError(f"{args.manifest}: argv record is not JSON")
    if not (isinstance(recorded, list) and all(isinstance(a, str) for a in recorded)):
        raise DataError(f"{args.manifest}: argv record is not a list of strings")
    if recorded[:1] == ["replay"]:
        raise DataError(f"{args.manifest}: argv record is itself a replay")
    if (run_dir := _run_dir(args.manifest, entries)) != Path.cwd():
        raise UsageError(f"{args.manifest}: replay from {run_dir}, where the run was made")
    hashed = {}
    for key, value in entries.items():
        if not key.startswith("sha256."):
            continue
        name = key[len("sha256."):]
        if f"output.{name}" not in entries:
            raise DataError(f"{args.manifest}: {key} has no output.{name} entry")
        hashed[name] = (Path(entries[f"output.{name}"]), value)
    if recorded and recorded[0] == "synth" and "--force" not in recorded:
        recorded.append("--force")
    # The replayed command may rewrite this manifest; if it did, the recorded
    # bytes go back whatever the outcome, so a failed replay keeps its evidence.
    print(f"replaying: {shlex.join(recorded)}")
    try:
        code = main(recorded)
        if code != EXIT_OK:
            return code
        mismatches = [name for name, (out_path, value) in hashed.items()
                      if _sha256_file(out_path) != value]
    finally:
        if Path(args.manifest).read_bytes() != recorded_bytes:
            with _atomic_open(args.manifest) as fh:
                fh.write(recorded_bytes)
    if mismatches:
        print(f"replay mismatch for: {', '.join(mismatches)}", file=sys.stderr)
        for key, value in setup_records().items():
            if entries.get(key, value) != value:
                print(f"setup differs: {key} recorded {entries[key]}, now {value}",
                      file=sys.stderr)
        return EXIT_DATA
    print("replay verified: outputs are bit-identical")
    return EXIT_OK


def _add_train_flags(sub, with_out: bool = True):
    sub.add_argument("--kg", required=True, help="KG embedding table (prior side)")
    sub.add_argument("--bg", required=True, help="BG embedding table (observed side)")
    sub.add_argument("--mode", choices=("p", "i"), default=None,
                     help="p: pairwise edges (default); i: per-node independence")
    sub.add_argument("--edge", choices=[e.value for e in Edge], default=None)
    for key, name in TRAIN_KEYS.items():
        default = TRAIN_FIELDS[name].default
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                         default=None, help=f"{name}, default {default}")
    sub.add_argument("--normalize", dest="normalize", action="store_true", default=None)
    sub.add_argument("--no-normalize", dest="normalize", action="store_false")
    sub.add_argument("--align", choices=ALIGN_POLICIES, default=None)
    sub.add_argument("--config", default=None, help="key = value config file")
    if with_out:
        sub.add_argument("--out", required=True, help="model output path")
        sub.add_argument("--log", default=None, help="step log path (default: <out>.steplog.tsv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bem",
        description="Refine paired KG/BG embedding tables with a variational model.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic dataset with known truth")
    p.add_argument("--out", required=True)
    for f in dataclasses.fields(SynthSpec):
        flag = SYNTH_FLAGS.get(f.name, f.name).replace("_", "-")
        p.add_argument("--" + flag, dest=f.name, type=type(f.default), default=f.default,
                       help="default %(default)s")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="fit the model on a table pair")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("refine", help="emit refined tables from a trained model, "
                        "as unit rows when it was trained with normalization")
    p.add_argument("--kg", required=True)
    p.add_argument("--bg", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_refine)

    p = subs.add_parser("eval", help="evaluate one embedding table")
    p.add_argument("--table", required=True)
    p.add_argument("--table2", default=None,
                   help="second table; evaluates the concatenation")
    p.add_argument("--labels", default=None)
    p.add_argument("--task", required=True,
                   choices=("classify", "histogram", "cluster-ratio", "recall"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="directory for report files")
    p.add_argument("--train-frac", type=float,
                   default=inspect.signature(make_split).parameters["train_fraction"].default)
    p.add_argument("--splits", type=int, default=1)
    classifier = inspect.signature(train_classifier).parameters
    for name in ("reg", "epochs", "lr"):
        default = classifier[name].default
        p.add_argument("--" + name, type=type(default), default=default)
    p.add_argument("--project-dim", type=int, default=None)
    p.add_argument("--n-proj", type=int, default=10)
    p.add_argument("--n-pairs", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--n-users", type=int, default=200)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("sweep", help="train once per value of one parameter")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, nargs="+", type=float)
    p.add_argument("--metric", choices=("elbo", "oracle-error"), default="elbo")
    p.add_argument("--truth", default=None,
                   help="the clean BG table that synth writes as truth.tsv (for oracle-error)")
    _add_train_flags(p, with_out=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("replay", help="re-run a manifest and verify outputs")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # Manifest records are one line each, so no argument may break a line.
        if any("\n" in arg or "\r" in arg for arg in argv):
            raise UsageError("arguments may not hold line breaks")
        return args.func(args, list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (BemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # an allocation the input asked for and the host cannot meet
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
