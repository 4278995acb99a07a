"""Command-line entry point.

Subcommands: gen-data, train, eval, verify, theory. Experiments are
described by a JSON config (schema documented in the README); --seed
and --out override the config's master seed and output directory.

Exit codes: 0 success, 1 usage error, 2 property failure, 3 training
divergence.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass, field, fields

from .evalbench import (SKETCH_TYPES, TRAIN_MODES, DatasetSpec, evaluate_cell,
                        generate_dataset, manifest_files, normalize_top_singular,
                        random_sketch, results_to_csv, write_xy_csv)
from .formats import (atomic_open, load_matrix, load_sketch, matrix_shape, save_dmat,
                      save_sketch)
from .linalg import PowerSvdConfig, singular_values
from .scw import scw_losses
from .seeding import derived_seed
from .trainer import (TrainConfig, TrainingDivergedError, learned_rows, report_to_csv,
                      train_many)

CONFIG_VERSION = 1

# seed derivation tags under the master seed
_SEED_DATASET = 50
_SEED_TRAIN = 60
_SEED_EVAL_TRIAL = 70


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class TrainParams:
    lr: float = 0.1
    batch_size: int = 1
    iterations: int = 500
    power_iters: int = 60  # TrainConfig.power_cfg rounds; training does not use them
    learned_rows: int | None = None  # None: half of m (rounded down)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    out_dir: str
    datasets: tuple[DatasetSpec, ...]
    pairs: tuple[tuple[int, int], ...]
    sketch_types: tuple[str, ...]
    trials: int = 1
    train: TrainParams = field(default_factory=TrainParams)


# JSON value types accepted for each config field annotation
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "None": (type(None),)}


def _check_types(obj, what: str) -> None:
    """Reject a config field whose JSON value does not match its annotation."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        allowed = tuple(t for name in f.type.split(" | ") for t in _JSON_TYPES[name])
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise UsageError(f"{what}: {f.name} must be {f.type}, got {value!r}")


def _checked(value, what: str, kind: type):
    """value, if it is a JSON value of the given kind; else a UsageError."""
    if not isinstance(value, kind):
        raise UsageError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _seed(value, what: str) -> int:
    """value, if it is a valid seed (an unsigned 64-bit integer); else a UsageError."""
    if type(value) is not int or not 0 <= value < 2**64:
        raise UsageError(f"{what} must be an integer in [0, 2**64), got {value!r}")
    return value


def load_config(path: str, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    """Parse and type-check a config file; overrides act as if in the file.

    Dataset seeds left out of the file derive from the (possibly
    overridden) master seed, so a --seed override re-randomizes
    everything at once.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("version") != CONFIG_VERSION:
        raise UsageError(f"config version must be {CONFIG_VERSION}")
    master = _seed(raw.get("seed", 0), "seed") if seed_override is None else seed_override
    datasets = []
    for i, spec in enumerate(_checked(raw.get("datasets", []), "datasets", list)):
        spec = dict(_checked(spec, "dataset spec", dict))
        what = f"dataset {spec.get('name')!r}"
        spec.setdefault("seed", derived_seed(master, _SEED_DATASET, i))
        if spec.get("kind") == "files":
            p = spec.get("path")
            if not isinstance(p, str) or not os.path.exists(p):
                raise UsageError(f"{what}: path {p!r} does not exist")
        try:
            ds = DatasetSpec(**spec)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{what}: {exc}") from exc
        _check_types(ds, what)
        _seed(ds.seed, f"{what}: seed")
        datasets.append(ds)
    pairs = []
    for pair in _checked(raw.get("pairs", []), "pairs", list):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(x) is int for x in pair)):
            raise UsageError(f"bad (k, m) pair {pair!r}")
        k, m = pair
        if k < 1 or m < 1:
            raise UsageError(f"(k, m) pairs must be positive, got ({k}, {m})")
        pairs.append((k, m))
    sketch_types = tuple(_checked(raw.get("sketch_types", []), "sketch_types", list))
    for st in sketch_types:
        if st not in SKETCH_TYPES:
            raise UsageError(f"unknown sketch type {st!r}")
    try:
        train_params = TrainParams(**_checked(raw.get("train", {}), "train", dict))
    except TypeError as exc:
        raise UsageError(f"bad train parameters: {exc}") from exc
    _check_types(train_params, "train")
    try:  # the trainer's own range checks, run before any work
        _train_cfg(train_params, 1, 1, "learned", 0)
    except ValueError as exc:
        raise UsageError(f"bad train parameters: {exc}") from exc
    for (k, m), st in itertools.product(pairs, sketch_types):
        if st in TRAIN_MODES:  # the trainer's row rule, for every cell `train` runs
            try:
                learned_rows(_train_cfg(train_params, k, m, TRAIN_MODES[st], 0), m)
            except ValueError as exc:
                raise UsageError(f"train: {st} at (k, m) = ({k}, {m}): {exc}") from exc
    trials = raw.get("trials", 1)
    if type(trials) is not int or trials < 1:
        raise UsageError(f"trials must be a positive integer, got {trials!r}")
    out_dir = out_override or _checked(raw.get("out_dir", "runs"), "out_dir", str)
    return ExperimentConfig(seed=master,
                            out_dir=out_dir,
                            datasets=tuple(datasets),
                            pairs=tuple(pairs),
                            sketch_types=sketch_types,
                            trials=trials,
                            train=train_params)


def _data_dir(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, "data", name)


def _sketch_path(cfg: ExperimentConfig, name: str, k: int, m: int, st: str,
                 trial: int) -> str:
    return os.path.join(cfg.out_dir, "sketches", f"{name}_k{k}_m{m}_{st}_t{trial}.skch")


def cmd_gen_data(cfg: ExperimentConfig) -> int:
    """Write every dataset as DMAT1 files plus a manifest per dataset."""
    for spec in cfg.datasets:
        train_set, test_set = _dataset(spec)
        ddir = _data_dir(cfg, spec.name)
        os.makedirs(ddir, exist_ok=True)
        manifest = {"version": 1, "name": spec.name, "seed": spec.seed,
                    "train": [], "test": []}
        for role, mats in (("train", train_set), ("test", test_set)):
            for i, a in enumerate(mats):
                fname = f"{role}_{i:03d}.dmat"
                save_dmat(os.path.join(ddir, fname), a)
                manifest[role].append(fname)
        with atomic_open(os.path.join(ddir, "manifest.json"), "w", encoding="ascii") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
        print(f"gen-data: {spec.name}: {len(train_set)} train + {len(test_set)} test "
              f"matrices -> {ddir}")
    return 0


def _file_error(path: str, exc: Exception) -> UsageError:
    """A loader's error as `path: reason`, without repeating the path."""
    msg = str(exc)
    return UsageError(msg if msg.startswith(f"{path}:") else f"{path}: {msg}")


def _dataset(spec: DatasetSpec):
    """generate_dataset(spec); a `files` spec's read errors become UsageErrors."""
    try:
        return generate_dataset(spec)
    except (OSError, ValueError) as exc:
        if spec.kind != "files":
            raise
        raise _file_error(spec.path, exc) from exc


def _load_dataset_files(cfg: ExperimentConfig, spec: DatasetSpec, role: str):
    """The normalized matrices of one role ("train" or "test") of a dataset gen-data
    wrote. Of the other role's files only the shapes are read (a DMAT1 file's
    header), for the check that every matrix of the dataset has one shape."""
    manifest = os.path.join(_data_dir(cfg, spec.name), "manifest.json")
    if not os.path.exists(manifest):
        raise UsageError(f"missing data for {spec.name!r}: run gen-data first "
                         f"(expected {manifest})")
    try:
        files = manifest_files(manifest)
        mats = [normalize_top_singular(load_matrix(path)) for path in files[role]]
        shapes = sorted({a.shape for a in mats}.union(
            matrix_shape(path) for other, paths in files.items() if other != role
            for path in paths))
    except (OSError, ValueError) as exc:
        raise _file_error(manifest, exc) from exc
    if len(shapes) > 1:
        raise UsageError(f"{manifest}: matrices differ in shape: {shapes}")
    return mats


def _train_cfg(tp: TrainParams, k: int, m: int, mode: str, seed: int) -> TrainConfig:
    learned_rows = tp.learned_rows if tp.learned_rows is not None else m // 2
    return TrainConfig(k=k, lr=tp.lr, batch_size=tp.batch_size,
                       iterations=tp.iterations, seed=seed,
                       power_cfg=PowerSvdConfig(t_iters=tp.power_iters),
                       mode=mode, learned_rows=learned_rows)


def cmd_train(cfg: ExperimentConfig) -> int:
    """Train one sketch per (dataset, k, m, trainable type, trial)."""
    os.makedirs(os.path.join(cfg.out_dir, "sketches"), exist_ok=True)
    os.makedirs(os.path.join(cfg.out_dir, "reports"), exist_ok=True)
    runs = [(st, t) for st in cfg.sketch_types if st in TRAIN_MODES for t in range(cfg.trials)]
    for di, spec in enumerate(cfg.datasets):
        train_set = _load_dataset_files(cfg, spec, "train")
        for k, m in cfg.pairs:
            cfgs = [_train_cfg(cfg.train, k, m, TRAIN_MODES[st], derived_seed(
                cfg.seed, _SEED_TRAIN, di, k, m, SKETCH_TYPES.index(st), t)) for st, t in runs]
            # the runs of one (dataset, k, m) step in lockstep; results come in this
            # order, and a run that diverges raises at its turn, as a loop would
            for (st, t), (sketch, report) in zip(runs, train_many(train_set, m, cfgs)):
                save_sketch(_sketch_path(cfg, spec.name, k, m, st, t), sketch)
                report_to_csv(report, os.path.join(
                    cfg.out_dir, "reports", f"{spec.name}_k{k}_m{m}_{st}_t{t}.csv"))
                print(f"train: {spec.name} k={k} m={m} {st} trial {t}: "
                      f"loss {report.initial_loss:.4f} -> {report.final_loss:.4f}")
    return 0


def _eval_sketch(cfg: ExperimentConfig, di: int, spec: DatasetSpec, n: int, k: int,
                 m: int, st: str, t: int):
    """The trained sketch from its SKCH1 file, or a fresh seeded random one."""
    if st not in TRAIN_MODES:
        seed = derived_seed(cfg.seed, _SEED_EVAL_TRIAL, di, k, m, SKETCH_TYPES.index(st), t)
        return random_sketch(st, m, n, seed)
    path = _sketch_path(cfg, spec.name, k, m, st, t)
    if not os.path.isfile(path):
        raise UsageError(f"missing sketch file {path}: run train first")
    try:
        return load_sketch(path)
    except (OSError, ValueError) as exc:
        raise _file_error(path, exc) from exc


def cmd_eval(cfg: ExperimentConfig) -> int:
    """Evaluate every configured cell; writes results.csv and plot data."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    records = []
    for di, spec in enumerate(cfg.datasets):
        test_set = _load_dataset_files(cfg, spec, "test")
        n = test_set[0].shape[0]
        sigmas = [singular_values(a) for a in test_set]
        for k, m in cfg.pairs:
            # every type and trial of the cell is loaded or built first, then all
            # are scored together: one pass over the test matrices
            sketches = [_eval_sketch(cfg, di, spec, n, k, m, st, t)
                        for st in cfg.sketch_types for t in range(cfg.trials)]
            losses = scw_losses(test_set, sketches, k)
            for i, st in enumerate(cfg.sketch_types):
                records.append(evaluate_cell(spec.name, k, m, st, sigmas,
                                             losses[i * cfg.trials:(i + 1) * cfg.trials]))
    results_to_csv(records, os.path.join(cfg.out_dir, "results.csv"))
    _write_plot_data(cfg, records)
    print(f"eval: wrote {len(records)} rows -> {os.path.join(cfg.out_dir, 'results.csv')}")
    return 0


def _write_plot_data(cfg: ExperimentConfig, records) -> None:
    """Excess error vs sketch rows, one plot-data CSV per (dataset, k)."""
    plot_dir = os.path.join(cfg.out_dir, "plots")
    cells = sorted({(r.dataset, r.k) for r in records})
    if cells:
        os.makedirs(plot_dir, exist_ok=True)
    for dataset, k in cells:
        rows = [(r.sketch_type, r.m, r.err) for r in sorted(
            records, key=lambda r: (r.sketch_type, r.m))
            if r.dataset == dataset and r.k == k]
        write_xy_csv(os.path.join(plot_dir, f"err_vs_m_{dataset}_k{k}.csv"), rows)


# verify, with theory and the taped SVD behind it, loads only for verify and theory
def _verify_seed(args) -> int:
    from .verify import SEED
    return SEED if args.seed is None else args.seed


def _print_checks(results) -> int:
    """One [PASS]/[FAIL] line per check; returns the number that failed."""
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    return sum(not r.passed for r in results)


def cmd_verify(args) -> int:
    from .verify import run_verification
    results = run_verification(_verify_seed(args))
    failed = _print_checks(results)
    print(f"verify: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def cmd_theory(args) -> int:
    """Write theory.csv: the numbers behind verify's lemma and trend checks."""
    from .verify import lemma_and_trend
    out_dir = args.out or "runs"
    os.makedirs(out_dir, exist_ok=True)
    *checks, rows = lemma_and_trend(_verify_seed(args))
    path = os.path.join(out_dir, "theory.csv")
    with atomic_open(path, "w", encoding="ascii") as fh:
        fh.write("d,r_prime,empirical_mean,product,N,gap\n")
        for row in rows:
            fh.write(",".join("" if x is None else str(x) for x in row) + "\n")
    failed = _print_checks(checks)
    print(f"theory: wrote {len(rows)} rows -> {path}; "
          f"{'all bounds hold' if not failed else 'BOUND VIOLATION'}")
    return 0 if not failed else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="lrsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train", "eval", "verify", "theory"):
        p = sub.add_parser(name)  # each command takes only the flags it reads
        p.add_argument("--seed", type=int, help="master seed override")
        if name != "verify":
            p.add_argument("--out", help="output directory override")
        if name not in ("verify", "theory"):
            p.add_argument("--config", required=True, help="experiment config JSON")
            p.add_argument("--jobs", type=int, default=1,
                           help="accepted for compatibility; has no effect")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.seed is not None:
            _seed(args.seed, "--seed")
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "theory":
            return cmd_theory(args)
        cfg = load_config(args.config, seed_override=args.seed,
                          out_override=args.out)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        return cmd_eval(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
