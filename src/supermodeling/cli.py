"""Command-line front end for the experiment harness.

Subcommands: generate-gt, train, simulate, experiment.  Each takes --config
(an INI file of experiment settings), optional --seed and --out overrides,
and repeated --set key=value overrides for any other config field.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .engine import SubModelEnsemble, TrainingAborted
from .groundtruth import save_gt, generate_gt
from .tumor import write_volume_series


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, default=None,
                        help="experiment config file (defaults built in)")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--out", type=Path, default=None, help="override the output directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override any config field (repeatable)")


def _load(args) -> experiments.ExperimentConfig:
    config = (experiments.ExperimentConfig() if args.config is None
              else experiments.load_config(args.config))
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"override {item!r} is not of the form KEY=VALUE")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    return experiments.apply_overrides(config, overrides)


def cmd_generate_gt(args) -> int:
    config = _load(args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _spec, reference, system, initial = experiments.build_setup(config)
    gt = generate_gt(system, reference, initial, config.dt, config.steps,
                     config.keep_every)
    save_gt(gt, out / "gt")
    if gt.volumes is not None:
        rows = [(n, n * config.dt, gt.volumes[n]) for n in sorted(gt.volumes)]
        write_volume_series(out / "gt_volumes.csv", rows)
    print(f"reference trajectory with {len(gt.stored_indices)} snapshots -> {out / 'gt'}")
    return 0


def _require(path: Path, what: str) -> None:
    """Reject an input file or directory that does not exist, naming it."""
    if not path.exists():
        raise ValueError(f"{what} {path} does not exist")


def cmd_train(args) -> int:
    config = _load(args)
    if args.gt is not None:  # only the default archive is generated when missing
        _require(args.gt, "reference archive")
    _spec, reference, system, initial = experiments.build_setup(config)
    ensemble = SubModelEnsemble(system, experiments.instantiate_submodels(reference, config),
                                initial)
    cm = experiments.initial_coupling(config)
    out = Path(config.out_dir)
    gt_dir = args.gt if args.gt is not None else out / "gt"
    gt = experiments.load_reference(gt_dir, config, system, initial) if gt_dir.exists() else None
    out.mkdir(parents=True, exist_ok=True)
    if gt is None:
        gt = generate_gt(system, reference, initial, config.dt, config.steps,
                         config.keep_every)
        save_gt(gt, out / "gt")
    try:
        trained, report = experiments.train(
            ensemble, cm, gt, config.dt, config.steps,
            max_epochs=config.epochs, tol=config.tol,
        )
    except TrainingAborted as exc:
        experiments.export_training_csv(exc.report, out / "training.csv", config.n_submodels)
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    experiments.export_training_csv(report, out / "training.csv", config.n_submodels)
    experiments.save_coupling(trained, out / "trained_coupling.json")
    print(f"trained in {report.iterations_used} epochs "
          f"(converged={report.converged}) -> {out / 'trained_coupling.json'}")
    return 0


def cmd_simulate(args) -> int:
    config = _load(args)
    out = Path(config.out_dir)
    gt_dir = args.gt if args.gt is not None else out / "gt"
    _require(gt_dir, "reference archive")
    _spec, reference, system, initial = experiments.build_setup(config)
    gt = experiments.load_reference(gt_dir, config, system, initial)
    coupling_path = args.coupling if args.coupling is not None else out / "trained_coupling.json"
    _require(coupling_path, "trained coupling")
    cm = experiments.load_coupling(coupling_path)
    if cm.n != config.n_submodels:
        raise ValueError(f"trained coupling {coupling_path} is {cm.n}x{cm.n}, but the config "
                         f"has {config.n_submodels} sub-models")
    ensemble = SubModelEnsemble(system, experiments.instantiate_submodels(reference, config),
                                initial)
    out.mkdir(parents=True, exist_ok=True)
    experiments.predict(ensemble, cm, gt, config, out)
    print(f"simulated {config.steps} steps -> {out / 'curves.csv'}")
    return 0


def cmd_experiment(args) -> int:
    config = _load(args)
    out = experiments.run_experiment(config)
    status = (out / "manifest.ini").read_text().rsplit("status = ", 1)[-1].strip()
    print(f"experiment {status} -> {out}")
    return 0 if status == "completed" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="supermodeling",
        description="Synchronized-ensemble data assimilation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-gt", help="free-run the reference model and archive it")
    _add_common(p)
    p.set_defaults(func=cmd_generate_gt)

    p = sub.add_parser("train", help="train coupling coefficients against the reference")
    _add_common(p)
    p.add_argument("--gt", type=Path, default=None, help="existing reference archive")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run the supermodel with trained coefficients")
    _add_common(p)
    p.add_argument("--gt", type=Path, default=None, help="existing reference archive")
    p.add_argument("--coupling", type=Path, default=None,
                   help="trained coefficients JSON (default: <out>/trained_coupling.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="full pipeline: reference, training, prediction")
    _add_common(p)
    p.set_defaults(func=cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a bad config or an archive that does not fit it
        print(f"supermodeling {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
