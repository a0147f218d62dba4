"""Command-line entry point: dataset generation, training, evaluation, and
retrieval as reproducible runs with a manifest next to every output."""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys

from . import __version__
from . import evaluation as ev
from . import trainer as tr
from .dataset import (DatasetBundle, SyntheticSpec, atomic_write_text, fits,
                      generate_synthetic, load_bundle, read_json_object,
                      save_bundle)

SEED_ENV_VAR = "MKFUSION_SEED"

# SyntheticSpec field -> gen-data setting, where the two names differ.
SPEC_SETTINGS = {"genera_per_family": "genera", "species_per_genus": "species",
                 "samples_per_species": "samples", "visual_dim": "vis_dim",
                 "semantic_dim": "sem_dim", "unseen_fraction": "unseen_frac"}
# Per command: setting -> default. Each is a config key of the same name.
SETTINGS = {
    "gen-data": {**{SPEC_SETTINGS.get(f.name, f.name): f.default
                    for f in dataclasses.fields(SyntheticSpec)}, "seed": 1},
    "train": {f.name: f.default for f in dataclasses.fields(tr.TrainConfig)},
    "eval": {"n_syn": ev.DEFAULT_N_SYN, "mode": "gzsl"},
    "retrieve": {"k": ev.DEFAULT_TOP_K, "n_syn": ev.DEFAULT_N_SYN},
}
# Per command: the settings that also have a flag, ``--`` + name with ``-`` for ``_``.
FLAGGED = {
    "gen-data": ("families", "genera", "species", "samples", "vis_dim", "sem_dim",
                 "unseen_frac", "seed"),
    "train": ("steps", "n_nfg", "kappa1", "kappa2", "lam", "seed"),
    "eval": ("n_syn", "mode"),
    "retrieve": ("k", "n_syn"),
}
# Setting -> the name its flag and config key use instead; in a config file
# the alias wins over the setting's own name.
ALIASES = {"lam": "lambda"}


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _flag(name: str) -> str:
    return "--" + ALIASES.get(name, name).replace("_", "-")


def _settings(args: argparse.Namespace) -> dict:
    """The command's settings, each from its flag, else the config file, else
    ``MKFUSION_SEED`` for the seed, else its default. Config values must fit
    the default's type; a float setting given an int stores a float."""
    defaults = SETTINGS[args.command]
    config = {} if args.config is None else read_json_object(args.config, "config file")
    unknown = sorted(set(config) - {*defaults, *(ALIASES.get(n, n) for n in defaults)})
    if unknown:
        raise ValueError(f"unknown keys in config file {args.config}: {', '.join(unknown)}")
    values = {}
    for name, default in defaults.items():
        key = ALIASES[name] if ALIASES.get(name) in config else name
        flag = getattr(args, name) if name in FLAGGED[args.command] else None
        if flag is not None:
            value = flag
        elif key in config:
            value = config[key]
            if not fits(value, default):
                raise ValueError(f"config file {args.config}: {key!r} must be "
                                 f"{type(default).__name__}, got {value!r}")
        elif name == "seed" and os.environ.get(SEED_ENV_VAR):
            try:
                value = int(os.environ[SEED_ENV_VAR])
            except ValueError:
                raise ValueError(f"{SEED_ENV_VAR} must be an integer, got "
                                 f"{os.environ[SEED_ENV_VAR]!r}") from None
        else:
            value = default
        if name == "seed" and value < 0:
            raise ValueError(f"seed must be >= 0, got {value}")
        values[name] = float(value) if isinstance(default, float) else value
    return values


def write_manifest(path: str, command: str, config: dict, seed,
                   inputs: dict, outputs: dict, started_at: str) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "tool_version": __version__,
        "started_at": started_at,
        "finished_at": _utc_now(),
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True))


def _load_bundle_for_checkpoint(data_path: str,
                                state: tr.CheckpointData) -> DatasetBundle:
    bundle = load_bundle(data_path)
    if (bundle.visual_dim != state.model.visual_dim
            or bundle.semantic_dim != state.model.semantic_dim):
        raise ValueError(
            f"checkpoint/data dim mismatch: checkpoint expects visual "
            f"{state.model.visual_dim} semantic {state.model.semantic_dim}, "
            f"dataset has visual {bundle.visual_dim} semantic {bundle.semantic_dim}")
    if sorted(bundle.seen_ids) != state.seen_species:
        raise ValueError("checkpoint/data mismatch: seen classes differ")
    return bundle


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args: argparse.Namespace) -> int:
    started = _utc_now()
    settings = _settings(args)
    spec = SyntheticSpec(**{f.name: settings[SPEC_SETTINGS.get(f.name, f.name)]
                            for f in dataclasses.fields(SyntheticSpec)})
    bundle = generate_synthetic(spec, settings["seed"])
    save_bundle(bundle, args.out)
    write_manifest(args.out + ".manifest.json", "gen-data", settings, settings["seed"],
                   inputs={}, outputs={"dataset": args.out}, started_at=started)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    started = _utc_now()
    resume_state = None
    if args.resume is not None:
        ignored = [_flag(name) for name in FLAGGED["train"]
                   if name != "steps" and getattr(args, name) is not None]
        ignored += ["--config"] if args.config is not None else []
        if ignored:
            raise ValueError(f"--resume keeps the checkpoint's config; only --steps "
                             f"may change: {', '.join(ignored)}")
        resume_state = tr.restore_checkpoint(args.resume)
        config = resume_state.config
        if args.steps is not None:
            config = dataclasses.replace(config, steps=args.steps)
    else:
        config = tr.TrainConfig(**_settings(args))
    bundle = load_bundle(args.data)
    result = tr.train(config, bundle, resume=resume_state)
    os.makedirs(args.out, exist_ok=True)
    checkpoint_path = os.path.join(args.out, "checkpoint.json")
    report_path = os.path.join(args.out, "report.csv")
    tr.save_checkpoint(checkpoint_path, result.state)
    atomic_write_text(report_path, result.report.to_csv())
    write_manifest(os.path.join(args.out, "manifest.json"), "train",
                   dataclasses.asdict(config), config.seed,
                   inputs={"dataset": args.data, "resume": args.resume},
                   outputs={"checkpoint": checkpoint_path, "report": report_path},
                   started_at=started)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    started = _utc_now()
    settings = _settings(args)
    n_syn, mode = settings["n_syn"], settings["mode"]
    if mode not in ("zsl", "gzsl"):
        raise ValueError(f"unknown eval mode: {mode!r}")
    state = tr.restore_checkpoint(args.checkpoint)
    bundle = _load_bundle_for_checkpoint(args.data, state)
    os.makedirs(args.out, exist_ok=True)
    seed = state.config.seed
    outputs = {}
    if mode == "zsl":
        top1, per_class, _ = ev.evaluate_zsl(state.model, bundle, n_syn=n_syn, seed=seed)
        text = f"top1_unseen={top1!r}\n"
        csv = f"top1_unseen\n{top1!r}\n"
    else:
        metrics, curve = ev.evaluate_gzsl(state.model, bundle, n_syn=n_syn, seed=seed)
        per_class = metrics.per_class_correct
        text, csv = metrics.to_text(), metrics.to_csv()
        curve_path = os.path.join(args.out, "curve.csv")
        atomic_write_text(curve_path, curve.to_csv())
        atomic_write_text(os.path.join(args.out, "curve.svg"), curve.to_svg())
        outputs["curve"] = curve_path
    metrics_txt = os.path.join(args.out, "metrics.txt")
    metrics_csv = os.path.join(args.out, "metrics.csv")
    per_class_csv = os.path.join(args.out, "per_class.csv")
    atomic_write_text(metrics_txt, text)
    atomic_write_text(metrics_csv, csv)
    atomic_write_text(per_class_csv, ev.per_class_correct_csv(per_class))
    outputs.update({"metrics_txt": metrics_txt, "metrics_csv": metrics_csv,
                    "per_class": per_class_csv})
    write_manifest(os.path.join(args.out, "manifest.json"), "eval",
                   {"n_syn": n_syn, "mode": mode, "seed": seed}, seed,
                   inputs={"dataset": args.data, "checkpoint": args.checkpoint},
                   outputs=outputs, started_at=started)
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    started = _utc_now()
    settings = _settings(args)
    k, n_syn = settings["k"], settings["n_syn"]
    state = tr.restore_checkpoint(args.checkpoint)
    bundle = _load_bundle_for_checkpoint(args.data, state)
    class_id = args.class_id
    if class_id not in bundle.by_species:
        raise ValueError(f"unknown class id: {class_id}")
    prototypes = ev.synthesize_prototypes(
        state.model, {class_id: bundle.semantic_for(class_id)}, n_syn=n_syn,
        seed=state.config.seed)
    hits = ev.retrieve_topk(prototypes, bundle.sample_visuals, class_id, k=k)
    lines = ["rank,sample_id,similarity"]
    for rank, (sample_id, similarity) in enumerate(hits, start=1):
        lines.append(f"{rank},{sample_id},{similarity!r}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    write_manifest(args.out + ".manifest.json", "retrieve",
                   {"class": class_id, "k": k, "n_syn": n_syn},
                   state.config.seed,
                   inputs={"dataset": args.data, "checkpoint": args.checkpoint},
                   outputs={"ranking": args.out}, started_at=started)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_command(sub, command: str, func, help_text: str,
                 *required: str) -> argparse.ArgumentParser:
    """A subparser with the ``required`` flags, a flag for each of the
    command's flagged settings, and ``--config``."""
    parser = sub.add_parser(command, help=help_text)
    for flag in required:
        parser.add_argument(flag, required=True)
    for name in FLAGGED[command]:
        parser.add_argument(_flag(name), dest=name, type=type(SETTINGS[command][name]))
    parser.add_argument("--config", help="JSON object of settings")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkfusion",
        description="Taxonomy-conditioned generative zero-shot learning sandbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "gen-data", _cmd_gen_data, "generate a synthetic dataset file",
                 "--out")
    train = _add_command(sub, "train", _cmd_train, "train a model on a dataset file",
                         "--data", "--out")
    train.add_argument("--resume", help="checkpoint to continue from")
    _add_command(sub, "eval", _cmd_eval, "evaluate a checkpoint on a dataset",
                 "--data", "--checkpoint", "--out")
    retrieve = _add_command(sub, "retrieve", _cmd_retrieve,
                            "rank samples against a class prototype",
                            "--data", "--checkpoint", "--out")
    retrieve.add_argument("--class", dest="class_id", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
