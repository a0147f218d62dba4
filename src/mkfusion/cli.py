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
from .dataset import (DatasetBundle, SyntheticSpec, atomic_write_text,
                      generate_synthetic, load_bundle, save_bundle)

SEED_ENV_VAR = "MKFUSION_SEED"

# gen-data setting -> default; each is also a flag of the same name.
GEN_DATA_DEFAULTS = {"families": 3, "genera": 3, "species": 4, "samples": 20,
                     "vis_dim": 32, "sem_dim": 16, "unseen_frac": 0.17, "seed": 1}
# SyntheticSpec scales that only a config file sets.
SCALE_KEYS = ("sigma_family", "sigma_genus", "sigma_species", "noise_std",
              "semantic_noise_std")
# TrainConfig fields that also have a flag -> the flag.
TRAIN_FLAGS = {"steps": "--steps", "n_nfg": "--n-nfg", "kappa1": "--kappa1",
               "kappa2": "--kappa2", "lam": "--lambda", "seed": "--seed"}


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_config_file(path: str | None, known: tuple[str, ...]) -> dict:
    """The JSON object in ``path`` ({} without one); keys outside ``known`` are an error."""
    if path is None:
        return {}
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed config file {path}: {err}") from None
    if not isinstance(document, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(document) - set(known))
    if unknown:
        raise ValueError(f"unknown keys in config file {path}: {', '.join(unknown)}")
    return document


def _resolve(flag_value, config: dict, key: str, default):
    """Precedence: explicit flag, then config file, then ``MKFUSION_SEED`` for
    the seed, then default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    if key == "seed" and os.environ.get(SEED_ENV_VAR):
        return int(os.environ[SEED_ENV_VAR])
    return default


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
    config = _load_config_file(args.config, (*GEN_DATA_DEFAULTS, *SCALE_KEYS))
    resolved = {key: type(default)(_resolve(getattr(args, key), config, key, default))
                for key, default in GEN_DATA_DEFAULTS.items()}
    scales = {key: config[key] for key in SCALE_KEYS if key in config}
    spec = SyntheticSpec(families=resolved["families"],
                         genera_per_family=resolved["genera"],
                         species_per_genus=resolved["species"],
                         samples_per_species=resolved["samples"],
                         visual_dim=resolved["vis_dim"],
                         semantic_dim=resolved["sem_dim"],
                         unseen_fraction=resolved["unseen_frac"],
                         **scales)
    bundle = generate_synthetic(spec, resolved["seed"])
    save_bundle(bundle, args.out)
    write_manifest(args.out + ".manifest.json", "gen-data",
                   {**resolved, **scales}, resolved["seed"],
                   inputs={}, outputs={"dataset": args.out}, started_at=started)
    return 0


def _train_config_from(args: argparse.Namespace, config: dict) -> tr.TrainConfig:
    """Each field from its flag, else the config file (``lambda`` before ``lam``),
    else ``MKFUSION_SEED`` for the seed, else the field's default."""
    values = {}
    for f in dataclasses.fields(tr.TrainConfig):
        key = "lambda" if f.name == "lam" and "lambda" in config else f.name
        flag = getattr(args, f.name) if f.name in TRAIN_FLAGS else None
        values[f.name] = _resolve(flag, config, key, f.default)
    return tr.TrainConfig(**values)


def _cmd_train(args: argparse.Namespace) -> int:
    started = _utc_now()
    resume_state = None
    if args.resume is not None:
        ignored = [flag for key, flag in {**TRAIN_FLAGS, "config": "--config"}.items()
                   if key != "steps" and getattr(args, key) is not None]
        if ignored:
            raise ValueError(f"--resume keeps the checkpoint's config; only --steps "
                             f"may change: {', '.join(ignored)}")
        resume_state = tr.restore_checkpoint(args.resume)
        config = resume_state.config
        if args.steps is not None:
            config = dataclasses.replace(config, steps=args.steps)
    else:
        config_file = _load_config_file(
            args.config, (*(f.name for f in dataclasses.fields(tr.TrainConfig)), "lambda"))
        config = _train_config_from(args, config_file)
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
    config = _load_config_file(args.config, ("n_syn", "mode"))
    n_syn = int(_resolve(args.n_syn, config, "n_syn", ev.DEFAULT_N_SYN))
    mode = str(_resolve(args.mode, config, "mode", "gzsl"))
    if mode not in ("zsl", "gzsl"):
        raise ValueError(f"unknown eval mode: {mode!r}")
    state = tr.restore_checkpoint(args.checkpoint)
    bundle = _load_bundle_for_checkpoint(args.data, state)
    os.makedirs(args.out, exist_ok=True)
    fusion_mode = state.config.fusion_mode
    seed = state.config.seed
    outputs = {}
    if mode == "zsl":
        top1, per_class, _ = ev.evaluate_zsl(state.model, bundle, n_syn=n_syn,
                                             seed=seed, fusion_mode=fusion_mode)
        text = f"top1_unseen={top1!r}\n"
        csv = f"top1_unseen\n{top1!r}\n"
    else:
        metrics, curve = ev.evaluate_gzsl(state.model, bundle, n_syn=n_syn,
                                          seed=seed, fusion_mode=fusion_mode)
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
    config = _load_config_file(args.config, ("k", "n_syn"))
    k = int(_resolve(args.k, config, "k", ev.DEFAULT_TOP_K))
    n_syn = int(_resolve(args.n_syn, config, "n_syn", ev.DEFAULT_N_SYN))
    state = tr.restore_checkpoint(args.checkpoint)
    bundle = _load_bundle_for_checkpoint(args.data, state)
    class_id = int(args.class_id)
    if class_id not in bundle.by_species:
        raise ValueError(f"unknown class id: {class_id}")
    prototypes = ev.synthesize_prototypes(
        state.model, {class_id: bundle.semantic_for(class_id)}, n_syn=n_syn,
        seed=state.config.seed, fusion_mode=state.config.fusion_mode)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkfusion",
        description="Taxonomy-conditioned generative zero-shot learning sandbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    gen.add_argument("--families", type=int)
    gen.add_argument("--genera", type=int)
    gen.add_argument("--species", type=int)
    gen.add_argument("--samples", type=int)
    gen.add_argument("--vis-dim", type=int)
    gen.add_argument("--sem-dim", type=int)
    gen.add_argument("--unseen-frac", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--config")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_data)

    train = sub.add_parser("train", help="train a model on a dataset file")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    defaults = {f.name: f.default for f in dataclasses.fields(tr.TrainConfig)}
    for name, flag in TRAIN_FLAGS.items():
        train.add_argument(flag, dest=name, type=type(defaults[name]))
    train.add_argument("--resume", help="checkpoint to continue from")
    train.add_argument("--config")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--n-syn", type=int)
    evaluate.add_argument("--mode", choices=("zsl", "gzsl"))
    evaluate.add_argument("--config")
    evaluate.add_argument("--out", required=True)
    evaluate.set_defaults(func=_cmd_eval)

    retrieve = sub.add_parser("retrieve", help="rank samples against a class prototype")
    retrieve.add_argument("--data", required=True)
    retrieve.add_argument("--checkpoint", required=True)
    retrieve.add_argument("--class", dest="class_id", type=int, required=True)
    retrieve.add_argument("--k", type=int)
    retrieve.add_argument("--n-syn", type=int)
    retrieve.add_argument("--config")
    retrieve.add_argument("--out", required=True)
    retrieve.set_defaults(func=_cmd_retrieve)
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
