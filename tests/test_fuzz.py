"""Seeded one-node mutations of small dataset, checkpoint and config files,
run through ``cli.main`` in-process.

Every case changes one node of one file: it replaces the node with an odd
JSON value, deletes it, duplicates a list entry or renames an object key, or
negates a number or halves a string. The command that reads the file must
then exit 0, or exit 1 with exactly one ``error:`` line and no traceback.
When a deleted or renamed key of a dataset or checkpoint stops the command
on a missing field, the line names that key by its path from the file's root.
The case number seeds the draw, so a failing case reruns alone. The quick
pass runs ``QUICK_CASES`` cases; the ``slow`` campaign runs ``CAMPAIGN_CASES``
more.
"""

import copy
import functools
import json
import operator

import numpy as np
import pytest

from mkfusion.cli import main

QUICK_CASES = 40
CAMPAIGN_CASES = 600
SEED = 29

# Replacement values. No valid int is above 2, so none asks for a large size;
# 2**63 and -2**63 - 1 do not fit int64. A deleted key takes its default, so
# deleting ``steps`` trains 300 loops of the small model, about 2 s.
ODD_VALUES = [None, True, False, -1, 0, 1, 2, 0.5, -0.0, 1e308, float("nan"), 2**63,
              -2**63 - 1, "", "x", [], {}, [0], {"x": 1}]
MUTATIONS = ("replace", "delete", "duplicate", "negate")
# (mutated file, command); the other inputs are the unmutated files.
TARGETS = [("dataset", "train"), ("dataset", "resume"), ("dataset", "eval"),
           ("dataset", "retrieve"), ("checkpoint", "resume"), ("checkpoint", "eval"),
           ("checkpoint", "retrieve"), ("train-config", "train"),
           ("eval-config", "eval"), ("retrieve-config", "retrieve")]
TRAIN_CONFIG = {"steps": 2, "n_nfg": 1, "batch_size": 8, "noise_dim": 4, "gen_hidden": 10,
                "disc_hidden": [10, 8], "fusion_hidden": 6, "offspring_budget": 4}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The unmutated files, parsed, by name."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    config = root / "train.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    assert main(["gen-data", "--families", "2", "--genera", "2", "--species", "2",
                 "--samples", "3", "--vis-dim", "4", "--sem-dim", "3", "--seed", "3",
                 "--out", str(root / "data.json")]) == 0
    assert main(["train", "--data", str(root / "data.json"), "--config", str(config),
                 "--seed", "5", "--out", str(root / "run")]) == 0
    return {"dataset": json.loads((root / "data.json").read_text()),
            "checkpoint": json.loads((root / "run" / "checkpoint.json").read_text()),
            "train-config": TRAIN_CONFIG, "eval-config": {"n_syn": 2, "mode": "gzsl"},
            "retrieve-config": {"k": 2, "n_syn": 2}}


def nodes(document, path=()):
    """The path and value of every node below ``document``, in file order."""
    if isinstance(document, dict):
        items = document.items()
    elif isinstance(document, list):
        items = enumerate(document)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def mutate(document, rng: np.random.Generator):
    """A copy of ``document`` with one node changed, the changed node's path
    and the mutation (one of ``MUTATIONS``)."""
    document = copy.deepcopy(document)
    every = list(nodes(document))
    where, value = every[rng.integers(len(every))]
    parent = functools.reduce(operator.getitem, where[:-1], document)
    key, how = where[-1], MUTATIONS[rng.integers(len(MUTATIONS))]
    if how == "replace":
        parent[key] = ODD_VALUES[rng.integers(len(ODD_VALUES))]
    elif how == "delete":
        del parent[key]
    elif how == "duplicate" and isinstance(parent, list):
        parent.insert(key, value)
    elif how == "duplicate":
        parent[f"{key}x"] = parent.pop(key)
    elif isinstance(value, str):
        parent[key] = value[:len(value) // 2]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        parent[key] = -value
    else:
        parent[key] = None
    return document, where, how


def run_case(case: int, documents, tmp_path, capsys) -> str | None:
    """Run case ``case``; the reason it fails, or None if it passes."""
    rng = np.random.default_rng([SEED, case])
    kind, command = TARGETS[case % len(TARGETS)]
    mutated, where, how = mutate(documents[kind], rng)
    path = "/".join(map(str, where))
    change = f"{how} {path}"
    work = tmp_path / f"case{case}"
    work.mkdir()
    files = {}
    for name, document in documents.items():
        files[name] = work / f"{name}.json"
        files[name].write_text(json.dumps(mutated if name == kind else document))
    data, checkpoint = ["--data", files["dataset"]], ["--checkpoint", files["checkpoint"]]
    argv = {"train": ["train", *data, "--config", files["train-config"]],
            "resume": ["train", *data, "--resume", files["checkpoint"], "--steps", 3],
            "eval": ["eval", *data, *checkpoint, "--config", files["eval-config"]],
            "retrieve": ["retrieve", *data, *checkpoint, "--class", 0,
                         "--config", files["retrieve-config"]]}[command]
    capsys.readouterr()
    try:
        code = main([str(a) for a in argv] + ["--out", str(work / "out")])
    except Exception as err:  # an exception out of main is the failure
        return f"case {case} ({command}, {kind}: {change}) raised {err!r}"
    err = capsys.readouterr().err
    lines = err.strip().split("\n")
    key_gone = (kind in ("dataset", "checkpoint") and how in ("delete", "duplicate")
                and isinstance(where[-1], str))
    missing = "error: missing field: "
    if key_gone and lines[0].startswith(missing) and lines[0] != missing + path:
        return f"case {case} ({command}, {kind}: {change}) named another field: {err!r}"
    if code == 0 or (code == 1 and len(lines) == 1 and lines[0].startswith("error: ")
                     and "Traceback" not in err):
        return None
    return f"case {case} ({command}, {kind}: {change}) exited {code}: {err!r}"


@pytest.mark.parametrize("case", range(QUICK_CASES))
def test_mutated_file_exits_cleanly(case, documents, tmp_path, capsys):
    assert run_case(case, documents, tmp_path, capsys) is None


@pytest.mark.slow
def test_mutation_campaign(documents, tmp_path, capsys):
    cases = range(QUICK_CASES, QUICK_CASES + CAMPAIGN_CASES)
    failures = [f for f in (run_case(c, documents, tmp_path, capsys) for c in cases) if f]
    assert failures == []
