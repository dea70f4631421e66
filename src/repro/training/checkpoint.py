"""Bit-exact checkpointing for functional pretraining runs (format v2).

A checkpoint captures *every* mutable buffer a resumed run needs to continue
bit-for-bit identically to the continuous run — the repo's core invariant:

* every replica's stage weights (the flat arenas, stored per parameter);
* the fused-Adam state per replica (moments, step count, current LR);
* the engine's cross-iteration compression state
  (:meth:`~repro.parallel.engine.ThreeDParallelEngine.mutable_state`):
  DP error-feedback residuals (per-parameter dicts *and* the bucketed slabs),
  PowerSGD Q warm starts, per-key RNG call counts, and each replica's
  compressed-backpropagation boundary residuals;
* the iteration counter, training history, and resilience ledger.

Format v1 stored only weights + moments, so a "successful" resume silently
diverged whenever error feedback or stochastic codecs were active; v1 files
are rejected loudly.  Everything lives in one compressed ``.npz``: named
arrays for the weights, a JSON header for scalars, and the nested engine
state serialised as a header "skeleton" whose array leaves are replaced by
``{"__ndarray__": "state/<n>"}`` references into the archive.

Writes are atomic (tmp file + ``os.replace``), and
:func:`save_rotating_checkpoint` / :func:`latest_checkpoint` implement the
last-k retention scheme behind ``repro train --checkpoint-every/--resume``.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.resilience import ResilienceReport
from repro.training.metrics import TrainingHistory, ValidationPoint
from repro.training.trainer import Pretrainer

#: Format marker stored in every checkpoint so incompatible files fail loudly.
CHECKPOINT_FORMAT_VERSION = 2

_ARRAY_REF = "__ndarray__"


def _pack_tree(tree, arrays: dict[str, np.ndarray]):
    """JSON-safe skeleton of ``tree``; ndarray leaves move into ``arrays``."""
    if isinstance(tree, np.ndarray):
        reference = f"state/{len(arrays)}"
        arrays[reference] = tree
        return {_ARRAY_REF: reference}
    if isinstance(tree, dict):
        return {str(key): _pack_tree(value, arrays) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_pack_tree(value, arrays) for value in tree]
    if tree is None or isinstance(tree, (bool, int, float, str)):
        return tree
    raise TypeError(f"cannot serialise {type(tree).__name__} in checkpoint state")


def _unpack_tree(skeleton, archive):
    """Rebuild the state tree, resolving array references into ``archive``."""
    if isinstance(skeleton, dict):
        if set(skeleton) == {_ARRAY_REF}:
            return archive[skeleton[_ARRAY_REF]]
        return {key: _unpack_tree(value, archive) for key, value in skeleton.items()}
    if isinstance(skeleton, list):
        return [_unpack_tree(value, archive) for value in skeleton]
    return skeleton


def _flatten_weights(trainer: Pretrainer) -> dict[str, np.ndarray]:
    """Every stage parameter as a flat name → live-array mapping."""
    arrays: dict[str, np.ndarray] = {}
    for replica_index, engine in enumerate(trainer.engines):
        for stage_index, stage in enumerate(engine.stages):
            for name, parameter in stage.named_parameters():
                arrays[f"replica{replica_index}/stage{stage_index}/param/{name}"] = parameter.data
    return arrays


def _normalised_path(path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_checkpoint(trainer: Pretrainer, path: str | pathlib.Path) -> pathlib.Path:
    """Atomically write the trainer's full state to ``path``; returns the path.

    The archive is written to a sibling temporary file and moved into place
    with ``os.replace``, so a crash mid-write never leaves a truncated
    checkpoint under the final name.
    """
    path = _normalised_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    state_arrays: dict[str, np.ndarray] = {}
    state_skeleton = _pack_tree(
        {
            "engine": trainer.engine.mutable_state(),
            "optimizers": [optimizer.state_dict() for optimizer in trainer.optimizers],
        },
        state_arrays,
    )
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "iteration": trainer._iteration,
        "optimizer_steps": [optimizer._step_count for optimizer in trainer.optimizers],
        "config": trainer.plan.stack_label(),
        "topology": {
            "num_stages": trainer.num_stages,
            "data_parallel_degree": len(trainer.engine.arenas),
        },
        "train_losses": trainer.history.train_losses,
        "validation_points": [
            {"iteration": point.iteration, "loss": point.loss}
            for point in trainer.history.validation_points
        ],
        "resilience": trainer.resilience_report.to_dict(),
        "state": state_skeleton,
    }
    arrays = _flatten_weights(trainer)
    overlap = set(arrays) & set(state_arrays)
    if overlap:
        raise RuntimeError(f"checkpoint key collision: {sorted(overlap)[:3]}")
    arrays.update(state_arrays)

    # The tmp name keeps the .npz suffix so numpy does not append another one.
    tmp = path.with_name(f"{path.stem}.tmp-{os.getpid()}.npz")
    try:
        np.savez_compressed(
            tmp,
            __header__=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
            **arrays,
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(trainer: Pretrainer, path: str | pathlib.Path) -> int:
    """Restore a trainer's state from ``path``; returns the restored iteration.

    The trainer must match the writer exactly — configuration label, pipeline
    depth, DP degree, parameter names/shapes, optimizer count — any mismatch
    raises instead of half-restoring.  After loading, continuing the run
    reproduces the continuous run bit-for-bit.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        version = header.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            detail = (
                " (v1 checkpoints omit error-feedback and RNG state and cannot resume bit-exactly)"
                if version == 1
                else ""
            )
            raise ValueError(
                f"unsupported checkpoint format {version!r} "
                f"(expected {CHECKPOINT_FORMAT_VERSION}){detail}"
            )
        live_config = trainer.plan.stack_label()
        if header.get("config") != live_config:
            raise ValueError(
                f"checkpoint was written by configuration {header.get('config')!r}, "
                f"but this trainer runs {live_config!r}"
            )
        topology = header.get("topology", {})
        live_topology = {
            "num_stages": trainer.num_stages,
            "data_parallel_degree": len(trainer.engine.arenas),
        }
        if topology != live_topology:
            raise ValueError(
                f"checkpoint topology {topology} does not match trainer {live_topology}"
            )

        expected = _flatten_weights(trainer)
        state_keys = {
            key for key in archive.files if key.startswith("state/")
        }
        stored_keys = set(archive.files) - {"__header__"} - state_keys
        if stored_keys != set(expected):
            missing = sorted(set(expected) - stored_keys)[:3]
            unexpected = sorted(stored_keys - set(expected))[:3]
            raise KeyError(
                f"checkpoint does not match the trainer (missing={missing}, unexpected={unexpected})"
            )
        stored = {key: archive[key] for key in expected}
        for key, target in expected.items():
            if stored[key].shape != target.shape:
                raise ValueError(f"shape mismatch for {key}: {stored[key].shape} vs {target.shape}")

        # The codec and optimizer loaders check their state only by loading
        # it, so undo them if they refuse the checkpoint; the weights are
        # written only once everything has been accepted.
        state = _unpack_tree(header["state"], archive)
        snapshot = trainer._rollback_snapshot()
        try:
            trainer.engine.load_mutable_state(state["engine"])
            optimizer_states = state["optimizers"]
            for optimizer, optimizer_state in zip(trainer.optimizers, optimizer_states, strict=True):
                optimizer.load_state_dict(optimizer_state)
            for optimizer, steps in zip(trainer.optimizers, header["optimizer_steps"], strict=True):
                if optimizer._step_count != int(steps):
                    raise ValueError(
                        f"inconsistent checkpoint: optimizer state says step {optimizer._step_count}, "
                        f"header says {steps}"
                    )
        except Exception:
            trainer._rollback(snapshot)
            raise
        for key, target in expected.items():
            target[...] = stored[key]

    trainer._iteration = int(header["iteration"])
    trainer.engine._iteration_index = trainer._iteration
    history = TrainingHistory()
    history.train_losses = [float(value) for value in header["train_losses"]]
    history.validation_points = [
        ValidationPoint(iteration=int(point["iteration"]), loss=float(point["loss"]))
        for point in header["validation_points"]
    ]
    trainer.history = history
    restored_report = ResilienceReport.from_dict(header.get("resilience", {}))
    report = trainer.resilience_report
    report.faults_injected = restored_report.faults_injected
    report.collective_retries = restored_report.collective_retries
    report.backoff_seconds = restored_report.backoff_seconds
    report.skipped_steps = restored_report.skipped_steps
    report.rollbacks = restored_report.rollbacks
    report.degraded = restored_report.degraded
    report.respawns = restored_report.respawns
    report.worker_events = restored_report.worker_events
    return trainer._iteration


# -- rotation -------------------------------------------------------------------------


def checkpoint_name(iteration: int) -> str:
    """Canonical rotating-checkpoint file name for ``iteration``."""
    return f"ckpt-{iteration:08d}.npz"


def save_rotating_checkpoint(
    trainer: Pretrainer, directory: str | pathlib.Path, keep_last: int = 3
) -> pathlib.Path:
    """Write ``ckpt-<iteration>.npz`` into ``directory``, keeping the last k."""
    if keep_last <= 0:
        raise ValueError("keep_last must be positive")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = save_checkpoint(trainer, directory / checkpoint_name(trainer._iteration))
    for stale in sorted(directory.glob("ckpt-*.npz"))[:-keep_last]:
        stale.unlink()
    return path


def latest_checkpoint(directory: str | pathlib.Path) -> pathlib.Path | None:
    """Newest rotating checkpoint in ``directory`` (``None`` when empty)."""
    candidates = sorted(pathlib.Path(directory).glob("ckpt-*.npz"))
    return candidates[-1] if candidates else None
