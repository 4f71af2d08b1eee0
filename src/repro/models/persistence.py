"""Persisting fitted workload models (network + scalers) as one document.

`repro.nn.serialization` stores a bare network; a *workload model* is more —
the Section 3.1 scalers are part of the learned artifact (a network without
its standardization statistics predicts garbage).  This module serializes a
fitted :class:`~repro.models.neural.NeuralWorkloadModel` completely, so a
characterized workload can be handed to another engineer (or a CI job) as a
single JSON file and queried without retraining.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from ..durability.integrity import (
    atomic_write_bytes,
    sha256_bytes,
    write_checksum,
)
from ..nn.serialization import from_dict as network_from_dict
from ..nn.serialization import to_dict as network_to_dict
from ..preprocessing.scalers import IdentityScaler, Scaler, StandardScaler
from .neural import NeuralWorkloadModel

__all__ = [
    "MODEL_FORMAT_VERSION",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "load_model_document",
    "model_document_from_bytes",
    "decode_model",
]

MODEL_FORMAT_VERSION = 1


def _scaler_to_dict(scaler: Scaler) -> dict:
    if isinstance(scaler, StandardScaler):
        return {
            "kind": "standard",
            "mean": scaler.mean_.tolist(),
            "scale": scaler.scale_.tolist(),
        }
    if isinstance(scaler, IdentityScaler):
        return {"kind": "identity", "n_features": scaler._n_features}
    raise TypeError(
        f"cannot serialize scaler of type {type(scaler).__name__}"
    )


def _scaler_from_dict(payload: dict) -> Scaler:
    kind = payload.get("kind")
    if kind == "standard":
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(payload["mean"], dtype=float)
        scaler.scale_ = np.asarray(payload["scale"], dtype=float)
        return scaler
    if kind == "identity":
        scaler = IdentityScaler()
        scaler._n_features = int(payload["n_features"])
        return scaler
    raise ValueError(f"unknown scaler kind {kind!r}")


def model_to_dict(model: NeuralWorkloadModel) -> dict:
    """Serialize a fitted model (hyper-parameters, scalers, networks)."""
    if not model.is_fitted:
        raise ValueError("only fitted models can be serialized")
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "neural_workload_model",
        "hyper": {
            "hidden": list(model.hidden),
            "error_threshold": model.error_threshold,
            "max_epochs": model.max_epochs,
            "joint": model.joint,
            "standardize_inputs": model.standardize_inputs,
            "standardize_outputs": model.standardize_outputs,
            "learning_rate": model.learning_rate,
            "hidden_activation": model.hidden_activation,
            "l2": model.l2,
            "seed": model.seed,
        },
        "x_scaler": _scaler_to_dict(model.x_scaler_),
        "y_scaler": _scaler_to_dict(model.y_scaler_),
        "networks": [network_to_dict(net) for net in model.networks_],
    }


def model_from_dict(payload: dict) -> NeuralWorkloadModel:
    """Inverse of :func:`model_to_dict`; returns a ready-to-predict model."""
    if not isinstance(payload, dict):
        raise TypeError(f"expected dict, got {type(payload).__name__}")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {payload.get('format_version')!r}"
        )
    if payload.get("kind") != "neural_workload_model":
        raise ValueError(f"unsupported kind {payload.get('kind')!r}")
    hyper = payload["hyper"]
    model = NeuralWorkloadModel(
        hidden=tuple(hyper["hidden"]),
        error_threshold=hyper["error_threshold"],
        max_epochs=hyper["max_epochs"],
        joint=hyper["joint"],
        standardize_inputs=hyper["standardize_inputs"],
        standardize_outputs=hyper["standardize_outputs"],
        learning_rate=hyper["learning_rate"],
        hidden_activation=hyper["hidden_activation"],
        l2=hyper["l2"],
        seed=hyper["seed"],
    )
    model.x_scaler_ = _scaler_from_dict(payload["x_scaler"])
    model.y_scaler_ = _scaler_from_dict(payload["y_scaler"])
    model.networks_ = [network_from_dict(n) for n in payload["networks"]]
    model._n_inputs = model.networks_[0].n_inputs
    if model.joint:
        model._n_outputs = model.networks_[0].n_outputs
    else:
        model._n_outputs = len(model.networks_)
    return model


def save_model(
    model: NeuralWorkloadModel, path: Union[str, Path]
) -> Path:
    """Write the fitted model to ``path`` as JSON, atomically.

    The document lands in a dot-prefixed temporary file in the target
    directory and is ``os.replace``\\ d over ``path``, so a concurrent
    reader — in particular the mtime-polling
    :class:`~repro.serving.registry.ModelRegistry` — sees either the old
    artifact or the complete new one, never a truncated JSON file.

    The document's sha256 is recorded in a ``<path>.sha256`` sidecar
    (written *after* the replace), giving downstream verifiers —
    :func:`repro.durability.integrity.verify_file`, the store manifest,
    the registry's :class:`~repro.durability.integrity.IntegrityGuard` —
    a recorded identity to check the bytes against.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(model_to_dict(model)).encode("utf-8")
    atomic_write_bytes(path, payload)
    write_checksum(path, sha256_bytes(payload))
    return path


def model_document_from_bytes(
    data: bytes, path: Union[str, Path] = "<bytes>"
) -> dict:
    """Parse already-read artifact bytes into the raw document ``dict``.

    The JSON half of :func:`decode_model` and :func:`load_model_document`.
    ``path`` only names the source in error messages.
    """
    try:
        payload = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(
            f"model file {path} is not valid JSON (truncated or corrupt): "
            f"{exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"model file {path} holds a JSON {type(payload).__name__}, "
            "expected an object"
        )
    return payload


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read model file {path}: {exc}") from exc


def load_model_document(path: Union[str, Path]) -> dict:
    """Read and parse a model file into its raw document ``dict``.

    It validates only that the file holds *some* JSON object, without
    committing to a format version.  All failure modes raise
    :class:`ValueError` naming the offending file.
    """
    path = Path(path)
    return model_document_from_bytes(_read(path), path)


def decode_model(
    data: bytes, path: Union[str, Path] = "<bytes>"
) -> Tuple[dict, NeuralWorkloadModel]:
    """Artifact bytes -> ``(document, model)``, the one artifact decoder.

    :func:`load_model` and :class:`~repro.serving.registry.ModelRegistry`
    both decode through here.  Every malformed document raises
    :class:`ValueError` naming ``path``: invalid JSON, a wrong format
    version, a missing field, a field of the wrong type or shape, and a
    model that parses but cannot answer.  The last is caught by one probe:
    the model must predict an all-zero row as a finite row of its own
    output width, so a scaler of the wrong width or a non-finite weight
    fails at load rather than at the first request.
    """
    payload = model_document_from_bytes(data, path)
    try:
        model = model_from_dict(payload)
        with np.errstate(all="ignore"):
            probe = model.predict(np.zeros((1, model._n_inputs)))
    except KeyError as exc:
        raise ValueError(
            f"model file {path} is missing required field {exc}"
        ) from exc
    except (LookupError, TypeError, AttributeError, ValueError,
            ArithmeticError) as exc:
        # What a mistyped or misshapen field raises from deep inside
        # the constructors and the forward pass.
        raise ValueError(f"cannot load model file {path}: {exc}") from exc
    if probe.shape != (1, model._n_outputs) or not np.isfinite(probe).all():
        raise ValueError(
            f"cannot load model file {path}: it answers an all-zero probe "
            f"row with {probe.tolist()}, not {model._n_outputs} finite values"
        )
    return payload, model


def load_model(path: Union[str, Path]) -> NeuralWorkloadModel:
    """Read a model written by :func:`save_model`.

    Any malformed artifact raises :class:`ValueError` naming the file (see
    :func:`decode_model`).
    """
    path = Path(path)
    return decode_model(_read(path), path)[1]
