"""Checkpoint/restore for pricer state and simulation results.

This module is the persistence layer behind within-cell horizon sharding
(:func:`repro.engine.runner.run_batch_chunked`, the run-matrix
``shard_rounds`` mode) and resume-after-crash for long sweeps
(``RunMatrix.run(checkpoint_dir=...)``).

Two artifact kinds are supported, both stored as a single ``.npz`` file with a
JSON header — **no pickling**, so checkpoints are inspectable, portable, and
safe to load:

* **pricer checkpoints** — a versioned snapshot of one pricer's mutable state
  (:meth:`~repro.core.base.PostedPriceMechanism.state_dict`: knowledge-set
  arrays, learner state, bookkeeping counters, round index, RNG position)
  plus the number of horizon rounds already executed and arbitrary metadata
  (which may itself contain arrays, e.g. partial transcript columns);
* **result files** — the transcript columns of one completed simulation cell,
  used by the run matrix to skip already-finished cells when a sweep is
  re-launched after a crash.

Serialisation walks the state mapping: ``numpy.ndarray`` leaves become npz
entries referenced from the JSON header by index; scalars, strings, booleans,
``None``, lists, and nested dicts are stored in the header directly.  The
header carries a magic string and a format version so future layout changes
can stay backward-compatible.

Exactness contract: arrays are stored losslessly (``float64``/``bool``
verbatim), so a ``state_dict → serialize → deserialize → load_state``
round-trip is bit-identical — this is what makes chunked execution
transcript-identical to uninterrupted runs (see ``docs/architecture.md``).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.engine.results import SimulationResult
from repro.engine.transcript import Transcript

#: Magic string identifying repro checkpoint artifacts.
MAGIC = "repro-checkpoint"

#: Current on-disk format version.  Bump on layout changes; ``load_*`` rejects
#: versions it does not understand instead of mis-reading them.
FORMAT_VERSION = 1

_PRICER_KIND = "pricer-state"
_RESULT_KIND = "simulation-result"

#: Transcript columns persisted by result files, in a fixed order.
_TRANSCRIPT_COLUMNS = (
    "link_values",
    "market_values",
    "reserve_values",
    "link_prices",
    "posted_prices",
    "sold",
    "skipped",
    "exploratory",
    "regrets",
    "latency_seconds",
)


class CheckpointError(RuntimeError):
    """A checkpoint artifact is missing, malformed, or incompatible."""


@dataclass
class PricerCheckpoint:
    """An in-memory pricer checkpoint (what the files round-trip)."""

    pricer_type: str
    rounds_done: int
    state: dict
    meta: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION


# --------------------------------------------------------------------------- #
# State (nested dict with ndarray leaves) <-> JSON header + npz arrays
# --------------------------------------------------------------------------- #


def _encode(value, arrays: list):
    """Replace ndarray leaves with ``{"__ndarray__": index}`` placeholders."""
    if isinstance(value, np.ndarray):
        arrays.append(value)
        return {"__ndarray__": len(arrays) - 1}
    if isinstance(value, dict):
        if "__ndarray__" in value:
            raise CheckpointError("state dicts must not use the reserved key '__ndarray__'")
        return {str(key): _encode(item, arrays) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item, arrays) for item in value]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CheckpointError(
        "state value of type %s is not checkpointable (use arrays, scalars, "
        "strings, lists, or dicts)" % type(value).__name__
    )


def _decode(value, arrays):
    if isinstance(value, dict):
        if set(value.keys()) == {"__ndarray__"}:
            return arrays[int(value["__ndarray__"])]
        return {key: _decode(item, arrays) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item, arrays) for item in value]
    return value


def _pack(header: dict, arrays: list) -> bytes:
    buffer = io.BytesIO()
    payload = {"__header__": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    for index, array in enumerate(arrays):
        payload["array_%d" % index] = np.asarray(array)
    np.savez_compressed(buffer, **payload)
    return buffer.getvalue()


def _unpack(data: bytes):
    try:
        archive = np.load(io.BytesIO(data), allow_pickle=False)
    except Exception as exc:
        raise CheckpointError("not a repro checkpoint archive: %s" % exc) from exc
    with archive:
        if "__header__" not in archive.files:
            raise CheckpointError("checkpoint archive has no header")
        header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        if header.get("magic") != MAGIC:
            raise CheckpointError("bad checkpoint magic %r" % header.get("magic"))
        version = int(header.get("version", -1))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                "unsupported checkpoint format version %d (this build reads %d)"
                % (version, FORMAT_VERSION)
            )
        count = int(header.get("array_count", 0))
        arrays = [archive["array_%d" % index] for index in range(count)]
    return header, arrays


def flatten_state(state: dict):
    """Split a state mapping into ``(skeleton, arrays)``.

    The *skeleton* is the JSON-safe nested structure with every
    ``numpy.ndarray`` leaf replaced by an index placeholder; *arrays* is the
    leaf list in deterministic traversal order.  For a given pricer family
    the ``(dtype, shape)`` sequence of the leaves is fixed — this is the
    per-family array manifest of every persisted session, so the session
    store's snapshot segments (:mod:`repro.serving.store`) and ``.npz``
    checkpoints share one flattening.
    """
    arrays: list = []
    return _encode(state, arrays), arrays


def unflatten_state(skeleton, arrays) -> dict:
    """Inverse of :func:`flatten_state` (bit-identical array round-trip)."""
    return _decode(skeleton, list(arrays))


def serialize_state(state: dict) -> bytes:
    """Serialise a :meth:`state_dict` mapping to self-contained bytes."""
    arrays: list = []
    encoded = _encode(state, arrays)
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "kind": "state",
        "array_count": len(arrays),
        "state": encoded,
    }
    return _pack(header, arrays)


def deserialize_state(data: bytes) -> dict:
    """Inverse of :func:`serialize_state` (bit-identical array round-trip)."""
    header, arrays = _unpack(data)
    return _decode(header["state"], arrays)


# --------------------------------------------------------------------------- #
# Pricer checkpoints
# --------------------------------------------------------------------------- #


def snapshot_pricer(pricer, rounds_done: int, meta: Optional[dict] = None) -> PricerCheckpoint:
    """Snapshot a pricer after ``rounds_done`` horizon rounds."""
    if rounds_done < 0:
        raise ValueError("rounds_done must be non-negative, got %d" % rounds_done)
    return PricerCheckpoint(
        pricer_type=type(pricer).__name__,
        rounds_done=int(rounds_done),
        state=pricer.state_dict(),
        meta=dict(meta or {}),
    )


def checkpoint_to_bytes(checkpoint: PricerCheckpoint) -> bytes:
    """Serialise a :class:`PricerCheckpoint` (meta may contain arrays too)."""
    arrays: list = []
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "kind": _PRICER_KIND,
        "pricer_type": checkpoint.pricer_type,
        "rounds_done": int(checkpoint.rounds_done),
        "state": _encode(checkpoint.state, arrays),
        "meta": _encode(checkpoint.meta, arrays),
        "array_count": 0,  # patched below once arrays are final
    }
    header["array_count"] = len(arrays)
    return _pack(header, arrays)


def checkpoint_from_bytes(data: bytes) -> PricerCheckpoint:
    header, arrays = _unpack(data)
    if header.get("kind") != _PRICER_KIND:
        raise CheckpointError("expected a pricer checkpoint, found kind %r" % header.get("kind"))
    return PricerCheckpoint(
        pricer_type=str(header["pricer_type"]),
        rounds_done=int(header["rounds_done"]),
        state=_decode(header["state"], arrays),
        meta=_decode(header["meta"], arrays),
        version=int(header["version"]),
    )


def save_checkpoint(path: str, pricer, rounds_done: int, meta: Optional[dict] = None) -> str:
    """Snapshot ``pricer`` and write it to ``path`` atomically.

    The file is written to a temporary sibling and renamed into place, so a
    crash mid-write never leaves a truncated checkpoint behind.
    """
    data = checkpoint_to_bytes(snapshot_pricer(pricer, rounds_done, meta))
    _atomic_write(path, data)
    return path


def save_state_checkpoint(
    path: str, pricer_type: str, rounds_done: int, state: dict, meta: Optional[dict] = None
) -> str:
    """Write a pricer checkpoint from an already-extracted state mapping.

    The run-matrix sharded executor holds serialised pricer state in the
    parent (workers return it over the pool pipe) without ever holding the
    pricer itself; this entry point lets it persist mid-cell progress in the
    exact on-disk format :func:`save_checkpoint` produces, so the file is
    interchangeable with one written by ``run_batch_chunked`` — either side
    can resume the other's interrupted cell.
    """
    if rounds_done < 0:
        raise ValueError("rounds_done must be non-negative, got %d" % rounds_done)
    checkpoint = PricerCheckpoint(
        pricer_type=str(pricer_type),
        rounds_done=int(rounds_done),
        state=state,
        meta=dict(meta or {}),
    )
    _atomic_write(path, checkpoint_to_bytes(checkpoint))
    return path


def load_checkpoint(path: str) -> PricerCheckpoint:
    """Read a pricer checkpoint written by :func:`save_checkpoint`."""
    with open(path, "rb") as handle:
        return checkpoint_from_bytes(handle.read())


def restore_pricer(pricer, checkpoint: PricerCheckpoint):
    """Load ``checkpoint`` into a freshly constructed, same-type pricer."""
    if type(pricer).__name__ != checkpoint.pricer_type:
        raise CheckpointError(
            "checkpoint was taken from %r, cannot restore into %r"
            % (checkpoint.pricer_type, type(pricer).__name__)
        )
    pricer.load_state(checkpoint.state)
    return pricer


def roundtrip_state(pricer) -> None:
    """Push the pricer's state through serialise → deserialise → load.

    Used at every chunk boundary of the chunked runner: the continuation
    always resumes from the *serialised* snapshot, so any state the snapshot
    missed shows up immediately as a transcript divergence in the equivalence
    tests rather than lurking until a real crash-resume.
    """
    pricer.load_state(deserialize_state(serialize_state(pricer.state_dict())))


# --------------------------------------------------------------------------- #
# Simulation results (run-matrix resume-after-crash)
# --------------------------------------------------------------------------- #


def save_result(path: str, result: SimulationResult) -> str:
    """Persist one cell's transcript-backed result (atomic write).

    Latency tracker samples are persisted via the transcript's
    ``latency_seconds`` column; the in-memory tracker object is rebuilt from
    it on load when any sample is non-zero.
    """
    arrays: list = []
    columns = {
        name: _encode(getattr(result.transcript, name), arrays)
        for name in _TRANSCRIPT_COLUMNS
    }
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "kind": _RESULT_KIND,
        "pricer_name": result.pricer_name,
        "rounds": int(result.rounds),
        "latency_count": int(result.latency.count),
        "columns": columns,
        "array_count": len(arrays),
    }
    _atomic_write(path, _pack(header, arrays))
    return path


def load_result(path: str) -> SimulationResult:
    """Read a result file written by :func:`save_result`."""
    with open(path, "rb") as handle:
        header, arrays = _unpack(handle.read())
    if header.get("kind") != _RESULT_KIND:
        raise CheckpointError("expected a result file, found kind %r" % header.get("kind"))
    rounds = int(header["rounds"])
    transcript = Transcript(rounds)
    columns = {name: _decode(value, arrays) for name, value in header["columns"].items()}
    for name in _TRANSCRIPT_COLUMNS:
        column = columns.get(name)
        if column is None or column.shape[0] != rounds:
            raise CheckpointError("result file column %r is missing or mis-sized" % name)
        getattr(transcript, name)[:] = column
    result = SimulationResult(pricer_name=str(header["pricer_name"]), transcript=transcript)
    if int(header.get("latency_count", 0)) > 0:
        for value in transcript.latency_seconds:
            result.latency.record(float(value))
    return result


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
