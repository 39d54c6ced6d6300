"""Index persistence: ``.npz`` archives for every index variant.

Indexes are expensive to build (suffix-array construction plus the
per-length RMQ tower) and cheap to *use*; a serving deployment wants to
build offline and load hot.  :func:`save_index_payload` writes an
index's :class:`~repro.payload.IndexPayload` (``index.to_payload()``) as
one **uncompressed** zip archive:

* every stored array — suffix array, LCP array, cumulative probability
  tables, per-length ``C_i`` / relevance arrays, link tables — as a
  ``.npy`` member keyed by its payload path, and
* a JSON **manifest** (format name and version, the index kind, the
  payload's schema tree with per-array crc32 checksums, and the plan)
  under the reserved ``__manifest__`` key.

There are no per-kind save/load special cases: any structure with
``to_payload`` / ``from_payload`` round-trips.  RMQ structures are stored
as their Fischer–Heun block positions (O(n / log n) words each); the
sparse table over the block optima is rebuilt on load in O(n/b · log n)
work.

:func:`load_index_payload` restores the index without re-running
construction.  Every array round-trips bit-exactly, so a loaded index
returns **byte-identical** query results to the one that was saved.
``mmap=True`` maps every stored member read-only straight out of the
archive file — zero copies, and any number of worker processes opening
the same archive share one set of physical pages through the OS page
cache (the space-conscious serving mode of Gabory et al.,
arXiv:2403.14256).  A compressed member (an archive re-zipped by another
tool) is read eagerly instead.

Format :data:`FORMAT_VERSION` is the only one written or read.  Anything
else — another file format, a newer version, or an archive of the retired
formats 1 and 2 — fails with :class:`~repro.exceptions.ValidationError`
instead of misinterpreting bytes; rebuild the index from its input to
save it again.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.approximate import ApproximateSubstringIndex
from ..core.general_index import GeneralUncertainStringIndex
from ..core.listing import UncertainStringListingIndex
from ..core.special_index import SpecialUncertainStringIndex
from ..exceptions import ValidationError
from ..faults import SITE_ARCHIVE_LOAD, fire
from ..payload import COMPACT_META_KEY, PAYLOAD_VERSION, IndexPayload, verify_manifest_checksums

FORMAT_NAME = "repro-index"
FORMAT_VERSION = 3

#: Reserved archive key holding the JSON manifest (UTF-8 bytes).
MANIFEST_KEY = "__manifest__"

#: Member-name suffix of every array in an archive.
_NPY = ".npy"

#: Sharded engines persist as a *directory*: one ordinary ``.npz`` archive
#: per shard plus this JSON manifest describing the partition, so every
#: shard stays individually loadable with :func:`load_index_payload`.
SHARDED_FORMAT_NAME = "repro-sharded-index"
SHARDED_FORMAT_VERSION = 1
SHARDED_MANIFEST_NAME = "manifest.json"

_KIND_BY_CLASS = {
    SpecialUncertainStringIndex: "special",
    GeneralUncertainStringIndex: "general",
    ApproximateSubstringIndex: "approximate",
    UncertainStringListingIndex: "listing",
}


def normalize_archive_path(path: Union[str, Path]) -> Path:
    """Resolve the archive path, appending ``.npz`` when no suffix is given."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


# ---------------------------------------------------------------------------
# IndexPayload currency: the archive layout and the registry the workers /
# parallel-construction paths use to rebuild indexes from payloads
# ---------------------------------------------------------------------------
_CLASS_BY_KIND = {kind: cls for cls, kind in _KIND_BY_CLASS.items()}

#: Schema prefix shared by every index payload (``index/<kind>``).
INDEX_SCHEMA_PREFIX = "index/"


def index_to_payload(index: Any) -> IndexPayload:
    """The validated :class:`~repro.payload.IndexPayload` describing ``index``."""
    kind = _KIND_BY_CLASS.get(type(index))
    if kind is None:
        raise ValidationError(
            f"cannot serialize a {type(index).__name__}; supported index "
            f"classes: {sorted(cls.__name__ for cls in _KIND_BY_CLASS)}"
        )
    payload = index.recorded_payload().validate()
    expected = INDEX_SCHEMA_PREFIX + kind
    if payload.schema != expected:
        raise ValidationError(
            f"{type(index).__name__}.to_payload() returned schema "
            f"{payload.schema!r}, expected {expected!r}"
        )
    return payload


def payload_kind(payload: IndexPayload) -> str:
    """The index kind an ``index/<kind>`` payload describes."""
    if not payload.schema.startswith(INDEX_SCHEMA_PREFIX):
        raise ValidationError(
            f"{payload.schema!r} is not an index payload schema "
            f"(expected an {INDEX_SCHEMA_PREFIX}<kind> schema)"
        )
    kind = payload.schema[len(INDEX_SCHEMA_PREFIX):]
    if kind not in _CLASS_BY_KIND:
        raise ValidationError(f"unknown index payload kind {kind!r}")
    return kind


def index_from_payload(payload: IndexPayload) -> Any:
    """Rebuild an index from its payload (inverse of :func:`index_to_payload`).

    Bit-packed boolean arrays (see :meth:`IndexPayload.compact`) are
    expanded here — the one boundary between the compact storage currency
    and the query-time index classes; narrowed integer arrays stay narrow
    and the index kernels widen lazily where arithmetic demands it.  The
    index keeps the narrowed arrays' dtype records
    (:meth:`~repro.core.base.PayloadSerializable.recorded_payload`).
    """
    expanded = payload.expand()
    index = _CLASS_BY_KIND[payload_kind(payload)].from_payload(expanded)
    records = {
        path: node.meta[COMPACT_META_KEY]
        for path, node in expanded.walk()
        if COMPACT_META_KEY in node.meta
    }
    if records:
        index._compact_records = records
    return index


# ---------------------------------------------------------------------------
# Archive assembly
# ---------------------------------------------------------------------------
def _plan_manifest(plan: Any) -> Dict[str, Any]:
    return {
        "kind": plan.kind,
        "tau_min": plan.tau_min,
        "reason": plan.reason,
        "profile": dict(plan.profile),
    }


#: Timestamp stamped on every archive member: the zip epoch, so saving the
#: same index twice writes the same bytes (the reader never reads it).
_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def _write_npy_member(archive: zipfile.ZipFile, key: str, array: np.ndarray) -> None:
    """Write one array as the ``{key}.npy`` member of an open zip archive."""
    buffer = io.BytesIO()
    np.lib.format.write_array(
        buffer, np.ascontiguousarray(array), allow_pickle=False
    )
    info = zipfile.ZipInfo(f"{key}.npy", date_time=_MEMBER_DATE_TIME)
    info.compress_type = zipfile.ZIP_STORED
    info.external_attr = 0o600 << 16
    archive.writestr(info, buffer.getvalue())


def save_index_payload(
    index: Any,
    plan: Optional[Any],
    path: Union[str, Path],
    *,
    compact: bool = False,
) -> Path:
    """Write ``index`` (and optionally its plan) to an ``.npz`` archive.

    The archive holds the index's :class:`~repro.payload.IndexPayload` —
    stored arrays as ``.npy`` zip members keyed by payload path, the
    schema tree in the JSON manifest — as an uncompressed zip, so it is
    memory-mappable.

    ``compact=True`` writes the dtype-minimized payload
    (:meth:`~repro.payload.IndexPayload.compact`): narrowed integers and
    bit-packed booleans on disk, with the logical dtypes recorded in the
    manifest so the inspector and loaders know what was transformed.
    Loading restores byte-identical answers — the kernels accept narrow
    integer arrays directly and booleans are re-expanded at the single
    consumption boundary.
    """
    path = normalize_archive_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = index_to_payload(index)
    if compact:
        payload = payload.compact()
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": payload_kind(payload),
        "payload_version": PAYLOAD_VERSION,
        "payload": payload.manifest(),
    }
    if plan is not None:
        manifest["plan"] = _plan_manifest(plan)
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        _write_npy_member(
            archive, MANIFEST_KEY, np.frombuffer(manifest_bytes, dtype=np.uint8)
        )
        for key, array in payload.flatten().items():
            _write_npy_member(archive, key, array)
    return path


def _manifest_int(
    path: Path, manifest: Dict[str, Any], key: str, default: Optional[int] = None
) -> int:
    """The integer ``manifest[key]``; anything else raises ``ValidationError``."""
    value = manifest.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{path} has a non-integer {key!r} in its manifest: {value!r}")
    return value


def _extract_manifest(arrays: Dict[str, np.ndarray], path: Path) -> Dict[str, Any]:
    """Decode and validate the manifest member of an archive.

    The one gate in front of every archive read (:func:`load_index_payload`,
    :func:`read_manifest` and the inspector): anything but a format-3
    manifest of this package raises :class:`ValidationError`.
    """
    if MANIFEST_KEY not in arrays:
        raise ValidationError(f"{path} is not a repro index archive (no manifest)")
    try:
        manifest = json.loads(arrays[MANIFEST_KEY].tobytes().decode("utf-8"))
    except (TypeError, ValueError) as error:
        raise ValidationError(f"{path} has an unreadable manifest: {error}") from error
    if not isinstance(manifest, dict):
        raise ValidationError(f"{path} has a manifest that is not a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise ValidationError(
            f"{path} has format {manifest.get('format')!r}, expected {FORMAT_NAME!r}"
        )
    version = _manifest_int(path, manifest, "version")
    if version < FORMAT_VERSION:
        raise ValidationError(
            f"{path} uses retired archive format version {version}; only version "
            f"{FORMAT_VERSION} is readable — rebuild the index from its input and "
            "save it again"
        )
    if version > FORMAT_VERSION:
        raise ValidationError(
            f"{path} was written by a newer format version "
            f"({version} > {FORMAT_VERSION}); upgrade the package"
        )
    payload_version = _manifest_int(path, manifest, "payload_version", PAYLOAD_VERSION)
    if payload_version > PAYLOAD_VERSION:
        raise ValidationError(
            f"{path} carries a newer payload schema version "
            f"({payload_version} > {PAYLOAD_VERSION}); upgrade the package"
        )
    if not isinstance(manifest.get("payload"), dict):
        raise ValidationError(f"{path} has no payload schema tree in its manifest")
    return manifest


# ---------------------------------------------------------------------------
# Archive reading: one zip pass, memory-mapping stored members on request
# ---------------------------------------------------------------------------
def _mmap_member(path: Path, info: zipfile.ZipInfo) -> np.ndarray:
    """Map one *stored* ``.npy`` zip member read-only, without copying.

    A ``ZIP_STORED`` member's bytes sit verbatim inside the archive file:
    skip the member's local zip header, parse the ``.npy`` header, and
    hand the remaining byte range to :class:`numpy.memmap`.  The pages
    backing the returned array live in the OS page cache and are shared by
    every process that maps the same archive.  The array is a plain
    ``ndarray`` view whose ``base`` is the map, so the kernels index it
    without np.memmap's per-call subclass hooks.
    """
    with path.open("rb") as handle:
        handle.seek(info.header_offset)
        local_header = handle.read(30)
        if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
            raise ValidationError(
                f"{path} has a corrupt local header for member {info.filename!r}"
            )
        name_length = int.from_bytes(local_header[26:28], "little")
        extra_length = int.from_bytes(local_header[28:30], "little")
        handle.seek(info.header_offset + 30 + name_length + extra_length)
        npy_version = np.lib.format.read_magic(handle)
        if npy_version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
        elif npy_version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise ValidationError(
                f"{path} member {info.filename!r} uses unsupported npy "
                f"format version {npy_version}"
            )
        if dtype.hasobject:
            raise ValidationError(
                f"{path} member {info.filename!r} contains Python objects; "
                "refusing to load"
            )
        data_offset = handle.tell()
    if int(np.prod(shape)) == 0:
        # mmap cannot map zero bytes; an empty array has nothing to share.
        return np.empty(shape, dtype=dtype)
    return np.asarray(
        np.memmap(
            path,
            dtype=dtype,
            mode="r",
            offset=data_offset,
            shape=shape,
            order="F" if fortran_order else "C",
        )
    )


def _read_archive(
    path: Path, *, mmap: bool, manifest_only: bool = False
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The validated manifest and the arrays of an index archive.

    One pass over the zip members: with ``mmap=True`` a stored member
    comes back as a read-only view of a :class:`numpy.memmap` of the
    archive file (:func:`_mmap_member`); every other member is read onto
    the heap.  ``manifest_only``
    skips every array member.  A file that is not a zip of ``.npy``
    members raises :class:`ValidationError`, as does a manifest
    :func:`_extract_manifest` rejects.
    """
    arrays: Dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                if not info.filename.endswith(_NPY):
                    continue
                key = info.filename[: -len(_NPY)]
                if manifest_only and key != MANIFEST_KEY:
                    continue
                if mmap and info.compress_type == zipfile.ZIP_STORED:
                    arrays[key] = _mmap_member(path, info)
                else:
                    with archive.open(info) as member:
                        arrays[key] = np.lib.format.read_array(member, allow_pickle=False)
    except ValidationError:
        raise
    except (zipfile.BadZipFile, ValueError) as error:
        raise ValidationError(f"{path} is not a repro index archive: {error}") from error
    manifest = _extract_manifest(arrays, path)
    del arrays[MANIFEST_KEY]
    return manifest, arrays


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate the JSON manifest of a saved index archive."""
    path = normalize_archive_path(path)
    return _read_archive(path, mmap=False, manifest_only=True)[0]


# ---------------------------------------------------------------------------
# Sharded archives (directory of per-shard .npz files + a JSON manifest)
# ---------------------------------------------------------------------------
def is_sharded_archive(path: Union[str, Path]) -> bool:
    """Whether ``path`` is a sharded-engine directory (has a shard manifest)."""
    path = Path(path)
    return path.is_dir() and (path / SHARDED_MANIFEST_NAME).is_file()


def save_sharded_payload(
    shard_engines: List[Any],
    spec: Any,
    plan: Any,
    path: Union[str, Path],
) -> Path:
    """Write a sharded engine to a directory of shard archives + manifest.

    Each shard is saved through :func:`save_index_payload` (the archives
    are ordinary single-engine archives — a shard can be loaded standalone
    for debugging); the manifest records the partition
    (:class:`~repro.api.planner.ShardSpec`) and the overall plan so
    :func:`load_sharded_payload` restores an engine with globally correct
    positions.
    """
    path = Path(path)
    if path.suffix == ".npz":
        raise ValidationError(
            f"a sharded engine saves to a directory, not an .npz file: {path}"
        )
    path.mkdir(parents=True, exist_ok=True)
    # Re-saving over an old archive with fewer shards must not leave stale
    # shard files behind: the manifest would ignore them, but the
    # standalone-shard debugging flow (load_index on one .npz) would
    # silently read data from a different index.
    for stale in path.glob("shard-*.npz"):
        stale.unlink()
    shard_files: List[str] = []
    for ordinal, engine in enumerate(shard_engines):
        name = f"shard-{ordinal:04d}.npz"
        save_index_payload(engine.index, engine.plan, path / name)
        shard_files.append(name)
    manifest = {
        "format": SHARDED_FORMAT_NAME,
        "version": SHARDED_FORMAT_VERSION,
        "archive_version": FORMAT_VERSION,
        "kind": plan.kind,
        "spec": {
            "mode": spec.mode,
            "shard_count": spec.shard_count,
            "offsets": list(spec.offsets),
            "owned_ends": list(spec.owned_ends),
            "overlap": spec.overlap,
            "max_pattern_len": spec.max_pattern_len,
        },
        "plan": _plan_manifest(plan),
        "shards": shard_files,
    }
    (path / SHARDED_MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8"
    )
    return path


def read_sharded_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate the JSON manifest of a sharded-engine directory."""
    path = Path(path)
    manifest_path = path / SHARDED_MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValidationError(f"{path} is not a sharded index archive (no manifest)")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format") != SHARDED_FORMAT_NAME:
        raise ValidationError(
            f"{path} has format {manifest.get('format')!r}, "
            f"expected {SHARDED_FORMAT_NAME!r}"
        )
    if int(manifest.get("version", -1)) > SHARDED_FORMAT_VERSION:
        raise ValidationError(
            f"{path} was written by a newer sharded format version "
            f"({manifest.get('version')} > {SHARDED_FORMAT_VERSION}); "
            "upgrade the package"
        )
    return manifest


@dataclass
class ShardedArchive:
    """Named result of :func:`load_sharded_payload`.

    Attributes
    ----------
    payloads:
        ``(index, plan)`` per shard, in shard order.
    spec:
        The :class:`~repro.api.planner.ShardSpec` describing the partition.
    plan:
        The ensemble-level :class:`~repro.api.planner.IndexPlan`.
    shard_paths:
        Each shard's archive file in shard order — the engine hands them
        to ``query_executor="process"`` workers so each worker re-opens
        its own shard instead of receiving a pickled index.
    """

    payloads: List[Tuple[Any, Any]]
    spec: Any
    plan: Any
    shard_paths: List[Path]


def load_sharded_payload(
    path: Union[str, Path], *, mmap: bool = False
) -> ShardedArchive:
    """Restore a sharded archive as a :class:`ShardedArchive`.

    ``mmap=True`` opens every shard archive
    memory-mapped (see :func:`load_index_payload`) — the mode the process
    workers use so every process's view of a shard shares the same
    physical pages.
    """
    from .planner import IndexPlan, ShardSpec

    path = Path(path)
    manifest = read_sharded_manifest(path)
    shard_paths = [path / name for name in manifest["shards"]]
    payloads = [
        load_index_payload(shard_path, mmap=mmap) for shard_path in shard_paths
    ]
    saved_spec = manifest["spec"]
    spec = ShardSpec(
        mode=saved_spec["mode"],
        shard_count=int(saved_spec["shard_count"]),
        offsets=tuple(int(v) for v in saved_spec["offsets"]),
        owned_ends=tuple(int(v) for v in saved_spec["owned_ends"]),
        overlap=int(saved_spec["overlap"]),
        max_pattern_len=(
            None
            if saved_spec["max_pattern_len"] is None
            else int(saved_spec["max_pattern_len"])
        ),
    )
    saved_plan = manifest.get("plan") or {}
    plan = IndexPlan(
        kind=manifest["kind"],
        tau_min=float(saved_plan.get("tau_min", 0.0)),
        reason=saved_plan.get("reason", "") + f" [loaded from {path.name}/]",
        options={},
        profile=dict(saved_plan.get("profile", {})),
    )
    return ShardedArchive(
        payloads=payloads, spec=spec, plan=plan, shard_paths=shard_paths
    )


def load_index_payload(
    path: Union[str, Path], *, mmap: bool = False, verify: Optional[bool] = None
) -> Tuple[Any, Any]:
    """Restore a saved index; returns ``(index, plan)``.

    With ``mmap=True`` the heavy arrays are opened as read-only memory
    maps into the archive file instead of copied onto the heap: cold start
    does no array materialization at all, and concurrent worker processes
    mapping the same archive share one physical copy of the data through
    the OS page cache.  Compressed members degrade to an eager read, so
    the flag is safe on any valid archive.

    ``verify`` controls per-array crc32 checking against the checksums the
    manifest records (see :func:`repro.payload.array_checksum`); a corrupt
    member raises :class:`~repro.exceptions.ValidationError`.  The default
    verifies eager loads and skips memory-mapped ones — checksumming would
    fault in every page and defeat the zero-copy cold start — but
    ``verify=True`` forces the check even under ``mmap``.

    The plan is rebuilt from the manifest (kind, reason, profile) so a
    loaded engine still explains itself; the reason notes the archive it
    came from.
    """
    from .planner import IndexPlan

    # Fault-injection site: fires for every archive open — in the parent
    # and, under the fork start method, inside shard worker processes that
    # inherited an installed plan (see repro.faults).
    fire(SITE_ARCHIVE_LOAD)
    path = normalize_archive_path(path)
    manifest, arrays = _read_archive(path, mmap=mmap)
    # The archive *is* the payload schema: reassemble the payload from the
    # manifest's schema tree and the (possibly memory-mapped) arrays, then
    # let the index rebuild itself.
    if verify or (verify is None and not mmap):
        verify_manifest_checksums(manifest["payload"], arrays)
    payload = IndexPayload.from_manifest(manifest["payload"], arrays)
    index = index_from_payload(payload)

    saved_plan = manifest.get("plan") or {}
    source_note = f" [loaded from {path.name}, mmap]" if mmap else f" [loaded from {path.name}]"
    plan = IndexPlan(
        kind=payload_kind(payload),
        tau_min=float(saved_plan.get("tau_min", getattr(index, "tau_min", 0.0))),
        reason=saved_plan.get("reason", "") + source_note,
        options={},
        profile=dict(saved_plan.get("profile", {})),
    )
    return index, plan
