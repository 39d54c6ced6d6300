"""The canonical array-schema currency of the package: :class:`IndexPayload`.

Every index in :mod:`repro.core` — and every RMQ structure in
:mod:`repro.suffix.rmq` — is, at rest, a collection of flat numpy arrays
plus a handful of JSON-safe scalars.  An :class:`IndexPayload` makes that
fact a first-class object: a versioned, schema-named mapping of named
ndarrays and scalar metadata, with nested child payloads for component
structures (per-length RMQs, the maximal-factor transformation).

Everything that moves an index across a boundary speaks payload:

* ``to_payload()`` / ``from_payload()`` on the five index kinds and both
  RMQ implementations define *in one place* what each structure is made of;
* a :mod:`repro.api.persistence` archive is exactly the payload schema
  written as an uncompressed (memory-mappable) zip of ``.npy`` members;
* :mod:`repro.api.workers` ships payloads — not pickled index objects —
  to initialize process workers, and the parallel shard *construction*
  path returns ``(payload, plan)`` pairs from its worker processes;
* ``nbytes()`` / ``space_report()`` on the indexes are derived from the
  payload schema instead of being hand-maintained per kind.

Arrays come in two flavours.  **Stored** arrays (``arrays``) are the
persisted truth — they are written to archives and shipped across process
boundaries.  **Derived** arrays (``derived``) are runtime-only
acceleration structures that ``from_payload`` rebuilds cheaply (e.g. the
block-summary sparse table of a restored RMQ); they count toward the
in-memory footprint but are never serialized — which is how archives
avoid storing O(n log n)-word sparse tables.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from .exceptions import ValidationError

#: Version of the payload schema itself; bumped whenever the meaning of the
#: structure (name conventions, child nesting, manifest layout) changes.
PAYLOAD_VERSION = 1

#: Separator joining child names into flat array paths (archive members).
PATH_SEPARATOR = "/"

#: Meta key under which :meth:`IndexPayload.compact` records the logical
#: (pre-narrowing) description of every transformed stored array, so space
#: accounting can report the wide footprint and :meth:`IndexPayload.expand`
#: can restore bit-packed booleans.
COMPACT_META_KEY = "compact_dtypes"

#: Narrowing ladders for :meth:`IndexPayload.compact`: the smallest dtype
#: holding the observed value range wins; 64-bit stays 64-bit.
_SIGNED_NARROW = (np.int8, np.int16, np.int32)
_UNSIGNED_NARROW = (np.uint8, np.uint16, np.uint32)


def _narrow_dtype(array: np.ndarray) -> Optional[np.dtype]:
    """Smallest integer dtype that holds ``array``'s observed value range.

    Returns ``None`` when no strictly smaller safe dtype exists: float
    arrays (probabilities stay float64), already-minimal integers, and
    value ranges that genuinely need 64 bits.  Arrays containing negative
    sentinels (``-1`` separator markers) narrow to signed dtypes only.
    """
    if array.dtype.kind not in ("i", "u"):
        return None
    if array.size == 0:
        candidates = _SIGNED_NARROW if array.dtype.kind == "i" else _UNSIGNED_NARROW
        target = np.dtype(candidates[0])
        return target if target.itemsize < array.dtype.itemsize else None
    low, high = int(array.min()), int(array.max())
    candidates = _SIGNED_NARROW if low < 0 else _UNSIGNED_NARROW
    for candidate in candidates:
        info = np.iinfo(candidate)
        if info.min <= low and high <= info.max:
            target = np.dtype(candidate)
            return target if target.itemsize < array.dtype.itemsize else None
    return None


def array_checksum(array: np.ndarray) -> int:
    """crc32 of an array's raw bytes (dtype-sensitive, platform-stable)."""
    data = np.ascontiguousarray(array)
    if data.size == 0:
        return 0
    return int(zlib.crc32(data.view(np.uint8).reshape(-1)))

#: Central registry of every payload schema the package produces or
#: understands, mapping the schema name to a one-line description.  Adding
#: a ``to_payload`` implementation means adding its schema here — the
#: ``payload-schema`` rule of :mod:`repro.tools.check` statically verifies
#: that every constructed schema is registered, that index schemas stay
#: unique per class, and that persistence dispatch covers every entry.
SCHEMA_REGISTRY: Dict[str, str] = {
    "index/special": "suffix array + prefix sums over a special uncertain string",
    "index/general": "per-length index over the maximal-factor transformation",
    "index/approximate": "additive-error sampled variant of the general index",
    "index/listing": "document-listing index over an uncertain collection",
    "rmq/sparse": "compact block-position RMQ (restores CompactRMQ)",
    "rmq/block": "block RMQ; the summary table is rebuilt on restore",
    "transformed": "maximal-factor transformation of a general string",
}

_TRAILING_INDEX = re.compile(r"_\d+$")


def _check_name(name: str, *, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValidationError(f"payload {what} names must be non-empty strings, got {name!r}")
    if PATH_SEPARATOR in name:
        raise ValidationError(
            f"payload {what} name {name!r} must not contain {PATH_SEPARATOR!r} "
            "(reserved for child paths)"
        )
    return name


@dataclass
class IndexPayload:
    """A schema-described bundle of named ndarrays plus scalar metadata.

    Attributes
    ----------
    schema:
        What the payload describes (``"index/special"``, ``"rmq/sparse"``,
        ``"transformed"``, ...).  ``from_payload`` implementations dispatch
        and validate on it.
    meta:
        JSON-safe scalar configuration (thresholds, lengths, serialized
        input strings).  Restored verbatim from the archive manifest.
    arrays:
        The stored arrays — persisted to archives, shipped over IPC.
    derived:
        Runtime-only arrays rebuilt by ``from_payload``; counted by
        :meth:`nbytes` / :meth:`space_report` but never serialized.
    children:
        Nested component payloads, keyed by a local name.
    version:
        Payload schema version (:data:`PAYLOAD_VERSION` at write time).
    """

    schema: str
    meta: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    derived: Dict[str, np.ndarray] = field(default_factory=dict)
    children: Dict[str, "IndexPayload"] = field(default_factory=dict)
    version: int = PAYLOAD_VERSION

    # -- validation --------------------------------------------------------------------
    def validate(self) -> "IndexPayload":
        """Check names, array types and meta JSON-safety (recursively)."""
        if not isinstance(self.schema, str) or not self.schema:
            raise ValidationError(f"payload schema must be a non-empty string, got {self.schema!r}")
        for name, array in {**self.arrays, **self.derived}.items():
            _check_name(name, what="array")
            if not isinstance(array, np.ndarray):
                raise ValidationError(
                    f"payload array {name!r} must be an ndarray, got {type(array).__name__}"
                )
            if array.dtype.hasobject:
                raise ValidationError(f"payload array {name!r} holds Python objects")
        overlap = set(self.arrays) & set(self.derived)
        if overlap:
            raise ValidationError(
                f"payload names {sorted(overlap)} appear as both stored and derived"
            )
        try:
            json.dumps(self.meta)
        except (TypeError, ValueError) as error:
            raise ValidationError(f"payload meta is not JSON-serializable: {error}")
        for name, child in self.children.items():
            _check_name(name, what="child")
            if set(self.arrays) & {name} or set(self.derived) & {name}:
                raise ValidationError(f"payload child {name!r} collides with an array name")
            child.validate()
        return self

    # -- dtype minimization ------------------------------------------------------------
    def compact(self) -> "IndexPayload":
        """Return a dtype-minimized copy of this payload (new object).

        Integer stored arrays are narrowed to the smallest dtype that
        holds their observed value range — positions, ranks and document
        identifiers become uint8/16/32 (signed when ``-1`` sentinels are
        present) — and boolean stored arrays are bit-packed with
        ``np.packbits``.  Float arrays are untouched: the log-space
        float64 probability values are the query answers, and they must
        stay byte-identical.  The logical dtype of every transformed
        array is recorded under ``meta[COMPACT_META_KEY]``; narrowed
        integers are *not* widened on restore — the suffix/RMQ kernels
        accept any integer dtype and widen lazily at the few arithmetic
        boundaries that need int64 — while packed booleans are restored
        by :meth:`expand` before ``from_payload`` consumes them.

        Derived arrays are dropped: they are runtime acceleration
        structures ``from_payload`` rebuilds — and rebuilds *smaller*
        from the compact stored form (a ``CompactRMQ`` block summary
        instead of the full sparse table).  Children compact recursively.
        """
        arrays: Dict[str, np.ndarray] = {}
        record: Dict[str, Dict[str, Any]] = dict(self.meta.get(COMPACT_META_KEY, {}))
        for name, array in self.arrays.items():
            if array.dtype.kind == "b":
                arrays[name] = np.packbits(array.view(np.uint8))
                record[name] = {"kind": "packed_bool", "length": int(array.size)}
                continue
            target = _narrow_dtype(array)
            if target is None:
                arrays[name] = array
                continue
            arrays[name] = array.astype(target)
            record[name] = {"kind": "narrowed", "logical": str(array.dtype)}
        meta = dict(self.meta)
        if record:
            meta[COMPACT_META_KEY] = record
        return IndexPayload(
            schema=self.schema,
            meta=meta,
            arrays=arrays,
            children={name: child.compact() for name, child in self.children.items()},
            version=self.version,
        )

    def expand(self) -> "IndexPayload":
        """Restore bit-packed boolean stored arrays to logical bool dtype.

        The single consumption boundary (``index_from_payload``) calls
        this before dispatching to ``from_payload``: packed booleans are
        the one compact form the kernels cannot use in place.  Narrowed
        integer arrays stay narrow (kernels widen lazily).  Returns
        ``self`` unchanged when nothing is packed anywhere in the tree.
        """
        record = self.meta.get(COMPACT_META_KEY, {})
        packed = {
            name: info
            for name, info in record.items()
            if info.get("kind") == "packed_bool" and name in self.arrays
        }
        children = {name: child.expand() for name, child in self.children.items()}
        if not packed and all(
            children[name] is child for name, child in self.children.items()
        ):
            return self
        arrays = dict(self.arrays)
        for name, info in packed.items():
            arrays[name] = np.unpackbits(
                np.asarray(arrays[name], dtype=np.uint8), count=int(info["length"])
            ).view(np.bool_)
        remaining = {
            name: info
            for name, info in record.items()
            if not (info.get("kind") == "packed_bool" and name in packed)
        }
        meta = dict(self.meta)
        if remaining:
            meta[COMPACT_META_KEY] = remaining
        else:
            meta.pop(COMPACT_META_KEY, None)
        return IndexPayload(
            schema=self.schema,
            meta=meta,
            arrays=arrays,
            derived=dict(self.derived),
            children=children,
            version=self.version,
        )

    # -- space accounting --------------------------------------------------------------
    def nbytes(self) -> int:
        """In-memory footprint: stored + derived arrays, recursively."""
        total = sum(int(a.nbytes) for a in self.arrays.values())
        total += sum(int(a.nbytes) for a in self.derived.values())
        return total + sum(child.nbytes() for child in self.children.values())

    def _wide_array_nbytes(self, name: str, array: np.ndarray) -> int:
        """Bytes the stored array would occupy at its logical (wide) dtype."""
        info = self.meta.get(COMPACT_META_KEY, {}).get(name)
        if info is None:
            return int(array.nbytes)
        if info.get("kind") == "packed_bool":
            return int(info["length"])
        return int(array.size) * int(np.dtype(info["logical"]).itemsize)

    def wide_nbytes(self) -> int:
        """In-memory footprint at logical (pre-:meth:`compact`) dtypes.

        Stored arrays count at the dtype recorded under
        ``meta[COMPACT_META_KEY]`` (their own dtype when never narrowed);
        derived arrays count as-is.  Equals :meth:`nbytes` for payloads
        that were never compacted, so ``nbytes`` vs ``wide_nbytes`` is
        the wide-vs-compact in-RAM series.
        """
        total = sum(
            self._wide_array_nbytes(name, array) for name, array in self.arrays.items()
        )
        total += sum(int(a.nbytes) for a in self.derived.values())
        return total + sum(child.wide_nbytes() for child in self.children.values())

    def stored_nbytes(self) -> int:
        """Bytes an archive must persist: stored arrays only, recursively."""
        total = sum(int(a.nbytes) for a in self.arrays.values())
        return total + sum(child.stored_nbytes() for child in self.children.values())

    def space_report(self) -> Dict[str, int]:
        """Component byte sizes plus a ``total`` entry.

        Per-length families collapse into one component (a trailing
        ``_<number>`` is stripped, so ``short_values_3`` and ``rmq_short_3``
        aggregate under ``short_values`` / ``rmq_short``); each child
        contributes its recursive total under its collapsed name.
        """
        report: Dict[str, int] = {}
        for name, array in {**self.arrays, **self.derived}.items():
            component = _TRAILING_INDEX.sub("", name)
            report[component] = report.get(component, 0) + int(array.nbytes)
        for name, child in self.children.items():
            component = _TRAILING_INDEX.sub("", name)
            report[component] = report.get(component, 0) + child.nbytes()
        report["total"] = sum(report.values())
        # The wide-vs-compact in-RAM series: what the same payload would
        # occupy at logical dtypes.  Equal to "total" when never compacted.
        report["total_wide"] = self.wide_nbytes()
        return report

    # -- flattening (archive layout) -----------------------------------------------------
    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "IndexPayload"]]:
        """Yield ``(path, payload)`` for this payload and every descendant."""
        yield prefix, self
        for name, child in self.children.items():
            child_prefix = f"{prefix}{PATH_SEPARATOR}{name}" if prefix else name
            yield from child.walk(child_prefix)

    def flatten(self) -> Dict[str, np.ndarray]:
        """Stored arrays keyed by ``child-path/array-name`` (archive members)."""
        flat: Dict[str, np.ndarray] = {}
        for path, payload in self.walk():
            for name, array in payload.arrays.items():
                key = f"{path}{PATH_SEPARATOR}{name}" if path else name
                flat[key] = array
        return flat

    def manifest(self) -> Dict[str, Any]:
        """JSON-safe description: schema tree + meta + stored-array names.

        Together with :meth:`flatten`'s arrays this reconstructs the
        payload exactly (see :meth:`from_manifest`); derived arrays are
        intentionally absent — ``from_payload`` rebuilds them.  Every
        stored array is recorded with its crc32 so loaders can detect
        corrupt archive members (:func:`verify_manifest_checksums`)
        before numpy ever touches the bytes.
        """
        return {
            "schema": self.schema,
            "version": int(self.version),
            "meta": self.meta,
            "arrays": list(self.arrays),
            "checksums": {
                name: array_checksum(array) for name, array in self.arrays.items()
            },
            "children": {name: child.manifest() for name, child in self.children.items()},
        }

    @classmethod
    def from_manifest(
        cls,
        manifest: Dict[str, Any],
        flat_arrays: Dict[str, np.ndarray],
        *,
        prefix: str = "",
    ) -> "IndexPayload":
        """Reassemble the payload :meth:`manifest` + :meth:`flatten` described.

        ``flat_arrays`` may hold read-only memory maps — arrays are used
        as-is, zero-copy.  A manifest naming an array the mapping lacks
        fails loudly (truncated or mismatched archive).
        """
        arrays: Dict[str, np.ndarray] = {}
        for name in manifest.get("arrays", []):
            key = f"{prefix}{PATH_SEPARATOR}{name}" if prefix else name
            if key not in flat_arrays:
                raise ValidationError(f"payload array {key!r} is missing from the archive")
            arrays[name] = flat_arrays[key]
        children: Dict[str, "IndexPayload"] = {}
        for name, child_manifest in manifest.get("children", {}).items():
            child_prefix = f"{prefix}{PATH_SEPARATOR}{name}" if prefix else name
            children[name] = cls.from_manifest(
                child_manifest, flat_arrays, prefix=child_prefix
            )
        return cls(
            schema=manifest["schema"],
            meta=dict(manifest.get("meta", {})),
            arrays=arrays,
            children=children,
            version=int(manifest.get("version", PAYLOAD_VERSION)),
        )


def verify_manifest_checksums(
    manifest: Dict[str, Any],
    flat_arrays: Dict[str, np.ndarray],
    *,
    prefix: str = "",
) -> None:
    """Verify the per-array crc32 records of a payload manifest.

    Walks the manifest tree exactly like :meth:`IndexPayload.from_manifest`
    and compares every recorded checksum against the loaded bytes, raising
    a taxonomy :class:`ValidationError` naming the corrupt member instead
    of letting a damaged buffer reach numpy.  Manifests written before
    checksums were recorded — and arrays missing from ``flat_arrays``
    (``from_manifest`` raises its own error for those) — verify trivially.
    """
    checksums = manifest.get("checksums") or {}
    for name in manifest.get("arrays", []):
        expected = checksums.get(name)
        if expected is None:
            continue
        key = f"{prefix}{PATH_SEPARATOR}{name}" if prefix else name
        array = flat_arrays.get(key)
        if array is None:
            continue
        actual = array_checksum(array)
        if actual != int(expected):
            raise ValidationError(
                f"payload array {key!r} failed its checksum (expected crc32 "
                f"{int(expected)}, got {actual}): corrupt archive member"
            )
    for name, child_manifest in manifest.get("children", {}).items():
        child_prefix = f"{prefix}{PATH_SEPARATOR}{name}" if prefix else name
        verify_manifest_checksums(child_manifest, flat_arrays, prefix=child_prefix)


def expect_schema(payload: IndexPayload, schema: str) -> IndexPayload:
    """Raise unless ``payload`` carries the expected schema (helper for
    ``from_payload`` implementations)."""
    if payload.schema != schema:
        raise ValidationError(
            f"expected a {schema!r} payload, got {payload.schema!r}"
        )
    if int(payload.version) > PAYLOAD_VERSION:
        raise ValidationError(
            f"payload version {payload.version} is newer than this package "
            f"supports ({PAYLOAD_VERSION}); upgrade the package"
        )
    return payload
