"""Archive inspector: ``python -m repro.tools.inspect <archive>``.

Pretty-prints what a saved index archive holds without materializing the
index: the payload schema tree (index kind, child payloads), every stored
array's dtype / shape / bytes / crc32, and the space-report totals — all
derived from the JSON manifest (:func:`repro.api.persistence.read_manifest`)
plus the archive's member table, so inspection is cheap even for archives
too large to load.

Output is plain text, one section per payload node::

    index/special  (version 1)
      suffix_array      uint32   (20000,)      80,000 B  crc32 0x1a2b3c4d
      prefix            float64  (20001,)     160,008 B  crc32 0x...
      rmq_short_1/  rmq/sparse  (version 1)
        ...

Files that are not format-3 index archives are reported on stderr with
exit status 1.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..api.persistence import normalize_archive_path, read_manifest
from ..exceptions import ValidationError

#: Member-name suffix numpy's zip writer appends to every array.
_NPY = ".npy"


def _member_table(path: Path) -> Dict[str, Tuple[str, Tuple[int, ...], int]]:
    """``{array-path: (dtype, shape, nbytes)}`` from the archive's members.

    Reads each member's npy *header* only — shapes and dtypes come from a
    few hundred bytes per array, never the data.
    """
    table: Dict[str, Tuple[str, Tuple[int, ...], int]] = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            if not info.filename.endswith(_NPY):
                continue
            key = info.filename[: -len(_NPY)]
            with archive.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, _, dtype = np.lib.format.read_array_header_1_0(member)
                else:
                    shape, _, dtype = np.lib.format.read_array_header_2_0(member)
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            table[key] = (str(dtype), tuple(int(s) for s in shape), nbytes)
    return table


def _walk_manifest(
    manifest: Dict[str, Any], prefix: str = ""
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    yield prefix, manifest
    for name, child in manifest.get("children", {}).items():
        child_prefix = f"{prefix}/{name}" if prefix else name
        yield from _walk_manifest(child, child_prefix)


def _format_bytes(count: int) -> str:
    return f"{count:,} B"


def describe_archive(path: Path) -> List[str]:
    """The inspector's report for one archive, as output lines."""
    manifest = read_manifest(path)
    members = _member_table(path)
    lines = [
        f"{path.name}: format version {manifest['version']}, "
        f"kind {manifest.get('kind')!r}"
    ]
    stored_total = 0
    for prefix, node in _walk_manifest(manifest["payload"]):
        indent = "  " * (prefix.count("/") + 1)
        label = f"{prefix}/" if prefix else "<root>"
        lines.append(f"{indent}{label}  {node['schema']}  (version {node.get('version', 1)})")
        checksums = node.get("checksums", {})
        compact = node.get("meta", {}).get("compact_dtypes", {})
        for name in node.get("arrays", []):
            key = f"{prefix}/{name}" if prefix else name
            dtype, shape, nbytes = members.get(key, ("?", (), 0))
            stored_total += nbytes
            crc = checksums.get(name)
            crc_note = f"  crc32 {crc:#010x}" if isinstance(crc, int) else ""
            note = ""
            record = compact.get(name, {})
            if record.get("kind") == "narrowed":
                note = f"  [narrowed from {record['logical']}]"
            elif record.get("kind") == "packed_bool":
                note = f"  [bit-packed bool, {record['length']} flags]"
            lines.append(
                f"{indent}  {name:<28} {dtype:<10} {shape!s:<16} "
                f"{_format_bytes(nbytes):>14}{crc_note}{note}"
            )
    lines.append(f"  stored total: {_format_bytes(stored_total)}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.inspect",
        description="Inspect a saved index archive: schema tree, arrays, sizes.",
    )
    parser.add_argument("archive", nargs="+", help="path(s) to .npz index archives")
    arguments = parser.parse_args(argv)
    status = 0
    for raw in arguments.archive:
        path = normalize_archive_path(raw)
        try:
            lines = describe_archive(path)
        except (OSError, ValidationError, ValueError, zipfile.BadZipFile) as error:
            # ValueError / BadZipFile: a damaged member header past the manifest.
            print(f"{raw}: {error}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines))
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
