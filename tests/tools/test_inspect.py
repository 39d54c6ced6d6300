"""The archive inspector CLI: schema tree, compact notes, error status."""

import runpy
import sys

import pytest

from repro.api import build_index, read_manifest
from repro.tools.inspect import main
from tests.conftest import (
    make_random_special_string,
    rezip_archive,
    write_malformed_archives,
)


@pytest.fixture
def special_engine():
    # A blocking structure for length-8 patterns gives the archive an RMQ
    # child; no level of this short text stores one.
    return build_index(make_random_special_string(60, seed=5), long_lengths=[8])


def test_v3_report_shows_schema_arrays_and_checksums(tmp_path, capsys, special_engine):
    path = special_engine.save(tmp_path / "plain")
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "format version 3, kind 'special'" in out
    assert "index/special" in out and "rmq/sparse" in out
    assert "suffix_array" in out and "block_positions" in out
    assert "crc32 0x" in out
    assert "stored total:" in out


def test_compact_archive_notes_transformed_dtypes(tmp_path, capsys, special_engine):
    path = special_engine.save(tmp_path / "compact", compact=True)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "[narrowed from int64]" in out
    assert "uint8" in out


def test_retired_archive_version_is_an_error(tmp_path, capsys, special_engine):
    path = special_engine.save(tmp_path / "retired")
    manifest = read_manifest(path)
    manifest["version"] = 2
    rezip_archive(path, manifest=manifest)
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "retired archive format version 2" in captured.err


def test_multiple_archives_and_error_status(tmp_path, capsys, special_engine):
    good = special_engine.save(tmp_path / "good")
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"not a zip archive")
    assert main([str(good), str(garbage)]) == 1
    captured = capsys.readouterr()
    assert "format version 3" in captured.out
    assert "garbage" in captured.err


def test_missing_archive_reports_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent")]) == 1
    assert "absent" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:.*found in sys.modules.*:RuntimeWarning")
def test_module_entry_point(tmp_path, monkeypatch, capsys, special_engine):
    # runpy warns because the module is already imported above; harmless here.
    path = special_engine.save(tmp_path / "module")
    monkeypatch.setattr(sys, "argv", ["inspect", str(path)])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("repro.tools.inspect", run_name="__main__")
    assert excinfo.value.code == 0
    assert "stored total:" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:.*found in sys.modules.*:RuntimeWarning")
def test_module_entry_point_rejects_malformed_archives(
    tmp_path, monkeypatch, capsys, special_engine
):
    malformed = write_malformed_archives(tmp_path, special_engine)
    monkeypatch.setattr(sys, "argv", ["inspect", *map(str, malformed.values())])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("repro.tools.inspect", run_name="__main__")
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # One error line per file, none of them a traceback.
    assert len(captured.err.splitlines()) == len(malformed)
    for path in malformed.values():
        assert str(path) in captured.err
