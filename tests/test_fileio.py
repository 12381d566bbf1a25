"""The shared atomic whole-file writer."""

import os

import pytest

import repro.fileio as fileio
from repro.fileio import atomic_write_text


class TestAtomicWriteText:
    def test_writes_utf8_with_unix_newlines(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "µs\nline\n")
        assert target.read_bytes() == "µs\nline\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_replace_keeps_old_file_and_cleans_up(self, tmp_path,
                                                          monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old\n", encoding="utf-8")

        def broken_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(fileio.os, "replace", broken_replace)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write_text(str(target), "new\n")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_directory_error_names_the_target(self, tmp_path):
        target = tmp_path / "absent" / "out.json"
        with pytest.raises(FileNotFoundError) as caught:
            atomic_write_text(str(target), "new\n")
        assert caught.value.filename == str(target)
        assert str(caught.value).endswith(f"'{target}'")
        assert ".tmp" not in str(caught.value)

    def test_directory_target_error_names_the_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.mkdir()
        with pytest.raises(OSError) as caught:
            atomic_write_text(str(target), "new\n")
        assert caught.value.filename == str(target)
        assert ".tmp" not in str(caught.value)
        assert os.listdir(tmp_path) == ["out.json"]
