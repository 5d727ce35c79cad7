import errno
import os

import pytest

from sydlm import atomic
from sydlm.atomic import atomic_open
from sydlm.cli import main
from sydlm.trees import render_bracketed

from conftest import pcfg_treebank
from test_cli import TRAIN_OVERRIDES


class _FullDisk:
    """A writable file that takes `room` more bytes (or characters), then
    fails the way a full disk does, after writing what fitted."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


def _fill_disk_when_writing(monkeypatch, target, room: int) -> None:
    """Make atomic_open's writes for `target` fail after `room` bytes."""
    real_open = open

    def fake_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _FullDisk(fh, room) if str(path).startswith(str(target)) else fh

    monkeypatch.setattr(atomic, "open", fake_open, raising=False)


class TestAtomicOpen:
    def test_clean_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_failed_write_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError):
            with atomic_open(path, "wb") as fh:
                fh.write(b"partial")
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["a.bin"]


@pytest.mark.parametrize("artifact, command", [
    ("corpus.json", 0), ("corpus.json.dist", 0),
    ("run/log.jsonl", 1), ("run/checkpoint.bin", 1),
    ("metrics.json", 2), ("heights.csv", 2),
])
def test_full_disk_leaves_previous_artifact(tmp_path, monkeypatch, capsys, artifact, command):
    treebank = tmp_path / "toy.mrg"
    treebank.write_text("\n".join(render_bracketed(t) for t in pcfg_treebank(12, seed=31)) + "\n")
    corpus = str(tmp_path / "corpus.json")
    commands = [
        ["preprocess", str(treebank), "--out", corpus],
        ["train", "--corpus", corpus, "--out", str(tmp_path / "run")] + TRAIN_OVERRIDES,
        ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"), "--corpus", corpus,
         "--out", str(tmp_path / "metrics.json"), "--plot-csv", str(tmp_path / "heights.csv")],
    ]
    for argv in commands:
        assert main(argv) == 0
    target = tmp_path / artifact
    before = target.read_bytes()
    _fill_disk_when_writing(monkeypatch, target, room=len(before) // 2)
    capsys.readouterr()
    assert main(commands[command]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert target.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))
