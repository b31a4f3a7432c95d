"""A checkpoint file damaged byte by byte is refused with a typed error.

:meth:`~repro.durability.CheckpointStore.load` is the door every resume
goes through, before any checksum or member check: ``repro resume`` for a
session checkpoint, ``serve-bench --resume`` (``serve(resume=True)``) for a
serve checkpoint.  Each example takes a real file, flips one bit of one
byte or cuts the file short, and loads it through that door.  The load
and what follows either succeed (a flip can leave the same JSON value,
e.g. the case of a hex digit in a ``\\u`` escape) or raise a
:class:`~repro.errors.CheckpointError`; any other exception is the
traceback a resume must never show.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.durability import CheckpointStore, restore_session
from repro.errors import CheckpointError, CheckpointIntegrityError
from repro.serve import ServeConfig, WorkloadConfig, serve

SUFFIX = ".ckpt.json"

SERVE = ServeConfig(default_service_rate=4.0, checkpoint_every=4)
WORKLOAD = WorkloadConfig(num_requests=12, rate=4.0, seed=2009)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The bytes of a mid-plan session checkpoint and of the newest
    checkpoint of a durable serve."""
    sessions = tmp_path_factory.mktemp("session")
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["checkpoint", "--schema", "scholar", "--steps", "2",
                "--dir", str(sessions), "--key", "mid"]
        assert main(argv) == 0
    served = tmp_path_factory.mktemp("serve")
    serve(replace(SERVE, checkpoint_dir=served), WORKLOAD)
    newest = CheckpointStore(served).latest("serve-")
    return {
        "session": (sessions / f"mid{SUFFIX}").read_bytes(),
        "serve": (served / f"{newest}{SUFFIX}").read_bytes(),
    }


def _resume(kind: str, data: bytes) -> None:
    """Write ``data`` as the only checkpoint of a fresh store and resume
    from it the way the command for its kind does."""
    with tempfile.TemporaryDirectory(prefix="repro-bytes-") as tmp:
        root = Path(tmp)
        if kind == "session":
            (root / f"mid{SUFFIX}").write_bytes(data)
            restore_session(CheckpointStore(root).load("mid"))
        else:
            (root / f"serve-00001{SUFFIX}").write_bytes(data)
            serve(replace(SERVE, checkpoint_dir=root, resume=True), WORKLOAD)


def test_both_files_resume_undamaged(files):
    for kind, data in files.items():
        _resume(kind, data)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_flipped_or_truncated_byte_is_refused_typed(files, data):
    kind = data.draw(st.sampled_from(sorted(files)), label="file")
    original = files[kind]
    index = data.draw(st.integers(0, len(original) - 1), label="byte")
    if data.draw(st.booleans(), label="truncate"):
        damaged = original[:index]
    else:
        bit = data.draw(st.integers(0, 7), label="bit")
        damaged = bytearray(original)
        damaged[index] ^= 1 << bit
        damaged = bytes(damaged)
    try:
        _resume(kind, damaged)
    except CheckpointError:
        pass


def test_a_high_bit_flip_is_refused_by_resume_in_one_line(files, tmp_path, capsys):
    """Regression: setting the high bit of byte 200 of a session checkpoint
    made the file invalid UTF-8, and ``repro resume`` died with a bare
    ``UnicodeDecodeError`` traceback (exit 1)."""
    damaged = bytearray(files["session"])
    damaged[200] |= 0x80
    (tmp_path / f"mid{SUFFIX}").write_bytes(damaged)
    with pytest.raises(CheckpointIntegrityError, match="UTF-8"):
        CheckpointStore(tmp_path).load("mid")
    capsys.readouterr()
    assert main(["resume", "--dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("repro: CheckpointIntegrityError:")
