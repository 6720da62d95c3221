import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermalbell import spkl
from thermalbell.speckle import FrameSet


def test_round_trip_values_and_header(frames_tiny, tmp_path):
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    header, pixels = spkl.read_spkl(path)
    assert header.n_frames == frames_tiny.n_frames
    assert header.height == frames_tiny.pixels.shape[1]
    assert header.width == frames_tiny.pixels.shape[2]
    assert header.tau_ratio == frames_tiny.tau_ratio
    assert header.seed == frames_tiny.seed
    assert np.array_equal(pixels, frames_tiny.pixels.astype(np.float32))


def test_round_trip_byte_identical(frames_tiny, tmp_path):
    first = tmp_path / "a.spkl"
    second = tmp_path / "b.spkl"
    spkl.write_spkl(first, frames_tiny)
    header, pixels = spkl.read_spkl(first)
    spkl.write_spkl(second, FrameSet(pixels, frames_tiny.geometry, header.seed,
                                     header.tau_ratio, frames_tiny.substeps,
                                     frames_tiny.n_subsources))
    assert first.read_bytes() == second.read_bytes()


def test_header_layout_is_stable(frames_tiny, tmp_path):
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    raw = path.read_bytes()
    magic, version, n, h, w, tau, seed = struct.unpack("<4sIIIIdQ", raw[:36])
    assert magic == b"SPKL"
    assert version == 1
    assert (n, h, w) == frames_tiny.pixels.shape
    assert tau == frames_tiny.tau_ratio
    assert seed == frames_tiny.seed
    assert len(raw) == 36 + n * h * w * 4


def test_read_frames_matches_full_read(frames_tiny, tmp_path):
    """Ranges of 37 frames, the last one short, give the full read; a range
    outside the stack is refused."""
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    _, pixels = spkl.read_spkl(path)
    with spkl.SpklReader(path) as reader:
        chunks = [reader.read(start, min(37, len(pixels) - start))
                  for start in range(0, len(pixels), 37)]
        assert chunks[-1].shape == (600 % 37, 8, 128)
        assert np.array_equal(np.concatenate(chunks), pixels)
        assert reader.read(600, 0).shape == (0, 8, 128)
        for start, count in ((590, 11), (-1, 5), (0, -1)):
            with pytest.raises(ValueError, match="outside"):
                reader.read(start, count)


def test_read_frames_into_buffer(frames_tiny, tmp_path):
    """A range read into ``out`` fills and returns that buffer; a buffer of
    another shape, dtype or layout is refused."""
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    buf = np.empty((37, 8, 128), dtype=np.float32)
    with spkl.SpklReader(path) as reader:
        assert reader.read(563, 37, out=buf) is buf
        assert np.array_equal(buf, frames_tiny.pixels[563:])
        for bad in (buf[:36], buf.astype(np.float64), np.empty((128, 8, 37), np.float32).T):
            with pytest.raises(ValueError, match="contiguous float32 array of shape"):
                reader.read(0, 37, out=bad)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        spkl.read_spkl(tmp_path / "nope.spkl")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.spkl"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(spkl.SpklFormatError, match="magic"):
        spkl.read_spkl(path)


def test_truncated_payload_rejected(frames_tiny, tmp_path):
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(spkl.SpklFormatError, match="payload"):
        spkl.read_header(path)
    with pytest.raises(spkl.SpklFormatError):
        spkl.read_spkl(path)
    with pytest.raises(spkl.SpklFormatError, match="payload"):
        spkl.SpklReader(path)


def test_payload_truncated_after_header_check(frames_tiny, tmp_path):
    """A stack cut short after its reader checked the header fails the
    range read, not the caller."""
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    with spkl.SpklReader(path) as reader:
        path.write_bytes(path.read_bytes()[:-17])
        assert reader.read(0, 10).shape == (10, 8, 128)
        with pytest.raises(spkl.SpklFormatError, match="truncated frame payload"):
            reader.read(590, 10)


def test_reader_keeps_the_file_it_opened(frames_tiny, tmp_path):
    """A stack replaced at its path while a reader is open does not mix
    into that reader's ranges."""
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    other = tmp_path / "other.spkl"
    spkl.write_spkl(other, frames_tiny.scaled(2.0))
    with spkl.SpklReader(path) as reader:
        first = reader.read(0, 300)
        os.replace(other, path)
        second = reader.read(300, 300)
    assert np.array_equal(np.concatenate([first, second]), frames_tiny.pixels)
    with spkl.SpklReader(path) as reader:
        assert np.array_equal(reader.read(0, 600), frames_tiny.pixels * 2)


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_reader_closes_its_descriptor(frames_tiny, tmp_path):
    """Opening, reading, a refused header and a failed read leave no
    descriptor open."""
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    before = _open_descriptors()
    with spkl.SpklReader(path) as reader:
        reader.read(0, 10)
        with pytest.raises(ValueError, match="outside"):
            reader.read(590, 11)
    assert spkl.read_header(path).n_frames == 600
    path.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(spkl.SpklFormatError, match="payload"):
        spkl.SpklReader(path)
    assert _open_descriptors() == before


def test_writer_enforces_declared_count(tmp_path):
    writer = spkl.SpklWriter(tmp_path / "w.spkl", 10, 2, 4, 0.1, 1)
    writer.write(np.zeros((3, 2, 4), dtype=np.float32))
    with pytest.raises(spkl.SpklFormatError, match="promised"):
        writer.close()
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_file(tmp_path):
    """An exception mid-write publishes nothing and cleans up after itself."""
    path = tmp_path / "w.spkl"
    with pytest.raises(RuntimeError, match="interrupted"):
        with spkl.SpklWriter(path, 10, 2, 4, 0.1, 1) as writer:
            writer.write(np.zeros((3, 2, 4), dtype=np.float32))
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


def test_stack_appears_only_on_close(tmp_path):
    path = tmp_path / "w.spkl"
    with spkl.SpklWriter(path, 2, 2, 4, 0.1, 1) as writer:
        writer.write(np.ones((2, 2, 4)))
        assert not path.exists()
    assert list(tmp_path.iterdir()) == [path]
    header, pixels = spkl.read_spkl(path)
    assert header.n_frames == 2 and pixels.dtype == np.dtype("<f4")
    assert np.array_equal(pixels, np.ones((2, 2, 4)))


def test_new_stack_removes_earlier_sidecar(frames_tiny, tmp_path):
    """A published stack drops the sidecar of the stack it replaced; one that
    fails leaves the earlier stack and sidecar together."""
    path = tmp_path / "w.spkl"
    spkl.write_spkl(path, frames_tiny)
    spkl.write_sidecar(path, {"geometry": frames_tiny.geometry.to_dict()})
    earlier = path.read_bytes()
    with pytest.raises(spkl.SpklFormatError, match="promised"):
        with spkl.SpklWriter(path, 10, 2, 4, 0.1, 1) as writer:
            writer.write(np.zeros((3, 2, 4), dtype=np.float32))
    assert path.read_bytes() == earlier
    assert spkl.read_sidecar(path)["geometry"] == frames_tiny.geometry.to_dict()
    with spkl.SpklWriter(path, 2, 2, 4, 0.1, 1) as writer:
        writer.write(np.ones((2, 2, 4)))
    assert list(tmp_path.iterdir()) == [path]


def test_write_text_replaces_whole(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    spkl.write_text(path, "a,b\n1,2\n")
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_rename_leaves_no_temp_file(tmp_path):
    """A target that cannot be replaced (a non-empty directory) fails the
    write and removes the temporary file."""
    target = tmp_path / "taken"
    (target / "inside").mkdir(parents=True)
    with pytest.raises(OSError):
        spkl.write_text(target, "x\n")
    with pytest.raises(OSError):
        with spkl.SpklWriter(target, 1, 2, 4, 0.1, 1) as writer:
            writer.write(np.ones((1, 2, 4)))
    assert list(tmp_path.iterdir()) == [target]


def test_sidecar_and_frameset_reload(frames_tiny, tmp_path):
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    spkl.write_sidecar(path, {
        "geometry": frames_tiny.geometry.to_dict(),
        "substeps": frames_tiny.substeps,
        "n_subsources": frames_tiny.n_subsources,
    })
    loaded = spkl.load_frameset(path)
    assert loaded.geometry == frames_tiny.geometry
    assert loaded.substeps == frames_tiny.substeps
    assert loaded.n_subsources == frames_tiny.n_subsources
    assert np.array_equal(loaded.pixels, frames_tiny.pixels.astype(np.float32))


def test_frameset_without_sidecar_has_no_geometry(frames_tiny, tmp_path):
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    loaded = spkl.load_frameset(path)
    assert loaded.geometry is None


@pytest.mark.parametrize("edit, message", [
    (lambda meta: [], "records no geometry"),
    (lambda meta: {**meta, "geometry": {**meta["geometry"], "width": 100}},
     "describes a 100 x 8 grid, but .* holds 128 x 8 frames"),
], ids=["list", "other-grid"])
def test_frameset_refuses_bad_sidecar(frames_tiny, tmp_path, edit, message):
    """A sidecar is read by the rules ``correlate`` reads it by."""
    from thermalbell.errors import ConfigError
    path = tmp_path / "frames.spkl"
    spkl.write_spkl(path, frames_tiny)
    spkl.write_sidecar(path, edit({"geometry": frames_tiny.geometry.to_dict()}))
    with pytest.raises(ConfigError, match=message):
        spkl.load_frameset(path)


def test_import_leaves_frame_generator_unloaded():
    """Commands that only write sidecars do not pay for importing speckle."""
    src = str(Path(spkl.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, thermalbell.spkl; print('thermalbell.speckle' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"
