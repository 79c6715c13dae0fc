"""`_tall_superpixels` runs SLIC over contiguous ranges of the images, the
first range in this process and each other one in a forked child.  Its
tall map must equal the serial one byte for byte for any number of
workers; a child that fails or is killed must cost time only; an error
must surface as in a serial run; and no child may outlive the call."""

import errno
import os
import signal
import time

import numpy as np
import pytest

from segtransfer import toy_pipeline
from segtransfer.superpixel import SlicParams, slic
from segtransfer.toy_pipeline import (
    SynthConfig,
    TrainConfig,
    _tall_superpixels,
    gen_synthetic,
    train,
)

from test_pl_oracle import offset_stack

PARAMS = SlicParams(n_segments=9)


def synth(target_count, source_count=1):
    return gen_synthetic(SynthConfig(image_size=12, source_count=source_count,
                                     target_count=target_count, seed=3))


def serial_map(images):
    return offset_stack([slic(im, PARAMS) for im in images])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def workers(monkeypatch):
    """Set the number of CPUs _tall_superpixels sees."""
    return lambda n: monkeypatch.setattr(toy_pipeline, "_cpu_count", lambda: n)


@pytest.fixture()
def wrap_slic(monkeypatch):
    """Replace the slic that _tall_superpixels calls by hook(img, params, real)."""
    def install(hook):
        real = toy_pipeline.slic
        monkeypatch.setattr(toy_pipeline, "slic", lambda img, params: hook(img, params, real))
    return install


@pytest.mark.parametrize("count", [1, 3, 5, 7])
@pytest.mark.parametrize("n_workers", [1, 2, 3, 9])
def test_parallel_equals_serial(workers, count, n_workers):
    images = synth(count)["target"]["images"]
    workers(n_workers)
    got = _tall_superpixels(images, PARAMS)
    want = serial_map(images)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert_no_child_left()


@pytest.mark.parametrize("count,n_workers", [(5, 2), (5, 3), (3, 9), (1, 4)])
def test_each_range_runs_in_its_own_process(workers, wrap_slic, monkeypatch, tmp_path,
                                            count, n_workers):
    """Contiguous ranges, no more than there are images, the first one
    run by the caller and one child forked for each other: each image is
    segmented once, in the process that owns its range."""
    images = synth(count)["target"]["images"]
    index = {id(im): i for i, im in enumerate(images)}
    trace = tmp_path / "trace"
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())

    def record(img, params, real):
        with open(trace, "a") as fh:
            fh.write(f"{os.getpid()} {index[id(img)]}\n")
        return real(img, params)
    wrap_slic(record)
    workers(n_workers)
    _tall_superpixels(images, PARAMS)

    owner = {}
    for line in trace.read_text().splitlines():
        pid, i = map(int, line.split())
        assert i not in owner
        owner[i] = pid
    assert sorted(owner) == list(range(count))
    pids = [owner[i] for i in range(count)]
    ranges = [list(r) for r in np.array_split(np.arange(count), min(count, n_workers))]
    assert [len(set(pids[r[0]:r[-1] + 1])) for r in ranges] == [1] * len(ranges)
    assert len(set(pids)) == len(ranges) == len(forks) + 1
    assert pids[0] == os.getpid()


@pytest.mark.parametrize("action", ["raise", "kill"])
@pytest.mark.parametrize("n_workers", [2, 3])
def test_failed_child_costs_time_only(workers, wrap_slic, action, n_workers):
    """A child that raises or is killed on one image: its range is run
    again in the caller, and the map keeps every byte."""
    images = synth(5)["target"]["images"]
    bad = images[-1]  # in the last range, so in a child
    parent = os.getpid()

    def fail_in_child(img, params, real):
        if os.getpid() != parent and img is bad:
            if action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("fails only in a child")
        return real(img, params)
    wrap_slic(fail_in_child)
    workers(n_workers)
    assert _tall_superpixels(images, PARAMS).tobytes() == serial_map(images).tobytes()
    assert_no_child_left()


@pytest.mark.parametrize("failing", [{1}, {2}, {1, 2}])
def test_failed_fork_runs_its_range_here(workers, monkeypatch, failing):
    """A fork that raises, the first or the second after the first made
    a child: its range runs in the caller, the map keeps every byte and
    the child that was made is reaped."""
    images = synth(5)["target"]["images"]
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) in failing:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    workers(3)
    assert _tall_superpixels(images, PARAMS).tobytes() == serial_map(images).tobytes()
    assert len(forks) == 2
    assert_no_child_left()


def test_error_surfaces_as_in_a_serial_run(workers, wrap_slic):
    """An image that fails wherever it is segmented: `train` raises the
    serial run's exception, though a child met it first."""
    data = synth(5, source_count=4)
    bad = data["target"]["images"][-1].tobytes()

    def fail(img, params, real):
        # train segments rows of its stack, so the image is found by value
        if img.tobytes() == bad:
            raise ValueError(f"cannot segment image with mean {img.mean():.4f}")
        return real(img, params)
    wrap_slic(fail)
    cfg = TrainConfig(epochs=1, slic=PARAMS)
    raised = []
    for n_workers in (1, 2, 3):
        workers(n_workers)
        with pytest.raises(ValueError) as err:
            train(cfg, data)
        raised.append((type(err.value), str(err.value)))
        assert_no_child_left()
    assert raised[1:] == raised[:1] * 2


def test_callers_error_kills_the_children(workers, wrap_slic):
    """The caller's own range raising ends the call at once: the children,
    which would take a minute, are killed and reaped."""
    images = synth(4)["target"]["images"]
    parent = os.getpid()

    def fail_here_stall_there(img, params, real):
        if os.getpid() == parent:
            raise RuntimeError("the caller's range failed")
        time.sleep(60)
        return real(img, params)
    wrap_slic(fail_here_stall_there)
    workers(4)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="the caller's range failed"):
        _tall_superpixels(images, PARAMS)
    assert time.monotonic() - start < 30
    assert_no_child_left()
