"""Test helpers for the Monte Carlo workers: records that reach the test from forked workers, a way to force the
thread pool, and a kernel that fails on one side of the fork."""

import os
import threading
from contextlib import contextmanager


def append_line(path, value) -> None:
    """Append one line to path through O_APPEND, so records made in forked workers reach the test whole."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{value}\n".encode())
    finally:
        os.close(fd)


def read_lines(path) -> list[str]:
    return path.read_text().split() if path.exists() else []


@contextmanager
def another_thread():
    """Keep one more thread alive, blocked on an Event, so the Monte Carlo tasks run on a thread pool, not forked."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


def patch_kernel(monkeypatch, worker, here=lambda: None) -> None:
    """Call worker() in each forked Monte Carlo worker, and here() in this process, before each block."""
    from radiomap import harness

    parent, kernel = os.getpid(), harness._mc_block_rmse

    def patched(*args):
        (here if os.getpid() == parent else worker)()
        return kernel(*args)

    monkeypatch.setattr(harness, "_mc_block_rmse", patched)
