"""Fault-injection harness for the sharded serving supervision tests.

Workers arm an optional fault from the ``REPRO_SERVING_FAULT``
environment variable at startup (see the "Fault injection" section of
:mod:`repro.serving.worker` for the spec grammar).  The environment is
the one channel that reaches *every* worker process this test will ever
observe — fork children, spawn children, and the workers the supervisor
restarts behind the test's back — so the harness is nothing more than a
context manager that sets the variable around pool construction and use.

Two firing modes:

* ``once=True`` (default) drops a token file next to the test's tmp dir
  and exports it as ``REPRO_SERVING_FAULT_ONCE``: exactly one worker
  process (the first to reach the trigger) consumes the token and dies;
  its restarted successor finds no token and serves normally.  This is
  the *recovery* scenario.
* ``once=False`` re-arms the fault in every (re)started worker: the
  restarted successor dies on cue too, until some budget — restart or
  retry — runs out.  This is the *exhaustion* scenario.
"""

import contextlib
import os
import signal
import uuid

from repro.serving.worker import FAULT_ENV, FAULT_ONCE_ENV


@contextlib.contextmanager
def worker_fault(action, trigger, n=1, once=True, tmp_path="/tmp"):
    """Arm ``<action>:<trigger>[:<n>]`` for workers started inside the block.

    ``action`` is ``exit`` / ``midframe`` / ``hang``; ``trigger`` is
    ``query`` / ``warm`` / ``close``; the fault fires on the ``n``-th
    trigger frame a worker process reads.  Only processes *started* while
    the block is active inherit the fault (the environment is captured at
    process start), so create the pool inside the block.
    """
    token = None
    saved = {name: os.environ.get(name) for name in (FAULT_ENV, FAULT_ONCE_ENV)}
    os.environ[FAULT_ENV] = f"{action}:{trigger}:{n}"
    if once:
        token = os.path.join(str(tmp_path), f"fault-token-{uuid.uuid4().hex}")
        with open(token, "w"):
            pass
        os.environ[FAULT_ONCE_ENV] = token
    else:
        os.environ.pop(FAULT_ONCE_ENV, None)
    try:
        yield token
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        if token is not None:
            with contextlib.suppress(OSError):
                os.unlink(token)


@contextlib.contextmanager
def frozen_workers(pool):
    """Stop every worker process of ``pool`` for the block (SIGSTOP/SIGCONT).

    A stand-in for a slow query on every shard that needs no sleeps and
    no load: frames sent to a stopped worker wait in its pipe, so every
    request submitted inside the block stays owed until the block ends.
    A stopped process is not a dead one — the supervisor leaves it be.
    """
    pids = [worker.process.pid for worker in pool._pool]
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)
    try:
        yield
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)
