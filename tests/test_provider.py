"""The user agent's input digest: taken inline for a small input and on the
hasher thread for a large one, always over the bytes that were sealed."""

import hashlib
import os
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

from walletemu import attestation as att
from walletemu.crypto import Rng
from walletemu.provider import HASH_AHEAD_BYTES

from conftest import make_rig

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in a fresh interpreter, so no earlier test has started the hasher.
PRELUDE = """
import hashlib, os, threading, time
from walletemu.crypto import Rng
from walletemu.provider import HASH_AHEAD_BYTES, FunctionProvider, UserAgent
provider = FunctionProvider(Rng(2), [bytes(64)], [bytes(64)])
user = UserAgent(Rng(1), provider.public_key())

def digest_ok(data):
    request = user.make_request(bytes(64), data)
    return request.input_digest == hashlib.sha512(data).digest()
"""


def run_script(body: str) -> None:
    done = subprocess.run([sys.executable, "-c", PRELUDE + body],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def round_trip(rig, data):
    fn = rig.functions[0]  # identity
    t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
    request = rig.user.make_request(fn.digest(), data)
    return request, rig.monitor.invoke_trustlet(t.handle, request.ciphertext)


@pytest.mark.parametrize("size", [0, HASH_AHEAD_BYTES - 1, HASH_AHEAD_BYTES,
                                  256 * 1024])
def test_digest_is_the_sha512_of_the_input(rig, size):
    data = Rng(size).bytes(size)
    request, result = round_trip(rig, data)
    assert isinstance(request._input_digest, Future) == (
        size >= HASH_AHEAD_BYTES)
    assert request.input_digest == hashlib.sha512(data).digest()
    assert rig.user.decrypt_response(request, result.output_ciphertext) == data
    assert att.verify_report(result.report, rig.expectations(request))


@pytest.mark.parametrize("size", [100, 2 * HASH_AHEAD_BYTES])
def test_a_buffer_changed_after_the_request_verifies_as_sent(
        rig, size, monkeypatch):
    # The hasher thread may not start before the buffer changes.  A small
    # input is hashed inline, before make_request returns.
    changed = threading.Event()
    if size < HASH_AHEAD_BYTES:
        changed.set()
    real = att.sha512

    def after_the_change(data):
        assert changed.wait(30)
        return real(data)

    monkeypatch.setattr(att, "sha512", after_the_change)
    fn = rig.functions[0]
    t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
    buffer = bytearray(Rng(7).bytes(size))
    sent = bytes(buffer)
    request = rig.user.make_request(fn.digest(), buffer)
    buffer[:] = bytes(size)
    changed.set()
    result = rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
    assert rig.user.decrypt_response(request, result.output_ciphertext) == sent
    assert request.input_digest == hashlib.sha512(sent).digest()
    assert att.verify_report(result.report, rig.expectations(request))


def test_a_failed_hash_raises_when_the_digest_is_read(monkeypatch):
    class HashFailed(Exception):
        pass

    def failing(data):
        raise HashFailed(len(data))

    rig = make_rig()
    monkeypatch.setattr(att, "sha512", failing)
    request = rig.user.make_request(rig.functions[0].digest(),
                                    bytes(HASH_AHEAD_BYTES))
    for _ in range(2):
        with pytest.raises(HashFailed):
            request.input_digest


def test_small_inputs_start_no_thread():
    run_script("""
before = threading.active_count()
assert all(digest_ok(bytes(n)) for n in (0, 100, HASH_AHEAD_BYTES - 1))
assert threading.active_count() == before, threading.enumerate()
assert digest_ok(bytes(HASH_AHEAD_BYTES))
assert threading.active_count() == before + 1, threading.enumerate()
print("ok")
""")


def test_a_forked_child_makes_a_large_request():
    # The child of a process whose hasher has run gets a hasher of its
    # own; reusing the parent's would wait forever for a thread that the
    # child does not have.
    run_script("""
data = os.urandom(2 * HASH_AHEAD_BYTES)
assert digest_ok(data)
pid = os.fork()
if pid == 0:
    os._exit(0 if digest_ok(data[::-1]) else 1)
deadline = time.monotonic() + 30
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        break
    if time.monotonic() > deadline:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise SystemExit("the child's digest never came")
    time.sleep(0.01)
assert os.waitstatus_to_exitcode(status) == 0
assert digest_ok(data)
print("ok")
""")
