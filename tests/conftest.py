"""Shared fixtures: a provisioned monitor with a small zygote and functions."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import settings

from walletemu import attestation as att
from walletemu.crypto import Rng
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage, manifest_entry
from walletemu.memory import (
    PAGE_SIZE,
    PL1,
    CostModel,
    FrameStore,
    MemoryAccounting,
    MemoryPool,
    frames_of,
    runs_of,
)
from walletemu.monitor import Monitor, MonitorConfig
from walletemu.provider import FunctionProvider, UserAgent

MIB = 1048576

# One profile for every property test: examples are drawn from a fixed
# seed, so each run gives the same verdict, and there is no per-example
# deadline to trip on a loaded machine.
settings.register_profile("walletemu", derandomize=True, deadline=None)
settings.load_profile("walletemu")


def counting_sha512(monkeypatch) -> list:
    """Patch hashlib.sha512 to record, per hash object, how many bytes it
    hashed: those it was made with plus those fed through update()."""
    lengths = []
    real = hashlib.sha512

    class CountingSha512:
        def __init__(self, data=b"", **kwargs):
            self._hash = real(data, **kwargs)
            self._at = len(lengths)
            lengths.append(len(data))

        def update(self, data):
            lengths[self._at] += len(data)
            self._hash.update(data)

        def __getattr__(self, name):
            return getattr(self._hash, name)

    monkeypatch.setattr(hashlib, "sha512", CountingSha512)
    return lengths


def counting_verifies(monkeypatch) -> list:
    """Patch the attestation module's Ed25519 verify to record the
    signature of every check it makes."""
    signatures = []
    real = att.verify_signature

    def verify_signature(public, message, signature):
        signatures.append(signature)
        return real(public, message, signature)

    monkeypatch.setattr(att, "verify_signature", verify_signature)
    return signatures


def take_frames(pool: MemoryPool, n: int, owner_level=None) -> list[int]:
    """n frames from pool, by id: the runs ``MemoryPool.take_runs`` hands
    out, cut into frames, for tests that pick frames one by one."""
    return frames_of(pool.take_runs(n, owner_level)[0])


def release_frames(pool: MemoryPool, fids) -> None:
    """Give back frames by id through ``MemoryPool.release_runs``: sorted
    and cut into runs, so that a frame given twice is refused."""
    pool.release_runs(runs_of(sorted(fids)))


def reference_accounting(tables) -> MemoryAccounting:
    """The per-frame accounting(), read entry by entry: a frame any table
    maps counts once, as shared if its count is above 1, as exclusive if
    its count is 1 and some mapping grants it PL1 access."""
    refs, pl1 = {}, set()
    for table in tables:
        for vpn in table.mapped_vpns():
            entry = table.lookup(vpn)
            refs[entry.frame_id] = table.store.ref(entry.frame_id)
            if PL1 in entry.perms.read | entry.perms.write:
                pl1.add(entry.frame_id)
    shared = sum(n > 1 for n in refs.values()) * PAGE_SIZE
    exclusive = sum(refs[fid] == 1 for fid in pl1) * PAGE_SIZE
    return MemoryAccounting(shared, exclusive, shared + exclusive)


@pytest.fixture
def model():
    return CostModel()


@pytest.fixture
def store():
    return FrameStore()


@pytest.fixture
def pool(store):
    p = MemoryPool(store)
    p.grow(65536, validated=False)
    return p


@pytest.fixture
def warm_pool(store):
    p = MemoryPool(store)
    p.grow(65536, validated=True)
    return p


EXTERNAL_CONTENT = b"external file payload: lorem ipsum dolor sit amet\n" * 8


def small_image() -> ZygoteImage:
    return ZygoteImage(
        "py-rt", init_cost_ms=5,
        embedded_fs=[("/data/x", b"42"), ("/data/motd", b"hi there")],
        manifest=[manifest_entry("/ext/blob", EXTERNAL_CONTENT)])


def echo_fn() -> FunctionSpec:
    return FunctionSpec("echo", [PipelineOp.identity()], exec_time_ms=1.0)


def shout_fn() -> FunctionSpec:
    return FunctionSpec("shout", [PipelineOp.uppercase(),
                                  PipelineOp.append(b"!")], exec_time_ms=0.5)


def hash_fn() -> FunctionSpec:
    return FunctionSpec("hash", [PipelineOp.sha512()], exec_time_ms=0.0)


def reader_fn(path: str = "/ext/blob") -> FunctionSpec:
    return FunctionSpec("reader", [PipelineOp.read_file(path)],
                        exec_time_ms=0.0)


@pytest.fixture
def rig():
    """Booted + provisioned monitor with a sealed zygote and three functions."""
    return make_rig()


class Rig:
    def __init__(self, monitor, provider, user, image, functions, zygote):
        self.monitor = monitor
        self.provider = provider
        self.user = user
        self.image = image
        self.functions = functions
        self.zygote = zygote

    def expectations(self, request, user=None):
        return (user or self.user).expectations(
            request, self.monitor.machine_key.public_bytes(),
            self.monitor.monitor_digest,
            [self.image.digest()],
            [fn.digest() for fn in self.functions])


def make_rig(seed: int = 0, prealloc: int = 64 * MIB, cow: bool = True,
             image: ZygoteImage | None = None,
             functions: list[FunctionSpec] | None = None,
             chains: tuple = (), machine_key=None, **config) -> Rig:
    """config overrides further MonitorConfig fields (pool_frames, ...);
    machine_key replaces the one the monitor would derive from its seed."""
    image = image if image is not None else small_image()
    functions = functions if functions is not None else [
        echo_fn(), shout_fn(), hash_fn(), reader_fn()]
    config = MonitorConfig(**{"prealloc_bytes": prealloc, "pool_frames": 0,
                              "cow_enabled": cow, "seed": seed, **config})
    monitor = Monitor(config, machine_key=machine_key)
    monitor.guest.put_file("/ext/blob", EXTERNAL_CONTENT)
    provider = FunctionProvider(Rng(seed + 1), [image.digest()],
                                [fn.digest() for fn in functions], chains)
    provider.provision(monitor)
    user = UserAgent(Rng(seed + 2), provider.public_key())
    zygote = monitor.create_zygote(image)
    return Rig(monitor, provider, user, image, functions, zygote)
