"""Pipeline-interpreter and nested-filesystem tests."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walletemu import pipeline
from walletemu.errors import FunctionError
from walletemu.guest import GuestBroker, TaintedBytes
from walletemu.images import FunctionSpec, OpKind, PipelineOp, manifest_entry
from walletemu.pipeline import NestedFs, exec_pipeline, run_pipeline

# Published SHA-512 test vector for the empty string (independent of the
# interpreter's own hashing path).
SHA512_EMPTY_HEX = (
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
    "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e")


def plain_fs(**embedded) -> NestedFs:
    return NestedFs({f"/{k}": v for k, v in embedded.items()}, {})


def reference_fold(steps, data, files):
    """Independent reference interpreter used as the test oracle."""
    for op in steps:
        if op.op is OpKind.IDENTITY or op.op is OpKind.SLEEP:
            pass
        elif op.op is OpKind.SHA512:
            data = hashlib.sha512(data).digest()
        elif op.op is OpKind.UPPERCASE:
            data = data.upper()
        elif op.op is OpKind.LOWERCASE:
            data = data.lower()
        elif op.op is OpKind.APPEND:
            data = data + op.arg
        elif op.op is OpKind.PREPEND:
            data = op.arg + data
        elif op.op is OpKind.CONST:
            data = op.arg
        elif op.op is OpKind.READ_FILE:
            data = files[op.path]
    return data


class TestExecPipeline:
    def test_identity(self):
        fn = FunctionSpec("id", [PipelineOp.identity()])
        out, _ = exec_pipeline(fn, b"abc", plain_fs())
        assert out == b"abc"

    def test_append_then_uppercase(self):
        # Hand evaluation: "ab" -> "ab!" -> "AB!".
        fn = FunctionSpec("f", [PipelineOp.append(b"!"),
                                PipelineOp.uppercase()])
        out, _ = exec_pipeline(fn, b"ab", plain_fs())
        assert out == b"AB!"
        assert out == reference_fold(fn.steps, b"ab", {})

    def test_sha512_of_empty_input(self):
        fn = FunctionSpec("h", [PipelineOp.sha512()])
        out, _ = exec_pipeline(fn, b"", plain_fs())
        assert out == bytes.fromhex(SHA512_EMPTY_HEX)

    def test_embedded_read(self):
        fn = FunctionSpec("r", [PipelineOp.read_file("/data/x")])
        fs = NestedFs({"/data/x": b"42"}, {})
        out, _ = exec_pipeline(fn, b"ignored", fs)
        assert out == b"42"

    def test_exec_charge_includes_sleeps(self):
        fn = FunctionSpec("s", [PipelineOp.sleep(2.0), PipelineOp.sleep(0.5)],
                          exec_time_ms=3.0)
        out, charge = exec_pipeline(fn, b"x", plain_fs())
        assert out == b"x"
        assert charge == 3000 + 2000 + 500

    def test_missing_file_raises_function_error(self):
        fn = FunctionSpec("r", [PipelineOp.read_file("/nope")])
        with pytest.raises(FunctionError):
            exec_pipeline(fn, b"", plain_fs())

    def test_external_file_fails_as_absent_without_monitor(self):
        fs = NestedFs({}, dict([manifest_entry("/ext/f", b"remote")]))
        fn = FunctionSpec("r", [PipelineOp.read_file("/ext/f")])
        with pytest.raises(FunctionError, match="external file /ext/f absent"):
            exec_pipeline(fn, b"", fs)

    @settings(max_examples=60)
    @given(data=st.binary(max_size=128),
           literals=st.lists(st.binary(max_size=16), max_size=6),
           ops=st.lists(st.sampled_from(["identity", "sha512", "uppercase",
                                         "lowercase"]), max_size=6))
    def test_matches_reference_interpreter(self, data, literals, ops):
        steps = [PipelineOp(OpKind(o)) for o in ops]
        steps += [PipelineOp.append(lit) for lit in literals]
        fn = FunctionSpec("fuzz", steps)
        out, _ = exec_pipeline(fn, data, plain_fs())
        assert out == reference_fold(steps, data, {})

    def test_determinism(self):
        fn = FunctionSpec("d", [PipelineOp.prepend(b"#"), PipelineOp.sha512()])
        runs = {exec_pipeline(fn, b"seed", plain_fs())[0] for _ in range(5)}
        assert len(runs) == 1


def read_via_monitor_path(fs: NestedFs, path: str, broker: GuestBroker):
    """Run a one-op read_file pipeline the way the monitor drives it: send
    each yielded path's bytes from the guest (None when absent) back to the
    run, and return its output."""
    run = run_pipeline(FunctionSpec("r", [PipelineOp.read_file(path)]), fs, b"")
    raw = None
    try:
        while True:
            raw = broker.read_file(run.send(raw))
    except StopIteration as stop:
        output, _charge = stop.value
        return output


class TestNestedFs:
    def make_external(self, content=b"external-bytes"):
        broker = GuestBroker()
        broker.put_file("/ext/a", content)
        fs = NestedFs({"/data/x": b"embedded"},
                      dict([manifest_entry("/ext/a", content)]))
        return broker, fs

    def test_embedded_hit_issues_no_external_fetch(self):
        broker, fs = self.make_external()
        assert read_via_monitor_path(fs, "/data/x", broker) == b"embedded"
        assert broker.file_reads == []

    def test_external_honest_fetch_verifies(self):
        broker, fs = self.make_external()
        output = read_via_monitor_path(fs, "/ext/a", broker)
        assert output == b"external-bytes"
        assert type(output) is bytes
        assert broker.file_reads == ["/ext/a"]

    def test_external_tampered_byte_rejected(self):
        broker, fs = self.make_external()
        broker.tamper_file("/ext/a", lambda c: b"X" + c[1:])
        with pytest.raises(FunctionError, match="digest mismatch"):
            read_via_monitor_path(fs, "/ext/a", broker)

    def test_path_absent_from_manifest_is_not_found(self):
        broker, fs = self.make_external()
        broker.put_file("/ext/unlisted", b"contraband")
        with pytest.raises(FunctionError, match="not found"):
            read_via_monitor_path(fs, "/ext/unlisted", broker)
        assert broker.file_reads == []  # gated before any fetch

    def test_verified_bytes_are_untainted(self):
        broker, fs = self.make_external()
        raw = broker.read_file("/ext/a")
        assert isinstance(raw, TaintedBytes)
        clean = fs.verify_external("/ext/a", raw)
        assert not isinstance(clean, TaintedBytes)
        assert type(clean) is bytes

    @settings(max_examples=50)
    @given(embedded=st.dictionaries(
               st.text(min_size=1, max_size=8), st.binary(max_size=32),
               max_size=6),
           external=st.dictionaries(
               st.text(min_size=1, max_size=8), st.binary(max_size=32),
               max_size=6))
    def test_embedded_always_shadows_external(self, embedded, external):
        # The manifest cannot list embedded paths, so external entries that
        # would overlap are dropped by construction; lookups must always
        # prefer embedded content.
        manifest = {p: hashlib.sha512(c).digest()
                    for p, c in external.items() if p not in embedded}
        broker = GuestBroker()
        for path, content in external.items():
            broker.put_file(path, content)
        fs = NestedFs(embedded, manifest)
        for path, content in embedded.items():
            assert read_via_monitor_path(fs, path, broker) == content
        assert broker.file_reads == []
        for path in manifest:
            assert read_via_monitor_path(fs, path, broker) == external[path]


class TestVerifiedBytesKept:
    """A view keeps the last bytes it verified per path: an equal fetch is
    not hashed again, and any other fetch is hashed and checked."""

    CONTENT = bytes(range(256)) * 128  # 32 KiB

    def fs_and_broker(self):
        broker = GuestBroker()
        broker.put_file("/ext/a", self.CONTENT)
        return NestedFs({}, dict([manifest_entry("/ext/a", self.CONTENT)])), \
            broker

    def counted_sha512(self, monkeypatch) -> list:
        """Wrap ``pipeline.hashlib.sha512``; returns the list of its calls."""
        calls, sha512 = [], pipeline.hashlib.sha512

        def counting(*args):
            calls.append(args)
            return sha512(*args)

        monkeypatch.setattr(pipeline.hashlib, "sha512", counting)
        return calls

    def test_a_second_equal_fetch_is_not_hashed(self, monkeypatch):
        fs, broker = self.fs_and_broker()
        calls = self.counted_sha512(monkeypatch)
        assert read_via_monitor_path(fs, "/ext/a", broker) == self.CONTENT
        assert len(calls) == 1
        again = read_via_monitor_path(fs, "/ext/a", broker)
        assert again == self.CONTENT and type(again) is bytes
        assert len(calls) == 1
        assert broker.file_reads == ["/ext/a", "/ext/a"]

    def test_a_tampered_fetch_after_a_verified_one_is_refused(self):
        fs, broker = self.fs_and_broker()
        assert read_via_monitor_path(fs, "/ext/a", broker) == self.CONTENT
        for tamper in (lambda c: b"X" + c[1:], lambda c: c[:-1],
                       lambda c: c + b"\0"):
            broker.tamper_file("/ext/a", tamper)
            with pytest.raises(FunctionError, match="digest mismatch"):
                read_via_monitor_path(fs, "/ext/a", broker)
        broker.tamper_file("/ext/a", lambda c: c)
        assert read_via_monitor_path(fs, "/ext/a", broker) == self.CONTENT

    def test_charges_are_unchanged(self):
        fs, _ = self.fs_and_broker()
        fn = FunctionSpec("r", [PipelineOp.read_file("/ext/a"),
                                PipelineOp.sleep(1.5)], exec_time_ms=2.0)
        for _ in range(2):
            run = run_pipeline(fn, fs, b"")
            assert next(run) == "/ext/a"
            with pytest.raises(StopIteration) as stop:
                run.send(TaintedBytes(self.CONTENT))
            assert stop.value.value == (self.CONTENT, 2000 + 1500)


class TestStepMachine:
    def test_external_read_suspends_and_resumes(self):
        content = b"remote"
        fs = NestedFs({}, dict([manifest_entry("/ext/f", content)]))
        fn = FunctionSpec("r", [PipelineOp.read_file("/ext/f"),
                                PipelineOp.uppercase()], exec_time_ms=2.0)
        run = run_pipeline(fn, fs, b"")
        assert next(run) == "/ext/f"  # suspended until the bytes are sent
        with pytest.raises(StopIteration) as stop:
            run.send(content)
        assert stop.value.value == (b"REMOTE", 2000)

    def test_tampered_delivery_fails_the_run(self):
        fs = NestedFs({}, dict([manifest_entry("/ext/f", b"good")]))
        fn = FunctionSpec("r", [PipelineOp.read_file("/ext/f")])
        run = run_pipeline(fn, fs, b"")
        assert next(run) == "/ext/f"
        with pytest.raises(FunctionError,
                           match="digest mismatch for external file /ext/f"):
            run.send(b"evil")
