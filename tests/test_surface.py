"""Wire-API surface checks: syscall aliases, object dump, runtime init."""

import json

import pytest

from conftest import echo_fn, make_rig, shout_fn
from walletemu.cli import main
from walletemu.errors import ConfigInvalid
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage
from walletemu.monitor import Monitor, ProcState
from walletemu.objects import ObjectType


class TestSyscallAliases:
    def test_table_names_are_exposed(self):
        for name in ("createZygote", "deleteZygote", "createTrustlet",
                     "deleteTrustlet", "invokeTrustlet", "attestMonitor",
                     "loadPolicy"):
            assert callable(getattr(Monitor, name))

    def test_alias_dispatches_to_the_same_behavior(self, rig):
        fn = rig.functions[0]
        creation = rig.monitor.createTrustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"via alias")
        result = rig.monitor.invokeTrustlet(creation.handle,
                                            request.ciphertext)
        assert rig.user.decrypt_response(request, result.output_ciphertext) \
            == b"via alias"
        rig.monitor.deleteTrustlet(creation.handle)


class TestRuntimeInit:
    def test_double_init_forbidden_by_state_machine(self, rig):
        pid = rig.monitor._handles[rig.zygote.handle]
        proc = rig.monitor._procs[pid]
        assert proc.state is ProcState.READY
        with pytest.raises(ConfigInvalid):
            rig.monitor._runtime_init(proc)

    def test_zero_init_cost_charges_nothing(self):
        image = ZygoteImage("zero-rt", init_cost_ms=0,
                            embedded_fs=[("/f", b"x")])
        rig = make_rig(image=image,
                       functions=[FunctionSpec("id", [PipelineOp.identity()])])
        assert rig.zygote.init_us == 0


class TestDescriptorObjects:
    def test_descriptor_tracks_live_attachments(self):
        rig = make_rig(chains=((echo_fn().digest(), shout_fn().digest()),))
        m = rig.monitor
        echo, shout = rig.functions[:2]
        t = m.create_trustlet(rig.zygote.handle, echo)
        consumer = m.create_trustlet(rig.zygote.handle, shout)
        proc = m._proc(t.handle)
        assert m.objects.attached_view(proc.pid) == set()
        first, second = (m.invoke_trustlet(t.handle, rig.user.make_request(
            echo.digest(), b"track me").ciphertext) for _ in range(2))
        # Each input was consumed and retired; the newest output supersedes
        # the previous one and stays attached.
        assert first.output_obj_id not in m.objects.objects
        assert m.objects.attached_view(proc.pid) == {second.output_obj_id} \
            == {proc.output_obj}
        # A chain object supersedes nothing: the output stays current.
        m.link_chain(t.handle, consumer.handle)
        handoff = m.invoke_trustlet(t.handle, rig.user.make_request(
            echo.digest(), b"hand me off").ciphertext)
        chain_obj = handoff.output_obj_id
        assert m.objects.get(chain_obj).otype is ObjectType.CHAIN
        assert m.objects.attached_view(proc.pid) == {second.output_obj_id,
                                                     chain_obj}
        assert proc.output_obj == second.output_obj_id


class TestObjectDump:
    def test_dump_lists_live_objects(self, rig):
        fn = rig.functions[0]
        t = rig.monitor.create_trustlet(rig.zygote.handle, fn)
        request = rig.user.make_request(fn.digest(), b"dumpable")
        rig.monitor.invoke_trustlet(t.handle, request.ciphertext)
        table = rig.monitor.objects.dump()
        assert table
        assert all({"obj_id", "otype", "length", "writer",
                    "reader"} <= set(row) for row in table)
        assert any(row["otype"] == "output" for row in table)

    def test_cli_dump_objects_flag(self, tmp_path):
        image = ZygoteImage("cli-rt", 0, [("/data/x", b"42")])
        (tmp_path / "z.wzyg").write_bytes(image.canonical_bytes)
        fn = FunctionSpec("echo", [PipelineOp.identity()], 1.0)
        (tmp_path / "f.json").write_text(fn.to_json())
        dump = tmp_path / "objects.json"
        assert main(["emulate", "--zygote", str(tmp_path / "z.wzyg"),
                     "--function", str(tmp_path / "f.json"), "-n", "1",
                     "--dump-objects", str(dump),
                     "--out", str(tmp_path / "out.json")]) == 0
        rows = json.loads(dump.read_text())
        assert isinstance(rows, list)
