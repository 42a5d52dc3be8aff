"""CLI surface tests: commands, exit codes, seeded reproducibility."""

import hashlib
import json

import pytest

from walletemu import traceio
from walletemu.cli import build_sized_image, main
from walletemu.errors import (
    EXIT_CODES,
    EmulatorError,
    InvariantError,
    ParseError,
    PolicyViolation,
    exit_code_for,
)
from walletemu.images import FunctionSpec, PipelineOp, ZygoteImage

MIB = 1048576


@pytest.fixture
def artifacts(tmp_path):
    image = ZygoteImage("cli-rt", 20, [("/data/x", b"42")])
    zygote_path = tmp_path / "zygote.wzyg"
    zygote_path.write_bytes(image.canonical_bytes)
    echo = FunctionSpec("echo", [PipelineOp.identity()], 1.0)
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(echo.to_json())
    shout = FunctionSpec("shout", [PipelineOp.uppercase()], 1.0)
    shout_path = tmp_path / "shout.json"
    shout_path.write_text(shout.to_json())
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({
        "allowed_zygotes": [image.digest().hex()],
        "allowed_functions": [echo.digest().hex(), shout.digest().hex()],
    }))
    return dict(image=image, zygote=zygote_path, echo=echo_path,
                shout=shout_path, policy=policy_path, tmp=tmp_path)


def run_json(args, out_path):
    code = main(args + ["--out", str(out_path)])
    assert code == 0
    return json.loads(out_path.read_text())


class TestEmulate:
    def test_three_invocations_cold_then_warm(self, artifacts):
        out = artifacts["tmp"] / "emu.json"
        doc = run_json([
            "emulate", "--zygote", str(artifacts["zygote"]),
            "--function", str(artifacts["echo"]), "-n", "3", "--seed", "4"],
            out)
        labels = [i["label"] for i in doc["invocations"]]
        assert labels == ["cold", "warm", "warm"]
        for inv in doc["invocations"]:
            assert inv["verified"]
        warm = [i for i in doc["invocations"] if i["label"] == "warm"]
        assert all(i["setup_us"] < 10_300 for i in warm)

    def test_second_function_is_lukewarm(self, artifacts):
        out = artifacts["tmp"] / "emu2.json"
        doc = run_json([
            "emulate", "--zygote", str(artifacts["zygote"]),
            "--function", str(artifacts["echo"]),
            "--function", str(artifacts["shout"]),
            "-n", "1", "--seed", "4"], out)
        labels = [i["label"] for i in doc["invocations"]]
        assert labels == ["cold", "lukewarm"]

    def test_tampered_zygote_exits_with_policy_violation(self, artifacts):
        raw = bytearray(artifacts["zygote"].read_bytes())
        raw[-5] ^= 0x01  # flip a content byte; the image still parses
        tampered = artifacts["tmp"] / "tampered.wzyg"
        tampered.write_bytes(bytes(raw))
        code = main(["emulate", "--zygote", str(tampered),
                     "--function", str(artifacts["echo"]),
                     "--policy", str(artifacts["policy"]), "-n", "1"])
        assert code == EXIT_CODES[PolicyViolation]

    @pytest.mark.parametrize("doc", [
        [{"name": "echo", "steps": []}],
        {"name": "echo", "steps": 5},
        {"name": "echo", "steps": [{"op": "append", "arg": 5}]},
        {"name": 5, "steps": []},
    ], ids=["top-level-list", "steps-number", "arg-number", "name-number"])
    def test_malformed_function_spec_reports_parse_error(self, artifacts, doc):
        bad = artifacts["tmp"] / "bad_fn.json"
        bad.write_text(json.dumps(doc))
        code = main(["emulate", "--zygote", str(artifacts["zygote"]),
                     "--function", str(bad)])
        assert code == EXIT_CODES[ParseError]

    @pytest.mark.parametrize("doc", [
        [1],
        {"allowed_zygotes": ["zz"], "allowed_functions": []},
    ], ids=["top-level-list", "not-hex"])
    def test_malformed_policy_file_reports_parse_error(self, artifacts, doc):
        bad = artifacts["tmp"] / "bad_policy.json"
        bad.write_text(json.dumps(doc))
        code = main(["emulate", "--zygote", str(artifacts["zygote"]),
                     "--function", str(artifacts["echo"]),
                     "--policy", str(bad)])
        assert code == EXIT_CODES[ParseError]

    @pytest.mark.parametrize("flag", ["--zygote", "--function", "--policy"])
    def test_missing_input_file_exits_with_parse_error(self, artifacts, capsys,
                                                       flag):
        args = {"--zygote": str(artifacts["zygote"]),
                "--function": str(artifacts["echo"])}
        args[flag] = str(artifacts["tmp"] / "nonexistent")
        code = main(["emulate", *(x for kv in args.items() for x in kv)])
        assert code == EXIT_CODES[ParseError]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: FileNotFoundError")

    def test_seeded_outputs_bit_identical(self, artifacts):
        out1 = artifacts["tmp"] / "a.json"
        out2 = artifacts["tmp"] / "b.json"
        args = ["emulate", "--zygote", str(artifacts["zygote"]),
                "--function", str(artifacts["echo"]), "-n", "2",
                "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestChain:
    def test_counters_and_speedup(self, tmp_path):
        doc = run_json(["chain", "--k", "4", "--payload-size", "4096",
                        "--seed", "2"], tmp_path / "chain.json")
        assert doc["chain"]["fallback_copies"] == 0
        assert doc["chain"]["crypto_ops"] == 0
        assert doc["chain"]["payload_bytes_copied"] == 4 * 4096
        assert doc["fallback"]["fallback_copies"] == 2 * 3
        assert doc["fallback"]["crypto_ops"] == 2 * 3
        assert doc["speedup"] >= 10
        assert doc["output_matches"]
        assert doc["chain"]["report_entries"] == 4


class TestDensity:
    def test_sized_image_builder_exact(self):
        image = build_sized_image("rt", 2 * MIB)
        assert len(image.canonical_bytes) == 2 * MIB

    def test_small_density_table(self, tmp_path):
        doc = run_json(["density", "--n-functions", "10", "--zygote-mib", "2",
                        "--seed", "1"], tmp_path / "density.json")
        acc = doc["accounting"]
        assert acc["shared_bytes"] == 2 * MIB
        assert acc["exclusive_bytes"] == 10 * 60 * 1024
        cvm = next(r for r in doc["table"] if r["variant"] == "CVM")
        assert cvm["total_bytes"] == 10 * 336 * MIB
        assert cvm["per_node_instance_cap"] == 509


class TestSimulateAndGenTrace:
    def test_gen_trace_then_simulate(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_functions": 30, "n_apps": 6, "duration_minutes": 0.5,
            "arrival_rate_per_s": 20, "popularity_zipf_s": 1.1,
            "duration_lognormal_mu": 5.7, "duration_lognormal_sigma": 1.0,
            "seed": 0}))
        trace_path = tmp_path / "trace.csv"
        assert main(["gen-trace", "--gen-spec", str(spec), "--seed", "3",
                     "--out", str(trace_path)]) == 0
        stats_path = tmp_path / "stats.json"
        assert main(["simulate", "--trace", str(trace_path),
                     "--nodes", "4", "--slots", "4", "--cache", "4",
                     "--seed", "3", "--variant", "Wallet,CVM",
                     "--out", str(stats_path)]) == 0
        rows = json.loads(stats_path.read_text())
        assert {r["variant"] for r in rows} == {"Wallet", "CVM"}
        for row in rows:
            assert row["cold"] + row["lukewarm"] + row["warm"] > 0

    def test_simulate_seed_reproducible(self, tmp_path):
        argset = ["simulate", "--nodes", "3", "--slots", "2", "--cache", "3",
                  "--seed", "8", "--variant", "Wallet"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_functions": 10, "n_apps": 2, "duration_minutes": 0.2,
            "arrival_rate_per_s": 30, "seed": 0}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argset + ["--gen-spec", str(spec), "--out", str(a)]) == 0
        assert main(argset + ["--gen-spec", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_per_invocation_dump(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_functions": 5, "n_apps": 2, "duration_minutes": 0.1,
            "arrival_rate_per_s": 20, "seed": 0}))
        dump = tmp_path / "per.csv"
        assert main(["simulate", "--gen-spec", str(spec), "--nodes", "2",
                     "--slots", "2", "--cache", "2", "--seed", "1",
                     "--variant", "Wallet", "--per-invocation", str(dump),
                     "--out", str(tmp_path / "s.json")]) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0].startswith("variant,invocation_id")
        assert len(lines) > 1

    def test_csv_stats_have_a_header_and_a_row_per_variant(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_functions": 5, "n_apps": 2, "duration_minutes": 0.1,
            "arrival_rate_per_s": 20, "seed": 0}))
        out = tmp_path / "stats.csv"
        assert main(["simulate", "--gen-spec", str(spec), "--nodes", "2",
                     "--slots", "2", "--cache", "2", "--seed", "1",
                     "--variant", "Wallet,VM,CVM", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("variant,p50_delay_ms,")
        assert sorted(line.split(",")[0] for line in lines[1:]) == \
            ["CVM", "VM", "Wallet"]

    @pytest.mark.parametrize("command", ["emulate", "chain", "density",
                                         "gen-trace", "attest-demo"])
    def test_format_is_refused_outside_simulate(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag,value", [
        ("chain", "k", 0),
        ("chain", "payload-size", -5),
        ("density", "n-functions", -3),
        ("density", "zygote-mib", 0),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_sizes_are_refused(self, tmp_path, capsys, command,
                                            flag, value, source):
        argv = [command, f"--{flag}={value}"]
        if source == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({flag: value}))
            argv = [command, "--config", str(config)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: walletemu {command}")
        assert f"argument --{flag}: must be at least" in err

    def test_no_cow_is_refused_by_chain(self):
        # A chain run's output does not depend on how trustlets are forked.
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--no-cow"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("doc", [
        {"duration_minutes": float("nan")},
        {"arrival_rate_per_s": float("inf")},
        {"popularity_zipf_s": float("nan")},
    ])
    def test_non_finite_spec_exits_with_parse_error(self, tmp_path, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))  # NaN / Infinity literals
        assert main(["gen-trace", "--gen-spec", str(spec),
                     "--out", str(tmp_path / "t.csv")]) == \
            EXIT_CODES[ParseError]

    def test_overflowing_zipf_spec_exits_with_parse_error(self, tmp_path,
                                                          capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_functions": 50, "n_apps": 5,
                                    "popularity_zipf_s": -200}))
        out = tmp_path / "t.csv"
        assert main(["gen-trace", "--gen-spec", str(spec),
                     "--out", str(out)]) == EXIT_CODES[ParseError]
        assert "Zipf weights" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_trace_without_out_fails_before_generating(
            self, monkeypatch, capsys):
        def no_generation(spec):
            raise AssertionError("generated a trace it cannot write")

        monkeypatch.setattr("walletemu.cli.generate_trace", no_generation)
        assert main(["gen-trace"]) == exit_code_for(EmulatorError()) == 1
        assert "requires --out" in capsys.readouterr().err

    def test_negative_seed_exits_with_invariant_error(self, tmp_path):
        assert main(["gen-trace", "--seed", "-1",
                     "--out", str(tmp_path / "t.csv")]) == \
            EXIT_CODES[InvariantError]

    def test_non_finite_trace_exits_with_parse_error(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(
            "invocation_id,app_id,function_id,arrival_ms,duration_ms\n"
            "0,0,0,nan,1.0\n1,0,0,2.0,nan\n2,0,0,inf,1.0\n")
        assert main(["simulate", "--trace", str(trace), "--nodes", "1",
                     "--out", str(tmp_path / "s.json")]) == \
            EXIT_CODES[ParseError]

    def test_sweep_rows_equal_plain_runs(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_functions": 12, "n_apps": 3, "duration_minutes": 0.2,
            "arrival_rate_per_s": 30, "seed": 0}))
        common = ["--gen-spec", str(spec), "--slots", "2", "--cache", "3",
                  "--seed", "5", "--variant", "Wallet,CVM"]
        sweep = run_json(["simulate", "--sweep-nodes", "3,2"] + common,
                         tmp_path / "sweep.json")["sweep_nodes"]
        assert sorted(sweep) == ["2", "3"]
        for nodes in ("2", "3"):
            plain = run_json(["simulate", "--nodes", nodes] + common,
                             tmp_path / f"plain{nodes}.json")
            assert sweep[nodes] == plain

    def test_sweep_refuses_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--sweep-nodes", "2,3", "--format", "csv",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--format csv is refused" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_refuses_per_invocation(self, tmp_path, capsys):
        dump = tmp_path / "per.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--sweep-nodes", "2,3",
                  "--per-invocation", str(dump)])
        assert exc.value.code == 2
        assert "--per-invocation is refused" in capsys.readouterr().err
        assert not dump.exists()


    def test_sweep_with_a_missing_spec_exits_with_parse_error(self, tmp_path,
                                                              capsys):
        code = main(["simulate", "--sweep-nodes", "3,2", "--gen-spec",
                     str(tmp_path / "missing.json")])
        assert code == EXIT_CODES[ParseError]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: FileNotFoundError")

    @pytest.mark.parametrize("args", [
        ["--sweep-nodes", "2,3", "--format", "csv"],
        ["--sweep-nodes", "2,3", "--per-invocation", "per.csv"],
        ["--bogus"],
        ["--config", "chain.json"],  # a key that simulate does not declare
    ], ids=["sweep-csv", "sweep-per-invocation", "flag", "config-key"])
    def test_refusals_show_the_command_usage(self, tmp_path, monkeypatch,
                                             capsys, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "chain.json").write_text(json.dumps({"k": 3}))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *args])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: walletemu simulate")


class TestPinnedSimulatorOutputs:
    """SHA-256 of the simulator's CLI artifacts, pinned bit for bit.

    Every float is written with ``repr`` of a Python float; a numpy scalar
    would print as ``np.float64(...)`` and change the hashes.
    """

    PINS = {
        "trace.csv":
            "f514e0c1a3e2519a3c0e8759d79560e04a8c9ff154ca50ce9a71e53b558fe21c",
        "s0.json":
            "341ac85174fb1fb3616bfa1105c614d529a9abf1ed349b893edd8526117becd7",
        "p0.csv":
            "d048a4a940fef8e7a34bb3a4799872a442d0a3e9a5fb9340dd6d464c51804ec1",
        "s3.json":
            "f707e9f9d40ee07a93ee9446cb77434f13c41a242891e4c8d8f4fa146bbf4391",
        "p3.csv":
            "9ef220e40b2760c1458d0b905adbba11fbddf1adfa556908d11d2dd67bfff5f4",
    }

    def test_gen_trace_and_simulate_artifacts(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_functions": 40, "n_apps": 8, "duration_minutes": 0.5,
            "arrival_rate_per_s": 40, "seed": 0}))
        cluster = ["--nodes", "8", "--slots", "4", "--cache", "4",
                   "--variant", "Wallet,VM,CVM"]
        out = {name: str(tmp_path / name) for name in self.PINS}
        assert main(["gen-trace", "--gen-spec", str(spec), "--seed", "0",
                     "--out", out["trace.csv"]]) == 0
        # Seed 0 generates its trace; seed 3 loads the written one.
        assert main(["simulate", "--gen-spec", str(spec), *cluster,
                     "--seed", "0", "--out", out["s0.json"],
                     "--per-invocation", out["p0.csv"]]) == 0
        assert main(["simulate", "--trace", out["trace.csv"], *cluster,
                     "--seed", "3", "--jitter", "0.3",
                     "--out", out["s3.json"],
                     "--per-invocation", out["p3.csv"]]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in self.PINS}
        assert digests == self.PINS

    def test_artifacts_do_not_depend_on_the_row_chunk(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(traceio, "ROW_CHUNK", 7)
        self.test_gen_trace_and_simulate_artifacts(tmp_path)


class TestPinnedEmulatorOutputs:
    """SHA-256 of the emulator commands' stdout and object dumps at seed 0,
    pinned bit for bit."""

    PINS = {
        "emulate":
            "12cad555a3478cd98b12399a8abef757ed31b54bacd4dc92401ab9e25141fbf8",
        "emulate-objects.json":
            "0de5b8cf6b2f593ad6cf1498417d5e27e28d8ffa1f0027d1e4a559ddd6e9e7da",
        "chain-k8":
            "f5e810fd4d2e6c1d511160420f72ab2688187b9771cdce6056146e5e818e7e80",
        "chain-k8-objects.json":
            "26a7fedceeb88201a45e46b6257c6d399b6440cf984f819d0d376d3d7ba966aa",
        "chain-k4-100000":
            "9ef491b03989098de481e5799f61a50aea930443fd612e0d84888a286b78893f",
        "density-500":
            "d8b25bea5ab2e76e6cc64e0e6386d8c201e40876edd3877a1fca92b0259005a8",
        "attest-demo":
            "392adba4429132fee5a8d3691069462ee94d49dd7846cf02f4e1176da4ddaa71",
    }

    def test_stdout_and_object_dumps(self, artifacts, capsys):
        tmp = artifacts["tmp"]
        runs = {
            "emulate": ["emulate", "--zygote", str(artifacts["zygote"]),
                        "--function", str(artifacts["echo"]),
                        "--function", str(artifacts["shout"]), "-n", "3",
                        "--dump-objects", str(tmp / "emulate-objects.json")],
            "chain-k8": ["chain", "--k", "8", "--dump-objects",
                         str(tmp / "chain-k8-objects.json")],
            "chain-k4-100000": ["chain", "--k", "4",
                                "--payload-size", "100000"],
            "density-500": ["density", "--n-functions", "500"],
            "attest-demo": ["attest-demo"],
        }
        digests = {}
        for name, argv in runs.items():
            capsys.readouterr()
            assert main(argv + ["--seed", "0"]) == 0
            digests[name] = hashlib.sha256(
                capsys.readouterr().out.encode()).hexdigest()
        for name in ("emulate-objects.json", "chain-k8-objects.json"):
            digests[name] = hashlib.sha256(
                (tmp / name).read_bytes()).hexdigest()
        assert digests == self.PINS


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, artifacts):
        config = artifacts["tmp"] / "run.json"
        config.write_text(json.dumps({
            "zygote": str(artifacts["zygote"]),
            "function": [str(artifacts["echo"])],
            "invocations": 2,
            "seed": 40,
        }))
        out = artifacts["tmp"] / "cfg.json"
        doc = run_json(["emulate", "--config", str(config)], out)
        assert len(doc["invocations"]) == 2
        # An explicit flag overrides the config value.
        doc = run_json(["emulate", "--config", str(config), "-n", "1"], out)
        assert len(doc["invocations"]) == 1

    def test_malformed_config_reports_parse_error(self, artifacts):
        bad = artifacts["tmp"] / "bad.json"
        bad.write_text("[1, 2, 3]")
        code = main(["emulate", "--config", str(bad),
                     "--zygote", str(artifacts["zygote"]),
                     "--function", str(artifacts["echo"])])
        assert code == 11  # ParseError

    @pytest.mark.parametrize("doc", [
        {"no-cow": True},      # declared by emulate and density, not chain
        {"bogus-flag": 1},     # declared by no command
        {"payload": 64},       # an abbreviation of --payload-size
        {"k": "three"},        # not an int, as --k three is not
        {"k": True},           # --k takes a value
    ], ids=["other-command", "unknown", "abbreviation", "bad-type", "bare"])
    def test_config_keys_are_refused_like_the_flags(self, tmp_path, doc):
        config = tmp_path / "chain.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--config", str(config)])
        assert exc.value.code == 2

    def test_config_values_go_through_the_flag_type(self, tmp_path):
        config = tmp_path / "chain.json"
        config.write_text(json.dumps({"k": "3", "payload_size": 512}))
        doc = run_json(["chain", "--config", str(config)],
                       tmp_path / "out.json")
        assert doc["k"] == 3
        assert doc["chain"]["report_entries"] == 3
        assert doc["payload_bytes"] == 512
        # An explicit flag still wins.
        doc = run_json(["chain", "--config", str(config), "--k", "2"],
                       tmp_path / "out.json")
        assert doc["k"] == 2

    def test_config_lists_repeat_and_switches_follow_booleans(self, artifacts):
        config = artifacts["tmp"] / "run.json"
        config.write_text(json.dumps({
            "zygote": str(artifacts["zygote"]),
            "function": [str(artifacts["echo"])],
            "invocations": 1,
            "no_cow": False,
        }))
        out = artifacts["tmp"] / "cfg.json"
        # An explicit --function adds to the config's list.
        doc = run_json(["emulate", "--config", str(config),
                        "--function", str(artifacts["shout"])], out)
        assert [i["function"] for i in doc["invocations"]] == ["echo", "shout"]
        assert [i["label"] for i in doc["invocations"]] == ["cold", "lukewarm"]
        # false leaves --no-cow off; true sets it, as the flag does.
        cow = doc["invocations"][0]["creation"]["trustlet_us"]
        config.write_text(json.dumps({
            "zygote": str(artifacts["zygote"]),
            "function": [str(artifacts["echo"])],
            "invocations": 1,
            "no-cow": True,
        }))
        no_cow = run_json(["emulate", "--config", str(config)], out)
        flag = run_json(["emulate", "--zygote", str(artifacts["zygote"]),
                         "--function", str(artifacts["echo"]), "-n", "1",
                         "--no-cow"], out)
        assert no_cow == flag
        assert flag["invocations"][0]["creation"]["trustlet_us"] != cow


class TestAttestDemo:
    def test_transcript_verdicts(self, tmp_path):
        doc = run_json(["attest-demo", "--seed", "6"],
                       tmp_path / "demo.json")
        phases = {e["phase"]: e for e in doc["transcript"]}
        assert phases["cold-invocation"]["verdict"] is True
        assert phases["warm-invocation"]["verdict"] is True
        assert phases["tampered-input"]["verdict"] is False
        assert phases["nonce-replay"]["outcome"] == "StaleNonce"
        warm = phases["warm-invocation"]
        cold = phases["cold-invocation"]
        assert warm["bytes_hashed"] <= cold["bytes_hashed"]
