"""Command-line front door.

Subcommands: emulate, chain, density, simulate, gen-trace, attest-demo.
Machine-readable JSON goes to --out (or stdout); short human summaries go
to stderr.  Every command is bit-reproducible under a fixed --seed.  Exit
codes are 0 on success and one documented nonzero code per error class
(see errors.EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import attestation as att
from .crypto import Rng
from .errors import EmulatorError, ParseError, exit_code_for
from .images import FunctionSpec, PipelineOp, ZygoteImage
from .memory import CostModel, accounting
from .monitor import Monitor, MonitorConfig
from .objects import fallback_transfer
from .provider import FunctionProvider, UserAgent
from .sim import SimConfig, default_profiles, simulate
from .sim.engine import BOOT_TIERS
from .traceio import GeneratorSpec, generate_trace, load_trace, write_stats, write_trace

MIB = 1048576


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _monitor_config(args) -> MonitorConfig:
    cost = CostModel()
    prealloc = getattr(args, "prealloc", None)
    if prealloc is None:
        prealloc = 512 * MIB
    return MonitorConfig(
        prealloc_bytes=prealloc or 0,
        pool_frames=0 if prealloc else 262144,
        cost_model=cost,
        cow_enabled=not getattr(args, "no_cow", False),
        seed=args.seed,
    )


def _load_policy_digests(args, image: ZygoteImage,
                         functions) -> tuple[list, list, list]:
    if getattr(args, "policy", None):
        try:
            doc = json.loads(Path(args.policy).read_text(encoding="utf-8"))
            zygotes = [bytes.fromhex(d) for d in doc["allowed_zygotes"]]
            fns = [bytes.fromhex(d) for d in doc["allowed_functions"]]
            chains = [tuple(bytes.fromhex(d) for d in chain)
                      for chain in doc.get("chains", [])]
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"bad policy file: {exc}") from exc
        return zygotes, fns, chains
    return ([image.digest()], [fn.digest() for fn in functions], [])


# -- emulate ---------------------------------------------------------------------


def cmd_emulate(args) -> dict:
    if not args.zygote or not args.function:
        raise ParseError("emulate requires --zygote and --function "
                         "(flags or config file)")
    image = ZygoteImage.from_bytes(Path(args.zygote).read_bytes())
    functions = [FunctionSpec.from_json(Path(p).read_bytes())
                 for p in args.function]
    zygotes, fns, chains = _load_policy_digests(args, image, functions)

    monitor = Monitor(_monitor_config(args))
    provider = FunctionProvider(Rng(args.seed + 1), zygotes, fns, chains)
    provider.provision(monitor)
    user = UserAgent(Rng(args.seed + 2), provider.public_key())

    invocations = []
    zygote_handle = None
    for fn in functions:
        trustlet = None
        for i in range(args.invocations):
            label = "warm"
            phase_us = 0
            creation = {}
            if zygote_handle is None:
                label = "cold"
                zc = monitor.create_zygote(image)
                zygote_handle = zc.handle
                creation["zygote_us"] = zc.total_us
                phase_us += zc.total_us
            if trustlet is None:
                if label != "cold":
                    label = "lukewarm"
                tc = monitor.create_trustlet(zygote_handle, fn)
                trustlet = tc.handle
                creation["trustlet_us"] = tc.creation_us
                phase_us += tc.creation_us
            request = user.make_request(fn.digest(), args.input.encode())
            result = monitor.invoke_trustlet(trustlet, request.ciphertext)
            expectations = user.expectations(
                request, monitor.machine_key.public_bytes(),
                monitor.monitor_digest, zygotes, fns)
            verified = att.verify_report(result.report, expectations)
            output = user.decrypt_response(request, result.output_ciphertext)
            invocations.append({
                "function": fn.name,
                "label": label,
                "setup_us": phase_us + result.charges.setup_us,
                "exec_us": result.charges.exec_us,
                "total_us": phase_us + result.charges.total_us,
                "invoke": {
                    "decrypt_us": result.charges.decrypt_us,
                    "input_us": result.charges.input_us,
                    "exec_us": result.charges.exec_us,
                    "output_us": result.charges.output_us,
                    "report_us": result.charges.report_us,
                    "response_us": result.charges.response_us,
                },
                "creation": creation,
                "verified": verified,
                "output_len": len(output),
            })
    doc = {
        "boot_us": monitor.boot_us,
        "clock_us": monitor.clock_us,
        "invocations": invocations,
        "bytes_hashed": monitor.cache.bytes_hashed,
        "cache": {"hits": monitor.cache.hits, "misses": monitor.cache.misses},
    }
    if args.cert_out:
        Path(args.cert_out).write_text(monitor.machine_key.export_cert(),
                                       encoding="utf-8")
    if args.dump_objects:
        Path(args.dump_objects).write_text(
            json.dumps(monitor.objects.dump(), indent=2) + "\n",
            encoding="utf-8")
    labels = [i["label"] for i in invocations]
    _note(f"emulate: {len(invocations)} invocations {labels}; "
          f"all verified: {all(i['verified'] for i in invocations)}")
    return doc


# -- chain ------------------------------------------------------------------------


def _relay_functions(k: int) -> list[FunctionSpec]:
    return [FunctionSpec(f"relay-{i}", [PipelineOp.identity()], 0.0)
            for i in range(k)]


def _comm_us(charges) -> int:
    """Inter-function path time: input staging + execution + output.

    User-edge request/response crypto and report hashing are identical in
    both transfer modes and reported separately, so the chain-vs-fallback
    comparison isolates the communication mechanism.
    """
    return charges.input_us + charges.exec_us + charges.output_us


def cmd_chain(args) -> dict:
    k = args.k
    payload = bytes((i * 37 + 11) % 251 for i in range(args.payload_size))

    def build():
        functions = _relay_functions(k)
        image = ZygoteImage("relay-rt", 0, [("/etc/noop", b"relay")])
        chain_digests = tuple(fn.digest() for fn in functions)
        monitor = Monitor(_monitor_config(args))
        provider = FunctionProvider(Rng(args.seed + 1), [image.digest()],
                                    list(chain_digests), [chain_digests])
        provider.provision(monitor)
        user = UserAgent(Rng(args.seed + 2), provider.public_key())
        zyg = monitor.create_zygote(image)
        handles = [monitor.create_trustlet(zyg.handle, fn).handle
                   for fn in functions]
        return monitor, provider, user, functions, handles

    # Chain (data-object) mode.
    monitor, provider, user, functions, handles = build()
    for producer, consumer in zip(handles, handles[1:]):
        monitor.link_chain(producer, consumer)
    request = user.make_request(functions[0].digest(), payload)
    base = monitor.objects.counter.snapshot()
    result = monitor.invoke_trustlet(handles[0], request.ciphertext)
    latency_us = _comm_us(result.charges)
    while result.handoff is not None:
        result = monitor.invoke_chained(result.handoff)
        latency_us += _comm_us(result.charges)
    chain_counters = monitor.objects.counter.snapshot()
    chain_stats = {
        "payload_bytes_copied": chain_counters["payload_bytes_copied"]
        - base["payload_bytes_copied"],
        "crypto_ops": chain_counters["crypto_ops"] - base["crypto_ops"],
        "fallback_copies": chain_counters["fallback_copies"]
        - base["fallback_copies"],
        "latency_us": latency_us,
        "report_entries": len(result.report.chain_entries),
    }
    output = user.decrypt_response(request, result.output_ciphertext)

    # Fallback (copy-and-encrypt) mode over the same stages.
    monitor2, provider2, user2, functions2, handles2 = build()
    request2 = user2.make_request(functions2[0].digest(), payload)
    base2 = monitor2.objects.counter.snapshot()
    transport_key = Rng(args.seed + 3).bytes(32)
    result2 = monitor2.invoke_trustlet(handles2[0], request2.ciphertext)
    fb_latency_us = _comm_us(result2.charges)
    for hop in range(1, k):
        envelope, delivered, charge = fallback_transfer(
            monitor2.objects, result2.output_obj_id, monitor2.objects,
            transport_key, monitor2.guest, monitor2.rng, colocated=True)
        fb_latency_us += charge
        result2 = monitor2.invoke_with_input(
            handles2[hop], delivered, request2.response_key, request2.nonce)
        fb_latency_us += _comm_us(result2.charges)
    fb_counters = monitor2.objects.counter.snapshot()
    fallback_stats = {
        "payload_bytes_copied": fb_counters["payload_bytes_copied"]
        - base2["payload_bytes_copied"],
        "crypto_ops": fb_counters["crypto_ops"] - base2["crypto_ops"],
        "fallback_copies": fb_counters["fallback_copies"]
        - base2["fallback_copies"],
        "colocated_fallbacks": fb_counters["colocated_fallbacks"],
        "latency_us": fb_latency_us,
    }

    speedup = fallback_stats["latency_us"] / max(1, chain_stats["latency_us"])
    doc = {
        "k": k,
        "payload_bytes": len(payload),
        "colocated": True,
        "chain": chain_stats,
        "fallback": fallback_stats,
        "speedup": speedup,
        "output_matches": output == payload,
    }
    if args.dump_objects:
        Path(args.dump_objects).write_text(
            json.dumps(monitor.objects.dump(), indent=2) + "\n",
            encoding="utf-8")
    _note(f"chain k={k}: object path {chain_stats['latency_us']} us vs "
          f"fallback {fallback_stats['latency_us']} us ({speedup:.1f}x)")
    return doc


# -- density ----------------------------------------------------------------------


def build_sized_image(runtime_id: str, target_bytes: int) -> ZygoteImage:
    """Zygote image whose canonical form is exactly target_bytes long."""
    probe = ZygoteImage(runtime_id, 0, [("/fs/blob", b"")])
    overhead = len(probe.canonical_bytes)
    if target_bytes < overhead:
        raise ValueError(f"target must be at least {overhead} bytes")
    return ZygoteImage(runtime_id, 0,
                       [("/fs/blob", bytes(target_bytes - overhead))])


def cmd_density(args) -> dict:
    n = args.n_functions
    image = build_sized_image("density-rt", args.zygote_mib * MIB)
    fn = FunctionSpec("noop", [PipelineOp.identity()], 0.0)

    monitor = Monitor(_monitor_config(args))
    provider = FunctionProvider(Rng(args.seed + 1), [image.digest()],
                                [fn.digest()])
    provider.provision(monitor)
    zyg = monitor.create_zygote(image)
    for _ in range(n):
        monitor.create_trustlet(zyg.handle, fn)
    usage = accounting(monitor.live_tables())

    profiles = default_profiles()
    rows = []
    wallet_bytes = usage.total_resident_bytes
    for name in sorted(profiles):
        profile = profiles[name]
        if name == "Wallet":
            total = wallet_bytes
            nodes_needed = 1
        else:
            total = profile.per_function_memory * n
            cap = profile.per_node_instance_cap
            nodes_needed = -(-n // cap) if cap else 1
        rows.append({
            "variant": name,
            "total_bytes": total,
            "total_mib": round(total / MIB, 3),
            "ratio_vs_wallet": round(total / wallet_bytes, 3),
            "per_node_instance_cap": profile.per_node_instance_cap,
            "nodes_needed": nodes_needed,
        })
    doc = {
        "n_functions": n,
        "zygote_mib": args.zygote_mib,
        "accounting": {
            "shared_bytes": usage.shared_bytes,
            "exclusive_bytes": usage.exclusive_bytes,
            "total_resident_bytes": usage.total_resident_bytes,
        },
        "table": rows,
    }
    _note(f"density n={n}: Wallet {wallet_bytes / MIB:.1f} MiB; "
          f"CVM ratio {next(r['ratio_vs_wallet'] for r in rows if r['variant'] == 'CVM'):.0f}x")
    return doc


# -- simulate / gen-trace -----------------------------------------------------------


def _selected_profiles(args) -> dict:
    profiles = default_profiles()
    if args.variant:
        names = [v.strip() for v in args.variant.split(",")]
        unknown = [v for v in names if v not in profiles]
        if unknown:
            raise EmulatorError(f"unknown variants: {unknown}")
        profiles = {name: profiles[name] for name in names}
    return profiles


def _generator_spec(args) -> GeneratorSpec:
    if args.gen_spec:
        spec = GeneratorSpec.from_json(
            Path(args.gen_spec).read_text(encoding="utf-8"))
    else:
        spec = GeneratorSpec()
    spec.seed = args.seed
    return spec


def _load_or_generate_trace(args):
    if args.trace:
        return load_trace(args.trace)
    return generate_trace(_generator_spec(args))


def _sim_config(args, nodes: int) -> SimConfig:
    return SimConfig(nodes=nodes, slots=args.slots, cache_size=args.cache,
                     profiles=_selected_profiles(args), seed=args.seed,
                     jitter_sigma=args.jitter)


def _sweep_worker(payload: dict) -> tuple[int, list]:
    """Run one node-count point of a sweep in a worker process."""
    import argparse
    args = argparse.Namespace(**payload["args"])
    results = simulate(_load_or_generate_trace(args),
                       _sim_config(args, payload["nodes"]))
    return payload["nodes"], [stats.to_row() for stats in results.values()]


def cmd_simulate(args) -> dict:
    if args.sweep_nodes:
        from concurrent.futures import ProcessPoolExecutor
        node_counts = sorted(int(n) for n in args.sweep_nodes.split(","))
        payload_args = {"trace": args.trace, "gen_spec": args.gen_spec,
                        "seed": args.seed, "slots": args.slots,
                        "cache": args.cache, "variant": args.variant,
                        "jitter": args.jitter}
        sweep: dict[str, list] = {}
        with ProcessPoolExecutor(max_workers=min(4, len(node_counts))) as pool:
            for nodes, rows in pool.map(
                    _sweep_worker,
                    [{"args": payload_args, "nodes": n} for n in node_counts]):
                sweep[str(nodes)] = sorted(rows, key=lambda r: r["variant"])
        doc = {"sweep_nodes": sweep}
        if args.out:
            Path(args.out).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        for nodes in node_counts:
            _note(f"  nodes={nodes}: " + ", ".join(
                f"{r['variant']} p99d={r['p99_delay_ms']:.1f}ms"
                for r in sweep[str(nodes)]))
        return doc

    trace = _load_or_generate_trace(args)
    results = simulate(trace, _sim_config(args, args.nodes))
    rows = [stats.to_row() for stats in results.values()]
    if args.out:
        write_stats(rows, args.out, args.format)
        _note(f"simulate: wrote {args.format} stats for "
              f"{len(rows)} variants to {args.out}")
    if args.per_invocation:
        import csv
        with open(args.per_invocation, "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variant", "invocation_id", "node_id",
                             "boot_type", "delay_ms", "slowdown"])
            tier_names = [tier.value for tier in BOOT_TIERS]
            for name in sorted(results):
                stats = results[name]
                for inv, node, code, delay, slowdown in zip(
                        stats.invocation_id.tolist(), stats.node_id.tolist(),
                        stats.boot_code.tolist(), stats.delay_ms.tolist(),
                        stats.slowdown.tolist()):
                    writer.writerow([name, inv, node, tier_names[code],
                                     repr(delay), repr(slowdown)])
    doc = {"n_invocations": len(trace), "stats": sorted(
        rows, key=lambda r: r["variant"])}
    for row in doc["stats"]:
        _note(f"  {row['variant']:10s} p50 delay {row['p50_delay_ms']:.1f} ms  "
              f"p99 delay {row['p99_delay_ms']:.1f} ms  "
              f"cold/lukewarm/warm {row['cold']}/{row['lukewarm']}/{row['warm']}")
    return doc


def cmd_gen_trace(args) -> dict:
    trace = generate_trace(_generator_spec(args))
    if not args.out:
        raise EmulatorError("gen-trace requires --out")
    write_trace(trace, args.out)
    _note(f"gen-trace: {len(trace)} invocations -> {args.out}")
    return {"n_invocations": len(trace), "out": args.out}


# -- attest-demo ---------------------------------------------------------------------


def cmd_attest_demo(args) -> dict:
    image = ZygoteImage("demo-rt", 10,
                        [("/data/greeting", b"hello from the demo zygote")])
    fn = FunctionSpec("shout", [PipelineOp.uppercase(),
                                PipelineOp.append(b"!")], 1.0)
    monitor = Monitor(_monitor_config(args))
    provider = FunctionProvider(Rng(args.seed + 1), [image.digest()],
                                [fn.digest()])
    user = UserAgent(Rng(args.seed + 2), provider.public_key())
    transcript = []

    nonce = provider.begin_handshake()
    report, monitor_dh = monitor.handshake_provider(nonce)
    provider_dh, blob = provider.complete_handshake(
        report, monitor_dh, monitor.machine_key.public_bytes(),
        monitor.monitor_digest)
    monitor.load_policy(blob, provider_dh)
    transcript.append({"phase": "handshake", "nonce": nonce.hex(),
                       "policy_loaded": monitor.policy is not None})

    zygote_handle = monitor.create_zygote(image).handle
    trustlet = monitor.create_trustlet(zygote_handle, fn).handle

    def invoke(label: str) -> dict:
        hashed_before = monitor.cache.bytes_hashed
        request = user.make_request(fn.digest(), args.input.encode())
        result = monitor.invoke_trustlet(trustlet, request.ciphertext)
        expectations = user.expectations(
            request, monitor.machine_key.public_bytes(),
            monitor.monitor_digest, [image.digest()], [fn.digest()])
        return {
            "phase": label,
            "bytes_hashed": monitor.cache.bytes_hashed - hashed_before,
            "report_us": result.charges.report_us,
            "verdict": att.verify_report(result.report, expectations),
        }

    transcript.append(invoke("cold-invocation"))
    transcript.append(invoke("warm-invocation"))

    # Tampered case: the guest swaps the user's input for its own.
    request = user.make_request(fn.digest(), b"tampered-by-guest")
    result = monitor.invoke_trustlet(trustlet, request.ciphertext)
    honest_request = user.make_request(fn.digest(), args.input.encode())
    expectations = user.expectations(
        honest_request, monitor.machine_key.public_bytes(),
        monitor.monitor_digest, [image.digest()], [fn.digest()])
    expectations.nonce = request.nonce
    tampered_verdict = att.verify_report(result.report, expectations)
    transcript.append({"phase": "tampered-input", "verdict": tampered_verdict})

    # Replayed provider nonce is refused outright.
    try:
        monitor.handshake_provider(nonce)
        replay = "accepted"
    except EmulatorError as exc:
        replay = type(exc).__name__
    transcript.append({"phase": "nonce-replay", "outcome": replay})

    if args.cert_out:
        Path(args.cert_out).write_text(monitor.machine_key.export_cert(),
                                       encoding="utf-8")
    doc = {"transcript": transcript}
    _note("attest-demo: honest verdicts "
          f"{[e.get('verdict') for e in transcript if 'verdict' in e]}, "
          f"replay -> {replay}")
    return doc


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walletemu",
        description="Confidential-serverless runtime emulator and "
                    "scale-out simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of flag defaults; "
                                        "explicit flags override it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write JSON/stats here instead of stdout")

    p = sub.add_parser("emulate", help="end-to-end invocation scenario")
    common(p)
    p.add_argument("--zygote", help="zygote image file (WZYG)")
    p.add_argument("--function", action="append",
                   help="function spec JSON (repeatable)")
    p.add_argument("--policy", help="policy JSON with allowed digests")
    p.add_argument("--invocations", "-n", type=int, default=3)
    p.add_argument("--input", default="hello")
    p.add_argument("--no-cow", action="store_true")
    p.add_argument("--prealloc", type=int, default=None,
                   help="prevalidated pool bytes (default 512 MiB)")
    p.add_argument("--cert-out", help="write the vendor certificate here")
    p.add_argument("--dump-objects", help="write the object table JSON here")
    p.set_defaults(func=cmd_emulate)

    p = sub.add_parser("chain", help="function-chain communication benchmark")
    common(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--payload-size", type=int, default=4096)
    p.add_argument("--prealloc", type=int, default=None)
    p.add_argument("--dump-objects", help="write the object table JSON here")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("density", help="function-density memory accounting")
    common(p)
    p.add_argument("--n-functions", type=int, default=500)
    p.add_argument("--zygote-mib", type=int, default=147)
    p.add_argument("--no-cow", action="store_true")
    p.add_argument("--prealloc", type=int, default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="trace-driven scale-out simulation")
    common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="format of the --out stats file; a sweep writes "
                        "JSON and refuses csv")
    p.add_argument("--trace", help="trace CSV path")
    p.add_argument("--gen-spec", help="generator spec JSON")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--slots", type=int, default=32)
    p.add_argument("--cache", type=int, default=32)
    p.add_argument("--variant", help="comma-separated variant names")
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--per-invocation", help="per-invocation CSV dump path")
    p.add_argument("--sweep-nodes",
                   help="comma-separated node counts; points run in parallel")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace CSV")
    common(p)
    p.add_argument("--gen-spec", help="generator spec JSON")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("attest-demo", help="attestation workflow transcript")
    common(p)
    p.add_argument("--input", default="attest me")
    p.add_argument("--prealloc", type=int, default=None)
    p.add_argument("--cert-out", help="write the vendor certificate here")
    p.set_defaults(func=cmd_attest_demo)

    return parser


def _apply_config_defaults(parser, argv) -> None:
    """Fold a --config JSON file into the parser defaults.

    Keys use the flag spelling with dashes or underscores; values given
    explicitly on the command line still win.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    doc = json.loads(Path(known.config).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ParseError(f"{known.config}: config must be a JSON object")
    defaults = {key.replace("-", "_"): value for key, value in doc.items()}
    parser.set_defaults(**defaults)
    for sub_action in parser._subparsers._group_actions:
        for sub in sub_action.choices.values():
            sub.set_defaults(**defaults)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _apply_config_defaults(parser, argv if argv is not None
                               else sys.argv[1:])
    except (EmulatorError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc) if isinstance(exc, EmulatorError) else 11
    args = parser.parse_args(argv)
    if getattr(args, "sweep_nodes", None) and args.format != "json":
        parser.error("simulate --sweep-nodes writes JSON; --format "
                     f"{args.format} is refused")
    try:
        doc = args.func(args)
    except EmulatorError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    if args.command in ("simulate", "gen-trace"):
        # These write their own --out artifact (stats / trace CSV).
        if not args.out:
            _emit(doc, args)
    else:
        _emit(doc, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
