"""Command-line front door.

Subcommands: emulate, chain, density, simulate, gen-trace, attest-demo.
Machine-readable JSON goes to --out (or stdout); short human summaries go
to stderr.  Every command is bit-reproducible under a fixed --seed.  Exit
codes are 0 on success and one documented nonzero code per error class
(see errors.EXIT_CODES).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

from . import attestation as att
from .crypto import Rng
from .errors import EXIT_CODES, EmulatorError, ParseError, exit_code_for
from .images import FunctionSpec, PipelineOp, ZygoteImage
from .memory import CostModel, accounting
from .monitor import Monitor, MonitorConfig
from .objects import fallback_transfer
from .provider import FunctionProvider, UserAgent
from .sim import SimConfig, default_profiles, simulate
from .sim.engine import BOOT_TIERS
from .traceio import (GeneratorSpec, derived_rows, generate_trace,
                      load_trace, write_stats, write_trace)

MIB = 1048576


def _emit(doc, out) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _monitor_config(args) -> MonitorConfig:
    prealloc = 512 * MIB if args.prealloc is None else args.prealloc
    return MonitorConfig(
        prealloc_bytes=prealloc,
        pool_frames=0 if prealloc else 262144,
        cost_model=CostModel(),
        cow_enabled=not getattr(args, "no_cow", False),
        seed=args.seed,
    )


def _provisioned(args, zygotes, functions,
                 chains=()) -> tuple[Monitor, UserAgent]:
    """Boot a monitor from the flags, provision a provider's policy into
    it, and return the monitor with a user of that provider."""
    monitor = Monitor(_monitor_config(args))
    provider = FunctionProvider(Rng(args.seed + 1), zygotes, functions, chains)
    provider.provision(monitor)
    return monitor, UserAgent(Rng(args.seed + 2), provider.public_key())


def _write_artifacts(args, monitor: Monitor) -> None:
    """Write the --cert-out certificate and --dump-objects table asked for."""
    if getattr(args, "cert_out", None):
        Path(args.cert_out).write_text(monitor.machine_key.export_cert(),
                                       encoding="utf-8")
    if getattr(args, "dump_objects", None):
        Path(args.dump_objects).write_text(
            json.dumps(monitor.objects.dump(), indent=2) + "\n",
            encoding="utf-8")


def _load_policy_digests(args, image: ZygoteImage,
                         functions) -> tuple[list, list, list]:
    if args.policy:
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
    monitor, user = _provisioned(args, zygotes, fns, chains)

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
                "invoke": dataclasses.asdict(result.charges),
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
    _write_artifacts(args, monitor)
    labels = [i["label"] for i in invocations]
    _note(f"emulate: {len(invocations)} invocations {labels}; "
          f"all verified: {all(i['verified'] for i in invocations)}")
    return doc


# -- chain ------------------------------------------------------------------------


def _comm_us(charges) -> int:
    """Inter-function path time: input staging + execution + output.

    User-edge request/response crypto and report hashing are identical in
    both transfer modes and reported separately, so the chain-vs-fallback
    comparison isolates the communication mechanism.
    """
    return charges.input_us + charges.exec_us + charges.output_us


def _path_counts(monitor: Monitor, base: dict) -> dict:
    """Copies, crypto ops and fallback copies on the path since base."""
    now = monitor.objects.counter.snapshot()
    return {name: now[name] - base[name] for name in
            ("payload_bytes_copied", "crypto_ops", "fallback_copies")}


def cmd_chain(args) -> dict:
    k = args.k
    payload = bytes((i * 37 + 11) % 251 for i in range(args.payload_size))

    functions = [FunctionSpec(f"relay-{i}", [PipelineOp.identity()], 0.0)
                 for i in range(k)]
    image = ZygoteImage("relay-rt", 0, [("/etc/noop", b"relay")])
    chain_digests = tuple(fn.digest() for fn in functions)

    def build():
        monitor, user = _provisioned(args, [image.digest()],
                                     list(chain_digests), [chain_digests])
        zyg = monitor.create_zygote(image)
        return monitor, user, [monitor.create_trustlet(zyg.handle, fn).handle
                               for fn in functions]

    # Chain (data-object) mode.
    monitor, user, handles = build()
    for producer, consumer in zip(handles, handles[1:]):
        monitor.link_chain(producer, consumer)
    request = user.make_request(functions[0].digest(), payload)
    base = monitor.objects.counter.snapshot()
    result = monitor.invoke_trustlet(handles[0], request.ciphertext)
    latency_us = _comm_us(result.charges)
    while result.handoff is not None:
        result = monitor.invoke_chained(result.handoff)
        latency_us += _comm_us(result.charges)
    chain_stats = {**_path_counts(monitor, base), "latency_us": latency_us,
                   "report_entries": len(result.report.chain_entries)}
    output = user.decrypt_response(request, result.output_ciphertext)

    # Fallback (copy-and-encrypt) mode over the same stages.
    monitor2, user2, handles2 = build()
    request2 = user2.make_request(functions[0].digest(), payload)
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
    fallback_stats = {
        **_path_counts(monitor2, base2), "latency_us": fb_latency_us,
        "colocated_fallbacks": monitor2.objects.counter.colocated_fallbacks}

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
    _write_artifacts(args, monitor)
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

    monitor, _ = _provisioned(args, [image.digest()], [fn.digest()])
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


def _sweep_worker(args, nodes: int) -> list:
    """Run one node-count point of a sweep in a worker process."""
    results = simulate(_load_or_generate_trace(args), _sim_config(args, nodes))
    return sorted((stats.to_row() for stats in results.values()),
                  key=lambda r: r["variant"])


def cmd_simulate(args) -> dict | None:
    if args.sweep_nodes:
        from concurrent.futures import ProcessPoolExecutor
        node_counts = sorted(int(n) for n in args.sweep_nodes.split(","))
        with ProcessPoolExecutor(max_workers=min(4, len(node_counts))) as pool:
            sweep = {str(nodes): rows for nodes, rows in zip(
                node_counts, pool.map(partial(_sweep_worker, args),
                                      node_counts))}
        for nodes in node_counts:
            _note(f"  nodes={nodes}: " + ", ".join(
                f"{r['variant']} p99d={r['p99_delay_ms']:.1f}ms"
                for r in sweep[str(nodes)]))
        return {"sweep_nodes": sweep}

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

            def csv_row(name, inv, node, code, delay, slowdown, *_times):
                return (name, inv, node, tier_names[code], repr(delay),
                        repr(slowdown))

            for name in sorted(results):
                stats = results[name]
                writer.writerows(derived_rows(
                    partial(csv_row, name), stats.row_columns, 0,
                    len(stats)))
    rows = sorted(rows, key=lambda r: r["variant"])
    for row in rows:
        _note(f"  {row['variant']:10s} p50 delay {row['p50_delay_ms']:.1f} ms  "
              f"p99 delay {row['p99_delay_ms']:.1f} ms  "
              f"cold/lukewarm/warm {row['cold']}/{row['lukewarm']}/{row['warm']}")
    return None if args.out else {"n_invocations": len(trace), "stats": rows}


def cmd_gen_trace(args) -> None:
    if not args.out:
        raise EmulatorError("gen-trace requires --out")
    trace = generate_trace(_generator_spec(args))
    write_trace(trace, args.out)
    _note(f"gen-trace: {len(trace)} invocations -> {args.out}")


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

    _write_artifacts(args, monitor)
    doc = {"transcript": transcript}
    _note("attest-demo: honest verdicts "
          f"{[e.get('verdict') for e in transcript if 'verdict' in e]}, "
          f"replay -> {replay}")
    return doc


# -- argument parsing ---------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its refusals
    return parse


def build_parser(allow_abbrev: bool = True) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walletemu",
        description="Confidential-serverless runtime emulator and "
                    "scale-out simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=allow_abbrev)
        p.add_argument("--config", help="JSON object of this command's "
                                        "flags; explicit flags override it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write JSON/stats here instead of stdout")
        return p

    p = command("emulate", "end-to-end invocation scenario")
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

    p = command("chain", "function-chain communication benchmark")
    p.add_argument("--k", type=_int_at_least(1), default=2)
    p.add_argument("--payload-size", type=_int_at_least(0), default=4096)
    p.add_argument("--prealloc", type=int, default=None)
    p.add_argument("--dump-objects", help="write the object table JSON here")
    p.set_defaults(func=cmd_chain)

    p = command("density", "function-density memory accounting")
    p.add_argument("--n-functions", type=_int_at_least(1), default=500)
    p.add_argument("--zygote-mib", type=_int_at_least(1), default=147)
    p.add_argument("--no-cow", action="store_true")
    p.add_argument("--prealloc", type=int, default=None)
    p.set_defaults(func=cmd_density)

    p = command("simulate", "trace-driven scale-out simulation")
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

    p = command("gen-trace", "generate a synthetic trace CSV")
    p.add_argument("--gen-spec", help="generator spec JSON")
    p.set_defaults(func=cmd_gen_trace)

    p = command("attest-demo", "attestation workflow transcript")
    p.add_argument("--input", default="attest me")
    p.add_argument("--prealloc", type=int, default=None)
    p.add_argument("--cert-out", help="write the vendor certificate here")
    p.set_defaults(func=cmd_attest_demo)

    parser.commands = sub.choices  # each command's own parser, by name
    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]):
    """Parse argv; what the chosen command refuses exits 2 with that
    command's usage."""
    args, extras = parser.parse_known_args(argv)
    refuse = parser.commands[args.command].error
    if extras:
        refuse(f"unrecognized arguments: {' '.join(extras)}")
    if getattr(args, "sweep_nodes", None):
        if args.format != "json":
            refuse("simulate --sweep-nodes writes JSON; --format "
                   f"{args.format} is refused")
        if args.per_invocation:
            refuse("simulate --sweep-nodes writes no per-invocation CSV; "
                   "--per-invocation is refused")
    return args


def _config_flags(argv: list[str]) -> list[str]:
    """The flags a --config JSON object stands for, to be given right after
    the command name and so before (and overridden by) the explicit ones.

    A key is a flag name with dashes or underscores; a list repeats its
    flag, true sets a switch and false leaves it off.  Every key must be a
    flag the command declares, spelled out in full.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    path = probe.parse_known_args(argv)[0].config
    if not path:
        return []
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    flags = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if item is True:
                flags.append(flag)
            elif item is not False:
                flags.append(f"{flag}={item}")
    _parse(build_parser(allow_abbrev=False), argv[:1] + flags)
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(build_parser(), argv[:1] + _config_flags(argv) + argv[1:])
        doc = args.func(args)
        if doc is not None:
            _emit(doc, args.out)
    except (EmulatorError, OSError, UnicodeError, json.JSONDecodeError) as exc:
        # A file that cannot be opened, read or parsed exits as a ParseError.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc) if isinstance(exc, EmulatorError) \
            else EXIT_CODES[ParseError]
    return 0


if __name__ == "__main__":
    sys.exit(main())
