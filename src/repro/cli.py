"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the workload registry;
* ``run WORKLOAD [--method M]`` — one attested, verified execution;
* ``figures [--workloads ...] [--jobs N]`` — regenerate the paper's
  tables, optionally fanning the (workload × method) grid out across
  worker processes;
* ``profile WORKLOAD`` — cProfile one attested execution and print the
  simulator's hot spots (``--no-jit`` to profile the interpreter tier);
* ``offline WORKLOAD`` — show the rewriter's output (MTBDR/MTBAR);
* ``attack`` — the ROP detection demonstration;
* ``fleet [--devices N] [--shards S]`` — simulate a mixed fleet
  (honest, faulty, and hostile devices) against the fleet attestation
  service; exits 0 iff every session settles as expected.

``run`` and ``figures`` memoize the offline phase (classify/rewrite/
link) in a content-addressed on-disk cache — ``--cache-dir`` moves it,
``--no-cache`` disables it. Tables go to stdout; the progress/metrics
stream goes to stderr, so piping stdout captures clean tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.asm import link
from repro.core.pipeline import transform
from repro.eval.cache import ArtifactCache, default_cache_dir
from repro.eval.parallel import evaluate_grid, ProgressEvent
from repro.eval.figures import (
    EVAL_WORKLOADS,
    fig1_motivation,
    fig8_runtime,
    fig9_cflog,
    fig10_code_size,
    format_table,
    partial_report_table,
)
from repro.eval.runner import METHODS, run_method
from repro.workloads import WORKLOADS, load_workload


def _make_cache(args) -> Optional[ArtifactCache]:
    if getattr(args, "no_cache", False):
        return None
    return ArtifactCache(args.cache_dir or default_cache_dir())


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="offline-artifact cache location "
                             "(default: $REPRO_CACHE_DIR or ~/.cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="rebuild offline artifacts from scratch")


def _cmd_list(_args) -> int:
    print(f"{'workload':12s}  description")
    print(f"{'-' * 12}  {'-' * 50}")
    for name in sorted(WORKLOADS):
        print(f"{name:12s}  {load_workload(name).description}")
    return 0


def _cmd_run(args) -> int:
    run = run_method(args.workload, args.method, cache=_make_cache(args),
                     enable_jit=False if args.no_jit else None)
    print(f"workload:        {run.workload}")
    print(f"method:          {run.method}")
    print(f"cycles:          {run.cycles}")
    print(f"instructions:    {run.instructions}")
    print(f"code size:       {run.code_size} B")
    if run.method != "baseline":
        print(f"CFLog:           {run.cflog_records} records, "
              f"{run.cflog_bytes} B")
        print(f"partial reports: {run.partial_reports}")
        print(f"secure calls:    {run.gateway_calls}")
        print(f"verified:        {'OK' if run.verified else 'FAILED'}")
    return 0 if run.verified else 1


def _progress(event: ProgressEvent) -> None:
    if event.kind == "cell":
        print(f"[{event.done}/{event.total}] {event.spec} {event.detail}",
              file=sys.stderr)
    elif event.kind == "retry":
        print(f"[{event.done}/{event.total}] {event.detail}",
              file=sys.stderr)
    else:
        print(f"eval: {event.detail}", file=sys.stderr)


def _cmd_figures(args) -> int:
    names = args.workloads or list(EVAL_WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    runs, metrics = evaluate_grid(
        names,
        jobs=args.jobs,
        cache=_make_cache(args),
        timeout_s=args.cell_timeout,
        progress=_progress if not args.quiet else None,
    )
    if args.quiet:
        print(f"eval: {metrics.summary()}", file=sys.stderr)
    for title, fig in (
        ("Figure 1 — motivation", fig1_motivation),
        ("Figure 8 — runtime (CPU cycles)", fig8_runtime),
        ("Figure 9 — CFLog size (bytes)", fig9_cflog),
        ("Figure 10 — program memory (bytes)", fig10_code_size),
        ("Partial reports (4 KB MTB)", partial_report_table),
    ):
        print(format_table(fig(runs), title))
        print()
    return 0


def _cmd_offline(args) -> int:
    workload = load_workload(args.workload)
    result = transform(workload.module())
    image = link(result.module)
    print("site classification:")
    for cls, count in sorted(result.site_counts.items()):
        print(f"  {cls:24s} {count}")
    print(f"\nMTBDR ({image.section_size('text')} B):")
    print(image.disassemble("text"))
    print(f"\nMTBAR ({image.section_size('mtbar')} B):")
    print(image.disassemble("mtbar"))
    return 0


def _fmt_bound(value) -> str:
    return "unbounded" if value is None else str(value)


def _cmd_analyze_bounds(args) -> int:
    """`analyze --bounds`: the certification matrix. Every workload in
    the registry is certified under every bounded method, each `BNDS1`
    blob is signed and verified back, and the matrix is printed. Exits
    non-zero if any (workload, method) cell fails to certify."""
    from repro.core.analysis import (
        BOUNDED_METHODS,
        bounds_key,
        certify_workload,
        sign_certificate,
        verify_certificate,
    )
    from repro.core.analysis.certificate import DEFAULT_BOUNDS_SEED

    names = [args.workload] if args.workload else sorted(WORKLOADS)
    key = bounds_key(DEFAULT_BOUNDS_SEED)
    cache = _make_cache(args)
    failures = 0
    print(f"{'workload':12s} {'method':10s} {'depth':>9s} {'records':>9s} "
          f"{'bytes':>9s} {'exact':>5s}  recursion")
    print("-" * 70)
    for name in names:
        for method in BOUNDED_METHODS:
            try:
                cert = certify_workload(name, method, cache=cache,
                                        store_root=args.store_dir)
                blob = sign_certificate(cert, key)
                verify_certificate(blob, key)
            except Exception as exc:  # noqa: BLE001 - matrix must finish
                failures += 1
                print(f"{name:12s} {method:10s} FAILED: {exc}")
                continue
            cycles = ", ".join("/".join(c) for c in cert.recursion_cycles)
            print(f"{name:12s} {method:10s} "
                  f"{_fmt_bound(cert.max_stack_depth):>9s} "
                  f"{_fmt_bound(cert.max_log_records):>9s} "
                  f"{_fmt_bound(cert.max_log_bytes):>9s} "
                  f"{'yes' if cert.depth_exact else 'no':>5s}  "
                  f"{cycles or '-'}")
    print(f"\n{len(names)} workload(s) x {len(BOUNDED_METHODS)} methods, "
          f"{failures} failure(s)")
    return 1 if failures else 0


def _cmd_analyze_attack_surface(args) -> int:
    """`analyze --attack-surface`: mine gadgets, synthesize chains for
    one workload (default: the vulnerable demo image), and replay every
    chain against the real verifier — each one must be rejected with
    its predicted violation, or the command exits non-zero."""
    from repro.cfa.verifier import NaiveVerifier, Verifier
    from repro.core.analysis import mine_gadgets, synthesize_chains
    from repro.eval.runner import prepare
    from repro.tz.keystore import KeyStore

    name = args.workload or "vulnerable"
    cache = _make_cache(args)
    survived = 0
    for method in ("rap-track", "traces", "naive-mtb"):
        image, bound_map = prepare(load_workload(name), method, cache=cache)
        gadgets = mine_gadgets(image, bound_map, method)
        pads = [g for g in gadgets if g.is_pad]
        chains = synthesize_chains(image, bound_map, method)
        print(f"{name} / {method}: {len(gadgets)} gadgets "
              f"({len(pads)} landing pads), {len(chains)} chains")
        for gadget in pads:
            where = gadget.label or f"{gadget.entry:#x}"
            print(f"  pad  {where:24s} {gadget.steps} steps to halt "
                  f"at {gadget.terminator:#x}")
        key = KeyStore.provision().attestation_key
        verifier = (NaiveVerifier(image, key) if method == "naive-mtb"
                    else Verifier(image, bound_map, key))
        for chain in chains:
            outcome = verifier.program.run(chain.cflog.pack())
            kinds = {v.kind for v in outcome.violations}
            rejected = chain.expected_violation in kinds
            verdict = ("rejected" if rejected
                       else "SURVIVED REPLAY (analyzer bug)")
            if not rejected:
                survived += 1
            print(f"  chain {chain.name:23s} {len(chain.records)} records, "
                  f"expect {chain.expected_violation} -> {verdict}: "
                  f"{chain.description}")
    if survived:
        print(f"{survived} chain(s) not rejected", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    from repro.core.classify import classify_module
    from repro.core.inspect import (
        analysis_report,
        cfg_to_dot,
        precision_summary,
    )

    if args.bounds:
        return _cmd_analyze_bounds(args)
    if args.attack_surface:
        return _cmd_analyze_attack_surface(args)
    if not args.workload:
        print("analyze: a workload is required without --bounds/"
              "--attack-surface", file=sys.stderr)
        return 2
    workload = load_workload(args.workload)
    classification = classify_module(workload.module())
    if args.dot:
        print(cfg_to_dot(classification, title=args.workload))
        return 0
    print(analysis_report(classification))
    baseline = classify_module(workload.module(), enable_dataflow=False)
    print()
    print(precision_summary(classification, baseline))
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.core.lint import lint_all

    names = [args.workload] if args.workload else None
    report = lint_all(names)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"lint: {report.workloads} workloads, "
              f"{report.configs_validated} rewrites certified")
        for finding in report.findings:
            print(f"  {finding}")
        for note in report.notes:
            print(f"  note: {note}")
        if report.ok:
            print("lint: clean")
    return 0 if report.ok else 1


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    run = run_method(args.workload, args.method, cache=_make_cache(args),
                     enable_jit=False if args.no_jit else None)
    profiler.disable()
    tier = "interpreter" if args.no_jit else "jit"
    print(f"profile: {args.workload} / {args.method} ({tier}) — "
          f"{run.cycles} cycles, {run.instructions} instructions",
          file=sys.stderr)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


def _cmd_attack(_args) -> int:
    from repro.cfa.engine import RapTrackEngine
    from repro.cfa.verifier import Verifier
    from repro.tz.keystore import KeyStore
    from repro.workloads import vulnerable
    from repro.workloads.base import make_mcu

    for attack in (False, True):
        workload = vulnerable.make()
        offline = transform(workload.module())
        image = link(offline.module)
        bound = offline.rmap.bind(image)
        mcu = make_mcu(image, workload)
        feed = (vulnerable.attack_feed(image) if attack
                else vulnerable.benign_feed())
        mcu.mmio.device("uart").set_feed(feed)
        keystore = KeyStore.provision()
        engine = RapTrackEngine(mcu, keystore, bound)
        result = engine.attest(b"cli-attack-demo")
        outcome = Verifier(image, bound, keystore.attestation_key).verify(
            result, b"cli-attack-demo")
        label = "attack" if attack else "benign"
        print(f"{label}: device status "
              f"{mcu.mmio.device('gpio').latches[0]:#x}, "
              f"verdict {'ACCEPTED' if outcome.ok else 'REJECTED'}")
        for violation in outcome.violations:
            print(f"  [{violation.kind}] {violation.detail}")
    return 0


def _cmd_fleet(args) -> int:
    from repro.cfa.fleet import (
        ChainFactory,
        FleetSimulator,
        ShardedFleetService,
        build_fleet_specs,
    )

    if args.smoke_restart and not args.store:
        print("fleet: --smoke-restart requires --store", file=sys.stderr)
        return 2

    learn_rounds = getattr(args, "learn", 0)

    def make_service(resume: bool = False):
        return ShardedFleetService(
            shards=args.shards, store_dir=args.store, idle_timeout=5.0,
            replay_cache=not args.no_replay_cache, resume=resume,
            sampler=bool(learn_rounds))

    specs = build_fleet_specs(
        args.devices, attack_fraction=args.attack_fraction,
        method=args.method, seed=args.seed)
    factory = ChainFactory(watermark=1024, cache=_make_cache(args))
    mismatches = []
    verdicts = {}
    if args.smoke_restart:
        # run half the fleet, hard-stop (no clean close), restart over
        # the same store, recover, then run the rest: the durability
        # smoke the CI gate greps
        half = len(specs) // 2
        service = make_service()
        report = FleetSimulator(specs[:half], seed=args.seed,
                                factory=factory).run(service)
        mismatches += report.mismatches
        verdicts.update(service.verdicts)
        for shard in service.shards:  # flush OS buffers, skip close()
            shard.store.close()
        service = make_service(resume=True)
        lost = {d: v for d, v in verdicts.items()
                if service.verdicts.get(d) != v}
        if lost:
            mismatches += [f"{d}: verdict lost across restart"
                           for d in sorted(lost)]
        print(f"fleet: restart recovered {service.recovered_verdicts} "
              f"verdicts", file=sys.stderr)
        report = FleetSimulator(specs[half:], seed=args.seed + 1,
                                factory=factory).run(service)
        mismatches += report.mismatches
        verdicts.update(service.verdicts)
        metrics = service.close()
    else:
        with make_service() as service:
            simulator = FleetSimulator(specs, seed=args.seed,
                                       factory=factory)
            report = simulator.run(service)
            mismatches += report.mismatches
            verdicts.update(service.verdicts)
            for round_no in range(1, learn_rounds + 1):
                from repro.cfa.fleet import learn_dictionaries
                m = service.metrics
                before_bps = (m.bytes_ingested / m.sessions_settled
                              if m.sessions_settled else 0.0)
                published = learn_dictionaries(service)
                acked = simulator.handshake(service)
                bytes0 = m.bytes_ingested
                sessions0 = m.sessions_settled
                report = simulator.run(service)
                mismatches += report.mismatches
                verdicts.update(service.verdicts)
                m = service.metrics
                after_bps = (
                    (m.bytes_ingested - bytes0)
                    / max(1, m.sessions_settled - sessions0))
                note = (f"{before_bps / after_bps:.2f}x smaller"
                        if after_bps and after_bps < before_bps
                        else "no gain")
                print(f"fleet: learn round {round_no}: "
                      f"{len(published)} dictionary epoch(s) live, "
                      f"{acked} device(s) acked, "
                      f"{before_bps:.0f} -> {after_bps:.0f} B/session "
                      f"({note})", file=sys.stderr)
            metrics = service.metrics
    print(f"fleet: {metrics.summary()}", file=sys.stderr)
    if args.store:
        audited = _audit_store(args.store)
        if audited < 0:
            return 1
        print(f"fleet: evidence trail verified from disk "
              f"({audited} records)", file=sys.stderr)
    for line in mismatches:
        print(f"MISMATCH {line}")
    if mismatches:
        print(f"fleet: {len(mismatches)}/{len(specs)} sessions "
              f"settled against expectation")
        return 1
    print(f"fleet: all {len(specs)} sessions settled as expected")
    return 0


def _audit_store(store_dir, seed: bytes = b"fleet-vrf") -> int:
    """Strictly verify every evidence log under ``store_dir``; returns
    the record count, or -1 after printing what failed."""
    import pathlib

    from repro.cfa.fleet import EvidenceError, audit_key, \
        verify_evidence_trail

    key = audit_key(seed)
    total = 0
    logs = sorted(pathlib.Path(store_dir).glob("evidence-*.log"))
    if not logs:
        print(f"audit: no evidence logs under {store_dir}")
        return -1
    for path in logs:
        try:
            total += len(verify_evidence_trail(path, key))
        except EvidenceError as exc:
            print(f"audit: {path.name}: FAILED: {exc}")
            return -1
    return total


def _cmd_audit(args) -> int:
    """Exit codes: 0 = every chain verified; 1 = missing logs or any
    integrity failure (torn frames, bad MACs, broken chains)."""
    import json
    import pathlib
    from collections import Counter

    from repro.cfa.fleet import EvidenceError, audit_key, \
        verify_evidence_trail
    from repro.cfa.policy import STATE_NAMES

    result = {
        "ok": False, "store": str(args.store), "logs": [],
        "records": 0, "session_records": 0, "policy_records": 0,
        "devices": 0, "accepted": 0, "rejected": 0,
        "policy_states": {}, "error": None,
    }

    def emit(code: int) -> int:
        if args.json:
            try:
                print(json.dumps(result, indent=2, sort_keys=True))
            except BrokenPipeError:  # |head closed the pipe; exit quietly
                sys.stderr.close()
        elif result["error"] is not None:
            print(f"audit: FAILED: {result['error']}", file=sys.stderr)
        else:
            states = ", ".join(
                f"{count} {name}" for name, count
                in sorted(result["policy_states"].items()))
            print(f"audit: {result['records']} records across "
                  f"{result['devices']} devices OK "
                  f"({result['accepted']} accepted, "
                  f"{result['rejected']} rejected, "
                  f"{result['policy_records']} policy"
                  + (f"; states: {states}" if states else "") + ")")
        return code

    key = audit_key(b"fleet-vrf")
    store_dir = pathlib.Path(args.store)
    logs = sorted(store_dir.glob("evidence-*.log"))
    if not logs and (store_dir / "evidence.log").exists():
        logs = [store_dir / "evidence.log"]
    if not logs:
        result["error"] = f"no evidence logs under {args.store}"
        return emit(1)
    devices = set()
    last_state: dict = {}
    for path in logs:
        try:
            records = verify_evidence_trail(path, key)
        except EvidenceError as exc:
            result["error"] = f"{path.name}: {exc}"
            return emit(1)
        result["logs"].append({"name": path.name,
                               "records": len(records)})
        for record in records:
            devices.add(record.device_id)
            result["records"] += 1
            if getattr(record, "is_policy", False):
                result["policy_records"] += 1
                last_state[record.device_id] = \
                    STATE_NAMES[record.to_state]
            else:
                result["session_records"] += 1
                key_name = "accepted" if record.accepted else "rejected"
                result[key_name] += 1
    result["devices"] = len(devices)
    result["policy_states"] = dict(Counter(last_state.values()))
    result["ok"] = True
    return emit(0)


def _cmd_policy(args) -> int:
    """Exit codes: 0 = campaign SLA met (every compromised device
    quarantined and rejoined, zero wrongful quarantines, evidence
    clean); 1 = any SLA or audit failure; 2 = bad flag combination."""
    from repro.cfa.fleet import (
        CampaignSimulator,
        ChainFactory,
        ShardedFleetService,
        build_campaign_specs,
        device_key,
    )

    if args.smoke_restart and not args.store:
        print("policy: --smoke-restart requires --store", file=sys.stderr)
        return 2

    specs = build_campaign_specs(
        args.devices, compromised_fraction=args.compromised_fraction,
        method=args.method, seed=args.seed)
    factory = ChainFactory(watermark=1024, cache=_make_cache(args))
    simulator = CampaignSimulator(specs, seed=args.seed, factory=factory)

    def make_service(resume: bool = False):
        return ShardedFleetService(
            shards=args.shards, store_dir=args.store, idle_timeout=5.0,
            resume=resume, policy=True, key_lookup=device_key)

    service = make_service()
    if not args.no_pin:
        pinned = simulator.pin_profiles(service)
        print(f"policy: pinned {pinned} firmware profile(s)",
              file=sys.stderr)
    if args.smoke_restart:
        # round 0, hard-stop mid-campaign (no clean close), restart
        # over the same store, re-issue standing heal orders, finish —
        # the control-plane durability smoke the CI gate runs
        simulator.run_round(service, 0)
        simulator.heal_round(service, 0)
        for shard in service.shards:  # flush OS buffers, skip close()
            shard.store.close()
        service = make_service(resume=True)
        print(f"policy: restart recovered "
              f"{service.recovered_verdicts} verdicts; policy states "
              f"rebuilt from evidence", file=sys.stderr)
        resumed = simulator.heal_round(service, 0, resume=True)
        if resumed:
            print(f"policy: re-issued {resumed} standing heal "
                  f"order(s)", file=sys.stderr)
        simulator.deliver_notices(service)
        for round_index in range(1, args.rounds):
            simulator.run_round(service, round_index)
            simulator.heal_round(service, round_index)
            simulator.deliver_notices(service)
        simulator.report.rounds = args.rounds
        simulator.report.end_states = service.policy.state_names()
        report = simulator.report
    else:
        report = simulator.run(service, rounds=args.rounds)
    metrics = service.close()
    print(f"policy: {metrics.summary()}", file=sys.stderr)
    print(f"policy: {report.summary()}")
    failures = []
    for device_id in report.compromised:
        end = report.end_states.get(device_id, "HEALTHY")
        if device_id not in report.quarantined_round:
            failures.append(f"{device_id}: compromised but never "
                            f"quarantined")
        elif end != "REJOINED":
            failures.append(f"{device_id}: quarantined but ended "
                            f"{end}, not REJOINED")
    for device_id in report.wrongful_quarantines:
        failures.append(f"{device_id}: honest device was quarantined")
    if args.store:
        audited = _audit_store(args.store)
        if audited < 0:
            failures.append("evidence audit failed")
        else:
            print(f"policy: evidence trail verified from disk "
                  f"({audited} records)", file=sys.stderr)
    for line in failures:
        print(f"FAILED {line}")
    if failures:
        print(f"policy: {len(failures)} SLA failure(s)")
        return 1
    print(f"policy: campaign SLA met over {len(specs)} device(s)")
    return 0


def _shard_count(text: str) -> int:
    shards = int(text)
    if shards < 1:
        raise argparse.ArgumentTypeError("need at least one shard")
    return shards


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAP-Track reproduction: CFA via parallel MTB/DWT "
                    "tracking on a simulated ARMv8-M MCU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads") \
        .set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="attest and verify one workload")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--method", choices=METHODS, default="rap-track")
    run.add_argument("--no-jit", action="store_true",
                     help="force the pure-interpreter tier "
                          "(results are identical, only slower)")
    _add_cache_flags(run)
    run.set_defaults(func=_cmd_run)

    profile = sub.add_parser(
        "profile",
        help="cProfile one attested execution (simulator hot spots)")
    profile.add_argument("workload", choices=sorted(WORKLOADS))
    profile.add_argument("--method", choices=METHODS, default="rap-track")
    profile.add_argument("--no-jit", action="store_true",
                         help="profile the pure-interpreter tier")
    profile.add_argument("--top", type=int, default=25, metavar="N",
                         help="rows of the stats table (default: 25)")
    profile.add_argument("--sort", default="cumulative",
                         choices=["cumulative", "tottime", "ncalls"],
                         help="stat ordering (default: cumulative)")
    _add_cache_flags(profile)
    profile.set_defaults(func=_cmd_profile)

    figures = sub.add_parser("figures",
                             help="regenerate the paper's tables")
    figures.add_argument("--workloads", nargs="*",
                         help="subset to evaluate (default: all)")
    figures.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the evaluation grid "
                              "(default: 1 = serial)")
    figures.add_argument("--cell-timeout", type=float, default=None,
                         metavar="SEC",
                         help="per-cell wall-clock timeout")
    figures.add_argument("--quiet", action="store_true",
                         help="suppress the per-cell progress stream")
    _add_cache_flags(figures)
    figures.set_defaults(func=_cmd_figures)

    offline = sub.add_parser("offline",
                             help="show the rewriter output for a workload")
    offline.add_argument("workload", choices=sorted(WORKLOADS))
    offline.set_defaults(func=_cmd_offline)

    analyze = sub.add_parser(
        "analyze",
        help="static-analysis report / CFG dot export / path-bound "
             "certification / gadget mining")
    analyze.add_argument("workload", nargs="?", default=None,
                         choices=sorted(WORKLOADS) + ["vulnerable"],
                         help="one workload (default for --bounds: all)")
    analyze.add_argument("--dot", action="store_true",
                         help="emit graphviz dot instead of the report")
    analyze.add_argument("--bounds", action="store_true",
                         help="certify path bounds (BNDS1) across the "
                              "workload matrix")
    analyze.add_argument("--attack-surface", action="store_true",
                         help="mine ROP/JOP gadgets and synthesize "
                              "attack chains")
    analyze.add_argument("--store-dir", metavar="DIR", default=None,
                         help="with --bounds: write signed .bnds "
                              "certificates here, content-addressed")
    _add_cache_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    lint = sub.add_parser(
        "lint",
        help="certify rewrites + hygiene-check workloads (CI gate)")
    lint.add_argument("workload", nargs="?", choices=sorted(WORKLOADS),
                      help="single workload (default: --all)")
    lint.add_argument("--all", action="store_true",
                      help="lint every workload (the default)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report")
    lint.set_defaults(func=_cmd_lint)

    sub.add_parser("attack", help="ROP detection demonstration") \
        .set_defaults(func=_cmd_attack)

    fleet = sub.add_parser(
        "fleet", help="simulate a device fleet against the async verifier")
    fleet.add_argument("--devices", type=int, default=100, metavar="N",
                       help="fleet size (default: 100)")
    fleet.add_argument("--attack-fraction", type=float, default=0.3,
                       metavar="F",
                       help="fraction of hostile/faulty devices "
                            "(default: 0.3)")
    fleet.add_argument("--method", choices=["rap-track", "traces"],
                       default="rap-track")
    fleet.add_argument("--seed", type=int, default=0,
                       help="fleet composition + delivery RNG seed")
    fleet.add_argument("--no-replay-cache", action="store_true",
                       help="disable replay memoization across "
                            "identical chains")
    fleet.add_argument("--shards", type=_shard_count, default=1,
                       metavar="S",
                       help="shard the fleet across S services behind "
                            "a consistent-hash router (default: 1)")
    fleet.add_argument("--store", metavar="DIR",
                       help="durable evidence-store directory")
    fleet.add_argument("--smoke-restart", action="store_true",
                       help="hard-stop the service halfway, recover "
                            "from the evidence logs, finish the run "
                            "(the CI durability smoke)")
    fleet.add_argument("--learn", type=int, default=0, metavar="R",
                       help="adaptive speculation: after the first run, "
                            "mine dictionaries from sampled traffic, "
                            "push/ACK them, and re-run the fleet, R "
                            "times (default: 0 = off)")
    _add_cache_flags(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    audit = sub.add_parser(
        "audit",
        help="verify a fleet evidence store's hash chains from disk "
             "(exit 0 = clean, 1 = missing logs or any integrity "
             "failure)")
    audit.add_argument("store", metavar="DIR",
                       help="evidence-store directory (evidence-*.log)")
    audit.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    audit.set_defaults(func=_cmd_audit)

    policy = sub.add_parser(
        "policy",
        help="compromise-then-heal campaign against the policy control "
             "plane (exit 0 = SLA met, 1 = SLA/audit failure)")
    policy.add_argument("--devices", type=int, default=100, metavar="N",
                        help="fleet size (default: 100)")
    policy.add_argument("--compromised-fraction", type=float,
                        default=0.05, metavar="F",
                        help="fraction of initially-compromised devices "
                             "(default: 0.05)")
    policy.add_argument("--rounds", type=int, default=3, metavar="R",
                        help="attest/heal/notify cycles (default: 3)")
    policy.add_argument("--method", choices=["rap-track", "traces"],
                        default="rap-track")
    policy.add_argument("--seed", type=int, default=0,
                        help="fleet composition + delivery RNG seed")
    policy.add_argument("--shards", type=_shard_count, default=1,
                        metavar="S",
                        help="shard the fleet across S services "
                             "(default: 1)")
    policy.add_argument("--store", metavar="DIR",
                        help="durable evidence-store directory")
    policy.add_argument("--smoke-restart", action="store_true",
                        help="hard-stop the service after the first "
                             "round, rebuild the control plane from "
                             "the evidence logs, finish the campaign "
                             "(the CI policy smoke)")
    policy.add_argument("--no-pin", action="store_true",
                        help="skip publishing per-profile firmware "
                             "policy documents")
    _add_cache_flags(policy)
    policy.set_defaults(func=_cmd_policy)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
