"""``python -m repro check`` — the soak-mode entry point.

Runs the differential fuzzer and the persistence fault rounds from the
command line with a chosen (or random) seed, minimizes any failure to a
short replayable sequence, and writes it as a repro file another
machine can replay with ``--replay``.  Exit status is the contract: 0
means the whole budget ran clean, 1 means a divergence or fault
violation (CI fails the job and uploads the repro artifact).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Differential fuzzing of the navigation service "
        "against a naive reference model, plus persistence fault "
        "injection.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: derived from the clock)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=2000,
        help="total command steps across all corpora (default: 2000)",
    )
    parser.add_argument(
        "--corpora",
        type=int,
        default=20,
        help="number of random corpora to spread the steps over",
    )
    parser.add_argument(
        "--fault-rounds",
        type=int,
        default=25,
        help="persistence fault-injection rounds (0 disables)",
    )
    parser.add_argument(
        "--repro",
        default="repro-check-failure.json",
        help="where to write the minimized failing sequence",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay a previously written repro file instead of fuzzing",
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="keep the full failing sequence (skip ddmin)",
    )
    parser.add_argument(
        "--wire",
        action="store_true",
        help="also replay fuzz streams over a live HTTP server and "
        "assert byte-level response parity",
    )
    parser.add_argument(
        "--wire-steps",
        type=int,
        default=150,
        help="total wire-parity steps across all wire corpora",
    )
    parser.add_argument(
        "--wire-corpora",
        type=int,
        default=2,
        help="number of corpora for the wire-parity pass",
    )
    parser.add_argument(
        "--wire-procs",
        type=int,
        default=1,
        help="run the wire-parity pass against a sharded server with "
        "this many worker processes (1 = single-process server)",
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="also run the standalone log-replay oracle: random corpora "
        "with interleaved assert/retract histories, written through a "
        "real on-disk store and replayed, must reproduce bit-identical "
        "indexes and navigation at every recorded tx",
    )
    parser.add_argument(
        "--store-corpora",
        type=int,
        default=5,
        help="number of corpora for the --store oracle pass",
    )
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="also run the live-ingestion epoch oracle: stream random "
        "mutations through an epoch manager and prove every published "
        "epoch's suggestions are bit-identical to a cold build at its "
        "watermark tx, racing navigation against a reference rebuilt "
        "at each watermark",
    )
    parser.add_argument(
        "--ingest-corpora",
        type=int,
        default=4,
        help="number of corpora for the --ingest oracle pass",
    )
    parser.add_argument(
        "--ingest-epochs",
        type=int,
        default=4,
        help="epochs published (and checked) per --ingest corpus",
    )
    return parser


def _replay(path: str) -> int:
    from .codec import load_repro
    from .corpus import random_corpus
    from .fuzzer import Divergence, FuzzConfig, run_commands

    corpus_seed, commands, failure = load_repro(path)
    print(f"replaying {len(commands)} command(s) on corpus seed {corpus_seed}")
    if failure:
        print(f"recorded failure: {failure}")
    corpus = random_corpus(corpus_seed)
    try:
        run_commands(corpus, commands, config=FuzzConfig.thorough())
    except Divergence as divergence:
        print(f"reproduced: {divergence}")
        return 1
    print("sequence no longer diverges (bug fixed, or environment drift)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay is not None:
        return _replay(args.replay)

    from .faults import fuzz_faults
    from .fuzzer import fuzz

    seed = args.seed
    if seed is None:
        seed = int(time.time() * 1000) % (2**31)
    print(
        f"repro check: seed={seed} steps={args.steps} corpora={args.corpora}"
    )

    status = 0
    report = fuzz(
        seed,
        steps=args.steps,
        corpora=args.corpora,
        repro_path=args.repro,
        minimize_failures=not args.no_minimize,
        log=lambda line: print(f"  {line}"),
    )
    print(
        f"differential: {report.steps_run} step(s) over "
        f"{report.corpora_run} corpus/corpora"
    )
    if report.failure is not None:
        failure = report.failure
        print(
            f"DIVERGENCE (corpus seed {failure.corpus_seed}, "
            f"step {failure.step}): {failure.detail}"
        )
        print(f"minimized to {len(failure.commands)} command(s)")
        if failure.repro_path:
            print(f"repro written to {failure.repro_path}")
            print(f"replay with: python -m repro check --replay {failure.repro_path}")
        status = 1

    if args.wire:
        from ..net.wirecheck import run_wire_check

        wire_report = run_wire_check(
            seed,
            steps=args.wire_steps,
            corpora=args.wire_corpora,
            procs=args.wire_procs,
            log=lambda line: print(f"  {line}"),
        )
        print(
            f"wire: {wire_report.steps_run} step(s), "
            f"{wire_report.suggest_probes} suggest probe(s), "
            f"{wire_report.preview_probes} preview probe(s) over "
            f"{wire_report.corpora_run} corpus/corpora"
        )
        if wire_report.failure is not None:
            failure = wire_report.failure
            print(
                f"WIRE DIVERGENCE (corpus seed {failure.corpus_seed}, "
                f"step {failure.step}, {failure.command}): {failure.detail}"
            )
            status = 1

    if args.store:
        from .storecheck import run_store_check

        store_report = run_store_check(
            seed,
            corpora=args.store_corpora,
            log=lambda line: print(f"  {line}"),
        )
        print(
            f"store: {store_report.corpora_run} corpus/corpora, "
            f"{store_report.txs_checked} tx(s) checked, "
            f"{store_report.suggest_txs_checked} suggestion point(s)"
        )
        for violation in store_report.violations:
            print(f"STORE VIOLATION: {violation}")
        if not store_report.ok:
            status = 1

    if args.ingest:
        from .ingestcheck import run_ingest_check

        ingest_report = run_ingest_check(
            seed,
            corpora=args.ingest_corpora,
            epochs=args.ingest_epochs,
            log=lambda line: print(f"  {line}"),
        )
        print(
            f"ingest: {ingest_report.epochs_checked} epoch(s) checked over "
            f"{ingest_report.corpora_run} corpus/corpora, "
            f"{ingest_report.txs_ingested} tx(s) / "
            f"{ingest_report.datoms_ingested} datom(s) ingested, "
            f"{ingest_report.nav_steps_run} nav step(s)"
        )
        for violation in ingest_report.violations:
            print(f"INGEST VIOLATION: {violation}")
        if not ingest_report.ok:
            status = 1

    if args.fault_rounds > 0:
        with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
            fault_report = fuzz_faults(
                seed, args.fault_rounds, tmp, log=lambda line: print(f"  {line}")
            )
        print(f"faults: {fault_report.rounds_run} round(s)")
        for violation in fault_report.violations:
            print(f"FAULT VIOLATION: {violation}")
        if not fault_report.ok:
            status = 1

    print("repro check: " + ("OK" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    sys.exit(main())
