#!/usr/bin/env python
"""Rewrite per-shard session snapshot dirs from N to M shards.

The key→shard map of the sharded serving layer is a pure function of the
session key and the shard count, so scaling the worker count up or down
requires migrating every session snapshot into the directory its key hashes
to under the *new* count — otherwise a restarted service re-creates the
sessions from scratch instead of hydrating their exact state.

This CLI wraps :mod:`repro.serving.resharding`: it plans the migration from
the source shards' segment indexes, appends every session's record bytes
verbatim to the target layout's segment logs, verifies each migrated record
byte for byte against its source, and prints (optionally writes) the
report.  The source tree is never modified, so a tree that still holds
``.session.npz`` files of an earlier version is refused: start the service
on it once first.

Usage::

    PYTHONPATH=src python scripts/reshard.py \\
        --source snapshots/ --target snapshots-8/ --to-shards 8
    PYTHONPATH=src python scripts/reshard.py \\
        --source snapshots/ --target snapshots-8/ --to-shards 8 \\
        --from-shards 4 --report reshard_report.json

Then point the restarted service at the migrated tree::

    ShardedRegistry(factory, num_shards=8, snapshot_dir="snapshots-8/")
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.exceptions import ReshardingError
from repro.serving.resharding import reshard_snapshots


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", required=True, help="source snapshot tree (shard-NN dirs)")
    parser.add_argument("--target", required=True, help="target snapshot tree (must differ)")
    parser.add_argument(
        "--to-shards", type=int, required=True, help="target shard count M"
    )
    parser.add_argument(
        "--from-shards",
        type=int,
        default=None,
        help="source shard count N (default: inferred from the shard-NN dirs)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the byte-exact record verification pass",
    )
    parser.add_argument(
        "--report", default=None, help="write the migration report as JSON here"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report = reshard_snapshots(
            args.source,
            args.target,
            target_shards=args.to_shards,
            source_shards=args.from_shards,
            verify=not args.no_verify,
        )
    except ReshardingError as exc:
        print("ERROR: %s" % exc, file=sys.stderr)
        return 1

    histogram = report.target_histogram()
    print(
        "migrated %d session(s) from %d to %d shard(s); %d relocated"
        % (report.sessions, report.source_shards, report.target_shards, report.relocated)
    )
    for shard in sorted(histogram):
        print("  shard-%02d: %d session(s)" % (shard, histogram[shard]))
    if report.verified:
        print(
            "verified: every migrated record is byte-identical to its source"
        )
    else:
        print("verification skipped (--no-verify)")

    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
