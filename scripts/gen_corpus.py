#!/usr/bin/env python3
"""Write the generated proofs (proofs/gen_*.prf) of the corpus that
ships in src/lad/corpus/.  The hand-written proofs and the murder
context there are edited by hand and left alone.

Rewrites every generated file from scratch; safe to rerun.
"""
import argparse
import pathlib
import sys

from lad.corpus import write_corpus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "src" / "lad" / "corpus",
        help="directory to write into (default: <repo>/src/lad/corpus)",
    )
    args = ap.parse_args()
    paths = write_corpus(args.root)
    for rel in paths:
        print(rel)
    print(f"{len(paths)} files under {args.root}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
