"""The program's own set-up for one workload: ``import lad`` and the
warm-up calls the benchmark makes before its first timed operation.

Run as a script in a fresh process, it prints the seconds that took:

    PYTHONPATH=src python3 perfbench/setup_probe.py tables

The warm-up inputs are fixed, so set-up time does not depend on the seed.
"""
import sys
import time

EM_PROOF = """\
o ~(p \\/ ~p) ; hyp
oo p ; hyp
oo p \\/ ~p ; icup1 2
oo _|_ ; esim1 3, 1
o ~p ; isim 2-4
o p \\/ ~p ; icup2 5
o _|_ ; esim1 6, 1
~~(p \\/ ~p) ; isim 1-7
p \\/ ~p ; esim2 8
"""


def warm_up(workload: str) -> None:
    import lad

    parse = lad.parse
    if workload == "tables":
        for variant in ("gauker", "nelson", "connexive"):
            lad.countermodel([parse("p -> q"), parse("p & !r")], parse("q | s"), variant)
            lad.equivalent(parse("!(p & q)"), parse("!p | !q"), variant)
            lad.persistence_witness(parse("!(p -> q)"), variant)
            lad.nnf(parse("!(p -> !q)"), variant)
        lad.weak_negate(parse("p -> q"))
    elif workload == "wide":
        lad.countermodel([parse("p & q")], parse("r | s -> t"), "gauker", 5)
        ctx = lad.parse_context("p q r s t\n00000\n10101\n")
        lad.asserts(ctx, parse("(p -> q) -> r"))
        lad.denies(ctx, parse("(p -> q) -> r"))
    elif workload == "proofs":
        doc = lad.parse_proof(EM_PROOF)
        lad.check(doc)
        lad.verify_sound(doc)
    elif workload == "cli":
        import lad.cli

        lad.cli.build_parser()
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    start = time.perf_counter()
    warm_up(sys.argv[1])
    print(time.perf_counter() - start)
