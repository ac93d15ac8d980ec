#!/usr/bin/env python3
"""The claim catalog, and what an honest failure looks like.

Runs a representative slice of the claim suite through the library API,
then deliberately feeds one claim an off-shell momentum to show that a
wrong input produces a Refuted verdict with a numeric witness instead of
a silent pass.
"""
from kk6 import claim_ids, must_pass_ids, run_claim, run_suite


def show(rec):
    print(f"  {rec.claim_id:24s} {rec.verdict:12s} "
          f"max residual {rec.max_residual:.3e}  samples {rec.samples}")
    for note in rec.notes[:2]:
        print(f"      - {note}")


def main():
    print(f"claim catalog: {len(claim_ids())} claims, "
          f"{len(must_pass_ids())} of them must-pass\n")

    print("a representative confirmed slice (seed 0, tolerance 1e-9):")
    for rec in run_suite(claims=["kg.reduction", "maxwell.reduction",
                                 "proca.reduction", "inverse.photon",
                                 "geodesic.closedform",
                                 "interference.minima"]):
        show(rec)

    print("\nmeasured (Conditional) claims — true in a restricted reading, "
          "reported with\nthe residual of the general one:")
    show(run_claim("inverse.halfspin"))
    show(run_claim("gravity.split.scalar", params={"points": 2}))

    print("\nthe same machinery refutes wrong inputs. off-shell energy "
          "p0 = 2 with\np = (0, 0, 0), m0 = 1:")
    rec = run_claim("kg.reduction",
                    params={"p0": 2, "p1": 0, "p2": 0, "p3": 0, "m0": 1})
    show(rec)
    print(f"      witness: {rec.witness}")


if __name__ == "__main__":
    main()
