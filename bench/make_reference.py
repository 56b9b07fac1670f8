"""Write ``reference.json``: the benchmark's instance catalogue and the
results that the exhaustive code computes for it.

Run from the repository root, on the commit whose results are the
reference:

    python3 bench/make_reference.py

The catalogue is drawn from a fixed seed, so rerunning on the same commit
rewrites the same file.  Later commits must not regenerate it: the
benchmark checks every commit against these recorded values.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from posetcodes import (  # noqa: E402
    LinearCode,
    Poset,
    ValidationError,
    build_table,
    decode,
    group_size,
    hierarchy_bounds,
    lower_neighbour,
    primary_decomposition,
    upper_neighbour,
    verify_profile_uniqueness,
)

import workloads  # noqa: E402

CATALOGUE_SEED = 14110724

# Random orbit ops per log2 group-size bucket [b, b + 1).
ORBIT_BUCKETS = {8: 16, 9: 16, 10: 6, 11: 4, 12: 2, 13: 1}
ORBIT_SHAPES = [(6, 2), (4, 3)]  # (n, q)
SWEEP_COUNT = 48
SWEEP_GROUP_CAP = 2600
DECODE_SHAPES = [(8, 2), (9, 2), (10, 2), (6, 3), (6, 3)]
DECODE_GROUP_CAP = {2: 1024, 3: 4096}


def random_poset(rng, n, max_relations):
    while True:
        pairs = []
        for _ in range(rng.randint(0, max_relations)):
            a, b = rng.randint(1, n), rng.randint(1, n)
            if a != b:
                pairs.append((a, b))
        try:
            return Poset.from_covers(n, pairs)
        except ValidationError:
            continue


def sparse_poset(rng, n):
    """Between n/2 and n random relations touching all but at most one
    element; isolated elements would blow up the automorphism group."""
    while True:
        pairs = []
        for _ in range(rng.randint(n // 2, n)):
            a, b = rng.randint(1, n), rng.randint(1, n)
            if a != b:
                pairs.append((a, b))
        if n - len({x for pair in pairs for x in pair}) > 1:
            continue
        try:
            return Poset.from_covers(n, pairs)
        except ValidationError:
            continue


def random_code(rng, q, n, k=None):
    while True:
        rows = [
            tuple(rng.randrange(q) for _ in range(n))
            for _ in range(k if k is not None else rng.randint(1, n))
        ]
        try:
            return LinearCode.from_generators(q, n, rows)
        except ValidationError:
            continue


def plain(name, poset, code, group_sizes):
    return {
        "name": name,
        "q": code.q,
        "n": code.n,
        "covers": [list(c) for c in poset.covers()],
        "generators": [list(r) for r in code.generators],
        "group_sizes": group_sizes,
    }


def orbit_catalogue(rng):
    out = []
    for bucket, count in ORBIT_BUCKETS.items():
        for i in range(count):
            # Alternate the shapes; a shape with no group size in this
            # bucket (n=4, q=3 has none in [2^9, 2^10)) gives way.
            for attempt in range(10**4):
                n, q = ORBIT_SHAPES[(i + attempt // 500) % len(ORBIT_SHAPES)]
                poset = random_poset(rng, n, 2 * n)
                size = group_size(poset, q)
                if 2**bucket <= size < 2 ** (bucket + 1):
                    break
            code = random_code(rng, q, n)
            name = f"random n={n} q={q} |G|={size}"
            out.append(plain(name, poset, code, [size]))
    for inst in out:
        print(f"orbit {inst['name']}", file=sys.stderr, flush=True)
        poset = Poset.from_covers(inst["n"], inst["covers"])
        code = LinearCode.from_generators(inst["q"], inst["n"], inst["generators"])
        inst["complexity"] = primary_decomposition(code, poset).complexity
    return out


def sweep_catalogue(rng):
    out = []
    while len(out) < SWEEP_COUNT:
        n, q = rng.choice((4, 5)), rng.choice((2, 3))
        poset = random_poset(rng, n, 2 * n)
        sizes = [group_size(p, q) for p in (poset, upper_neighbour(poset), lower_neighbour(poset))]
        if max(sizes) > SWEEP_GROUP_CAP:
            continue
        code = random_code(rng, q, n)
        bounds = hierarchy_bounds(code, poset)
        profile = verify_profile_uniqueness(code, poset)
        inst = plain(f"sweep #{len(out)} n={n} q={q} |G|={sizes}", poset, code, sizes)
        inst["expected"] = {
            "o_upper": bounds.o_upper,
            "o_p": bounds.o_p,
            "o_lower": bounds.o_lower,
            "sandwich_ok": bounds.sandwich_ok,
            "profile_ok": profile.ok,
            "orbit_size": profile.orbit_size,
        }
        out.append(inst)
    return out


def decode_catalogue(rng):
    out = []
    for n, q in DECODE_SHAPES:
        while True:
            poset = sparse_poset(rng, n)
            size = group_size(poset, q)
            if size <= DECODE_GROUP_CAP[q]:
                break
        code = random_code(rng, q, n, k=rng.randint(n // 2 - 1, n // 2 + 1))
        pd = primary_decomposition(code, poset)
        table = build_table(pd, poset)
        digest, _ = workloads.decode_map(decode, table)
        inst = plain(f"decode n={n} q={q} k={code.k} |G|={size}", poset, code, [size])
        inst["complexity"] = pd.complexity
        inst["digest"] = digest
        out.append(inst)
    return out


def main():
    reference = {"catalogue_seed": CATALOGUE_SEED}
    for name, catalogue in (
        ("orbit", orbit_catalogue),
        ("sweep", sweep_catalogue),
        ("decode", decode_catalogue),
    ):
        # One stream per workload, so that resizing one catalogue leaves the
        # others as they are.
        reference[name] = catalogue(random.Random(f"{CATALOGUE_SEED}:{name}"))
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
