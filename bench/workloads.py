"""The three benchmark workloads: ``orbit``, ``sweep`` and ``decode``.

A workload turns the checked-in catalogue (``reference.json``) and a seed
into the op list of each pass, made of plain data, runs one op against the
library and checks the op's output.  Every check compares against the value
that the exhaustive code of the reference commit recorded in
``reference.json`` and also tests one property that needs no reference.

Every pass runs each catalogue instance once, as one op with a stable key.
For ``orbit`` and ``sweep`` the seed and the pass index relabel the
coordinates of every instance and order the ops.  Relabelling the poset and
the code together leaves every checked value and the size of the isometry
group unchanged, so each pass gets new inputs with the same expected
outputs and about the same cost, and no pass can reuse a result remembered
from an earlier one.  The
``decode`` tables stay fixed, because the decoder's tie-breaks depend on the
labels; the seed draws one stream of received words that every pass
decodes.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Words per decode table in one pass over the received-word stream.
DECODE_WORDS_PER_TABLE = 2048
TINY_OPS = 3
TINY_DECODE_TABLES = 2
TINY_DECODE_WORDS = 32


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def relabel(n: int, covers, generators, perm):
    """Move coordinate i to perm[i - 1] in both the poset and the code."""
    new_covers = [[perm[a - 1], perm[b - 1]] for a, b in covers]
    new_rows = []
    for row in generators:
        new = [0] * n
        for j, value in enumerate(row):
            new[perm[j] - 1] = value
        new_rows.append(new)
    return new_covers, new_rows


def seeded_rng(workload: str, seed: int, pass_index: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def relabelled_ops(instances, rng):
    """(key, instance with relabelled covers and generators), in a seeded
    order."""
    ops = []
    for key, inst in enumerate(instances):
        perm = list(range(1, inst["n"] + 1))
        rng.shuffle(perm)
        covers, rows = relabel(inst["n"], inst["covers"], inst["generators"], perm)
        ops.append((key, dict(inst, covers=covers, generators=rows)))
    rng.shuffle(ops)
    return ops


def decode_map(decode, table):
    """Decode every word of GF(q)^n; returns (sha256 digest, word -> output).

    The digest covers every decoded codeword and its flags, in lexicographic
    order of the received word, so it pins the whole decoding map.
    """
    outputs = {}
    digest = hashlib.sha256()
    for y in product(range(table.q), repeat=table.n):
        word, flags = decode(table, y)
        outputs[y] = (word, flags)
        digest.update(
            ("".join(map(str, word)) + "/" + ",".join(map(str, flags)) + ";").encode()
        )
    return digest.hexdigest(), outputs


def _by_cost(instances, tiny: bool):
    """All instances, or the TINY_OPS with the smallest isometry groups."""
    if not tiny:
        return list(instances)
    return sorted(instances, key=lambda inst: max(inst["group_sizes"]))[:TINY_OPS]


class OrbitWorkload:
    """One op is one ``primary_decomposition(code, poset)``."""

    name = "orbit"
    setup_reps = 15

    def __init__(self, lib, reference, seed, tiny, workdir):
        self.lib = lib
        self.seed = seed
        self.instances = _by_cost(reference["orbit"], tiny)

    def ops(self, pass_index):
        rng = seeded_rng(self.name, self.seed, pass_index)
        return relabelled_ops(self.instances, rng)

    def run(self, op):
        lib = self.lib
        poset = lib.poset.Poset.from_covers(op["n"], op["covers"])
        code = lib.code.LinearCode.from_generators(op["q"], op["n"], op["generators"])
        return code, lib.search.primary_decomposition(code, poset)

    def check(self, op, out):
        code, pd = out
        if pd.complexity != op["complexity"]:
            return f"{op['name']}: complexity {pd.complexity} != reference {op['complexity']}"
        if pd.witness.apply_code(code) != pd.dec.code:
            return f"{op['name']}: witness does not map the code onto the decomposed code"
        if pd.dec.complexity() != pd.complexity:
            return f"{op['name']}: decomposition complexity disagrees with the reported one"
        return None


class SweepWorkload:
    """One op is the per-instance work of ``verify bounds`` and
    ``verify profile``: CLI ``analyze bounds`` in process, then
    ``verify_profile_uniqueness``."""

    name = "sweep"
    setup_reps = 15

    def __init__(self, lib, reference, seed, tiny, workdir):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.instances = _by_cost(reference["sweep"], tiny)

    def ops(self, pass_index):
        rng = seeded_rng(self.name, self.seed, pass_index)
        return relabelled_ops(self.instances, rng)

    def stage(self, ops):
        """Write each op's poset and code to JSON files for the CLI, in a
        new directory; the runner calls it before a pass, outside set-up
        and outside the ops' timers.  On a shared disk these writes took
        10 to 80 ms per pass and drifted over minutes, and they are the
        benchmark's work, not the library's.  A new directory also avoids
        rewriting truncated files, which ext4 forces to disk on close."""
        directory = tempfile.mkdtemp(dir=self.workdir)
        for key, op in ops:
            poset_path = os.path.join(directory, f"P{key}.json")
            code_path = os.path.join(directory, f"C{key}.json")
            with open(poset_path, "w", encoding="utf-8") as handle:
                json.dump({"n": op["n"], "covers": op["covers"]}, handle)
            with open(code_path, "w", encoding="utf-8") as handle:
                json.dump({"q": op["q"], "n": op["n"], "generators": op["generators"]}, handle)
            op["argv"] = ["analyze", "bounds", poset_path, code_path, "--format", "json"]

    def run(self, op):
        lib = self.lib
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = lib.cli.main(op["argv"])
            except SystemExit as exc:
                status = exc.code
        if status != 0:
            raise RuntimeError(f"cli exited {status}: {stderr.getvalue().strip()}")
        bounds = json.loads(stdout.getvalue())["bounds"]
        poset = lib.poset.Poset.from_covers(op["n"], op["covers"])
        code = lib.code.LinearCode.from_generators(op["q"], op["n"], op["generators"])
        profile = lib.search.verify_profile_uniqueness(code, poset)
        return bounds, profile

    def check(self, op, out):
        bounds, profile = out
        got = {
            "o_upper": bounds["o_upper"],
            "o_p": bounds["o_p"],
            "o_lower": bounds["o_lower"],
            "sandwich_ok": bounds["sandwich_ok"],
            "profile_ok": profile.ok,
            "orbit_size": profile.orbit_size,
        }
        if got != op["expected"]:
            return f"{op['name']}: got {got}, reference {op['expected']}"
        return None


class DecodeWorkload:
    """Build a handful of tables once, then one op is one ``decode(table, y)``."""

    name = "decode"
    setup_reps = 5

    def __init__(self, lib, reference, seed, tiny, workdir):
        self.lib = lib
        self.instances = reference["decode"]
        words = DECODE_WORDS_PER_TABLE
        if tiny:
            self.instances = sorted(self.instances, key=lambda inst: inst["q"] ** inst["n"])
            self.instances = self.instances[:TINY_DECODE_TABLES]
            words = TINY_DECODE_WORDS
        rng = seeded_rng(self.name, seed)
        self.stream = []
        for index, inst in enumerate(self.instances):
            q, n, rows = inst["q"], inst["n"], inst["generators"]
            for _ in range(words):
                word = [0] * n
                for row in rows:
                    coeff = rng.randrange(q)
                    word = [(w + coeff * r) % q for w, r in zip(word, row)]
                for j in rng.sample(range(n), rng.randint(0, 2)):
                    word[j] = (word[j] + rng.randrange(1, q)) % q
                self.stream.append((index, tuple(word)))
        rng.shuffle(self.stream)
        self.tables = []
        self.codes = []
        self.expected = []

    def ops(self, pass_index):
        return list(enumerate(self.stream))

    def prepare(self, after_table=lambda: None):
        """Primary decomposition plus ``build_table`` for every table:
        what a CLI ``decode`` user pays before the first word.  Calls
        ``after_table()`` after each table."""
        lib = self.lib
        self.tables = []
        self.codes = []
        for inst in self.instances:
            poset = lib.poset.Poset.from_covers(inst["n"], inst["covers"])
            code = lib.code.LinearCode.from_generators(inst["q"], inst["n"], inst["generators"])
            pd = lib.search.primary_decomposition(code, poset)
            self.tables.append(lib.decoder.build_table(pd, poset))
            self.codes.append(code)
            after_table()

    def setup_errors(self):
        """Decode every word of every table and compare the whole map with
        the reference digest; the map then checks each timed op."""
        errors = []
        self.expected = []
        for inst, table in zip(self.instances, self.tables):
            digest, outputs = decode_map(self.lib.decoder.decode, table)
            if table.pd.complexity != inst["complexity"]:
                errors.append(f"{inst['name']}: complexity {table.pd.complexity} != reference")
            if digest != inst["digest"]:
                errors.append(f"{inst['name']}: decoding map digest differs from reference")
                outputs = None
            self.expected.append(outputs)
        return errors

    def run(self, op):
        index, y = op
        return self.lib.decoder.decode(self.tables[index], y)

    def check(self, op, out):
        index, y = op
        expected = self.expected[index]
        name = self.instances[index]["name"]
        if expected is None:
            return f"{name}: table failed its reference digest"
        if out != expected[y]:
            return f"{name}: decode({y}) = {out}, reference {expected[y]}"
        if not self.codes[index].contains(out[0]):
            return f"{name}: decode({y}) returned a non-codeword"
        return None


WORKLOADS = {w.name: w for w in (OrbitWorkload, SweepWorkload, DecodeWorkload)}
