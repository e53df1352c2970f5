"""The benchmark's workloads: inputs from a seed, set-up, one op, answer checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned.  Inputs come from ``--seed`` alone and
are generated during set-up, before timing starts.  The seed chooses the
content of each input (coefficients and monomials); the shape of the input
set (kinds, rings, degrees, numbers of terms) comes from a fixed generator,
so every seed exercises the same mix and runs on different seeds compare.
An op raises ``WrongAnswer`` when a check on its answer fails; any other
exception comes from the program itself.

``verify-cold`` runs in child processes and lives in ``run.py``; the two
in-process workloads are here:

* ``calc-warm``: one op is one text query against the loaded catalog, in
  the mix of the catalog's own checks (``CALC_MIX``).  The query pool is
  small and is cycled, so its working set repeats.  A fixed set of
  reference queries is answered after the timed loop and compared with
  ``calc_golden.txt``.
* ``spec-load``: one op builds a fresh ring from a spec dict whose
  presentation is a catalog presentation under a seeded triangular
  unipotent change of generators, then asks for its Hilbert function and
  its stored degree values.  It uses ``a3_tilde``, the catalog ring whose
  load is dominated by Buchberger's algorithm; the others load in
  milliseconds or, like ``x2_tilde``, would mix a second ring size into
  the latency percentiles.  The expected Hilbert function and degree
  values are the ones the catalog spec stores.

Calls into the package go through module attributes at call time (for
example ``avchow.ringspec.load_ring_spec``), so the traced run's wrappers
see them.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import avchow.catalog
import avchow.linalg
import avchow.ringspec

COEFFICIENTS = tuple(Fraction(c) for c in ("1", "-1", "2", "-2", "3", "-5", "1/2", "-3/4"))


class WrongAnswer(Exception):
    """An op returned, but its answer failed the benchmark's check."""


# ----------------------------------------------------------------------
# input text, rendered here so that every query uses only syntax the
# parser accepts ("a - 3*b", never "a + -3*b")


def monomials_of_degree(weights, degree, upto=None):
    """Exponent vectors of the given weighted degree, using the first ``upto`` generators."""
    upto = len(weights) if upto is None else upto
    found = []

    def fill(i, remaining, exponents):
        if i == upto:
            if remaining == 0:
                found.append(tuple(exponents) + (0,) * (len(weights) - upto))
            return
        for e in range(remaining // weights[i] + 1):
            fill(i + 1, remaining - e * weights[i], exponents + [e])

    fill(0, degree, [])
    return found


def render(terms):
    """Text of a sum of (coefficient, [factor, ...]) terms."""
    chunks = []
    for coefficient, factors in terms:
        magnitude = abs(coefficient)
        body = "*".join(([str(magnitude)] if magnitude != 1 or not factors else []) + factors)
        if not chunks:
            chunks.append(body if coefficient > 0 else "-" + body)
        else:
            chunks.append(("+ " if coefficient > 0 else "- ") + body)
    return " ".join(chunks)


def monomial_factors(names, exponents):
    return [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e]


class RingInfo:
    """What the query generator needs to know about one loaded ring."""

    def __init__(self, name, loaded):
        self.name = name
        self.loaded = loaded
        gens = loaded.ring.gens
        self.names = gens.names
        self.weights = gens.weights
        self.named_by_degree = {}
        for class_name, poly in loaded.named.items():
            self.named_by_degree.setdefault(poly.weighted_degree(), []).append(class_name)
        dims = []
        while len(dims) < max(self.weights) or any(dims[-max(self.weights):]):
            dims.append(len(loaded.ring.standard_monomials(len(dims))))
        self.hilbert = dims[: max(d for d, n in enumerate(dims) if n) + 2]
        self.socle = len(self.hilbert) - 2

    def element(self, shape, content, degree):
        """Text of a random homogeneous element; sometimes a named class."""
        named = self.named_by_degree.get(degree)
        if named and shape.random() < 0.25:
            return shape.choice(named)
        monomials = monomials_of_degree(self.weights, degree)
        chosen = content.sample(monomials, min(len(monomials), shape.randint(1, 3)))
        return render([(content.choice(COEFFICIENTS), monomial_factors(self.names, m)) for m in chosen])

    def product(self, shape, content, degree):
        """Text "(a)*(b)" of a product of the given total degree."""
        first = shape.randint(0, degree)
        return f"({self.element(shape, content, first)})*({self.element(shape, content, degree - first)})"


# ----------------------------------------------------------------------
# calc-warm

# Queries per block, by kind, in the proportions of the catalog's 252
# checks (``avchow verify --scope all``), grouped by what each check
# computes: 101 degrees (normalizations, stored degrees, pairing-table
# entries, degree tables), 71 Torelli pushforwards (table 4a, its
# supports, the pushforward identities), 37 x2_tilde fibre pushforwards
# (table 3h, the pushforward spot-checks), 16 identities (the 6 whose
# right-hand side is 0 count as products that must vanish, the other 10
# as normal forms), 4 determinants of pairing matrices and 1 solve_class.
# The 22 checks no query resembles (Hilbert functions, level counts,
# presentation equivalences) are left out.  The pool repeats this block,
# cycling through the rings and degrees each kind accepts, so every seed
# gives the same mix of query shapes and only their content varies.
CALC_MIX = (
    ("degree", 101),
    ("torelli", 71),
    ("fibre", 37),
    ("nf", 10),
    ("zero", 6),
    ("pairing", 4),
    ("solve", 1),
)
CALC_BLOCKS = 17  # 3,910 queries

# A fixed set of reference queries, answered after the timed loop of every
# run and compared with the answers the seed commit gave
# (``calc_golden.txt``; write it with ``python3 perfbench/workloads.py``
# from the root of a checkout).  The checks inside an op only compare a
# query with its own earlier answer or with another route through the same
# normal form; the reference answers catch a wrong but repeatable one.
GOLDEN_SEED = 1
GOLDEN_BLOCKS = 2
GOLDEN = Path(__file__).resolve().parent / "calc_golden.txt"


class CalcWarm:
    """Exact-calculator queries against the warm catalog."""

    name = "calc-warm"

    def __init__(self, seed):
        catalog = avchow.catalog.Catalog()
        self.rings = {name: RingInfo(name, catalog.ring(name)) for name in avchow.catalog.RING_NAMES}
        self.torelli = catalog.torelli()
        self.surface = catalog.fibered_surface()
        self.targets = self._targets()
        self.pool = self.queries(seed, CALC_BLOCKS)
        random.Random(seed).shuffle(self.pool)
        self.reference = self.queries(GOLDEN_SEED, GOLDEN_BLOCKS)
        self.answers = [None] * len(self.pool)
        self.ops = 0

    def _targets(self):
        """What each query kind cycles through: rings, (ring, degree) pairs, degrees or symbol sets."""
        with_functional = [info for info in self.rings.values() if info.loaded.functional is not None]
        duality = []
        for info in with_functional:
            functional = info.loaded.functional
            for k in range(1, functional.top_degree):
                rows = info.loaded.ring.standard_basis_polynomials(k)
                cols = info.loaded.ring.standard_basis_polynomials(functional.top_degree - k)
                if len(rows) == len(cols) and avchow.linalg.det_exact(functional.pairing_matrix(k, rows, cols)):
                    duality.append((info, k))
        symbols = self.torelli.symbols
        by_codim = {}
        for name, weight in zip(symbols.names, symbols.weights):
            by_codim.setdefault(weight, []).append(name)
        fibre = self.rings["x2_tilde"]
        return {
            "nf": list(self.rings.values()),
            "degree": with_functional,
            "zero": list(self.rings.values()),
            "pairing": duality,
            "solve": duality,
            "fibre": list(range(2, fibre.socle + 1)),
            "torelli": [by_codim[codim] for codim in sorted(by_codim)],
        }

    def queries(self, seed, blocks):
        """``blocks`` blocks of CALC_MIX queries; the seed chooses only their content."""
        shape, content = random.Random(0), random.Random(seed)
        turn = {kind: 0 for kind in self.targets}
        found = []
        for _ in range(blocks):
            for kind, count in CALC_MIX:
                for _ in range(count):
                    options = self.targets[kind]
                    target = options[turn[kind] % len(options)]
                    turn[kind] += 1
                    found.append(self._query(shape, content, kind, target))
        return found

    def _query(self, shape, content, kind, target):
        if kind == "nf":
            return kind, target.name, target.product(shape, content, shape.randint(0, target.socle))
        if kind == "degree":
            return kind, target.name, target.product(shape, content, target.loaded.functional.top_degree)
        if kind == "zero":
            return kind, target.name, target.product(shape, content, target.socle + shape.randint(1, 2))
        if kind in ("pairing", "solve"):
            info, k = target
            top = info.loaded.functional.top_degree
            probes = [render([(1, monomial_factors(info.names, m))]) for m in info.loaded.ring.standard_monomials(top - k)]
            if kind == "pairing":
                rows = [info.element(shape, content, k) for _ in probes]
                return kind, info.name, (k, rows, probes)
            return kind, info.name, (k, info.element(shape, content, k), probes)
        if kind == "fibre":
            return kind, "x2_tilde", self.rings["x2_tilde"].element(shape, content, target)
        chosen = content.sample(target, shape.randint(1, min(3, len(target))))
        return kind, "torelli", render([(content.choice(COEFFICIENTS), [name]) for name in chosen])

    def op(self):
        index = self.ops % len(self.pool)
        self.ops += 1
        answer = self.answer(index)
        first = self.answers[index]
        if first is None:
            self.answers[index] = answer
        elif answer != first:
            raise WrongAnswer(f"query {index} answered {answer!r}, earlier {first!r}")

    def answer(self, index):
        return self.answer_query(*self.pool[index])

    def answer_query(self, kind, ring_name, text):
        if kind == "torelli":
            push = self.torelli.push
            return str(push.push_combination(self.torelli.parse_combination(text)))
        if kind == "fibre":
            element = self.surface.combined.parse(text)
            return str(self.surface.relative.pushforward(element, self.surface.rule))
        loaded = self.rings[ring_name].loaded
        ring = loaded.ring
        functional = loaded.functional
        if kind == "nf":
            return str(ring.normal_form(loaded.parse(text)))
        if kind == "degree":
            return str(functional.degree(loaded.parse(text)))
        if kind == "zero":
            nf = ring.normal_form(loaded.parse(text))
            if not nf.is_zero:
                raise WrongAnswer(f"{ring_name}: {text} lies above the socle degree but reduces to {nf}")
            return "0"
        k, unknown, probe_texts = text
        probes = [loaded.parse(p) for p in probe_texts]
        if kind == "pairing":
            matrix = functional.pairing_matrix(k, [loaded.parse(r) for r in unknown], probes)
            det = avchow.linalg.det_exact(matrix)
            return ";".join(",".join(str(v) for v in row) for row in matrix) + f" det {det}"
        element = loaded.parse(unknown)
        values = [functional.degree(element * probe) for probe in probes]
        solved = functional.solve_class(k, probes, values)
        if ring.normal_form(solved) != ring.normal_form(element):
            raise WrongAnswer(f"{ring_name}: solve_class of {unknown} gave {solved}")
        return str(solved)

    def finish(self):
        """Answer the pool queries the timed loop did not reach and the reference queries.

        Returns the notes to print and the number of answers that failed:
        late answers that raised, and reference answers that raised or
        differ from ``calc_golden.txt``.
        """
        failed = 0
        for index, answer in enumerate(self.answers):
            if answer is None:
                try:
                    self.answers[index] = self.answer(index)
                except Exception as err:  # counted like a failed op
                    self.answers[index] = f"failed: {type(err).__name__}: {err}"
                    failed += 1
        digest = hashlib.sha256("\n".join(self.answers).encode()).hexdigest()
        golden = GOLDEN.read_text().splitlines()
        wrong = []
        for index, (query, expected) in enumerate(zip(self.reference, golden)):
            try:
                answer = self.answer_query(*query)
            except Exception as err:
                answer = f"failed: {type(err).__name__}: {err}"
            if answer != expected:
                wrong.append(index)
        wrong += range(len(golden), len(self.reference))
        notes = {
            "pool": len(self.pool),
            "answers_sha256": digest,
            "late answers failed": failed,
            "reference answers": len(self.reference),
            "reference answers wrong": len(wrong),
        }
        if wrong:
            notes["first wrong reference answer"] = f"query {wrong[0]} {self.reference[wrong[0]]}"
        return notes, failed + len(wrong)


def write_golden():
    """Print the answers of the reference queries, one a line, for ``calc_golden.txt``."""
    workload = CalcWarm(GOLDEN_SEED)
    for query in workload.reference:
        print(workload.answer_query(*query))


# ----------------------------------------------------------------------
# spec-load

SPEC_RING = "a3_tilde"
SPEC_VARIANTS = 20
# Coefficients of the change of generators.  Integers of size at most 2
# keep the cost of a load within about a tenth of its mean from variant to
# variant; with COEFFICIENTS' fractions and larger integers some variants
# cost twice as much as others, so the median of a run depended on which
# variants the seed drew.
SPEC_COEFFICIENTS = tuple(Fraction(c) for c in (1, -1, 2, -2))


def stored_degree_values(loaded):
    """(element, value) pairs the spec stores: normalization, expected degrees, degree tables."""
    functional = loaded.functional
    pairs = [(functional.reference_element, functional.reference_value)]
    pairs.extend((d.element, d.value) for d in loaded.degrees)
    for table in loaded.tables:
        if table.kind == "degrees":
            pairs.extend((e.element, e.value) for e in table.entries if e.checkable)
    return pairs


def unipotent_change(rng, gens):
    """x_i -> x_i + (every same-weight monomial in earlier generators, seeded coefficients)."""
    images = {}
    for i, (name, weight) in enumerate(zip(gens.names, gens.weights)):
        image = gens.gen(name)
        for m in monomials_of_degree(gens.weights, weight, upto=i):
            image = image + gens.monomial(m, rng.choice(SPEC_COEFFICIENTS))
        images[name] = image
    return images


class SpecLoad:
    """Fresh rings from transformed catalog presentations."""

    name = "spec-load"

    def __init__(self, seed):
        rng = random.Random(seed)
        original = avchow.catalog.Catalog().ring(SPEC_RING)
        # The Hilbert function and the degree values are the spec's stored
        # ones, taken from the paper, not recomputed by the package.
        hilbert = original.expected_hilbert
        pairs = stored_degree_values(original)
        ring = original.ring
        self.pool = []
        for _ in range(SPEC_VARIANTS):
            images = unipotent_change(rng, ring.gens)
            spec = {
                "name": SPEC_RING,
                "generators": [{"name": n, "degree": w} for n, w in zip(ring.gens.names, ring.gens.weights)],
                "relations": [str(r.substitute(images)) for r in ring.presentation.relations],
                "expected": {
                    "hilbert": hilbert,
                    "degrees": [{"expr": str(e.substitute(images)), "value": str(v)} for e, v in pairs[1:]],
                },
            }
            element, value = pairs[0]
            spec["normalization"] = {"element": str(element.substitute(images)), "value": str(value)}
            self.pool.append((spec, hilbert, [v for _, v in pairs[1:]]))
        self.ops = 0

    def op(self):
        spec, hilbert, values = self.pool[self.ops % len(self.pool)]
        self.ops += 1
        loaded = avchow.ringspec.load_ring_spec(spec)
        computed = loaded.ring.hilbert_function(len(hilbert) - 1)
        if computed != hilbert:
            raise WrongAnswer(f"{spec['name']}: Hilbert function {computed}, expected {hilbert}")
        for expectation, value in zip(loaded.degrees, values):
            got = loaded.functional.degree(expectation.element)
            if got != value:
                raise WrongAnswer(f"{spec['name']}: degree of {expectation.expr_text} is {got}, expected {value}")
        if len(loaded.degrees) != len(values):
            raise WrongAnswer(f"{spec['name']}: {len(loaded.degrees)} stored degrees, expected {len(values)}")

    def finish(self):
        return {"pool": len(self.pool)}, 0


IN_PROCESS = {CalcWarm.name: CalcWarm, SpecLoad.name: SpecLoad}


if __name__ == "__main__":
    write_golden()
