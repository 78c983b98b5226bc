"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is a fixed round of operations built from the seed.  Requests
reach the program only as generated spec and matrix files (CLI workloads) or
as a generated eigenvalue pool (sweep); every expected answer is computed
with :mod:`exact`, never with strongrev.
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import exact as qi
from exact import MINUS_ONE, NOT_REVERSIBLE, ONE, REVERSIBLE_ONLY, STRONG

I = qi.scalar(0, 1)
TWO, HALF = qi.scalar(2), qi.scalar(Fraction(1, 2))

# witness-dense round, one slot per request: the dominant part (one +-1
# block, or (2, 1/2) block pairs of the given sizes), +-1 filler block sizes,
# and (i, -i) filler pair sizes.  The verdict depends on sizes only, so every
# seed gets the same sizes, verdicts and cost per slot and draws the signs and
# block order; large and small slots alternate.
WITNESS_DENSE_ROUND = (
    ("pm", (28,), (2, 2, 1, 1), ()),  # n = 34, strongly reversible
    ("pairs", (12, 6), (2,), ()),  # n = 38, reversible only
    ("pm", (20,), (2, 2), (1,)),  # n = 26, reversible only
    ("pairs", (10,), (3, 2, 1), ()),  # n = 26, strongly reversible
    ("pm", (32,), (3, 2, 1), ()),  # n = 38, strongly reversible
    ("pm", (16,), (2, 2), (2,)),  # n = 24, strongly reversible, even parity
    ("pairs", (8, 8), (2,), (1,)),  # n = 36, strongly reversible, even parity
    ("pm", (24,), (2, 2, 2), ()),  # n = 30, reversible only
)
# cli-mix: a round repeats these 16 slots CLI_MIX_REPEATS times; each kind
# cycles through its cases.
CLI_MIX_SLOTS = (
    "classify", "witness", "verify", "classify", "weyr", "witness", "verify", "classify",
    "malformed", "witness", "verify", "classify", "weyr", "witness", "verify", "classify",
)
CLI_MIX_REPEATS = 12
CLI_MIX_N = (6, 20)
MALFORMED = ("bad-scalar", "empty-blocks", "fractional-size", "numeric-eigenvalue")
BAD_SCALARS = ("2x", "1/0", "1..2", "i2", "--1", "")
CLI_MIX_CASES = {
    "classify": (STRONG, REVERSIBLE_ONLY, NOT_REVERSIBLE),
    "witness": ((STRONG, False), (REVERSIBLE_ONLY, True), (REVERSIBLE_ONLY, False), (NOT_REVERSIBLE, False)),
    "weyr": (STRONG, REVERSIBLE_ONLY, NOT_REVERSIBLE),
    "verify": ("exact", "sampled", "corrupted", "singular"),
    # every malformed kind through every spec-reading command
    "malformed": tuple((bad, command) for command in ("classify", "witness", "weyr") for bad in MALFORMED),
}
PAIR_EIGENVALUES = tuple(qi.scalar(re, im) for re, im in ((2, 0), (-2, 0), (0, 2), (0, -2)))
SWEEP_MAX_N = 7
DEFAULT_POOL = ("1", "-1", "2", "1/2", "i", "-i")
SWEEP_LAMBDAS = (2, -2, 3, -3)
SWEEP_MUS = (1, -1, 2, -2)


@dataclass
class Op:
    """One request.  ``units`` is how many operations it settles (a sweep
    settles every spec of the exhaustive set)."""

    kind: str
    argv: list | None = None
    check: object = None
    malformed: bool = False
    pool: tuple = ()
    max_n: int = 0
    units: int = 1


# ------------------------------------------------------------------ files


def spec_json(blocks) -> dict:
    return {"blocks": [{"eigenvalue": qi.fmt(eig), "size": size} for eig, size in blocks]}


def matrix_json(m) -> dict:
    return {"rows": len(m), "cols": len(m[0]), "entries": [[qi.fmt(v) for v in row] for row in m]}


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def payload_blocks(payload) -> list:
    return [(qi.parse(b["eigenvalue"]), b["size"]) for b in payload["spec"]["blocks"]]


def parse_matrix(data) -> list:
    return [[qi.parse(v) for v in row] for row in data["entries"]]


def same_class(blocks, payload) -> bool:
    return Counter(blocks) == Counter(payload_blocks(payload))


# ------------------------------------------------------------------ checks


def check_exit(expected: int):
    def check(code, out):
        if code != expected:
            return f"exit {code}, expected {expected}"
        return None

    return check


def check_classify(blocks):
    want, parity = qi.verdict(blocks)

    def check(code, out):
        expected = qi.expected_exit("classify", blocks)
        if code != expected:
            return f"exit {code}, expected {expected}"
        payload = json.loads(out)
        got = (payload["reversible"], payload["strongly_reversible"], payload["parity_value"])
        if got != (want != NOT_REVERSIBLE, want == STRONG, parity) or not same_class(blocks, payload):
            return f"classify payload {got} disagrees with the oracle ({want}, parity {parity})"
        return None

    return check


def check_report(report: dict, expect: dict) -> str | None:
    got = (report["reverses"], report["involution"], qi.parse(report["determinant"]), report["in_special"])
    want = (expect["reverses"], expect["involution"], expect["determinant"], expect["in_special"])
    if got != want:
        return f"report {got}, expected {want}"
    residuals = {r["check"]: r["position"] for r in report["residuals"]}
    names = [name for name in ("reverses", "involution") if not expect[name]]
    if list(residuals) != names:
        return f"residual checks {list(residuals)}, expected {names}"
    if "involution" in residuals and residuals["involution"] != expect["involution_position"]:
        return f"involution residual at {residuals['involution']}, expected {expect['involution_position']}"
    if "reverses" in residuals and (residuals["reverses"] is None) != (expect["determinant"] == qi.ZERO):
        return "reverses residual position does not match the singularity of g"
    return None


def check_witness(blocks, sl_only: bool):
    """Exit code from the oracle; an emitted g must satisfy A g A = g and
    det g = 1, and g^2 = I unless --sl-only was asked."""

    def check(code, out):
        expected = qi.expected_exit("witness", blocks, sl_only)
        if code != expected:
            return f"exit {code}, expected {expected}"
        if code:
            return "refusal printed to stdout" if out else None
        payload = json.loads(out)
        if not same_class(blocks, payload):
            return "witness spec is not the requested class"
        a, g = parse_matrix(payload["a"]), parse_matrix(payload["g"])
        if a != qi.jordan(payload_blocks(payload)):
            return "A is not the Jordan matrix of the spec"
        expect = qi.verify_expectation(a, g)
        if not (expect["reverses"] and expect["in_special"] and (sl_only or expect["involution"])):
            return f"invalid witness: {({k: expect[k] for k in ('reverses', 'involution', 'in_special')})}"
        return check_report(payload["verification"], expect)

    return check


def check_weyr(blocks):
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        payload = json.loads(out)
        if not same_class(blocks, payload):
            return "weyr spec is not the requested class"
        by_eig = {}
        for eig, size in blocks:
            by_eig.setdefault(eig, []).append(size)
        structures = [(qi.parse(s["eigenvalue"]), s["sizes"]) for s in payload["structures"]]
        if dict(structures) != {e: qi.conjugate_partition(s) for e, s in by_eig.items()}:
            return "Weyr structures are not the conjugate partitions"
        w = parse_matrix(payload["matrix"])
        expected_w = qi.zeros(len(w))
        offset = 0
        for eig, sizes in structures:
            qi.place(expected_w, qi.basic_weyr(eig, sizes), offset, offset)
            offset += sum(sizes)
        if w != expected_w:
            return "Weyr matrix is not the basic Weyr form of its structures"
        images = [k - 1 for k in payload["permutation"]]
        j = qi.jordan(payload_blocks(payload))
        n = len(j)
        if sorted(images) != list(range(n)) or any(
            w[images[r]][images[c]] != j[r][c] for r in range(n) for c in range(n)
        ):
            return "permutation does not carry the Jordan matrix onto the Weyr matrix"
        return None

    return check


def check_verify(expect: dict):
    def check(code, out):
        if code != expect["exit"]:
            return f"exit {code}, expected {expect['exit']}"
        return check_report(json.loads(out)["report"], expect)

    return check


# ------------------------------------------------------------------ specs


def draw_spec(rng: random.Random, n: int, target: str) -> list:
    """Blocks of total size n whose oracle verdict is ``target``."""
    if target == REVERSIBLE_ONLY:
        n -= (n - 2) % 4  # no odd +-1 block: the parity value is n/2 mod 2
    for _ in range(10_000):
        blocks, left = [], n
        while left:
            r = rng.random()
            if target == NOT_REVERSIBLE and r < 0.15:
                size = rng.randint(1, min(left, 4))
                blocks.append((rng.choice(PAIR_EIGENVALUES), size))
                left -= size
            elif left >= 2 and r < 0.55:
                size = rng.randint(1, min(3, left // 2))
                lam = rng.choice(PAIR_EIGENVALUES)
                blocks += [(lam, size), (qi.inv(lam), size)]
                left -= 2 * size
            else:
                if target == REVERSIBLE_ONLY:
                    size = 2 * rng.randint(1, min(2, left // 2))
                else:
                    size = rng.randint(1, min(4, left))
                blocks.append((rng.choice((ONE, MINUS_ONE)), size))
                left -= size
        if qi.verdict(blocks)[0] == target:
            rng.shuffle(blocks)
            return blocks
    raise RuntimeError(f"no spec of size {n} with verdict {target}")


def stratified_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi] in random order, so every
    seed sees the same size mix."""
    span = hi - lo + 1
    sizes = [lo + int((k + rng.random()) * span / count) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def witness_op(blocks, path: Path, sl_only: bool) -> Op:
    argv = ["witness", "--input", write_json(path, spec_json(blocks)), "--format", "json"]
    if sl_only:
        argv.append("--sl-only")
    return Op("witness", argv, check_witness(blocks, sl_only))


# ------------------------------------------------------------------ workloads


def witness_dense(rng: random.Random, out: Path, round_=WITNESS_DENSE_ROUND) -> list[Op]:
    """CLI `witness --format json` on n = 24-40 specs; reversible-only ones
    are sent with --sl-only, so every request expects exit 0."""
    ops = []
    for k, (family, core, signed, paired) in enumerate(round_):
        if family == "pm":
            blocks = [(rng.choice((ONE, MINUS_ONE)), core[0])]
        else:
            blocks = [b for size in core for b in ((TWO, size), (HALF, size))]
        blocks += [(rng.choice((ONE, MINUS_ONE)), size) for size in signed]
        blocks += [b for size in paired for b in ((I, size), (qi.inv(I), size))]
        rng.shuffle(blocks)
        sl_only = qi.verdict(blocks)[0] == REVERSIBLE_ONLY
        ops.append(witness_op(blocks, out / f"spec{k}.json", sl_only))
    return ops


def verify_inputs(rng: random.Random, n: int, variant: str):
    """A = Jordan matrix of a strongly reversible class; g is an exact
    involutive witness built blockwise, that witness times a polynomial in A
    with complex rational coefficients (a dense sampled reverser), the
    witness with one entry corrupted, or a singular matrix."""
    blocks = draw_spec(rng, n, STRONG)
    order, used = [], set()
    for k, (eig, size) in enumerate(blocks):  # put each pair's blocks side by side
        if k in used:
            continue
        used.add(k)
        order.append((eig, size))
        if eig not in (ONE, MINUS_ONE):
            partner = next(j for j, b in enumerate(blocks) if j not in used and b == (qi.inv(eig), size))
            used.add(partner)
            order.append(blocks[partner])
    a = qi.jordan(order)
    g = qi.zeros(n)
    offset, k, odd = 0, 0, []
    while k < len(order):
        eig, size = order[k]
        if eig in (ONE, MINUS_ONE):
            qi.place(g, qi.reverser(eig, size), offset, offset)
            if size % 2:
                odd.append((offset, size))
            offset, k = offset + size, k + 1
        else:
            qi.place(g, qi.reverser(eig, size), offset, offset + size)
            qi.place(g, qi.reverser(qi.inv(eig), size), offset + size, offset)
            offset, k = offset + 2 * size, k + 2
    if qi.det(g) != ONE and odd:  # negate one odd +-1 block to reach det 1
        start, size = odd[0]
        for r in range(start, start + size):
            g[r] = [qi.mul(MINUS_ONE, v) for v in g[r]]
    if variant == "sampled":
        c0 = qi.scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        poly = [[qi.mul(c0, v) for v in row] for row in qi.identity(n)]
        power = qi.identity(n)
        for _ in range(2):
            power = qi.matmul(power, a)
            c = qi.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            poly = [[qi.add(p, qi.mul(c, v)) for p, v in zip(prow, vrow)] for prow, vrow in zip(poly, power)]
        g = qi.matmul(poly, g)
    elif variant == "corrupted":
        r, c = rng.randrange(n), rng.randrange(n)
        g[r][c] = qi.add(g[r][c], qi.scalar(rng.choice((-1, 1)), rng.randint(0, 1)))
    elif variant == "singular":
        r = rng.randrange(1, n)
        g[r] = list(g[rng.randrange(r)])
    return a, g


def malformed_spec(rng: random.Random, kind: str) -> dict:
    """A spec that must be rejected with exit 3."""
    spec = spec_json(draw_spec(rng, rng.randint(2, 6), STRONG))
    bad = {"eigenvalue": "1", "size": 1}
    if kind == "empty-blocks":
        return {"blocks": []}
    if kind == "bad-scalar":
        bad["eigenvalue"] = rng.choice(BAD_SCALARS)
    elif kind == "fractional-size":
        bad["size"] = rng.choice((1.5, 2.5, 3.5))
    elif kind == "numeric-eigenvalue":
        bad["eigenvalue"] = rng.choice((2, -1, 3))
    spec["blocks"].insert(rng.randrange(len(spec["blocks"]) + 1), bad)
    return spec


def cli_mix(rng: random.Random, out: Path, repeats: int = CLI_MIX_REPEATS, n_range=CLI_MIX_N) -> list[Op]:
    """A seeded stream of classify (all three verdicts), witness (including
    refusals with exit 1 and 2), weyr, verify and malformed requests.  Each
    kind cycles through its CLI_MIX_CASES, and each (kind, case) gets sizes
    spread evenly over n_range, so every seed's round costs about the same."""
    seen, plan = Counter(), []
    for _ in range(repeats):
        for kind in CLI_MIX_SLOTS:
            cases = CLI_MIX_CASES[kind]
            plan.append((kind, cases[seen[kind] % len(cases)]))
            seen[kind] += 1
    sizes = {key: iter(stratified_sizes(rng, count, *n_range)) for key, count in Counter(plan).items()}
    ops = []
    for k, (kind, case) in enumerate(plan):
        n = next(sizes[kind, case])
        path = out / f"req{k}.json"
        if kind == "classify":
            blocks = draw_spec(rng, n, case)
            argv = ["classify", "--input", write_json(path, spec_json(blocks)), "--format", "json"]
            ops.append(Op(kind, argv, check_classify(blocks)))
        elif kind == "witness":
            target, sl_only = case
            ops.append(witness_op(draw_spec(rng, n, target), path, sl_only))
        elif kind == "weyr":
            blocks = draw_spec(rng, n, case)
            argv = ["weyr", "--input", write_json(path, spec_json(blocks)), "--format", "json"]
            ops.append(Op(kind, argv, check_weyr(blocks)))
        elif kind == "verify":
            a, g = verify_inputs(rng, n, case)
            argv = [
                "verify", "--format", "json",
                "--matrix-a", write_json(out / f"a{k}.json", matrix_json(a)),
                "--matrix-g", write_json(out / f"g{k}.json", matrix_json(g)),
            ]
            ops.append(Op(kind, argv, check_verify(qi.verify_expectation(a, g))))
        else:
            bad, command = case
            argv = [command, "--input", write_json(path, malformed_spec(rng, bad)), "--format", "json"]
            ops.append(Op(kind, argv, check_exit(3), malformed=True))
    return ops


def sweep_pool(seed: int) -> tuple[str, ...]:
    """Seed 0: the package's default pool.  Otherwise {1, -1, lam, 1/lam,
    mu, 1/mu} with lam real and mu imaginary, as in the default pool, drawn
    from SWEEP_LAMBDAS and SWEEP_MUS so entry heights, and with them the
    cost of a sweep, stay alike across seeds."""
    if seed == 0:
        return DEFAULT_POOL
    rng = random.Random(seed)
    lam = qi.scalar(rng.choice(SWEEP_LAMBDAS))
    mu = qi.scalar(0, rng.choice(SWEEP_MUS))
    return tuple(qi.fmt(x) for x in (ONE, MINUS_ONE, lam, qi.inv(lam), mu, qi.inv(mu)))


def exhaustive_counts(pool, max_n: int) -> Counter:
    """Verdict counts over every nonempty multiset of (eigenvalue, size)
    pairs with total size <= max_n."""
    items = [(qi.parse(eig), size) for eig in pool for size in range(1, max_n + 1)]
    counts = Counter()

    def rec(start: int, budget: int, acc: list) -> None:
        for idx in range(start, len(items)):
            if items[idx][1] <= budget:
                acc.append(items[idx])
                counts[qi.verdict(acc)[0]] += 1
                rec(idx, budget - items[idx][1], acc)
                acc.pop()

    rec(0, max_n, [])
    return counts


def check_sweep(counts: Counter):
    def check(summary):
        got = (summary["cases"], summary["strongly_reversible"], summary["reversible_only"], summary["not_reversible"])
        want = (sum(counts.values()), counts[STRONG], counts[REVERSIBLE_ONLY], counts[NOT_REVERSIBLE])
        if summary["failures"]:
            return f"sweep failures: {summary['failures'][:3]}"
        if got != want:
            return f"sweep counts {got}, oracle {want}"
        return None

    return check


def sweep(seed: int, max_n: int = SWEEP_MAX_N) -> list[Op]:
    pool = sweep_pool(seed)
    counts = exhaustive_counts(pool, max_n)
    return [Op("sweep", check=check_sweep(counts), pool=pool, max_n=max_n, units=sum(counts.values()))]


# ------------------------------------------------------------------ running


class Client:
    """The one closed-loop client: runs an op against the imported package."""

    def __init__(self, modules):
        self.cli, self.verify, self.scalars = modules["cli"], modules["verify"], modules["scalars"]

    def call(self, op: Op, pace=None):
        """The op's raw output: (exit code, stdout) for a CLI request, with
        exit code None when main raised; the summary dict for a sweep.
        ``pace()``, if given, runs between the specs of a sweep."""
        if op.kind == "sweep":
            pool = [self.scalars.parse(x) for x in op.pool]
            gen = self.verify.SpecGenerator(op.max_n, pool)
            return self.verify.classification_sweep(Paced(gen, pace) if pace else gen)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(op.argv)
            except Exception as exc:  # a crash is a failed request, not an abort
                return None, f"{type(exc).__name__}: {exc}"
        return code, out.getvalue()


class Paced:
    """A spec generator that calls ``pace()`` after handing out each spec."""

    def __init__(self, gen, pace):
        self.gen, self.pace = gen, pace

    def specs(self):
        for spec in self.gen.specs():
            yield spec
            self.pace()


def problem_of(op: Op, raw) -> str | None:
    if op.kind == "sweep":
        return op.check(raw)
    code, out = raw
    if code is None:
        return f"raised {out}"
    try:
        return op.check(code, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


WORKLOADS = {
    "witness-dense": lambda seed, out: witness_dense(random.Random(seed), out),
    "sweep": lambda seed, out: sweep(seed),
    "cli-mix": lambda seed, out: cli_mix(random.Random(seed), out),
}
