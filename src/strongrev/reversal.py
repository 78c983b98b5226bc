"""Reversibility and strong reversibility in the special linear group.

A Jordan form A is *reversible* when some g conjugates it to its inverse,
and *strongly reversible* when such a g can be taken to be an involution
with determinant one.  This module classifies both properties from the
Jordan data alone and constructs explicit, exactly verified witnesses.

The workhorse is the upper triangular matrix R(lam, n) ("jordan_reverser")
satisfying

    R(lam, n) * J(1/lam, n) == J(lam, n)^{-1} * R(lam, n)
    R(lam, n)^{-1} == R(1/lam, n)

so R(mu, n) is an involutive reverser of J(mu, n) for mu in {1, -1}, and
the antidiagonal pairing of R(lam, n) with its inverse reverses
J(lam, n) + J(1/lam, n).  Scaling by upper triangular Toeplitz matrices
(the Jordan block commutant) sweeps out the whole reverser family.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .canonical import JordanSpec, jordan_matrix, sample_centralizer, weyr_form
from .matrices import (
    ExactMatrix,
    VerificationReport,
    check_witness,
    direct_sum,
    inflate,
    offsets,
)
from .scalars import GaussianRational, MINUS_ONE, ONE, ZERO, as_scalar, from_triple, key_pair
from .scalars import I as IMAGINARY

__all__ = [
    "NotReversibleError",
    "NotStronglyReversibleError",
    "StrongReversibilityReport",
    "WitnessBundle",
    "jordan_reverser",
    "jordan_reverser_recurrence",
    "inverse_law_holds",
    "upper_toeplitz",
    "jordan_reverser_general",
    "blocked_jordan_reverser",
    "pair_reverser",
    "classify",
    "involution_det_sign",
    "assemble_block_reverser",
    "involutive_witness",
    "sl_reverser_witness",
    "sample_reverser",
]


class NotReversibleError(ValueError):
    """The spec is not conjugate to its inverse at all."""


class NotStronglyReversibleError(ValueError):
    """The spec is reversible but admits no involutive reverser in SL: it has
    no odd +-1 block and an odd parity value, so every involutive reverser
    has determinant -1."""

    def __init__(self):
        super().__init__(
            "no involutive reverser with determinant 1 exists: every involutive "
            "reverser of this form has determinant -1"
        )


_ONE, _MINUS_ONE = ONE.triple, MINUS_ONE.triple


def jordan_reverser(eigenvalue, n: int) -> ExactMatrix:
    """Closed form of R(lam, n).

    Row i (1-based) has diagonal (-1)^(n-i) lam^(-2(n-i)), interior entries
    (-1)^(n-i) C(n-i-1, j-i) lam^(-2n+i+j), and the last column is zero
    except for the final 1.  Every entry is a binomial times a power of
    1/lam = (a + b*i)/e of exponent at most 2n - 2, so the matrix is built
    over the denominator e^(2n-2) from one table of powers of a + b*i.
    """
    lam = as_scalar(eigenvalue)
    if not lam:
        raise ValueError("eigenvalue must be nonzero")
    a, b, e = lam.inverse().triple
    top = 2 * n - 2
    # pow_re[k] + pow_im[k]*i = (a + b*i)^k e^(top-k), the numerator of
    # lam^(-k) over e^top.
    pow_re, pow_im = [0] * (top + 1), [0] * (top + 1)
    x, y = 1, 0
    for k in range(top + 1):
        pow_re[k], pow_im[k] = x, y
        x, y = x * a - y * b, x * b + y * a
    if e != 1:
        f = 1
        for k in range(top, -1, -1):
            pow_re[k] *= f
            pow_im[k] *= f
            f *= e
    den = pow_re[0]  # e^top, also the numerator of the final 1
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    re[n - 1][n - 1] = den
    for i in range(n - 1):
        # coeff runs through sign * C(m, k) for k = j - i, updated by
        # C(m, k + 1) = C(m, k) (m - k) / (k + 1).
        m = n - i - 2
        coeff = -1 if (n - 1 - i) % 2 else 1
        row_re, row_im = re[i], im[i]
        for k, j in enumerate(range(i, n - 1)):
            row_re[j] = coeff * pow_re[top - i - j]
            row_im[j] = coeff * pow_im[top - i - j]
            coeff = coeff * (m - k) // (k + 1)
    return ExactMatrix.from_numerators(re, im, den)


def jordan_reverser_recurrence(eigenvalue, n: int) -> ExactMatrix:
    """R(lam, n) built from its defining recurrence instead of the closed form.

    The last column is e_n; every other entry follows
    x[i][j] = -lam^(-2) x[i+1][j+1] - lam^(-1) x[i+1][j], filled bottom-up.
    """
    lam = as_scalar(eigenvalue)
    if not lam:
        raise ValueError("eigenvalue must be nonzero")
    inv = lam.inverse()
    inv2 = inv * inv
    grid = [[ZERO] * n for _ in range(n)]
    grid[n - 1][n - 1] = ONE
    for i in range(n - 2, -1, -1):
        for j in range(i, n - 1):
            below = grid[i + 1][j] if j > i else ZERO
            grid[i][j] = -(inv2 * grid[i + 1][j + 1]) - (inv * below)
    return ExactMatrix(grid)


def inverse_law_holds(eigenvalue, n: int) -> bool:
    """Whether R(lam, n) * R(1/lam, n) is exactly the identity."""
    lam = as_scalar(eigenvalue)
    product = jordan_reverser(lam, n) * jordan_reverser(lam.inverse(), n)
    return product.is_identity()


def upper_toeplitz(values: Sequence) -> ExactMatrix:
    """Upper triangular Toeplitz matrix with first row ``values``."""
    vals = [as_scalar(v) for v in values]
    n = len(vals)
    return ExactMatrix(
        [[vals[j - i] if j >= i else ZERO for j in range(n)] for i in range(n)]
    )


def jordan_reverser_general(eigenvalue, values: Sequence) -> ExactMatrix:
    """R(lam, x, n) = Toeplitz(x) * R(lam, n), the general reverser of a
    Jordan block: its last column is x reversed and it satisfies the same
    reversal identity as R(lam, n)."""
    vals = [as_scalar(v) for v in values]
    if not vals or not vals[0]:
        raise ValueError("leading Toeplitz coefficient must be nonzero")
    return upper_toeplitz(vals) * jordan_reverser(eigenvalue, len(vals))


def blocked_jordan_reverser(eigenvalue, sizes: Sequence[int]) -> ExactMatrix:
    """R(lam, r) inflated to block entries: scalar coefficients multiply
    rectangular identities I_{sizes[i] x sizes[j]}.  Reverses the basic Weyr
    matrix with the given structure the way R(lam, r) reverses J(lam, r)."""
    return inflate(jordan_reverser(eigenvalue, len(sizes)), sizes)


def pair_reverser(eigenvalue, n: int) -> ExactMatrix:
    """Antidiagonal block involution reversing J(lam, n) + J(1/lam, n):
    R(lam, n) sits top right and its inverse R(1/lam, n) bottom left.  Its
    determinant is (-1)^n."""
    lam = as_scalar(eigenvalue)
    if lam == ONE or lam == MINUS_ONE or not lam:
        raise ValueError("pair_reverser needs an eigenvalue other than 0, +1, -1")
    return ExactMatrix.from_blocks(
        2 * n, [(0, n, jordan_reverser(lam, n)), (n, 0, jordan_reverser(lam.inverse(), n))]
    )


@dataclass(frozen=True)
class StrongReversibilityReport:
    """Full classification of a spec.

    ``pairs`` and ``singletons`` hold indices into ``spec.blocks``: each pair
    matches a (lam, d) block with a (1/lam, d) block, and the singletons are
    the +-1 blocks.  The spec is reversible exactly when they cover every
    block; otherwise ``failure_witness`` is the first block left unmatched.

    ``parity_value`` is the singly-even multiplicity weight of the +1 and -1
    Jordan structures plus half the size of everything else; a reversible
    spec is strongly reversible iff some +-1 eigenvalue has an odd block or
    that value is even.  ``plus_sizes`` and ``minus_sizes`` are the block
    sizes at +1 and -1, in spec order.
    """

    reversible: bool
    strongly_reversible: bool
    pairs: tuple[tuple[int, int], ...]
    singletons: tuple[int, ...]
    failure_witness: tuple[GaussianRational, int] | None
    plus_sizes: tuple[int, ...]
    minus_sizes: tuple[int, ...]
    odd_block_present: bool
    parity_value: int
    parity_even: bool


@dataclass(frozen=True)
class WitnessBundle:
    """A reverser g for the Jordan matrix a, with the report of its one
    exact verification."""

    a: ExactMatrix
    g: ExactMatrix
    report: VerificationReport
    transcript: tuple[str, ...]


def classify(spec: JordanSpec) -> StrongReversibilityReport:
    """Decide reversibility and strong reversibility of the spec in SL(n).

    One walk over the blocks pairs each (lam, r) block greedily with a
    (1/lam, r) block, ties broken by spec order, and collects the sizes of
    the +-1 blocks, which stand alone.  Once per run of one scalar object
    it reads the pair (triple, inverse's triple) that the object keeps,
    worked out by scalars.key_pair on first use, and tells a +-1 block by
    the two triples being equal.  A queue of unpaired blocks is dropped
    once it empties, so the spec is reversible exactly when no queue is
    left.
    """
    blocks = spec.blocks
    pairs, singletons, plus, minus = [], [], [], []
    # Unpaired blocks by (normalized triple, size), each queue nonempty.
    waiting: dict[tuple[tuple[int, int, int], int], list[int]] = {}
    odd = singly_even = rest = 0
    run = None
    for idx, (eig, size) in enumerate(blocks):
        if eig is not run:
            run = eig
            try:
                triple, inverse = eig._keys
            except AttributeError:
                triple, inverse = key_pair(eig)
            # over Q(i) lam == 1/lam only for lam = +-1, whose real part
            # tells which
            unit = (plus if triple[0] > 0 else minus) if inverse == triple else None
        if unit is not None:
            singletons.append(idx)
            unit.append(size)
            odd += size % 2
            singly_even += size % 4 == 2
            continue
        rest += size
        key = (inverse, size)
        queue = waiting.get(key)
        if queue is None:
            waiting.setdefault((triple, size), []).append(idx)
        else:
            pairs.append((queue.pop(0), idx))
            if not queue:
                del waiting[key]
    if not waiting and rest % 2 != 0:
        raise RuntimeError("internal error: paired blocks cover an odd dimension")
    parity_value = singly_even + rest // 2
    parity_even = parity_value % 2 == 0
    # one dict literal as the instance dict: no keyword dict to copy and no
    # object.__setattr__ per field of the frozen dataclass
    report = object.__new__(StrongReversibilityReport)
    object.__setattr__(report, "__dict__", {
        "reversible": not waiting,
        "strongly_reversible": not waiting and (odd > 0 or parity_even),
        "pairs": tuple(pairs),
        "singletons": tuple(singletons),
        # each queue holds indices in spec order and no index is in two
        # queues, so the least queue starts with the least unmatched index
        "failure_witness": blocks[min(waiting.values())[0]] if waiting else None,
        "plus_sizes": tuple(plus),
        "minus_sizes": tuple(minus),
        "odd_block_present": odd > 0,
        "parity_value": parity_value,
        "parity_even": parity_even,
    })
    return report


def involution_det_sign(spec: JordanSpec) -> set[int]:
    """The determinants that involutive reversers of the Jordan matrix take.

    With an odd block at eigenvalue +-1 both signs occur; otherwise the
    determinant is pinned to (-1)**parity_value.
    """
    report = classify(spec)
    if not report.reversible:
        raise NotReversibleError(f"spec is not reversible: {spec!r}")
    if report.odd_block_present:
        return {-1, 1}
    return {1 if report.parity_even else -1}


class _Reversers(dict):
    """u * R(lam, d) under the key (triple of lam, d, triple of u), each
    built on first use: R(lam, d) by jordan_reverser, and any other
    multiple by scaling it.  A table lives as long as its caller keeps it,
    such as one classification sweep.  ExactMatrix.from_blocks copies what
    it places, so every reverser assembled from the table is its own
    matrix."""

    def __missing__(self, key):
        triple, size, unit = key
        if unit == _ONE:
            value = jordan_reverser(from_triple(*triple), size)
        else:
            value = self[triple, size, _ONE].scale(from_triple(*unit))
        self[key] = value
        return value


def assemble_block_reverser(
    spec: JordanSpec, report: StrongReversibilityReport, blocks: Sequence[ExactMatrix]
) -> ExactMatrix:
    """Blockwise reverser of jordan_matrix(spec) from one matrix per block.

    blocks[idx] is a multiple scales[idx] * R(lam, d) of the reverser of
    block idx = (lam, d) and goes to block position (idx, partner): the
    partner is idx itself for a singleton and the other block of its pair
    otherwise, which classify makes (1/lam, d).  The result is an
    involution exactly when every singleton scale squares to 1 and the two
    scales of every pair multiply to 1.  The blocks are copied, so callers
    may share them between results.  This is the one place that puts a
    blockwise reverser's blocks.
    """
    partner = list(range(len(blocks)))
    for i, j in report.pairs:
        partner[i], partner[j] = j, i
    offs = offsets(size for _, size in spec.blocks)
    return ExactMatrix.from_blocks(
        spec.n, [(offs[idx], offs[partner[idx]], block) for idx, block in enumerate(blocks)]
    )


# (u, 1/u) for the units u in 1, -1, i, -i, as triples.
_UNIT_PAIRS = tuple((u.triple, u.inverse().triple) for u in (ONE, MINUS_ONE, IMAGINARY, -IMAGINARY))


def _involutive_reversers(
    spec: JordanSpec, report: StrongReversibilityReport, reversers: _Reversers
) -> Iterator[ExactMatrix]:
    """Every blockwise involutive reverser of a reversible spec: each +-1
    sign on each singleton block and each pair scaled by (u, 1/u) for the
    units u, in that order.  Every block comes from reversers, and each
    result is its own matrix."""
    keys = [(eig.triple, size) for eig, size in spec.blocks]
    # One list of choices per singleton and per pair; a choice is the
    # (block index, block) entries it sets.
    options = [
        [((idx, reversers[(*keys[idx], sign)]),) for sign in (_ONE, _MINUS_ONE)]
        for idx in report.singletons
    ] + [
        [((i, reversers[(*keys[i], u)]), (j, reversers[(*keys[j], v)])) for u, v in _UNIT_PAIRS]
        for i, j in report.pairs
    ]
    blocks = [reversers[(*key, _ONE)] for key in keys]
    for combo in itertools.product(*options):
        for choice in combo:
            for idx, block in choice:
                blocks[idx] = block
        yield assemble_block_reverser(spec, report, blocks)


def _checked(
    spec: JordanSpec, report: StrongReversibilityReport, scales: Sequence[GaussianRational],
    reversers: _Reversers, require_involution: bool,
) -> tuple[ExactMatrix, ExactMatrix, VerificationReport]:
    """(a, g, check) for the blockwise reverser g with block idx
    scales[idx] * R(lam, d), taken from reversers, checked once against
    a = jordan_matrix(spec).  A g that fails the check raises instead of
    being returned, naming the spec."""
    g = assemble_block_reverser(
        spec,
        report,
        [reversers[eig.triple, size, scale.triple] for (eig, size), scale in zip(spec.blocks, scales)],
    )
    a = jordan_matrix(spec)
    check = check_witness(a, g)
    if not check.reverses or not check.in_special or (
        require_involution and not check.involution
    ):
        raise RuntimeError(
            "internal error: constructed witness failed verification "
            f"(reverses={check.reverses}, involution={check.involution}, "
            f"det={check.determinant}) for {spec!r}"
        )
    return a, g, check


def involutive_witness(spec: JordanSpec) -> WitnessBundle:
    """Involution g in SL with g * A * g == A^{-1} for A = jordan_matrix(spec).

    Even +-1 blocks and block pairs have forced determinant signs; odd +-1
    blocks take the scale +-(-1)^(d(d-1)/2), which leaves their own
    contribution selectable.  All blocks default to contribution +1; if the
    forced product is -1 one odd block is flipped, and the classifier
    guarantees such a block exists whenever the spec is strongly reversible.
    """
    return _involutive_witness(spec, classify(spec))


def _involutive_scales(
    spec: JordanSpec, report: StrongReversibilityReport
) -> tuple[list[GaussianRational], int | None]:
    """The block scales of the involutive witness of a strongly reversible
    report, and the odd block whose scale was flipped, if any."""
    scales = [ONE] * len(spec.blocks)
    first_odd = None
    for idx in report.singletons:
        size = spec.blocks[idx][1]
        if size % 2:
            # (-1)^(d(d-1)/2), which is -1 exactly when d = 3 mod 4
            scales[idx] = MINUS_ONE if size % 4 == 3 else ONE
            if first_odd is None:
                first_odd = idx
    # The forced contributions multiply to (-1)^parity_value.
    if report.parity_even:
        return scales, None
    if first_odd is None:
        raise RuntimeError(
            "internal error: forced sign -1 with no odd block to flip; "
            "classifier and constructor disagree"
        )
    scales[first_odd] = -scales[first_odd]
    return scales, first_odd


def _involutive_witness(spec: JordanSpec, report: StrongReversibilityReport) -> WitnessBundle:
    """involutive_witness given report = classify(spec).  Once g passes its
    check, the transcript explains _involutive_scales: each block's scale
    before the flip and its determinant sign, then the flip."""
    if not report.reversible:
        raise NotReversibleError(f"spec is not reversible: {spec!r}")
    if not report.strongly_reversible:
        raise NotStronglyReversibleError()
    scales, flip = _involutive_scales(spec, report)
    a, g, check = _checked(spec, report, scales, _Reversers(), True)
    transcript = []
    for idx in report.singletons:
        eig, size = spec.blocks[idx]
        if size % 2 == 0:
            det = -1 if size % 4 == 2 else 1
            transcript.append(f"block {idx}: J({eig},{size}) even, scale 1, det {det:+d}")
        else:
            scale = -scales[idx] if idx == flip else scales[idx]
            transcript.append(f"block {idx}: J({eig},{size}) odd, scale {scale}, det +1")
    for i, j in report.pairs:
        lam, size = spec.blocks[i]
        transcript.append(
            f"pair ({i},{j}): J({lam},{size}) with J({lam.inverse()},{size}), "
            f"det {-1 if size % 2 else 1:+d}"
        )
    if flip is not None:
        transcript.append(f"block {flip}: flipped scale to absorb forced sign -1")
    return WitnessBundle(a, g, check, tuple(transcript))


def sl_reverser_witness(spec: JordanSpec) -> WitnessBundle:
    """Reverser g in SL (not necessarily an involution) for any reversible spec.

    A strongly reversible spec gets its involutive witness.  Otherwise every
    +-1 block is even, and per-block scalar scalings force every block's
    determinant contribution to +1: +-1 blocks of size 2 mod 4 scale by -i
    (so g squares to -1 on that block), and the second block of an odd-size
    pair scales by -1.
    """
    report = classify(spec)
    if not report.reversible:
        raise NotReversibleError(f"spec is not reversible: {spec!r}")
    if report.strongly_reversible:
        bundle = _involutive_witness(spec, report)
        return replace(
            bundle,
            transcript=bundle.transcript + ("strongly reversible: involutive witness reused",),
        )
    blocks = spec.blocks
    scales = [ONE] * len(blocks)
    for idx in report.singletons:
        if blocks[idx][1] % 4 == 2:
            scales[idx] = -IMAGINARY
    for i, j in report.pairs:
        if blocks[i][1] % 2:
            scales[j] = MINUS_ONE
    a, g, check = _checked(spec, report, scales, _Reversers(), False)
    transcript = []
    for idx in report.singletons:
        eig, size = blocks[idx]
        transcript.append(f"block {idx}: J({eig},{size}) scale {scales[idx]}, det +1")
    for i, j in report.pairs:
        lam, size = blocks[i]
        transcript.append(f"pair ({i},{j}): J({lam},{size}) scales ({scales[i]}, {scales[j]}), det +1")
    return WitnessBundle(a, g, check, tuple(transcript))


def sample_reverser(spec: JordanSpec, seed: int) -> ExactMatrix:
    """Random reverser of jordan_matrix(spec), exact by construction.

    A random element of the Weyr centralizer multiplies a fixed Weyr-level
    reverser (the reverser set is a right coset of the centralizer); the
    duality permutation pulls the product back to the Jordan basis.
    """
    if not classify(spec).reversible:
        raise NotReversibleError(f"spec is not reversible: {spec!r}")
    wf = weyr_form(spec)
    structures = wf.structures
    offs = offsets(w.n for w in structures)
    position = {w.eigenvalue: k for k, w in enumerate(structures)}
    # Eigenvalue lam's blocked reverser sits in the (lam, 1/lam) block, on
    # the diagonal for lam = +-1.  Reversibility gives 1/lam the same Weyr
    # structure as lam, so each block is square.
    placements = []
    for k, w in enumerate(structures):
        partner = position[w.eigenvalue.inverse()]
        placements.append(
            (offs[k], offs[partner], blocked_jordan_reverser(w.eigenvalue, w.sizes))
        )
    base_reverser = ExactMatrix.from_blocks(spec.n, placements)
    rng = random.Random(seed)
    centralizer = direct_sum(
        [sample_centralizer(w, rng.randrange(2**63)) for w in structures]
    )
    weyr_level = centralizer * base_reverser
    result = wf.permutation.inverse().conjugate(weyr_level)
    if not check_witness(jordan_matrix(spec), result).reverses:
        raise RuntimeError(
            f"internal error: sampled matrix fails to reverse the spec {spec!r}"
        )
    return result
