"""Frequency-weighted multiplier symbols for the modified-energy method.

Conventions used throughout (and relied on by the tests):

* Frequency tuples are stored with even positions negated, so every
  hyperplane constraint is the plain zero sum and conjugated factors read
  their coefficient at the negated entry.
* All symbols are real-valued; the i-prefactors of the derivation cancel in
  the real energy identities, and the one global focusing/defocusing sign
  enters only through sigma6.
* Multilinear sums Lambda_n carry the normalization 2*pi / lam^(n-1) so the
  definitional identities hold against physical space integrals.
* Comparisons in the resonance classifier are dyadic: every magnitude is
  replaced by its dyadic class (least power of two >= max(value, 1)) and
  "similar" / "much greater" are factor thresholds on the classes.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import CapExceededError
from .fourier import FourierState
from .rng import stream
from .strichartz import _spatial_l6, l6_grid_size

_TAU = math.tau

#: Mode-count caps for exact hyperplane sums, keyed by arity.
GAMMA_MODE_CAPS = {6: 12}

_INT64_MAX = (1 << 63) - 1
_INT32_MAX = (1 << 31) - 1

#: Most candidate tuples (mode combinations of the first n-1 slots) one
#: zero-sum enumeration forms; bounds its transient partial-sum arrays.
CANDIDATE_CAP = 1 << 21

#: Largest imaginary part a real hyperplane sum may carry, relative to the
#: summed magnitudes of its terms.
IMAG_RESIDUE_TOL = 1e-10

#: Largest disagreement between the norm and symbol forms of E1, relative to
#: max(1, |either form|).
ENERGY_FORMS_RTOL = 1e-10


@dataclass(frozen=True)
class Thresholds:
    """Comparison constants: a ~ b within c_sim, a >> b beyond c_gg; ``sim``
    and ``gg`` are the one definition of ~ and >>, elementwise on arrays.

    c_window scales the pair-collapse window of resonance case (i): the
    leading pair term |k1+k2||k1-k2| of the phase gap can cancel against the
    lower-frequency squares only when it is at most ~2(N3*)^2, so any window
    constant above 2 covers the collapse zone.
    """

    c_sim: int = 2
    c_gg: int = 8
    c_window: int = 4

    def sim(self, a, b):
        return np.maximum(a, b) <= self.c_sim * np.minimum(a, b)

    def gg(self, a, b):
        return a >= self.c_gg * b


DEFAULT_THRESHOLDS = Thresholds()


# ---------------------------------------------------------------------------
# multiplier


@dataclass(frozen=True)
class MultiplierParams:
    """Smoothing multiplier data: flat to N, power-law decay past it.

    The rule on (N, 2N] is the same closed form (N/r)^(1-s) as the far
    branch, which is the simplest continuous choice satisfying every
    monotonicity property the estimates use.
    """

    N: int
    s: float

    def __post_init__(self):
        if self.N < 1 or self.N & (self.N - 1):
            raise ValueError("N must be a dyadic integer >= 1")
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie in (0, 1)")


def multiplier_m(r: float, p: MultiplierParams) -> float:
    """m(r): 1 on [0, N], (N/r)^(1-s) beyond."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r <= p.N:
        return 1.0
    return (p.N / r) ** (1.0 - p.s)


def _m_batch(r: np.ndarray, p: MultiplierParams) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    out = np.ones_like(r)
    far = r > p.N
    out[far] = (p.N / r[far]) ** (1.0 - p.s)
    return out


def apply_I(state: FourierState, p: MultiplierParams) -> FourierState:
    """Coefficientwise multiplication by m(|k|); identity below the cutoff."""
    m = _m_batch(np.abs(state.indices) / state.lam, p)
    return FourierState(state.lam, state.indices, state.amps * m)


# ---------------------------------------------------------------------------
# frequency tuples


@dataclass(frozen=True)
class FreqTuple:
    """Even-arity frequency tuple at grid scale 1/lam, stored sign-folded.

    ``js`` are integer indices; the represented frequencies are js/lam with
    even positions already negated, so membership in the interaction
    hyperplane is sum(js) == 0.
    """

    js: tuple[int, ...]
    lam: int = 1

    def __post_init__(self):
        js = tuple(int(j) for j in self.js)
        if len(js) == 0 or len(js) % 2:
            raise ValueError("arity must be even and positive")
        object.__setattr__(self, "js", js)
        if not isinstance(self.lam, int) or self.lam < 1:
            raise ValueError("lam must be a positive integer")

    @property
    def arity(self) -> int:
        return len(self.js)

    @property
    def ks(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.lam) for j in self.js)

    def on_gamma(self) -> bool:
        return sum(self.js) == 0


def omega_n(t: FreqTuple) -> Fraction:
    """Alternating square sum sum_j (-1)^(j+1) k_j^2, exact."""
    alt = sum((-1) ** i * j * j for i, j in enumerate(t.js))
    return Fraction(alt, t.lam * t.lam)


def dyadic_class(x) -> int:
    """Least power of two >= max(x, 1), for nonnegative x."""
    if x < 0:
        raise ValueError("magnitude expected")
    t = -((-x.numerator) // x.denominator) if isinstance(x, Fraction) else math.ceil(x)
    if t <= 1:
        return 1
    return 1 << (t - 1).bit_length()


def _class_batch(num: np.ndarray, lam: int) -> np.ndarray:
    """Dyadic class of num/lam for nonnegative integer num, exact, in the
    integer dtype of num (int32 or int64, of width w).

    With u = max(ceil(num/lam) - 1, 0) = max((num - 1) // lam, 0) the class
    is 2**bit_length(u), and bit_length(u) is the exponent ``np.frexp``
    gives for float(u) whenever that conversion is exact, as it is below
    2**53.  Above, rounding to nearest is monotone and 2**k is a float, so u
    in [2**(k-1), 2**k) converts into [2**(k-1), 2**k]: the exponent is k,
    or k + 1 exactly when float(u) rounded up to 2**k.  Then half the class,
    2**k, exceeds u, and one integer pass, run when some u reaches 2**53,
    halves it back.  A class above 2**(w-2) (u >= 2**(w-2)) would not fit
    the dtype and raises OverflowError; below, capping the exponent at w - 2
    keeps the shift in range, since a rounded-up exponent of w - 1 belongs to
    a class of 2**(w-2).  So every class returned is exact.
    """
    bits = 8 * num.dtype.itemsize - 2
    u = num - 1
    if lam > 1:
        u //= lam
    np.maximum(u, 0, out=u)
    top = int(u.max(initial=0))
    if top >> bits:
        raise OverflowError(f"dyadic class above 2**{bits} does not fit {num.dtype}")
    cls = num.dtype.type(1) << np.minimum(np.frexp(u)[1], bits)
    if top >> 53:  # float(u) may have rounded up to the next power of two
        cls >>= (cls >> 1) > u
    return cls


# ---------------------------------------------------------------------------
# resonance classification

KIND_NAMES = (
    "NonResonant",
    "Resonant-i",
    "Resonant-iia",
    "Resonant-iib",
    "Resonant-iic",
    "Resonant-iii",
)


@dataclass(frozen=True)
class ResonanceVerdict:
    kind: str
    witness: dict = field(compare=False)


def _sort_key_groups(key: np.ndarray) -> np.ndarray:
    """Slot-major keys, shape (6, rows), with the odd slots (0, 2, 4) and the
    even slots (1, 3, 5) of each tuple sorted descending, by a 3-comparator
    min/max network that runs on both groups at once."""
    a, b, c = key[0:2], key[2:4], key[4:6]
    a, b = np.maximum(a, b), np.minimum(a, b)
    b, c = np.maximum(b, c), np.minimum(b, c)
    a, b = np.maximum(a, b), np.minimum(a, b)
    return np.concatenate([a, b, c])


def _sort_groups(jt: np.ndarray) -> np.ndarray:
    """Canonical slot order of slot-major tuples ``jt``, shape (6, rows), in
    their integer dtype: odd and even groups each sorted by (magnitude desc,
    value desc); conjugation swap if the even group leads.

    Each group is sorted descending on the integer key 2|v| + (v > 0), which
    orders by magnitude and then puts v before -v; equal keys are equal
    values, so no stability is needed, and v = ±(key >> 1) with the sign in
    the low bit.  Keys need 2|v| + 1 to fit the dtype.  The even group leads
    when its magnitudes, key >> 1, are lexicographically greater; only those
    rows are replaced by their conjugates (groups exchanged, values negated,
    which flips the low bit of every nonzero key) and sorted again with the
    same network.
    """
    key = np.abs(jt) << 1
    key |= jt > 0
    key = _sort_key_groups(key)
    mag = key >> 1
    swap = np.zeros(key.shape[1], dtype=bool)
    undecided = np.ones(key.shape[1], dtype=bool)
    for c in range(0, 6, 2):
        swap |= undecided & (mag[c + 1] > mag[c])
        undecided &= mag[c + 1] == mag[c]
    if swap.any():
        rows = np.flatnonzero(swap)
        conj = key.take(rows, axis=1)[[1, 0, 3, 2, 5, 4]]
        conj ^= conj != 0
        key[:, rows] = _sort_key_groups(conj)
        mag = key >> 1
    # v = mag on odd keys, -mag = (mag ^ -1) + 1 on even ones
    neg = (key & 1) - 1
    mag ^= neg
    mag -= neg
    return mag


def _merge_groups(x: np.ndarray) -> np.ndarray:
    """Descending merge of the slot-major triples x[0::2] and x[1::2], each
    sorted descending: Batcher's odd-even (3, 3) merge, 6 comparators.

    The outer elements (0, 2) of both triples merge into v0..v3 and the
    middle ones into w0, w1; the result is v0, then w0 against v1 and w1
    against v2, then v3.
    """
    a0, b0, a1, b1, a2, b2 = x
    v0, v1 = np.maximum(a0, b0), np.minimum(a0, b0)
    v2, v3 = np.maximum(a2, b2), np.minimum(a2, b2)
    v1, v2 = np.maximum(v1, v2), np.minimum(v1, v2)
    w0, w1 = np.maximum(a1, b1), np.minimum(a1, b1)
    return np.stack(
        [v0, np.maximum(w0, v1), np.minimum(w0, v1), np.maximum(w1, v2), np.minimum(w1, v2), v3]
    )


def _pair_window(k1, k2, s3, lam: int, c_window: int) -> np.ndarray:
    """|k1+k2||k1-k2| <= c_window lam^2 s3^2, elementwise, on arrays of one
    integer dtype.

    The window compares the pair term of the phase gap directly against the
    cap on the remaining square sum, s3 being the dyadic class of N3*.  The
    pair term equals |k1^2 - k2^2| <= max(k1^2, k2^2), which callers keep in
    the dtype.  Where the cap would leave the dtype it exceeds every pair
    term, so s3 is clamped at the largest value that keeps the cap in range.
    """
    q = c_window * lam * lam
    s_max = math.isqrt(np.iinfo(s3.dtype).max // q)
    window = s3 > s_max
    if s_max:
        window |= np.abs(k1 + k2) * np.abs(k1 - k2) <= q * np.minimum(s3, s_max) ** 2
    return window


def _classify_batch(
    js: np.ndarray,
    lam: int,
    p: MultiplierParams,
    th: Thresholds = DEFAULT_THRESHOLDS,
):
    """Vectorized verdicts.

    Returns (codes, upsilon, can, cls, scls): codes index KIND_NAMES, rows
    off Upsilon_6 get code 0 and upsilon False (callers gate on it); can is
    the canonical slot order, cls the dyadic class of each of its slots and
    scls the classes in descending order, all three int64.  Canonical order
    sorts each group by magnitude and the class is monotone, so scls is the
    merge of the two groups' class triples (``_merge_groups``), and the
    second-largest magnitude is max(min(a0, b0), max(a1, b1)) of the two
    groups' magnitudes a and b.  Cases (ii) need the top four classes at four
    given slots; as multisets, that holds exactly when the classes at the
    other two slots are {scls[:, 4], scls[:, 5]}, which one max/min pair
    decides.

    The work runs slot-major in a signed integer width w, int32 where the
    batch fits and int64 otherwise.  Every product below is exact or the
    batch is refused: with M = max |js|, the products k1*k2, a*v and the
    pair term |k1+k2||k1-k2| = |k1^2 - k2^2| are at most M^2, every class
    formed is at most the class of 2M/lam, every sort key at most 2M + 1,
    and the window cap of case (i) saturates where it would leave the width.
    So the width holds the batch when M^2, a threshold times that class,
    2M + 1 and lam (the class divisor) are at most 2**(w-1) - 1; int32 is
    taken when they are, and a batch with M^2 or a threshold times that
    class above the int64 range raises OverflowError.
    """
    js = np.asarray(js, dtype=np.int64)
    top = max(int(js.max(initial=0)), -int(js.min(initial=0)))
    top_cls = dyadic_class(Fraction(2 * top, lam))
    scaled = max(th.c_sim, th.c_gg) * top_cls
    if top * top > _INT64_MAX or scaled > _INT64_MAX:
        raise OverflowError(f"frequency magnitude {top} out of the classifier's int64 range")
    narrow = max(top * top, scaled, 2 * top + 1, lam) <= _INT32_MAX
    can = _sort_groups(js.T.astype(np.int32 if narrow else np.int64, order="C"))
    mags = np.abs(can)
    cls = _class_batch(mags, lam)
    scls = _merge_groups(cls)
    second = np.maximum(np.minimum(mags[0], mags[1]), np.maximum(mags[2], mags[3]))

    top_pair = th.sim(scls[0], scls[1])
    upsilon = top_pair & (second > p.N * lam)
    preamble = th.sim(cls[0], cls[1])

    k1, k2 = can[0], can[1]
    # (i): two giants nearly cancelling, everything else far below; the gap
    # can only collapse when the pair term fits under the (N3*)^2 cap.
    case_i = (
        top_pair
        & th.sim(scls[2], scls[3])
        & th.gg(scls[0], scls[2])
        & (k1 * k2 < 0)
        & _pair_window(k1, k2, scls[2], lam, th.c_window)
    )

    gate_ii = th.sim(scls[0], scls[3]) & th.gg(scls[0], scls[4])

    def topfour(rest):
        # the top four classes fill the slots outside ``rest`` (see docstring)
        a, b = cls[rest[0]], cls[rest[1]]
        return (np.maximum(a, b) == scls[4]) & (np.minimum(a, b) == scls[5])

    def sign_spread(mask, anchor, others):
        """``mask`` cleared where the per-slot gap conditions against the
        anchor column fail, evaluated on the rows ``mask`` holds only."""
        rows = np.flatnonzero(mask)
        sub = can[:, rows]
        a, v = sub[anchor], sub[others]
        # classes of |a - v| then |a + v|, similar to the top class or not
        near = th.sim(_class_batch(np.abs(np.concatenate([a - v, a + v])), lam), scls[0, rows])
        sign = a * v
        ok = ((sign <= 0) | near[:3]) & ((sign >= 0) | near[3:])
        ok = ok.all(axis=0) & ~((v > 0).all(axis=0) | (v < 0).all(axis=0))
        out = np.zeros_like(mask)
        out[rows] = ok
        return out

    case_iia = gate_ii & topfour((4, 5))
    case_iib = sign_spread(gate_ii & topfour((2, 4)), 0, [1, 3, 5])
    case_iic = sign_spread(gate_ii & topfour((3, 5)), 1, [0, 2, 4])
    case_iii = th.sim(scls[0], scls[4])

    codes = np.select(
        [~preamble, case_i, case_iia, case_iib, case_iic, case_iii],
        [0, 1, 2, 3, 4, 5],
        default=0,
    ).astype(np.int8)
    codes[~upsilon] = 0
    wide = [x.T.astype(np.int64, copy=False) for x in (can, cls, scls)]
    return (codes, upsilon, *wide)


def in_upsilon6(t: FreqTuple, p: MultiplierParams) -> bool:
    """Top-two magnitudes dyadically comparable and strictly above N."""
    if t.arity != 6:
        raise ValueError("arity-6 tuple expected")
    mags = sorted((abs(j) for j in t.js), reverse=True)
    c1, c2 = dyadic_class(Fraction(mags[0], t.lam)), dyadic_class(Fraction(mags[1], t.lam))
    return bool(DEFAULT_THRESHOLDS.sim(c1, c2)) and mags[1] > p.N * t.lam


def classify_resonance(t: FreqTuple, p: MultiplierParams) -> ResonanceVerdict:
    """First matching resonance case for a Gamma_6 ∩ Upsilon_6 tuple.

    Off-hyperplane or off-Upsilon tuples are rejected; the witness records
    the canonical slot order and the dyadic data the comparisons used.
    """
    if t.arity != 6:
        raise ValueError("arity-6 tuple expected")
    if not t.on_gamma():
        raise ValueError("tuple off the zero-sum hyperplane")
    if not in_upsilon6(t, p):
        raise ValueError("tuple off Upsilon_6: top magnitudes not both large")
    th = DEFAULT_THRESHOLDS
    codes, _, can, cls, scls = _classify_batch(
        np.array([t.js], dtype=np.int64), t.lam, p, th
    )
    witness = {
        "canonical": tuple(int(v) for v in can[0]),
        "classes": tuple(int(v) for v in cls[0]),
        "starred_classes": tuple(int(v) for v in scls[0]),
        "thresholds": (th.c_sim, th.c_gg, th.c_window),
        "cutoff": p.N,
    }
    return ResonanceVerdict(kind=KIND_NAMES[int(codes[0])], witness=witness)


# ---------------------------------------------------------------------------
# symbol evaluation

SYMBOL_IDS = ("sigma2", "sigma6", "M6_1", "M6", "M6bar", "sigma6tilde", "quotient")


def _sigma2_batch(js: np.ndarray, lam: int, p: MultiplierParams) -> np.ndarray:
    k = js / lam
    m = _m_batch(np.abs(k), p)
    return -0.5 * m[:, 0] * k[:, 0] * m[:, 1] * k[:, 1]


#: Entries below this magnitude square below 2**60, so each sign group of
#: three squares sums below 2**62 and the int64 alternating sum cannot wrap.
_SQUARE_SAFE = 1 << 30


def _omega_int(js: np.ndarray) -> np.ndarray:
    """Integer alternating square sum per row, exact: exact zero tests.

    Rows with an entry of magnitude 2**30 or more are summed again in Python
    integers; a batch is refused with OverflowError only when one of those
    sums leaves int64.
    """
    j = np.asarray(js, dtype=np.int64)
    out = j[:, 0] ** 2 - j[:, 1] ** 2 + j[:, 2] ** 2 - j[:, 3] ** 2 + j[:, 4] ** 2 - j[:, 5] ** 2
    if max(int(j.max(initial=0)), -int(j.min(initial=0))) >= _SQUARE_SAFE:
        rows = np.flatnonzero(((j >= _SQUARE_SAFE) | (j <= -_SQUARE_SAFE)).any(axis=1))
        wide = j[rows].astype(object) ** 2
        exact = wide[:, 0::2].sum(axis=1) - wide[:, 1::2].sum(axis=1)
        for r, v in zip(rows, exact):
            if not -_INT64_MAX - 1 <= v <= _INT64_MAX:
                row = tuple(int(x) for x in j[r])
                raise OverflowError(f"phase gap {v} of {row} out of int64 range")
        out[rows] = exact.astype(np.int64)
    return out


def _symbol_batch(
    symbol_ids: Union[str, Sequence[str]],
    js: np.ndarray,
    lam: int,
    p: MultiplierParams,
    *,
    sign: int = +1,
    th: Thresholds = DEFAULT_THRESHOLDS,
    verdicts=None,
    oint: Optional[np.ndarray] = None,
):
    """Vectorized symbol values on rows of stored-frequency tuples.

    ``symbol_ids`` is one id, giving that symbol's values, or a sequence of
    ids, giving their values stacked, shape (ids, rows).  The multiplier m,
    M6_1, the integer phase gap and the verdicts are formed once per call,
    so each value reads the same bits as when its id is asked for alone.

    M6bar, the resonant part, is M6_1 on the rows of Upsilon_6 with a
    resonant class and on every row with Omega = 0 exactly, whatever its
    class, and 0 elsewhere: no normal-form correction can remove M6 where
    the phase gap vanishes.  sigma6tilde = (M6 - M6bar) / Omega where
    Omega != 0; where Omega = 0, M6 equals M6_1 bit for bit, so the
    numerator vanishes and sigma6tilde is 0.  M6_1 sums its odd and even
    slots apart, so a conjugated row (groups exchanged) reads its exact
    negation, whatever the row's batch.

    ``verdicts``, the (codes, upsilon) of ``_classify_batch`` on these rows at
    ``th``, and ``oint``, their ``_omega_int``, let callers that have them
    skip forming them again.
    """
    ids = (symbol_ids,) if isinstance(symbol_ids, str) else tuple(symbol_ids)
    want = set(ids)
    unknown = want - set(SYMBOL_IDS)
    if unknown:
        raise ValueError(f"unknown symbol id {sorted(unknown)[0]!r}")
    js = np.asarray(js, dtype=np.int64)
    out = {}
    if "sigma2" in want:
        out["sigma2"] = _sigma2_batch(js, lam, p)
    if want - {"sigma2"}:
        # one multiplier evaluation serves sigma6, M6_1 and the product in M6
        k = js / lam
        m = _m_batch(np.abs(k), p)
        prod = m.prod(axis=1)
        out["sigma6"] = sign * prod / 6.0
        v = m * m * k * k
        m6_1 = ((v[:, 0] + v[:, 2] + v[:, 4]) - (v[:, 1] + v[:, 3] + v[:, 5])) / 6.0
        out["M6_1"] = m6_1
    if want & {"M6", "M6bar", "sigma6tilde", "quotient"}:
        if oint is None:
            oint = _omega_int(js)
        gap = oint != 0
        omega = oint / float(lam * lam)
        if "quotient" in want:
            if not gap.all():
                raise ValueError("quotient undefined where the phase gap vanishes")
            out["quotient"] = 6.0 * m6_1 / omega
        # dividing by 6 last keeps M6 bitwise zero below the cutoff, where the
        # product of multipliers is exactly 1 and the two terms must cancel
        m6 = m6_1 - prod * omega / 6.0
        out["M6"] = m6
    if want & {"M6bar", "sigma6tilde"}:
        codes, upsilon = _classify_batch(js, lam, p, th)[:2] if verdicts is None else verdicts
        m6bar = np.where((upsilon & (codes > 0)) | ~gap, m6_1, 0.0)
        out["M6bar"] = m6bar
        out["sigma6tilde"] = np.divide(m6 - m6bar, omega, out=np.zeros(len(js)), where=gap)
    if isinstance(symbol_ids, str):
        return out[symbol_ids]
    return np.stack([out[i] for i in ids])


def evaluate_symbol(
    symbol_id: str,
    t: FreqTuple,
    p: MultiplierParams,
    *,
    sign: int = +1,
) -> float:
    """Pointwise real symbol value on one stored tuple."""
    if symbol_id not in SYMBOL_IDS:
        raise ValueError(f"unknown symbol id {symbol_id!r}")
    need = 2 if symbol_id == "sigma2" else 6
    if t.arity != need:
        raise ValueError(f"{symbol_id} expects arity {need}")
    if not t.on_gamma():
        raise ValueError("tuple off the zero-sum hyperplane")
    js = np.array([t.js], dtype=np.int64)
    return float(_symbol_batch(symbol_id, js, t.lam, p, sign=sign)[0])


def symbol_fn(
    symbol_id: str,
    p: MultiplierParams,
    *,
    sign: int = +1,
    th: Thresholds = DEFAULT_THRESHOLDS,
) -> Callable[[np.ndarray, int], np.ndarray]:
    """Vectorized symbol callable for the hyperplane sums."""
    if symbol_id not in SYMBOL_IDS:
        raise ValueError(f"unknown symbol id {symbol_id!r}")

    def fn(js: np.ndarray, lam: int) -> np.ndarray:
        return _symbol_batch(symbol_id, js, lam, p, sign=sign, th=th)

    return fn


# ---------------------------------------------------------------------------
# hyperplane sums


def _as_int_lam(lam: float) -> int:
    ilam = int(round(lam))
    if abs(lam - ilam) > 1e-12 * max(1.0, abs(lam)) or ilam < 1:
        raise ValueError("integer circumference scale required here")
    return ilam


def _zero_sum_rows(supports: Sequence[np.ndarray]):
    """Stored zero-sum tuples with one support of modes per slot.

    Odd slots store the mode and even slots its negation.  The partial sums
    of the first n-1 slots are formed in one broadcast over all their mode
    combinations, the first slot fastest; the last slot is solved from the
    zero sum and kept when its mode is in its support.  More than
    ``CANDIDATE_CAP`` combinations are refused before any array is formed.
    Returns ``(digits, last_pos, js)`` for the kept rows: int32 positions in
    the supports of the first n-1 slots and of the last slot's mode, and the
    stored tuples.  Only the kept rows' digits are recovered, by divmod of
    their candidate index.
    """
    slots = [s if i % 2 == 0 else -s for i, s in enumerate(supports[:-1])]
    last = supports[-1]
    count = math.prod(len(s) for s in slots)
    if count > CANDIDATE_CAP:
        raise CapExceededError(
            f"{count} candidate {len(supports)}-tuples exceed the enumeration cap {CANDIDATE_CAP}"
        )
    ssum = slots[0]
    for s in slots[1:]:
        ssum = (s[:, None] + ssum).ravel()
    # the arity is even, so the last slot is even: stored -ssum needs mode +ssum
    pos = np.minimum(np.searchsorted(last, ssum), len(last) - 1)
    keep = np.flatnonzero(last[pos] == ssum)
    digits = np.empty((len(keep), len(slots)), dtype=np.int32)
    js = np.empty((len(keep), len(supports)), dtype=ssum.dtype)
    rem = keep
    for i, s in enumerate(slots):
        rem, d = np.divmod(rem, len(s))
        digits[:, i] = d
        js[:, i] = s[d]
    js[:, -1] = -ssum[keep]
    return digits, pos[keep].astype(np.int32), js


class _FrozenLambda:
    """Hyperplane sum of a symbol with its tuples and symbol values precomputed.

    The stored zero-sum tuples over per-slot supports, their factor positions
    and the symbol values do not depend on the amplitudes, so evaluating at
    per-slot coefficient arrays is a gather-and-dot over the stored rows,
    scaled by 2*pi/lam^(n-1).  Even slots conjugate their factor.  The
    supports must be nonempty.  A symbol may return stacked values, shape
    (k, rows), each row summing bit for bit as its own single-symbol table.
    """

    def __init__(self, symbol, supports: Sequence[np.ndarray], lam: float):
        ilam = _as_int_lam(lam)
        self.scale = _TAU / lam ** (len(supports) - 1)
        self.digits, self.last, js = _zero_sum_rows(supports)
        self.values = np.asarray(symbol(js, ilam), dtype=np.float64)

    def __call__(self, coeffs: Sequence[np.ndarray]):
        """The sum at per-slot coefficient arrays, and the sum of its terms'
        magnitudes, which ``_real_part`` measures a residue against; per row if stacked."""
        terms = self.values.astype(np.complex128)
        for i, c in enumerate(coeffs[:-1]):
            terms *= (c if i % 2 == 0 else np.conj(c))[self.digits[:, i]]
        terms *= np.conj(coeffs[-1])[self.last]
        # per-row sums, not a matrix product, whose result depends on the BLAS
        sums, masses = terms.sum(axis=-1), np.abs(terms).sum(axis=-1)
        if terms.ndim == 1:
            return self.scale * complex(sums), self.scale * float(masses)
        return [(self.scale * complex(z), self.scale * float(m)) for z, m in zip(sums, masses)]

    def row(self, k: Union[int, slice]) -> "_FrozenLambda":
        """The table of the k-th row (or a slice of rows) of stacked values
        alone, sharing the stored tuples; it sums bit for bit as those rows
        of this table."""
        one = copy.copy(self)
        one.values = self.values[k]
        return one


def _real_part(z: complex, mass: float, what: str) -> float:
    """Real part of a hyperplane sum that must be real.

    The imaginary part is checked against ``mass``, the summed magnitudes of
    the terms: against ``|z|`` it could not hold where the sum itself cancels
    to roundoff.  A residue above IMAG_RESIDUE_TOL signals a non-symmetric
    symbol and is surfaced as an arithmetic failure.
    """
    if abs(z.imag) > IMAG_RESIDUE_TOL * mass:
        raise ArithmeticError(
            f"{what}: imaginary residue {z.imag:.3e} exceeds "
            f"{IMAG_RESIDUE_TOL:g} of the summed term magnitudes {mass:.3e}"
        )
    return z.real


def lambda_n_evaluate(symbol, states: Sequence[FourierState]) -> float:
    """Real multilinear functional Lambda_n(symbol; states).

    The symbol is a vectorized callable on stored-tuple rows; each slot draws
    its modes from its own state.  Supports above the arity's mode cap in
    GAMMA_MODE_CAPS, and tables of more than CANDIDATE_CAP candidate tuples,
    are refused.
    """
    n = len(states)
    if n % 2 or n < 2:
        raise ValueError("even arity required")
    lam = states[0].lam
    if any(s.lam != lam for s in states):
        raise ValueError("states must share a circumference")
    cap = GAMMA_MODE_CAPS.get(n)
    if cap is not None:
        for s in states:
            if s.n_modes > cap:
                raise CapExceededError(
                    f"state with {s.n_modes} modes exceeds the arity-{n} cap {cap}"
                )
    if any(s.n_modes == 0 for s in states):
        return 0.0
    table = _FrozenLambda(symbol, [s.indices for s in states], lam)
    return _real_part(*table([s.uhat_array() for s in states]), "hyperplane sum")


def homogeneous_h1_sq(state: FourierState) -> float:
    """Physical integral of |∂x u|^2."""
    k = state.indices / state.lam
    return float(_TAU * np.sum((k * np.abs(state.amps)) ** 2))


def l6_now(state: FourierState) -> float:
    """Physical integral of |u|^6 by exact equispaced quadrature."""
    if state.n_modes == 0:
        return 0.0
    js = state.indices
    mx = l6_grid_size(int(js[-1] - js[0]))
    return float(_spatial_l6(js, state.lam, state.uhat_array()[None], np.zeros(1), mx)[0, 0])


def energy_e1i(
    states: Sequence[FourierState],
    p: MultiplierParams,
    *,
    sign: int = +1,
) -> list[float]:
    """First modified energy (1/2)||I u||_{H^1-dot}^2 ± (1/6)||I u||_{L^6}^6
    of each state; the states share one support and lam.

    Evaluated both as norms of the smoothed state and, when the support is
    within the hyperplane cap, as Lambda_2 + Lambda_6 of the defining
    symbols, whose two tables are built once for all states; disagreement is
    surfaced, the norm form is returned.
    """
    S, lam = states[0].indices, states[0].lam
    if any(s.lam != lam or not np.array_equal(s.indices, S) for s in states):
        raise ValueError("states must share one support and lam")
    sigma6 = None
    if 0 < len(S) <= GAMMA_MODE_CAPS[6]:
        sigma6 = _FrozenLambda(symbol_fn("sigma6", p, sign=sign), [S] * 6, lam)
    return _energy_e1i(states, p, sign, sigma6)


def _energy_e1i(
    states: Sequence[FourierState],
    p: MultiplierParams,
    sign: int,
    sigma6: Optional[_FrozenLambda],
) -> list[float]:
    """`energy_e1i` of states on one support, checked against Lambda_2 +
    Lambda_6 with ``sigma6`` as the arity-6 table of symbol_fn("sigma6", p,
    sign=sign) over [S]*6, which a caller may share with its own tables; no
    check when ``sigma6`` is None."""
    if sigma6 is not None:
        S, lam = states[0].indices, states[0].lam
        sigma2 = _FrozenLambda(symbol_fn("sigma2", p), [S] * 2, lam)
    out = []
    for state in states:
        v = apply_I(state, p)
        norm_form = 0.5 * homogeneous_h1_sq(v) + sign * l6_now(v) / 6.0
        if sigma6 is not None:
            u = state.uhat_array()
            sym = _real_part(*sigma2([u] * 2), "hyperplane sum")
            sym += _real_part(*sigma6([u] * 6), "hyperplane sum")
            scale = max(1.0, abs(norm_form), abs(sym))
            if abs(sym - norm_form) > ENERGY_FORMS_RTOL * scale:
                raise ArithmeticError(
                    f"energy forms disagree: symbol {sym!r} vs norm {norm_form!r}"
                )
        out.append(norm_form)
    return out


def support_tuples(support: Sequence[int], arity: int = 6) -> np.ndarray:
    """All stored zero-sum tuples whose factors draw modes from ``support``.

    Odd slots range over the mode set, even slots over its negation; rows are
    the stored-frequency values.  More than CANDIDATE_CAP candidate tuples
    are refused.
    """
    S = np.asarray(sorted(int(j) for j in support), dtype=np.int64)
    if arity % 2 or arity < 2:
        raise ValueError("even arity required")
    return _zero_sum_rows([S] * arity)[2]


# ---------------------------------------------------------------------------
# symbol-size bound scan


@dataclass(frozen=True)
class BoundScanRecord:
    kind: str  # "nonresonant" or "resonant-case-<i..iv>" or "operator"
    N: int
    max_ratio: float
    count: int
    # Nonresonant-class tuples with Omega = 0: they belong to the resonant
    # part M6bar, so sigma6tilde is 0 on them, and they fall in the collapsed
    # set below.
    gap_count: int = 0
    # Nonresonant tuples whose phase gap sits below the square-sum scale the
    # envelope divides against; near-integer cancellations make the quotient
    # on these arbitrarily large, so they are reported as data, not folded
    # into max_ratio.
    collapsed_count: int = 0
    collapsed_max: float = 0.0


@dataclass(frozen=True)
class BoundScanReport:
    records: tuple[BoundScanRecord, ...]
    # per cutoff, in N_list order: (N, sampled tuples classified, stored rows
    # summed over that cutoff's operator tables)
    work: tuple[tuple[int, int, int], ...] = ()

    def ratios(self, kind: str) -> dict[int, float]:
        return {r.N: r.max_ratio for r in self.records if r.kind == kind}


def _sample_tuples(rng, count: int, N: int, lam: int) -> np.ndarray:
    """Random stored 6-tuples biased to have two large nearly-opposite slots,
    shape (count, 6) with each slot's column contiguous."""
    big = N * lam
    e1 = rng.uniform(0.0, 2.0, size=count)
    k1 = np.rint(big * 2.0**e1).astype(np.int64) * rng.choice((-1, 1), size=count)
    drift = rng.integers(-2 * N * lam, 2 * N * lam + 1, size=count)
    k2 = -k1 + drift
    rest_exp = rng.uniform(0.0, np.log2(4.0 * N), size=(count, 3))
    rest = np.rint(2.0**rest_exp).astype(np.int64) * rng.choice((-1, 1), size=(count, 3))
    jt = np.empty((6, count), dtype=np.int64)
    jt[0] = k1
    jt[1] = k2
    jt[2:5] = rest.T
    jt[5] = -(k1 + k2 + rest[:, 0] + rest[:, 1] + rest[:, 2])
    return jt.T


#: Classification constants used by the bound scan.  The scan widens ~ to two
#: dyadic levels and makes >> its complement, so the case geometries tile the
#: tuple space with no gap band; at the tighter interactive defaults a family
#: of near-cancelling tuples falls between ~ and >> and the nonresonant
#: envelope has no finite sup there.
SCAN_THRESHOLDS = Thresholds(c_sim=4, c_gg=4, c_window=4)


def bound_scan_symbols(
    s: float,
    sample_count: int,
    N_list: Sequence[int],
    seed: int = 0,
    *,
    lam: int = 1,
    operator_modes: int = 9,
    operator_states: int = 8,
) -> BoundScanReport:
    """Measured symbol sizes against their claimed envelopes.

    Each N in ``N_list`` is a multiplier cutoff: the symbols at that N use
    MultiplierParams(N, s).  Per cutoff: (a) max |sigma6tilde| over sampled
    nonresonant tuples divided by the pointwise envelope, (b) max |M6bar|
    over sampled resonant tuples against each applicable interaction-geometry
    envelope, (c) the operator ratio |Lambda_6(sigma6tilde)| / ||I u||_{H^1}^6
    on random states.

    Classification inside the scan runs at SCAN_THRESHOLDS, once per cutoff
    outside the operator leg: (a) and (b) read sigma6tilde, M6bar and the
    integer phase gap of every sampled row from one symbol pass with those
    verdicts, and select rows with masks.  Max ratios are only meaningful relative to the
    thresholds used.
    Nonresonant tuples with a collapsed phase gap (c_window * |Omega| below
    the (N3*)^2 square-sum scale) have no dyadic envelope: integer near-
    cancellations push the quotient arbitrarily high there, so they are
    reported via collapsed_count / collapsed_max instead of max_ratio.
    ``work`` counts, per cutoff, the sampled tuples classified and the
    stored rows of the operator tables, as their symbol saw them.
    """
    if operator_states < 0:
        raise ValueError("operator_states must be nonnegative")
    if operator_modes < 1:
        raise ValueError("operator_modes must be positive")
    cutoffs = [MultiplierParams(int(N), s) for N in N_list]
    th = SCAN_THRESHOLDS
    records: list[BoundScanRecord] = []
    work: list[tuple[int, int, int]] = []
    for pN in cutoffs:
        N = pN.N
        rng = stream(seed, 31, N)
        js = _sample_tuples(rng, sample_count, N, lam)
        codes, upsilon, can, cls, scls = _classify_batch(js, lam, pN, th)
        mN = lambda c: _m_batch(c.astype(np.float64), pN)

        oint = _omega_int(js)
        tilde, bar = _symbol_batch(
            ("sigma6tilde", "M6bar"), js, lam, pN, verdicts=(codes, upsilon), oint=oint
        )
        # slot-major views of the columns the envelopes read: can 0-3, cls
        # 0-1 and scls 0-4, gathered per masked row set
        can_t, cls_t, scls_t = can[:, :4].T, cls[:, :2].T, scls[:, :5].T

        nonres = upsilon & (codes == 0)
        om = oint[nonres]
        vals = tilde[nonres]  # 0 where Omega = 0
        c, sc = cls_t[:, nonres], scls_t[:, nonres]
        narrow = th.sim(c[0], c[1]) & th.gg(sc[0], sc[2]) & th.sim(sc[2], sc[3])
        m3 = mN(sc[2])
        envelope = np.where(narrow, m3**2, mN(sc[0]) * m3)
        ratio = np.abs(vals) / envelope
        # c_window |Omega| < lam^2 (N3*)^2; at large N either side can leave
        # int64, and the comparison then runs on Python integers
        s3 = sc[2]
        top = max(int(om.max(initial=0)), -int(om.min(initial=0)))
        if th.c_window * top > _INT64_MAX or lam * lam * int(s3.max(initial=0)) ** 2 > _INT64_MAX:
            om, s3 = om.astype(object), s3.astype(object)
        collapsed = th.c_window * np.abs(om) < lam**2 * s3**2
        clear = ratio[~collapsed]
        shadow = ratio[collapsed]
        records.append(
            BoundScanRecord(
                "nonresonant",
                N,
                float(clear.max()) if len(clear) else 0.0,
                int(nonres.sum()),
                int((om == 0).sum()),
                int(collapsed.sum()),
                float(shadow.max()) if len(shadow) else 0.0,
            )
        )

        res = upsilon & (codes > 0)
        jr, cr, sr = can_t[:, res], cls_t[:, res], scls_t[:, res]
        barvals = np.abs(bar[res])
        big = mN(sr[0]) * sr[0]  # m(N1*) N1*, shared by the bounds of (i), (iii), (iv)
        sum12 = np.abs(jr[0] + jr[1])
        sum34 = np.abs(jr[2] + jr[3])
        n12, n34 = _class_batch(sum12, lam), _class_batch(sum34, lam)
        cases = {
            "i": (th.sim(sr[0], sr[1]), big * mN(sr[2]) * sr[2]),
            "ii": (
                th.sim(np.minimum(cr[0], cr[1]), sr[0])
                & th.gg(sr[0], sr[2])
                & th.sim(sr[2], sr[3])
                & _pair_window(jr[0], jr[1], sr[2], lam, th.c_window),
                sr[2].astype(np.float64) ** 2,
            ),
            "iii": (
                np.maximum(sum12, sum34) <= th.c_sim * lam * sr[4],
                big * mN(sr[4]) * sr[4],
            ),
            # N1 >~ |k1 + k2| needs no test: canonical order has |k2| <= |k1|
            "iv": (th.sim(n12, n34) & th.gg(n12, sr[4]), big * mN(n12) * n12),
        }
        for name, (mask, bound) in cases.items():
            r = barvals[mask] / bound[mask]
            records.append(
                BoundScanRecord(
                    f"resonant-case-{name}",
                    N,
                    float(r.max()) if len(r) else 0.0,
                    int(mask.sum()),
                )
            )

        best = 0.0
        sig = symbol_fn("sigma6tilde", pN, th=th)
        stored: list[int] = []

        def counted(rows, ilam):
            # a table hands each of its stored rows to the symbol once
            stored.append(len(rows))
            return sig(rows, ilam)

        for i in range(operator_states):
            srng = stream(seed, 37, N, i)
            jset = np.sort(srng.choice(np.arange(-3 * N, 3 * N + 1), size=operator_modes, replace=False))
            amps = srng.normal(size=operator_modes) + 1j * srng.normal(size=operator_modes)
            u = FourierState.from_uhat(float(lam), dict(zip(map(int, jset), amps)))
            num = abs(lambda_n_evaluate(counted, [u] * 6))
            den = (2 * math.pi * apply_I(u, pN).sobolev_norm_sq(1.0)) ** 3
            best = max(best, num / den)
        records.append(BoundScanRecord("operator", N, best, operator_states))
        work.append((N, len(js), sum(stored)))
    return BoundScanReport(records=tuple(records), work=tuple(work))
