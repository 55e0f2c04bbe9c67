"""Flat structure extraction: flat coordinates, prepotential, and the
associativity / grading / integrability checks.

The flat coordinates t(s) are the z^(-1) components of J, and the
prepotential F0 is integrated from the z^(-2) components contracted with
the residue pairing,

    d F0 / d t_a  =  sum_b eta_ab J_(-2)^b (s(t)),

s(t) the inverse of t(s), with the constant, linear and quadratic parts
normalized to zero and F0 truncated by total degree at the order of the
s-expansion.  Both steps run on ints, from the solve's slices to F0: t(s)
and J_(-2) are read off the slices as words (`_j_items`), s(t) is inverted
by `invert_coordinates` and J_(-2) folded at it by `_substitute_ints`, and
the only series built is F0.  The fold expands the longest words, of
length N and N - 1 at order N, on their own (`_expand_words`), and runs
the others through a Horner fold over their word trie.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial, gcd, lcm, prod

from .algebra import (
    SSeries,
    as_list,
    echelon_row,
    eliminate,
    format_rational,
    graded,
    graded_dot,
    mono_key,
    parse_basis,
    parse_rational,
    row_echelon,
    unpack_monomial,
    variable_names,
    weighted_degree,
)
from .milnor import MilnorData, central_charge
from .primitive import PrimitiveFormResult


class IntegrabilityError(ArithmeticError):
    """The candidate gradient eta * J_(-2) of the prepotential is not the
    gradient of any series: it has a constant or linear part, or a part
    that is not curl-free."""


def flat_coordinates(result: PrimitiveFormResult) -> tuple:
    """t_a(s) = J_(-1)^a as words, see `_j_items`; the leading part is s_a itself."""
    return _j_items(result, -1)


def _j_items(result: PrimitiveFormResult, m: int) -> tuple:
    """The mu components of J at z^m as (order, E, words): the solve's
    order N, one int E over all of them, and for each a {word: int} of its
    terms times E, each monomial s^J spelled as the sorted word of its
    variable indices (s_1^2 s_3 is (0, 0, 2)).  E is the lcm of the D_k of
    the solve's slices, and each word is spelled from its highest letter
    down by bisection on the powers of N + 1."""
    order, slices, mu = result.order, result.j_slices_at(m), result.state.milnor.mu
    e_scale = lcm(*(den for den, _ in slices))
    powers = [(order + 1) ** a for a in range(mu)]
    words = [{} for _ in range(mu)]
    for den, vec in slices:
        for b, series in vec.items():
            for p, v in series:
                word = ()
                while p:
                    letter = bisect_right(powers, p) - 1
                    word = (letter,) + word
                    p -= powers[letter]
                words[b][word] = v * (e_scale // den)
    return order, e_scale, words


def _expand_words(words: dict, factors: list, order: int, step: int, out: list) -> list:
    """Pop from `words` every word of length `order` or `order` - 1 whose
    letters v all have a one-term linear part x_v t^(k_v) in s_v(t) =
    factors[v], and add its terms through degree `order` straight to
    `out`, all as in `_substitute_ints`.  Returns what still needs a
    product, as `graded_dot` lefts [(v, rest_v)] against the degree-2
    parts of s(t).

    Every factor has degree >= 1, so a word of length `order` reaches that
    degree only through its linear parts: one term x_w t^(k_w), x_w the
    product of its x_v and k_w the sum of its k_v.  A word of length
    `order` - 1 adds that term too, and for each distinct letter v, of
    multiplicity m_v, m_v (x_w / x_v) t^(k_w - k_v) times the degree-2 part
    of s_v(t).  These rests are gathered per letter, so that each letter
    costs one product however many words hold it."""
    linear = [f[0][1][0] if f and f[0][0] == 1 and len(f[0][1]) == 1 else None for f in factors]
    rests: dict = {}
    for word in [w for w in words if order - 1 <= len(w) <= order]:
        letters = [linear[v] for v in word]
        if None in letters:
            continue
        key, x = 0, 1
        for k, x_v in letters:
            key += k
            x *= x_v
        terms = words.pop(word)
        for i, c in terms:
            acc = out[i].setdefault(len(word), {})
            acc[key] = acc.get(key, 0) + c * x
        if len(word) < order:
            for v in set(word):
                k, x_v = linear[v]
                r = word.count(v) * (x // x_v)
                rest = rests.setdefault(v, {})
                for i, c in terms:
                    marked = key - k + i * step
                    rest[marked] = rest.get(marked, 0) + r * c
    return [(v, graded({order - 2: rest})) for v, rest in rests.items()]


def _substitute_ints(u: tuple, s_of_t: tuple, nvars: int, order: int, base: int) -> tuple:
    """Every series of u at s = s(t), on ints, through total degree `order`:
    (scale, [acc]), acc = scale * u_i(s(t)) as {degree: {packed: int}} with
    cancelled terms kept as 0.  u comes as (N, E, words), see `_j_items`,
    whose order N the fold does not read, and s(t) as (D, [D s_v(t)]), each
    series in that form and in `nvars` variables, with no constant term,
    packed in `base`, a base above every exponent through order + 1.

    The words of length `order` and `order` - 1 whose letters all have a
    one-term linear part, most of the words of J_(-2) and of u(s), are
    expanded on their own by `_expand_words`: only their linear parts and
    one degree-2 part reach degree `order`.  The other words form a trie:
    the children of a prefix p are the prefixes p + (v,) with v no less
    than the last index of p.  They are evaluated by a Horner fold over
    that trie,

        v(p) = sum_i u_(p,i) [i]  +  sum_v s_v(t) v(p + v),

    where [i] marks series i, so that u_i(s(t)) is the part of v(()) marked
    i.  The words are walked in sorted order and a stack holds the open
    prefixes of the current word; a prefix closes when the walk leaves it,
    and its value is one `graded_dot` over its closed children.  Series i
    is marked by a digit i above the monomial digits, its packed key being
    mono + i base^nvars, which no product carries into; so one fold serves
    every series of the call.  The root is never formed: each of its
    children is multiplied by its coordinate series and split into the
    outputs as soon as it closes, and so are the expanded words' rests.

    Each term of s(t) has degree >= 1 and v(p) is multiplied by |p| more
    factors, so it is formed only through degree order - |p|.  The term at
    a word w is scaled by D^(top - |w|), top the length of the longest
    word of any series, so that every term adds E D^top u_J s(t)^J, and
    scale is E D^top.
    """
    (_, e_scale, u_words), (d_scale, s_terms) = u, s_of_t
    factors = [graded(s) for s in s_terms]
    step = base**nvars
    top = max((len(word) for words_i in u_words for word in words_i), default=0)
    words = {}
    for i, words_i in enumerate(u_words):
        for word, c in words_i.items():
            words.setdefault(word, []).append((i, c * d_scale ** (top - len(word))))
    out = [{} for _ in u_words]
    for i, scaled in words.pop((), ()):
        out[i][0] = {0: scaled}

    def split(lefts, rights):
        for degree, bucket in graded_dot(lefts, rights, order).items():
            for key, c in bucket.items():
                i, mono = divmod(key, step)
                acc = out[i].setdefault(degree, {})
                acc[mono] = acc.get(mono, 0) + c

    quadratic = [[(d, items) for d, items in f if d == 2] for f in factors]
    split(_expand_words(words, factors, order, step, out), quadratic)
    # stack[k] = (last index, own terms, closed children) of the open prefix word[:k]
    stack: list = [(None, (), [])]
    prev: tuple = ()

    def close():
        depth = len(stack) - 1
        v, terms, children = stack.pop()
        if children:
            buckets = graded_dot(children, factors, order - depth)
            bucket = buckets.setdefault(0, {})
            for i, c in terms:
                bucket[i * step] = bucket.get(i * step, 0) + c
            value = graded(buckets)
        else:
            value = [(0, [(i * step, c) for i, c in terms])]
        if depth > 1:
            stack[-1][2].append((v, value))
        else:
            split([(v, value)], factors)

    for word in sorted(words):
        common = 0
        for a, b in zip(prev, word):
            if a != b:
                break
            common += 1
        while len(stack) > common + 1:
            close()
        stack.extend((v, (), []) for v in word[common:-1])
        # Popped as it is read, so that a word's terms go once it is folded.
        stack.append((word[-1], words.pop(word), []))
        prev = word
    while len(stack) > 1:
        close()
    return e_scale * d_scale**top, out


def invert_coordinates(t_of_s: tuple, order: int) -> tuple:
    """s(t) through total degree `order` as (D, [D s_v(t)]), see
    `_substitute_ints`, packed in base N + 2, for t(s) = (N, E, words), see
    `_j_items`, with identity linear part, no constant term and every letter
    below mu, the number of components.  `order` must not exceed N, and a t
    truncated at order 0 has no linear part to check.

    Fixed-point iteration on s = t - u(s) where u is the nonlinear part.
    Pass p fixes total degree p, and runs at order p: u starts at degree 2,
    so the degree-p part of u(s) needs s only through degree p - 1, which
    the passes before it have fixed.  After each pass D is the reduced
    common denominator of s(t), S / gcd(S, n_1, n_2, ...) for terms n_i / S.
    """
    t_order, e_scale, t_words = t_of_s
    if t_order < order:
        raise ValueError(f"t(s) is known through order {t_order}, not {order}")
    mu, base, u = len(t_words), t_order + 2, []
    for a, words in enumerate(t_words):
        letter = max(map(max, filter(None, words)), default=0)
        if letter >= mu:
            raise ValueError(f"t(s) has {mu} components, but a word has the letter {letter}")
        linear = {w: c for w, c in words.items() if len(w) == 1}
        if linear != ({(a,): e_scale} if t_order != 0 else {}):
            raise ValueError("coordinate change does not have identity linear part")
        if () in words:
            raise ValueError("coordinate change must vanish at the origin")
        u.append({w: c for w, c in words.items() if len(w) > 1})
    d_scale, s_of_t = 1, [{1: {base**a: 1}} for a in range(mu)]
    for p in range(2, order + 1):
        u_p = [{w: c for w, c in words.items() if len(w) <= p} for words in u]
        scale, accs = _substitute_ints((p, e_scale, u_p), (d_scale, s_of_t), mu, p, base)
        g = gcd(scale, *(v for acc in accs for b in acc.values() for v in b.values()))
        d_scale = scale // g
        s_of_t = [
            {1: {base**a: d_scale}}
            | {d: {m: -(v // g) for m, v in b.items()} for d, b in acc.items()}
            for a, acc in enumerate(accs)
        ]
    return d_scale, s_of_t


class FrobeniusData:
    """The prepotential, one series at the order of the solve."""

    __slots__ = ("prepotential",)

    def __init__(self, prepotential: SSeries):
        self.prepotential = prepotential


def prepotential(result: PrimitiveFormResult, milnor: MilnorData) -> FrobeniusData:
    """Integrate the flat-frame gradient eta * J_(-2) into the prepotential.

    With g_a = sum_b eta_ab J_(-2)^b(s(t)), exact through degree N (the
    order), F_J = (1/|J|) sum_a g_a[J - e_a] for 3 <= |J| <= N + 1, and
    dF/dt_a must equal g_a through degree N: exactly when g has no part of
    degree 0 or 1 and each part of degree 2..N is curl-free.  A mismatch
    is a convention bug and raises IntegrabilityError.  The prepotential is
    F through degree N, zero below order 3.

    s(t) is needed only through degree N - 1 (1 at order 1, 0 at order 0):
    every word of J_(-2) has length >= 2, so the degree-N part of one
    factor lands above N, and a shorter word gives g a part of degree 0 or
    1, rejected anyway.

    From the solve's slices to F0 it runs on ints, in one packing base
    N + 2: t(s) and J_(-2) are read off the slices, s(t) is inverted by
    `invert_coordinates` and J_(-2) folded at it by `_substitute_ints`.
    s(t) has the identity linear part, so every word of J_(-2) of length N
    or N - 1, most of them, is expanded outside the word trie, and so is
    every such word of u(s) in each pass of the inversion.  With L the
    fold's scale and E the lcm of the denominators of eta, G_a = E L g_a
    and H_J = |J| E L F_J, so the check is (d + 1) G_a[m] = J_a H_J,
    J = m + e_a, at every degree d <= N, and each F_J is divided out once.

    mu and eta are read off result.state.milnor, and `milnor` must be that
    object.  It drops the parts of exp(F - f), at every floor, and the
    class table and x-monomial degrees the solve and the defect share.
    """
    data = result.state.milnor
    if milnor is not data:
        raise ValueError("the Milnor data is not that of the solved unfolding")
    result.state._parts.clear()
    result.state._classes.clear()
    result.state._x_sdegs.clear()
    mu, order, base = data.mu, result.order, result.order + 2
    s_of_t = invert_coordinates(flat_coordinates(result), min(max(order - 1, 1), order))
    scale, accs = _substitute_ints(_j_items(result, -2), s_of_t, mu, order, base)
    e_scale = lcm(*(v.denominator for row in data.eta for v in row))
    steps = [base**a for a in range(mu)]
    gradient, lifted = [], {}
    for a, row in enumerate(data.eta):
        g: dict = {}
        for eta_ab, acc in zip(row, accs):
            if eta_ab:
                k = eta_ab.numerator * (e_scale // eta_ab.denominator)
                for degree, bucket in acc.items():
                    g_d = g.setdefault(degree, {})
                    for mono, v in bucket.items():
                        g_d[mono] = g_d.get(mono, 0) + k * v
        gradient.append(g)
        for degree, bucket in g.items():
            if degree >= 2:
                h = lifted.setdefault(degree + 1, {})
                for mono, v in bucket.items():
                    raised = mono + steps[a]
                    h[raised] = h.get(raised, 0) + v
    exps = {m: unpack_monomial(m, base, mu) for h in lifted.values() for m in h}
    for a, g in enumerate(gradient):
        for degree in range(order + 1):
            derivative = {
                m - steps[a]: exps[m][a] * v
                for m, v in lifted.get(degree + 1, {}).items()
                if v and exps[m][a]
            }
            if derivative != {m: (degree + 1) * v for m, v in g.get(degree, {}).items() if v}:
                raise IntegrabilityError(
                    f"integrability check failed: component t{a + 1} of eta * J_(-2)"
                    f" is not dF0/dt{a + 1}"
                )
    scale *= e_scale
    f0 = {
        exps[m]: Fraction(v, degree * scale)
        for degree in range(3, order + 1)
        for m, v in lifted.get(degree, {}).items()
        if v
    }
    return FrobeniusData(SSeries(mu, order, f0))


class CheckReport:
    """Outcome of an exact verification pass; violations are data, not errors."""

    __slots__ = ("violations", "checked")

    def __init__(self, violations: list, checked: int):
        self.violations = violations
        self.checked = checked

    @property
    def passed(self) -> bool:
        return not self.violations

    def __repr__(self):
        state = "pass" if self.passed else f"{len(self.violations)} violations"
        return f"CheckReport({state}, {self.checked} checks)"


def _third_derivatives(f0: SSeries, check_order: int, scale: int) -> dict:
    """F_abe for a <= b <= e, straight from the terms of f0, times `scale`,
    as graded series through check_order = f0.order - 3, packed in base
    check_order + 1.  `scale` must clear every denominator of f0."""
    third: dict = {}
    powers = [(check_order + 1) ** i for i in range(f0.nvars)]
    for mono, coeff in f0.terms.items():
        degree = sum(mono) - 3
        scaled = coeff.numerator * (scale // coeff.denominator)
        # Packed once; the lowered exponents are at most check_order, so
        # subtracting the three powers carries into no other digit.
        packed = sum(e * p for e, p in zip(mono, powers))
        support = [i for i, e in enumerate(mono) if e]
        for i, j, k in combinations_with_replacement(support, 3):
            value = scaled * mono[i] * (mono[j] - (i == j)) * (mono[k] - (i == k) - (j == k))
            if value:
                bucket = third.setdefault((i, j, k), {}).setdefault(degree, {})
                bucket[packed - powers[i] - powers[j] - powers[k]] = value
    return {key: graded(buckets) for key, buckets in third.items()}


def _flat(buckets: dict) -> dict:
    """{degree: {packed: int}} as one {packed: nonzero int}."""
    return {m: v for bucket in buckets.values() for m, v in bucket.items() if v}


def _pairing_key(a: int, b: int, c: int, d: int) -> tuple:
    """The pairing {ab|cd} as its two sorted index pairs, in ascending order."""
    return tuple(sorted(((min(a, b), max(a, b)), (min(c, d), max(c, d)))))


def _pairing_inverse(eta) -> tuple:
    """(E, rows), rows[f] = [(e, E eta^{fe})] over the nonzero entries in
    index order and E the lcm of the denominators of eta^-1; ValueError
    unless the pairing eta is symmetric and invertible.

    Each unit vector e_f reduces to zero against the `row_echelon` of
    eta: lam e_f + combo . eta = 0, so row f of eta^-1 is -combo / lam."""
    mu = len(eta)
    if any(eta[i][j] != eta[j][i] for i in range(mu) for j in range(i)):
        raise ValueError("the pairing eta is not symmetric")
    echelon = row_echelon(eta)
    if echelon is None:
        raise ValueError("matrix is singular")
    rows, dens = [], []
    for f in range(mu):
        combo = {mu: 1}
        eliminate({f: 1}, combo, echelon)
        lam = combo.pop(mu)
        g = gcd(lam, *combo.values())
        rows.append(sorted((e, -c // g) for e, c in combo.items()))
        dens.append(lam // g)
    e_scale = lcm(*dens)
    return e_scale, [[(e, c * (e_scale // den)) for e, c in row] for row, den in zip(rows, dens)]


def _generating_set(cubic: list, raising: list) -> list:
    """The indices S, in index order, of a set that generates the algebra
    at t = 0, whose product is C_ab^g = sum_e cubic[a][b][e] raising[e][g]
    (cubic[a][b] as {e: int}, raising[e] as [(g, int)] over its nonzero
    entries).  Index k joins S when d_k is not in the span of the earlier
    members closed under the product.  The closure multiplies every pair of
    its basis vectors, so no associativity is assumed, and stops once the
    span has dimension mu.  The span is an `eliminate` echelon of
    {index: int} vectors, with no combination; a product's zero entries are
    dropped before it is eliminated, and a zero product clears at once."""
    mu, echelon, chosen = len(raising), {}, []
    for k in range(mu):
        size, pending = len(echelon), [{k: 1}]
        while pending and len(echelon) < mu:
            v = pending.pop()
            pivot = eliminate(v, {}, echelon)
            if pivot is None:
                continue
            _, v, _ = echelon[pivot] = echelon_row(pivot, v, {})
            for _, w, _ in echelon.values():
                lowered, product = {}, {}
                for a, x in v.items():
                    for b, y in w.items():
                        for e, c in cubic[a][b].items():
                            lowered[e] = lowered.get(e, 0) + x * y * c
                for e, c in lowered.items():
                    for f, r in raising[e]:
                        product[f] = product.get(f, 0) + c * r
                pending.append({f: c for f, c in product.items() if c})
        if len(echelon) > size:
            chosen.append(k)
    return chosen


def wdvv_check(f0: SSeries, eta) -> CheckReport:
    """Associativity of the third-derivative tensor, exact modulo truncation.

    For every index quadruple (a, b, c, d) with b < c, the contraction
    X_abcd = sum_{e,f} F_abe eta^{ef} F_fcd must equal X_acbd.  Third
    derivatives of a series of order N = f0.order are exact only through
    total degree N - 3, so the comparison is restricted to that range; N
    must be at least 3, and a lower range is checked on f0.truncate(M).
    ``checked`` counts these mu^2 C(mu, 2) equations.

    X_abcd is symmetric under a <-> b and c <-> d, and, since eta is
    symmetric, under (ab) <-> (cd); so it depends only on the pairing
    {ab|cd} of the multiset {a, b, c, d}, and each equation says that two
    of the three pairings {ab|cd}, {ac|bd}, {ad|bc} of one multiset agree.
    A non-symmetric or singular eta is rejected.  The check walks the
    multisets a <= b <= c <= d, forms each distinct pairing once (a
    repeated index makes two of them the same) and compares them.  Where
    they disagree, the violations of every quadruple of the multiset are
    read off its pairings there, so each X is formed exactly once and none
    is held past its multiset.  Each (quadruple, monomial) occurs once, and
    the list is sorted once, by quadruple and then by monomial.

    The equations say that the algebra A over R = Q[t]/(degree > N - 3)
    with product C_ab^g = sum_e F_abe eta^{eg} is associative.  A is
    commutative, so d_s lies in its nucleus exactly when the pairings agree
    on every multiset that holds s; the nucleus is a subalgebra, and by
    Nakayama a set S that generates A at t = 0 generates A.  So the walk
    first takes only the multisets that hold an index of S
    (`_generating_set`, read off the cubic terms and eta), and walks the
    rest only when one of them disagrees, so that the violations are
    always those of every multiset.

    Only products that can be nonzero are formed, each by `graded_dot`.
    F_abe is built from the terms of f0 for a <= b <= e, graded by total
    degree, and looked up as F_fcd in a mu x mu x mu table whose column
    [c][d] is indexed by f.  The index is raised once for each sorted pair,
    L_ab^f = sum_e eta^{fe} F_abe, through the nonzero entries of eta^-1
    only, held as constant series.  Every pairing of a multiset with least
    index a puts a in its first pair, so only the L_ab of the current a are
    held; the second walk forms again those of an a outside S below the
    last index of S.  X_{ab|cd} = sum_f L_ab^f F_fcd skips term pairs whose
    degrees add up past order - 3, and is compared degree by degree as the
    kernel returns it; only pairings that differ there are compared again
    without their cancelled terms.

    The loops run on Python ints only.  With D the lcm of the denominators
    of f0 and E that of eta^-1, every F_abe is scaled exactly by D and
    every entry of eta^-1 by E, so each X formed is D^2 E times the true
    one and every comparison has the same outcome; a reported difference
    is divided by D^2 E again.  A monomial is packed in base
    check_order + 1, which no exponent of a term through check_order
    reaches.
    """
    mu = len(eta)
    if f0.order is None or f0.order < 3:
        raise ValueError("WDVV needs the prepotential through order >= 3")
    check_order = f0.order - 3
    if f0.nvars != mu:
        raise ValueError(f"prepotential has {f0.nvars} variables, pairing has {mu}")
    e_scale, sparse = _pairing_inverse(eta)
    d_scale = lcm(*(c.denominator for c in f0.terms.values()))
    # raising holds the entries of sparse as constant series.
    raising = [[(e, [(0, [(0, g)])]) for e, g in row] for row in sparse]

    # tensor[c][d][f] is F_fcd, None where it is zero; cubic[c][d][f] is its
    # constant term, where that is nonzero.
    tensor = [[[None] * mu for _ in range(mu)] for _ in range(mu)]
    cubic = [[{} for _ in range(mu)] for _ in range(mu)]
    for (i, j, k), series in _third_derivatives(f0, check_order, d_scale).items():
        for f, c, d in permutations((i, j, k)):
            tensor[c][d][f] = series
            if not series[0][0]:
                cubic[c][d][f] = series[0][1][0][1]
    chosen = _generating_set(cubic, sparse)
    in_s = [i in chosen for i in range(mu)]

    # First the multisets that hold an index of S, then, only if one of
    # them failed, the rest.
    violations: list = []
    for held in (True, False):
        if not held and not violations:
            break
        for a in range(chosen[-1] + 1 if held else mu):
            if in_s[a] and not held:
                continue
            # raised[b] = [(f, L_ab^f), ...] over the nonzero L_ab^f, for b >= a.
            raised = [None] * mu
            for b in range(a, mu):
                lifted = (graded(graded_dot(row, tensor[a][b], check_order)) for row in raising)
                raised[b] = [(f, series) for f, series in enumerate(lifted) if series]
            for b, c, d in combinations_with_replacement(range(a, mu), 3):
                if (in_s[a] or in_s[b] or in_s[c] or in_s[d]) != held:
                    continue
                first = graded_dot(raised[b], tensor[c][d], check_order)
                values = {((a, b), (c, d)): first}
                if b != c:
                    values[(a, c), (b, d)] = graded_dot(raised[c], tensor[b][d], check_order)
                if a != b and c != d:
                    values[(a, d), (b, c)] = graded_dot(raised[d], tensor[b][c], check_order)
                if all(value == first for value in values.values()):
                    continue
                values = {key: _flat(value) for key, value in values.items()}
                first = values[(a, b), (c, d)]
                if all(value == first for value in values.values()):
                    continue
                for q in {p for p in permutations((a, b, c, d)) if p[1] < p[2]}:
                    left = values[_pairing_key(*q)]
                    right = values[_pairing_key(q[0], q[2], q[1], q[3])]
                    for m in left.keys() | right.keys():
                        diff = left.get(m, 0) - right.get(m, 0)
                        if diff:
                            violations.append({
                                "indices": tuple(i + 1 for i in q),
                                "monomial": unpack_monomial(m, check_order + 1, mu),
                                "difference": format_rational(Fraction(diff, d_scale**2 * e_scale)),
                            })
    violations.sort(key=lambda v: (v["indices"], mono_key(v["monomial"])))
    return CheckReport(violations, mu * mu * mu * (mu - 1) // 2)


def euler_check(f0: SSeries, flat_degrees, c_hat: Fraction) -> CheckReport:
    """Every prepotential monomial must have flat weighted degree 3 - c_hat,
    compared as int numerators over the lcm of all their denominators."""
    target = 3 - c_hat
    scale = lcm(target.denominator, *(d.denominator for d in flat_degrees))
    weights = [d.numerator * (scale // d.denominator) for d in flat_degrees]
    goal = target.numerator * (scale // target.denominator)
    violations = []
    for mono, coeff in f0.sorted_terms():
        degree = sum(k * w for k, w in zip(mono, weights))
        if degree != goal:
            violations.append(
                {
                    "monomial": mono,
                    "coefficient": format_rational(coeff),
                    "degree": format_rational(Fraction(degree, scale)),
                    "expected": format_rational(target),
                }
            )
    return CheckReport(violations, len(f0.terms))


def normalization_check(f0: SSeries, eta, unit: int) -> CheckReport:
    """Record-level integrability: F0 has no terms below total degree 3, and
    d_u d_a d_b F0 = eta_ab as a series, t_u the flat coordinate of the unit.

    The curl check runs inside `prepotential`, on the gradient.  A stored
    record carries only F0 itself, whose third derivatives commute for
    every series, so what remains to check on it is the normalization that
    drops the constant, linear and quadratic parts, and the flat identity
    that ties F0 to eta: the only terms in t_u are the cubic t_u t_a t_b,
    each with coefficient eta_ab / m! for its exponents m.  WDVV holds for
    every multiple of eta; the flat identity does not.
    """
    flat = {}
    for a in range(f0.nvars):
        for b in range(a, f0.nvars):
            if eta[a][b]:
                mono = [0] * f0.nvars
                for i in (unit, a, b):
                    mono[i] += 1
                flat[tuple(mono)] = eta[a][b] / prod(map(factorial, mono))
    violations = []
    for mono in f0.terms.keys() | flat.keys():
        coeff = f0.terms.get(mono, 0)
        expected = flat.get(mono, 0)
        if sum(mono) < 3:
            violations.append(
                {"monomial": mono, "coefficient": format_rational(coeff), "reason": "degree < 3"}
            )
        elif mono[unit] and coeff != expected:
            violations.append(
                {
                    "monomial": mono,
                    "coefficient": format_rational(coeff),
                    "expected": format_rational(expected),
                    "reason": "d_u d_a d_b F0 != eta_ab",
                }
            )
    violations.sort(key=lambda v: mono_key(v["monomial"]))
    return CheckReport(violations, len(f0.terms))


def prepotential_record(
    milnor: MilnorData, frob: FrobeniusData, singularity: str, checks: dict
) -> dict:
    """Assemble the canonical output record for a computed prepotential."""
    return {
        "kind": "prepotential",
        "singularity": singularity,
        **milnor.record_fields(),
        "order": frob.prepotential.order,
        "flat_degrees": [format_rational(1 - d) for d in milnor.degrees],
        "terms": frob.prepotential.to_records(),
        "checks": checks,
    }


def verify_record(record: dict) -> dict[str, CheckReport | None]:
    """The WDVV, Euler and integrability checks of a prepotential record.

    The record's shape is checked first: an object with a non-empty basis
    list (mu >= 1), an order that is a non-negative int, a list of terms, a
    list of mu flat degrees, a mu x mu pairing as a list of lists, every
    rational a string, no terms below order 3, and at every order an eta
    that is symmetric and invertible.  The weights fix the central charge,
    sum_i (1 - 2 q_i), and each flat degree, 1 - deg_q of its basis entry,
    a monomial in the variables; the unit 1 is in the basis once, and the
    integrability report ties eta to F0 by the flat identity.  Below order
    3 the normalized F0 is zero, so each check holds only vacuously and
    its report is None.
    """
    if not isinstance(record, dict):
        raise ValueError("a record is an object")
    mu = len(as_list(record["basis"], "basis"))
    if not mu:
        raise ValueError("the basis is empty, but mu >= 1")
    order = record["order"]
    if type(order) is not int or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    f0 = SSeries.from_records(as_list(record["terms"], "terms"), mu, order)
    if order < 3 and f0:
        raise ValueError("a prepotential below order 3 has no terms")
    eta = tuple(
        tuple(parse_rational(v) for v in as_list(row, "a row of eta"))
        for row in as_list(record["eta"], "eta")
    )
    if len(eta) != mu or any(len(row) != mu for row in eta):
        raise ValueError(f"eta must be {mu} x {mu}")
    flat_degrees = [parse_rational(d) for d in as_list(record["flat_degrees"], "flat_degrees")]
    if len(flat_degrees) != mu:
        raise ValueError(f"expected {mu} flat degrees, got {len(flat_degrees)}")
    c_hat = parse_rational(record["central_charge"])
    names = variable_names(as_list(record["variables"], "variables"))
    weights = [parse_rational(q) for q in as_list(record["weights"], "weights")]
    if len(weights) != len(names) or c_hat != central_charge(weights):
        raise ValueError("central_charge is not sum_i (1 - 2 q_i) over one weight per variable")
    basis = parse_basis(record["basis"], names)
    unit = (0,) * len(names)
    if basis.count(unit) != 1:
        raise ValueError('the basis must hold the unit "1" exactly once')
    for text, mono, degree in zip(record["basis"], basis, flat_degrees):
        if degree != 1 - weighted_degree(mono, weights):
            raise ValueError(f"flat degree {degree} of {text!r} is not 1 - its weighted degree")
    if order < 3:
        _pairing_inverse(eta)
        return dict.fromkeys(("wdvv", "euler", "integrability"))
    return {
        "wdvv": wdvv_check(f0, eta),
        "euler": euler_check(f0, flat_degrees, c_hat),
        "integrability": normalization_check(f0, eta, basis.index(unit)),
    }
