import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smdc.covers import conditional_chain, han_chain, yz_chain
from smdc.entropy import (
    MARGINAL_BUDGET,
    TOLERANCE,
    JointPMF,
    check_conditional_yz,
    check_han,
    check_mt,
    check_sliding_window,
    check_yz,
    permutation_identity,
    pmf_from_text,
    pmf_to_text,
    random_pmf,
    random_product_pmf,
)
from smdc.subsets import EncoderSet, subsets_of_size, windows

from oracles import fraction_subset_entropy, joint_subset_entropy

F = Fraction


def fair_bits(n):
    return JointPMF.independent([[F(1, 2), F(1, 2)]] * n)


def copied_bit(n):
    """One fair bit copied to n variables."""
    return JointPMF([2] * n, {(0,) * n: F(1, 2), (1,) * n: F(1, 2)})


def three_point():
    return JointPMF.uniform_over([2, 2], [(0, 0), (0, 1), (1, 0)])


class TestSubsetEntropy:
    def test_independent_bits_additive(self):
        pmf = fair_bits(4)
        for k in range(1, 5):
            assert pmf.subset_entropy(range(1, k + 1)) == pytest.approx(k, abs=1e-12)

    def test_copied_bit(self):
        assert copied_bit(2).subset_entropy([1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_three_point_marginal(self):
        h = three_point().subset_entropy([1])
        want = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
        assert h == pytest.approx(want, abs=1e-12)
        assert h == pytest.approx(0.9182958340544896, abs=1e-9)

    def test_conditional(self):
        assert fair_bits(2).conditional_entropy([1], [2]) == pytest.approx(
            1.0, abs=1e-12
        )
        assert copied_bit(2).conditional_entropy([1], [2]) == pytest.approx(
            0.0, abs=1e-12
        )
        got = three_point().conditional_entropy([2], [1])
        want = math.log2(3) - 0.9182958340544896
        assert got == pytest.approx(want, abs=1e-9)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            fair_bits(2).subset_entropy([])

    def test_cache_hits_by_mask_and_misses_validate(self):
        pmf = three_point()
        first = pmf.subset_entropy(EncoderSet((1, 2), 2))
        # the same members on a larger ground set share the mask and hit
        assert pmf.subset_entropy(EncoderSet((1, 2), 5)) == first
        assert pmf.subset_entropy((2, 1)) == first
        for bad in (EncoderSet((1, 3), 3), EncoderSet((3,), 5), (0, 1), [3]):
            with pytest.raises(ValueError, match=r"^variable index \d+ out of range$"):
                pmf.subset_entropy(bad)
        with pytest.raises(ValueError, match="empty variable set"):
            pmf.subset_entropy(EncoderSet((), 2))
        # a conditioning EncoderSet and its members give the same answer
        u, given = EncoderSet((2,), 2), EncoderSet((1,), 2)
        assert pmf.conditional_entropy(u, given) == pmf.conditional_entropy((2,), (1,))

    def test_monotone_and_nonnegative(self):
        rng = random.Random(2)
        for _ in range(20):
            pmf = random_pmf(rng, [2, 3, 2])
            for u in subsets_of_size(3, 2):
                h_u = pmf.subset_entropy(u)
                assert h_u >= 0
                for v in u.children():
                    assert h_u >= pmf.subset_entropy(v) - 1e-12


@st.composite
def pmfs(draw):
    """Pmfs from every constructor: explicit masses with mixed
    denominators, products of marginals, uniform multisets, and text with
    unreduced masses such as 4/12."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    outcomes = list(product(*(range(k) for k in sizes)))
    kind = draw(st.sampled_from(["masses", "independent", "uniform", "text"]))
    if kind == "independent":
        marginals = []
        for k in sizes:
            w = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))
            w[draw(st.integers(0, k - 1))] += 1
            marginals.append([F(x, sum(w)) for x in w])
        return JointPMF.independent(marginals)
    if kind == "uniform":
        pts = draw(st.lists(st.sampled_from(outcomes), min_size=1, max_size=7))
        return JointPMF.uniform_over(sizes, pts)
    counts = draw(st.lists(st.integers(0, 50), min_size=len(outcomes), max_size=len(outcomes)))
    counts[0] += 1
    if kind == "text":
        k = draw(st.integers(1, 5))
        lines = [f"{len(sizes)} " + " ".join(map(str, sizes))]
        for o, c in zip(outcomes, counts):
            lines.append(" ".join(map(str, o)) + f" {c * k}/{sum(counts) * k}")
        return pmf_from_text("\n".join(lines))
    # half the mass over each of two sums of counts, so that the reduced
    # denominators differ between the halves
    cut = draw(st.integers(1, len(outcomes)))
    head, tail = counts[:cut], counts[cut:]
    halves = 2 if sum(tail) else 1
    table = {o: F(c, halves * sum(head)) for o, c in zip(outcomes, head)}
    if sum(tail):
        table.update((o, F(c, 2 * sum(tail))) for o, c in zip(outcomes[cut:], tail))
    return JointPMF(sizes, table)


class TestIntegerMarginals:
    @settings(max_examples=200, deadline=None)
    @given(pmfs())
    def test_bit_identical_to_fraction_marginals(self, pmf):
        n = pmf.variable_count
        for mask in range(1, 2**n):
            u = [m for m in range(1, n + 1) if mask >> (m - 1) & 1]
            assert pmf.subset_entropy(u).hex() == fraction_subset_entropy(pmf, u).hex()


def _shaped(u, rnd):
    """The variable set u as a tuple, list, set or, when it can be one,
    an EncoderSet."""
    shapes = [tuple, lambda x: list(reversed(x)), set]
    if 0 not in u:
        shapes.append(lambda x: EncoderSet(tuple(x), max(x, default=1)))
    return rnd.choice(shapes)(u)


def _expected(pmf, u, given):
    """The float.hex of H(u | given), or the message of the ValueError it
    raises: u's indices are checked first, then given's."""
    n = pmf.variable_count
    for m in sorted(u) + sorted(given or ()):
        if not 1 <= m <= n:
            return f"variable index {m} out of range"
    if not u:
        return "entropy of an empty variable set is not defined"
    if not given:
        return joint_subset_entropy(pmf, u).hex()
    both = set(u) | set(given)
    return (joint_subset_entropy(pmf, both) - joint_subset_entropy(pmf, given)).hex()


class TestEntropyCache:
    """Entropies cached per mask, from marginals projected off cached
    larger ones, give the bits of one pass over the joint whatever the
    order of the queries, and the errors of an uncached pmf."""

    @settings(max_examples=60, deadline=None)
    @given(pmfs(), st.randoms(use_true_random=False))
    def test_any_query_order_gives_the_same_bits(self, pmf, rnd):
        n = pmf.variable_count
        sets = [tuple(m for m in range(1, n + 1) if mask >> m - 1 & 1) for mask in range(2**n)]
        sets += [(0,), (n + 1,), (1, n + 2), (0, n + 1)]
        queries = [(u, None) for u in sets] + [(u, g) for u in sets for g in sets]
        rnd.shuffle(queries)
        for u, given in queries:
            try:
                if given is None:
                    got = pmf.subset_entropy(_shaped(u, rnd)).hex()
                else:
                    got = pmf.conditional_entropy(_shaped(u, rnd), _shaped(given, rnd)).hex()
            except ValueError as err:
                got = str(err)
            assert got == _expected(pmf, u, given), (u, given)

    @pytest.mark.parametrize("order", ["up", "down", "shuffled"])
    def test_marginals_stay_within_the_budget(self, order):
        rng = random.Random(7)
        n = 6
        weights = {o: rng.randint(1, 9) for o in product(range(2), repeat=n)}
        total = sum(weights.values())
        pmf = JointPMF([2] * n, {o: F(w, total) for o, w in weights.items()})
        masks = list(range(1, 2**n))
        if order == "down":
            masks.reverse()
        elif order == "shuffled":
            rng.shuffle(masks)
        for mask in masks:
            u = [m for m in range(1, n + 1) if mask >> m - 1 & 1]
            assert pmf.subset_entropy(u).hex() == joint_subset_entropy(pmf, u).hex()
        cached = sum(len(t) for t in pmf._marginals.values())
        assert cached == pmf._marginal_cells <= MARGINAL_BUDGET * len(pmf._counts)
        # the marginals of two to five variables hold 652 cells against a
        # budget of 256, so some of them were summed and not kept
        assert 0 < len(pmf._marginals) < 2**n - 1 - n - 1


class TestPmfValidation:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            JointPMF([2], {(0,): F(1, 2), (1,): F(1, 3)})

    def test_symbol_range(self):
        with pytest.raises(ValueError):
            JointPMF([2], {(2,): F(1)})

    def test_state_cap(self):
        with pytest.raises(ValueError):
            JointPMF([100] * 4, {(0, 0, 0, 0): F(1)})
        # the count stops at the cap: the full product of 300,000 twos
        # takes seconds to form and has too many digits to print
        start = time.perf_counter()
        with pytest.raises(ValueError, match="state space"):
            JointPMF([2] * 300_000, {})
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("sizes", [[2] * 40, [0], []])
    def test_random_pmfs_check_the_space_before_enumerating(self, sizes):
        # 2^40 outcomes would never finish; a size-0 alphabet never draws
        rng = random.Random(0)
        with pytest.raises(ValueError):
            random_pmf(rng, sizes)
        with pytest.raises(ValueError):
            random_product_pmf(rng, sizes)

    def test_uniform_over_no_outcomes(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            JointPMF.uniform_over([2], [])

    def test_product_checks_the_space_before_enumerating(self):
        with pytest.raises(ValueError, match="state space"):
            JointPMF.independent([[1, 0]] * 40)


class TestHan:
    def test_equality_for_independent(self):
        pmf = fair_bits(3)
        for a in (2, 3):
            rep = check_han(pmf, a)
            assert rep.holds and abs(rep.slack) < 1e-12

    def test_copied_bit_strict(self):
        rep = check_han(copied_bit(3), 2)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_pmf(self):
        pmf = JointPMF([2, 2], {(0, 0): F(1)})
        rep = check_han(pmf, 2)
        assert rep.lhs == rep.rhs == 0

    def test_normalized_sequence_monotone(self):
        rng = random.Random(5)
        for _ in range(25):
            L = rng.randint(2, 4)
            pmf = random_pmf(rng, [rng.randint(2, 3)] * L)
            levels = [
                sum(pmf.subset_entropy(u) for u in subsets_of_size(L, a))
                / (math.comb(L, a) * a)
                for a in range(1, L + 1)
            ]
            for hi, lo in zip(levels, levels[1:]):
                assert hi >= lo - TOLERANCE


class TestSlidingWindow:
    def test_product_equality(self):
        rng = random.Random(9)
        for _ in range(10):
            L = rng.randint(2, 4)
            pmf = random_product_pmf(rng, [rng.randint(2, 3)] * L)
            for a in range(2, L + 1):
                rep = check_sliding_window(pmf, a)
                assert abs(rep.slack) < 1e-12

    def test_copied_bit_level_sums(self):
        pmf = copied_bit(3)
        sums = [
            sum(pmf.subset_entropy(w) for w in windows(3, a)) / a for a in (1, 2, 3)
        ]
        assert sums == pytest.approx([3, 1.5, 1], abs=1e-12)

    def test_two_encoders_equals_han(self):
        rng = random.Random(12)
        for _ in range(10):
            pmf = random_pmf(rng, [2, 2])
            w = check_sliding_window(pmf, 2)
            h = check_han(pmf, 2)
            # same families; window sums are han sums times L=2
            assert w.slack == pytest.approx(2 * h.slack, abs=1e-12)
            assert w.holds == h.holds

    def test_random_sweep_holds(self):
        rng = random.Random(31)
        for _ in range(50):
            L = rng.randint(2, 4)
            pmf = random_pmf(rng, [rng.randint(2, 3)] * L)
            for a in range(2, L + 1):
                assert check_sliding_window(pmf, a).holds
                assert check_han(pmf, a).holds

    def test_permutation_average_recovers_han(self):
        rng = random.Random(17)
        for L in (3, 4):
            pmf = random_pmf(rng, [2] * L)
            for a in range(2, L + 1):
                total = 0.0
                import itertools

                for perm in itertools.permutations(range(1, L + 1)):
                    for start in range(1, L + 1):
                        members = [
                            perm[(start + i - 1) % L] for i in range(a)
                        ]
                        total += pmf.subset_entropy(members)
                expected = (
                    L
                    * math.factorial(a)
                    * math.factorial(L - a)
                    * sum(pmf.subset_entropy(u) for u in subsets_of_size(L, a))
                )
                assert total == pytest.approx(expected, abs=1e-9)


class TestMadimanTetali:
    def test_uniform_cover_equality_on_independent(self):
        pmf = fair_bits(3)
        u = EncoderSet((1, 2, 3), 3)
        rep = check_mt(pmf, u, dict.fromkeys(u.children(), F(1, 2)))
        assert abs(rep.slack) < 1e-12

    def test_subadditivity_instance(self):
        rng = random.Random(4)
        pmf = random_pmf(rng, [2, 2, 2])
        u = EncoderSet((1, 2, 3), 3)
        assert check_mt(pmf, u, dict.fromkeys(u.children(), F(1))).holds

    def test_random_ternary(self):
        rng = random.Random(6)
        pmf = random_pmf(rng, [3, 3, 3])
        u = EncoderSet((1, 2, 3), 3)
        assert check_mt(pmf, u, dict.fromkeys(u.children(), F(1, 2))).holds

    def test_rejects_invalid_cover(self):
        pmf = fair_bits(3)
        u = EncoderSet((1, 2, 3), 3)
        with pytest.raises(ValueError):
            check_mt(pmf, u, dict.fromkeys(u.children(), F(0)))


class TestYeungZhang:
    def test_han_chain_matches_han(self):
        rng = random.Random(8)
        for L in (2, 3, 4):
            chain = han_chain(L)
            pmf = random_pmf(rng, [2] * L)
            for a in range(2, L + 1):
                yz = check_yz(pmf, chain, a)
                han = check_han(pmf, a)
                assert yz.holds == han.holds
                assert yz.slack == pytest.approx(han.slack, abs=1e-9)

    def test_degenerate_chain(self):
        chain = yz_chain((1, 0, 0))
        pmf = fair_bits(3)
        for a in (2, 3):
            rep = check_yz(pmf, chain, a)
            assert rep.holds

    def test_random_chains_random_pmfs(self):
        rng = random.Random(44)
        for _ in range(15):
            L = rng.randint(2, 4)
            lam = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(L)]
            chain = yz_chain(lam)
            pmf = random_pmf(rng, [rng.randint(2, 3)] * L)
            for a in range(2, L + 1):
                assert check_yz(pmf, chain, a).holds


class TestConditionalYZ:
    def test_n_zero_matches_plain(self):
        rng = random.Random(10)
        lam = (2, 1, 1)
        cond = conditional_chain(lam, 0)
        chain = yz_chain(lam)
        pmf = random_pmf(rng, [2, 2, 2])
        for a in (2, 3):
            c = check_conditional_yz(pmf, cond, a)
            y = check_yz(pmf, chain, a)
            assert c.slack == pytest.approx(y.slack, abs=1e-12)

    def test_independent_equality(self):
        cond = conditional_chain((1, 1, 1), 1)
        pmf = fair_bits(3)
        rep = check_conditional_yz(pmf, cond, 2)
        assert abs(rep.slack) < 1e-12

    def test_fully_correlated(self):
        cond = conditional_chain((1, 1, 1), 1)
        pmf = copied_bit(3)
        rep = check_conditional_yz(pmf, cond, 2)
        assert rep.lhs == rep.rhs == 0

    def test_random_sweep(self):
        rng = random.Random(77)
        for _ in range(10):
            L = rng.randint(3, 4)
            n = rng.randint(0, 2)
            if n > L - 2:
                n = L - 2
            lam = [F(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(L)]
            cond = conditional_chain(lam, n)
            pmf = random_pmf(rng, [2] * L)
            for a in range(2, L - n + 1):
                assert check_conditional_yz(pmf, cond, a).holds


class TestPermutationIdentity:
    def test_small_cases(self):
        assert permutation_identity(3, 2)
        assert permutation_identity(4, 2)

    def test_degenerate_full_window(self):
        for L in (2, 3, 4):
            assert permutation_identity(L, L)

    def test_all_small(self):
        for L in range(2, 6):
            for a in range(1, L + 1):
                assert permutation_identity(L, a)

    def test_bound(self):
        with pytest.raises(ValueError):
            permutation_identity(8, 2)


class TestTextFormat:
    def test_probabilities_are_the_given_table(self):
        # ("0", "1") and (0, 1) name one outcome, so their masses add;
        # a zero mass is not kept
        given = {(0, 1): "1/6", ("0", "1"): F(1, 3), (1, 0): "1/2", (1, 1): 0}
        pmf = JointPMF([2, 2], given)
        assert pmf.probabilities == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
        points = [(0, 0), (1, 1), (0, 0)]
        assert JointPMF.uniform_over([2, 2], points).probabilities == {
            (0, 0): F(2, 3), (1, 1): F(1, 3)
        }

    def test_round_trip(self):
        rng = random.Random(1)
        pmf = random_pmf(rng, [2, 3])
        back = pmf_from_text(pmf_to_text(pmf))
        assert back.alphabet_sizes == pmf.alphabet_sizes
        assert back.probabilities == pmf.probabilities

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            pmf_from_text("1 2\n0 1/2\n1 1/3\n")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            pmf_from_text("2 2 2\n0 1\n")
        with pytest.raises(ValueError):
            pmf_from_text("")

    def test_seed_reproducibility(self):
        a = random_pmf(random.Random(42), [2, 2])
        b = random_pmf(random.Random(42), [2, 2])
        assert a.probabilities == b.probabilities
