import random
from fractions import Fraction
from math import comb

import pytest

import smdc.covers as cov
from smdc.covers import (
    CASE_1,
    CASE_2,
    CASE_3,
    CoverConstructionError,
    FractionalCover,
    chain_from_text,
    chain_to_text,
    conditional_chain,
    conditional_from_text,
    conditional_to_text,
    han_chain,
    verify_chain,
    verify_conditional,
    verify_cover,
    yz_chain,
)
from smdc.region import f_alpha
from smdc.subsets import EncoderSet, subsets_of_size, window

F = Fraction


def eset(members, L):
    return EncoderSet.of(members, L)


def rand_lambda(rng, L):
    style = rng.randrange(3)
    if style == 0:
        return [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(L)]
    if style == 1:
        # one dominant weight drives the recursive construction case
        lam = [F(rng.randint(1, 3)) for _ in range(L)]
        lam[rng.randrange(L)] = F(rng.randint(10, 60))
        return lam
    lam = [F(rng.randint(0, 3)) for _ in range(L)]
    lam[rng.randrange(L)] = F(rng.randint(2, 9), rng.randint(1, 3))
    return lam


class TestHanChain:
    def test_levels_match_closed_form(self):
        for L in (2, 3, 5):
            chain = han_chain(L)
            for alpha in range(1, L + 1):
                coeffs = chain.levels[alpha]
                want = F(1, alpha * comb(L, alpha))
                assert set(coeffs.assignment.values()) == {want}

    def test_two_encoders(self):
        chain = han_chain(2)
        assert chain.levels[1].assignment[eset([1], 2)] == F(1, 2)
        assert chain.levels[1].assignment[eset([2], 2)] == F(1, 2)
        # 1/(alpha * C(L, alpha)) with alpha = L = 2
        assert chain.levels[2].assignment[eset([1, 2], 2)] == F(1, 2)

    def test_reconstruction_from_level_two(self):
        chain = han_chain(3)
        total = sum(
            chain.covers[2][u].weights[eset([1], 3)]
            * chain.levels[2].assignment[u]
            for u in eset([1], 3).parents()
        )
        assert total == F(1, 3)

    def test_top_level(self):
        for L in (2, 4, 6):
            chain = han_chain(L)
            assert chain.levels[L].total == F(1, L)

    @pytest.mark.parametrize("L", range(1, 7))
    def test_full_verification(self, L):
        assert verify_chain(han_chain(L)).ok

    def test_equals_uniform_chain(self):
        for L in (2, 3, 4):
            built = yz_chain([F(1, L)] * L)
            reference = han_chain(L)
            for alpha in range(1, L + 1):
                assert (
                    built.levels[alpha].assignment
                    == reference.levels[alpha].assignment
                )


class TestYzChain:
    def test_uniform_totals(self):
        chain = yz_chain((1, 1, 1))
        assert [chain.levels[a].total for a in (1, 2, 3)] == [3, F(3, 2), 1]
        assert {c for _, c in chain.case_events} == {CASE_1}

    def test_all_mass_on_one_encoder(self):
        chain = yz_chain((1, 0, 0))
        assert chain.levels[3].total == 0
        assert chain.levels[2].total == 0
        assert chain.levels[1].assignment[eset([1], 3)] == 1
        assert chain.covers == {}

    def test_skewed_totals(self):
        chain = yz_chain((2, 1, 1))
        assert [chain.levels[a].total for a in (1, 2, 3)] == [4, 2, 1]

    def test_dominant_weight_uses_recursion(self):
        chain = yz_chain((5, 1, 1))
        cases = {c for _, c in chain.case_events}
        assert CASE_2 in cases
        lvl2 = chain.levels[2].assignment
        assert lvl2[eset([1, 2], 3)] == 1
        assert lvl2[eset([1, 3], 3)] == 1
        assert lvl2[eset([2, 3], 3)] == 0

    def test_middle_imbalance_hits_case3(self):
        chain = yz_chain((3, 1, 1))
        cases = {c for _, c in chain.case_events}
        assert CASE_3 in cases
        lvl1 = chain.levels[1].assignment
        assert lvl1[eset([1], 3)] == 3
        assert lvl1[eset([2], 3)] == 1
        assert lvl1[eset([3], 3)] == 1
        # element deficits are b = (1, 0, 0) against a level total of 2,
        # so the child dropping the second element gains 1/2
        g12 = chain.covers[2][eset([1, 2], 3)].weights
        assert g12[eset([1], 3)] == F(3, 2)
        assert g12[eset([2], 3)] == 1

    def test_two_encoder_base_cover(self):
        chain = yz_chain((3, 2))
        g = chain.covers[2][eset([1, 2], 2)].weights
        assert g[eset([1], 2)] == F(3, 2)
        assert g[eset([2], 2)] == 1
        assert chain.levels[2].assignment[eset([1, 2], 2)] == 2

    def test_unsorted_weights_permute_back(self):
        chain = yz_chain((1, 5, 1))
        lvl2 = chain.levels[2].assignment
        assert lvl2[eset([1, 2], 3)] == 1
        assert lvl2[eset([2, 3], 3)] == 1
        assert lvl2[eset([1, 3], 3)] == 0

    @pytest.mark.parametrize(
        "lam",
        [
            (100, 50, 1, 1, 1),
            (1000, 100, 10, 1),
            (5, 5, 1, 1),
            (1, 1, 0),
            (0, 0, 0, 0),
            (2, 1, 1),
            (F(3, 2), 1, F(1, 2), F(1, 2)),
            (64, 32, 16, 8, 4, 2, 1, 1),
        ],
    )
    def test_hard_weight_vectors(self, lam):
        # nested dominance, ties, zeros, and boundary ratios
        assert verify_chain(yz_chain(lam)).ok

    def test_random_chains_verify(self):
        rng = random.Random(20260809)
        seen = set()
        for _ in range(40):
            L = rng.randint(2, 6)
            lam = rand_lambda(rng, L)
            chain = yz_chain(lam)
            assert verify_chain(chain).ok, lam
            seen.update(c for _, c in chain.case_events)
        assert {CASE_1, CASE_2, CASE_3} <= seen

    def test_case_dispatch_total_and_exclusive(self):
        # sorted weights with positive level value fall into exactly one case
        rng = random.Random(3)
        for _ in range(200):
            L = rng.randint(2, 6)
            alpha = rng.randint(2, L)
            lam = sorted(
                (F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(L)),
                reverse=True,
            )
            if lam[alpha - 1] <= 0:
                continue
            top, rest = lam[0], sum(lam[1:])
            one = top <= rest / (alpha - 1)
            two = alpha >= 3 and top > rest / (alpha - 2)
            three = (rest / (alpha - 1) < top) and (
                alpha == 2 or top <= rest / (alpha - 2)
            )
            assert one + two + three == 1


class TestCovers:
    def test_uniform_cover_verifies(self):
        u = eset([1, 2, 3], 4)
        g = FractionalCover(
            parent=u, weights={v: F(1, 2) for v in u.children()}
        )
        assert verify_cover(g)

    def test_zero_cover_fails(self):
        u = eset([1, 2, 3], 4)
        g = FractionalCover(parent=u, weights={v: F(0) for v in u.children()})
        assert not verify_cover(g)

    def test_foreign_children_fail(self):
        u = eset([1, 2], 3)
        g = FractionalCover(parent=u, weights={eset([3], 3): F(1)})
        assert not verify_cover(g)

    def test_window_obstruction(self):
        # a window's two in-family children each need weight >= 1, so the
        # reconstructed child value exceeds what the window chain demands
        for L in range(4, 8):
            for alpha in range(3, L):
                parent_value = F(1, alpha)
                child_value = F(1, alpha - 1)
                as_reconstructed = 2 * parent_value
                assert as_reconstructed > child_value
                u = window(1, alpha, L)
                in_family = [window(1, alpha - 1, L), window(2, alpha - 1, L)]
                g = FractionalCover(
                    parent=u, weights={v: F(1) for v in in_family}
                )
                assert verify_cover(g)
                low = FractionalCover(
                    parent=u,
                    weights={in_family[0]: F(1), in_family[1]: F(1, 2)},
                )
                assert not verify_cover(low)


class TestConditionalChain:
    def test_three_encoders_one_adversary(self):
        cond = conditional_chain((1, 1, 1), 1)
        top = cond.split[2]
        u12 = eset([1, 2], 3)
        assert top[u12] == {eset([3], 3): F(1, 2)}
        bottom = cond.split[1]
        u1 = eset([1], 3)
        assert bottom[u1] == {eset([2], 3): F(1, 2), eset([3], 3): F(1, 2)}
        assert sum(bottom[u1].values()) == 1

    def test_zero_adversaries_collapse_to_chain(self):
        lam = (2, 1, 1)
        cond = conditional_chain(lam, 0)
        chain = yz_chain(lam)
        empty = EncoderSet((), 3)
        for alpha in range(1, 4):
            for u, parts in cond.split[alpha].items():
                assert set(parts) == {empty}
                assert parts[empty] == chain.levels[alpha].assignment[u]

    def test_max_adversaries_single_level(self):
        lam = (F(3), F(1), F(2))
        cond = conditional_chain(lam, 2)
        assert set(cond.split) == {1}
        for u, parts in cond.split[1].items():
            a = u.complement()
            assert parts == {a: lam[u.members[0] - 1]}

    @pytest.mark.parametrize(
        "lam,n",
        [((1, 1, 0), 1), ((1, 0, 0), 1), ((1, 0, 0), 2), ((2, 0, 1, 0), 2)],
    )
    def test_vanished_levels(self, lam, n):
        # weights whose upper levels carry no mass exercise the restart path
        assert verify_conditional(conditional_chain(lam, n)).ok

    def test_structural_sweep(self):
        rng = random.Random(99)
        for _ in range(15):
            L = rng.randint(2, 5)
            n = rng.randint(0, min(2, L - 1))
            lam = rand_lambda(rng, L)
            cond = conditional_chain(lam, n)
            assert verify_conditional(cond).ok

    def test_bad_n(self):
        with pytest.raises(ValueError):
            conditional_chain((1, 1), 2)


class TestLpFree:
    @pytest.fixture(autouse=True)
    def _no_lp(self, monkeypatch):
        import smdc.region as region

        def refuse(*args, **kwargs):
            raise AssertionError("chain construction reached the LP")

        monkeypatch.setattr(region, "solve_max", refuse)
        monkeypatch.setattr(region, "feasible", refuse)

    @pytest.mark.parametrize(
        "lam",
        [(0,), (3,), (0, 0, 0), (1, 0, 0), (0, 2, 0, 1), (2, 0, 1, 0, 5), (1, 1, 0)],
    )
    def test_chains_with_zero_weights(self, lam):
        chain = yz_chain(lam)
        assert verify_chain(chain).ok
        # levels above the positive count vanish and carry no covers
        p = sum(1 for x in lam if x)
        assert all(chain.levels[a].total == 0 for a in range(p + 1, len(lam) + 1))
        assert all(a <= p for a in chain.covers)
        for n in range(len(lam)):
            assert verify_conditional(conditional_chain(lam, n)).ok

    def test_random_chains(self):
        rng = random.Random(41)
        for _ in range(20):
            L = rng.randint(1, 6)
            lam = rand_lambda(rng, L)
            assert verify_chain(yz_chain(lam)).ok
            assert verify_conditional(conditional_chain(lam, rng.randrange(L))).ok

    @pytest.mark.parametrize("L", range(1, 7))
    def test_han_chain(self, L):
        assert verify_chain(han_chain(L)).ok


class TestSerialization:
    def test_golden_format(self):
        assert cov.chain_to_text(han_chain(2)) == (
            "smdc-chain 1\n"
            "lambda 1/2 1/2\n"
            "c 1 1 1/2\n"
            "c 1 2 1/2\n"
            "c 2 1,2 1/2\n"
            "g 2 1,2 1 1\n"
            "g 2 1,2 2 1\n"
        )

    def test_chain_round_trip(self):
        chain = yz_chain((3, 1, 1))
        text = chain_to_text(chain)
        back = chain_from_text(text)
        assert back.weights == chain.weights
        for alpha in chain.levels:
            assert back.levels[alpha].assignment == chain.levels[alpha].assignment
        for alpha in chain.covers:
            for u in chain.covers[alpha]:
                assert (
                    back.covers[alpha][u].weights
                    == chain.covers[alpha][u].weights
                )
        assert verify_chain(back).ok

    def test_conditional_round_trip(self):
        cond = conditional_chain((2, 1, 1), 1)
        back = conditional_from_text(conditional_to_text(cond))
        assert back.split == cond.split
        assert verify_conditional(back).ok

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            chain_from_text("not a chain\n")
        with pytest.raises(ValueError):
            chain_from_text("smdc-chain 1\nlambda 1 1\nq nonsense\n")

    def test_detects_tampered_level(self):
        chain = yz_chain((1, 1, 1))
        text = chain_to_text(chain).replace("c 2 1,2 1/2", "c 2 1,2 2/3")
        assert not verify_chain(chain_from_text(text)).ok
