import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smdc
import smdc.covers as cov
from smdc.covers import (
    CASE_1,
    CASE_2,
    CASE_3,
    CASE_BASE,
    ConditionalAssignment,
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
from smdc.entropy import JointPMF, check_conditional_yz
from smdc.region import SubsetCoefficients, audit_level, f_alpha
from smdc.subsets import MAX_CHAIN_GROUND, EncoderSet, subsets_of_size, windows

from oracles import (
    complement,
    fraction_audit_level,
    fraction_case3,
    fraction_conditional_chain,
    fraction_verify_cover,
    fraction_yz_chain,
)

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
            chain.covers[2][u][eset([1], 3)]
            * chain.levels[2].assignment[u]
            for u in (eset([1, 2], 3), eset([1, 3], 3))
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
        g12 = chain.covers[2][eset([1, 2], 3)]
        assert g12[eset([1], 3)] == F(3, 2)
        assert g12[eset([2], 3)] == 1

    def test_two_encoder_base_cover(self):
        chain = yz_chain((3, 2))
        g = chain.covers[2][eset([1, 2], 2)]
        assert g[eset([1], 2)] == F(3, 2)
        assert g[eset([2], 2)] == 1
        assert chain.levels[2].assignment[eset([1, 2], 2)] == 2

    def test_unsorted_weights_permute_back(self):
        chain = yz_chain((1, 5, 1))
        lvl2 = chain.levels[2].assignment
        assert lvl2[eset([1, 2], 3)] == 1
        assert lvl2[eset([2, 3], 3)] == 1
        assert lvl2[eset([1, 3], 3)] == 0

    def test_levels_keep_the_descents_order(self):
        # the descent lists each family in combinations order along the
        # encoders sorted by weight, (2, 4, 1, 3) here, and drops a
        # parent's members in reverse of that order; check_yz sums each
        # level in its dict's order
        chain = yz_chain((1, 5, 1, 2))
        order = {a: [u.members for u in c.assignment] for a, c in chain.levels.items()}
        assert order == {
            4: [(1, 2, 3, 4)],
            3: [(1, 2, 4), (2, 3, 4), (1, 2, 3), (1, 3, 4)],
            2: [(2, 4), (1, 2), (2, 3), (1, 4), (3, 4), (1, 3)],
            1: [(2,), (4,), (1,), (3,)],
        }
        for a, per_u in chain.covers.items():
            assert [u.members for u in per_u] == order[a]
        children = chain.covers[3][eset([1, 2, 4], 4)]
        assert [v.members for v in children] == [(2, 4), (1, 2), (1, 4)]

    @pytest.mark.parametrize("lam", [(1, 5, 1, 2), (0, 3, 3, 1, 0), (9, 1, 1, 1, 1)])
    def test_sets_are_the_shared_family_objects(self, lam):
        chain = yz_chain(lam)
        L = len(lam)
        family = {u.mask: u for a in range(1, L + 1) for u in subsets_of_size(L, a)}
        for coeffs in chain.levels.values():
            assert all(family[u.mask] is u for u in coeffs.assignment)
        for per_u in chain.covers.values():
            for u, gu in per_u.items():
                assert family[u.mask] is u
                assert all(family[v.mask] is v for v in gu)

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


# a child that would enumerate a chain past the ground cap dies at this
# address-space limit or the timeout, not by exhausting the host's memory
CHILD_MEMORY = 1 << 30
CHILD_TIMEOUT_S = 60


def run_capped(*argv):
    """`python *argv` in a child with the address space capped."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    env = {**os.environ, "PYTHONPATH": str(Path(smdc.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *argv], env=env, preexec_fn=cap,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


class TestGroundCap:
    """25 weights are past `MAX_ENUMERATION_GROUND`: the chain would hold
    25 * 2^24 cover entries, so every builder and command that makes one
    refuses at once."""

    WEIGHTS = ",".join(["1"] * 25)

    @pytest.mark.parametrize(
        "build",
        ["yz_chain([1] * 25)", "han_chain(25)", "conditional_chain([1] * 25, 1)"],
    )
    def test_builders_refuse_at_once(self, build):
        got = run_capped("-c", f"""
import time
from smdc.covers import *
start = time.perf_counter()
try:
    {build}
except ValueError as err:
    print(time.perf_counter() - start, err)
""")
        assert got.returncode == 0, got.stderr
        elapsed, message = got.stdout.split(" ", 1)
        assert float(elapsed) < 1
        assert "ground size must be in 1..24, got 25" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["covers", "han", "--encoders", "25"],
            ["covers", "chain", "--weights", WEIGHTS],
            ["covers", "conditional", "--weights", WEIGHTS, "--n", "1"],
            ["entropy", "check", "--which", "yz", "--alpha", "2", "--weights", WEIGHTS],
            ["entropy", "check", "--which", "cyz", "--alpha", "2", "--weights", WEIGHTS],
            ["entropy", "check", "--which", "mt", "--u", "1,2", "--weights", WEIGHTS],
        ],
    )
    def test_commands_exit_3(self, tmp_path, argv):
        if argv[0] == "entropy":
            pmf = tmp_path / "p.pmf"
            pmf.write_text("3 2 2 2\n0 0 0 1/2\n1 1 1 1/2\n")
            argv = [*argv, "--pmf", str(pmf)]
        cli = "import sys; from smdc.cli import main; sys.exit(main(sys.argv[1:]))"
        got = run_capped("-c", cli, *argv)
        assert got.returncode == 3, got.stderr
        assert got.stdout == "" and got.stderr.startswith("error:")
        assert "Traceback" not in got.stderr


class TestChainCap:
    """One weight past `MAX_CHAIN_GROUND` the ground is still enumerable,
    but the chain's L * 2^(L-1) cover entries would not fit in the child's
    1 GB, so every builder and command that makes one refuses at once."""

    L = MAX_CHAIN_GROUND + 1
    WEIGHTS = ",".join(["1"] * L)
    MESSAGE = f"chains support at most L={MAX_CHAIN_GROUND}"

    @pytest.mark.parametrize(
        "build",
        ["yz_chain([1] * L)", "han_chain(L)", "conditional_chain([1] * L, 1)"],
    )
    def test_builders_refuse_at_once(self, build):
        got = run_capped("-c", f"""
import time
from smdc.covers import *
L = {self.L}
start = time.perf_counter()
try:
    {build}
except ValueError as err:
    print(time.perf_counter() - start, err)
""")
        assert got.returncode == 0, got.stderr
        elapsed, message = got.stdout.split(" ", 1)
        assert float(elapsed) < 1
        assert self.MESSAGE in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["covers", "han", "--encoders", str(L)],
            ["covers", "chain", "--weights", WEIGHTS],
            ["covers", "conditional", "--weights", WEIGHTS, "--n", "1"],
            ["entropy", "check", "--which", "yz", "--alpha", "2", "--weights", WEIGHTS],
            ["entropy", "check", "--which", "cyz", "--alpha", "2", "--weights", WEIGHTS],
            ["entropy", "check", "--which", "mt", "--u", "1,2", "--weights", WEIGHTS],
        ],
    )
    def test_commands_exit_3(self, tmp_path, argv):
        if argv[0] == "entropy":
            # a pmf on L binary variables, so the weights match it
            pmf = tmp_path / "p.pmf"
            zeros, ones = " ".join(["0"] * self.L), " ".join(["1"] * self.L)
            pmf.write_text(f"{self.L} {' '.join(['2'] * self.L)}\n"
                           f"{zeros} 1/2\n{ones} 1/2\n")
            argv = [*argv, "--pmf", str(pmf)]
        cli = "import sys; from smdc.cli import main; sys.exit(main(sys.argv[1:]))"
        got = run_capped("-c", cli, *argv)
        assert got.returncode == 3, got.stderr
        assert got.stdout == "" and got.stderr.startswith("error:")
        assert self.MESSAGE in got.stderr
        assert "Traceback" not in got.stderr


class TestCovers:
    def test_uniform_cover_verifies(self):
        u = eset([1, 2, 3], 4)
        assert verify_cover(u, dict.fromkeys(u.children(), F(1, 2)))

    def test_zero_cover_fails(self):
        u = eset([1, 2, 3], 4)
        assert not verify_cover(u, dict.fromkeys(u.children(), F(0)))

    def test_foreign_children_fail(self):
        u = eset([1, 2], 3)
        assert not verify_cover(u, {eset([3], 3): F(1)})

    def test_window_obstruction(self):
        # a window's two in-family children each need weight >= 1, so the
        # reconstructed child value exceeds what the window chain demands
        for L in range(4, 8):
            for alpha in range(3, L):
                parent_value = F(1, alpha)
                child_value = F(1, alpha - 1)
                as_reconstructed = 2 * parent_value
                assert as_reconstructed > child_value
                u = windows(L, alpha)[0]
                in_family = windows(L, alpha - 1)[:2]
                assert verify_cover(u, dict.fromkeys(in_family, F(1)))
                low = {in_family[0]: F(1), in_family[1]: F(1, 2)}
                assert not verify_cover(u, low)


@st.composite
def cover_cases(draw):
    """Covers near the covering bound: weights k/d for small d, a few
    negative, and now and then a non-child or a child on another ground."""
    L = draw(st.integers(2, 6))
    alpha = draw(st.integers(2, L))
    u = draw(st.sampled_from(subsets_of_size(L, alpha)))
    d = draw(st.sampled_from([1, alpha - 1, 2 * (alpha - 1), 6]))
    weights = {}
    for v in u.children():
        if draw(st.integers(0, 5)):
            weights[v] = F(draw(st.integers(-1, 2 * d)), d)
    extra = draw(st.sampled_from([None] * 4 + ["stranger", "ground"]))
    if extra == "stranger":
        weights[draw(st.sampled_from(subsets_of_size(L, alpha - 1)))] = F(1)
    elif extra == "ground":
        weights[EncoderSet(u.children()[0].members, L + 1)] = F(1)
    return u, weights


class TestIntegerAudits:
    """The integer-numerator audits give the verdicts and failure lists of
    their Fraction-per-step references."""

    @settings(max_examples=300, deadline=None)
    @given(cover_cases())
    def test_cover_verdicts_match_reference(self, case):
        assert verify_cover(*case) == fraction_verify_cover(*case)

    @pytest.mark.parametrize("d", [1, 3, 7, 10**30])
    def test_cover_bound_is_exact(self, d):
        u = eset([1, 2, 3, 4], 6)
        weights = {v: F(1, 3) for v in u.children()}  # every element covered exactly 1
        assert verify_cover(u, weights)
        weights[u.children()[1]] -= F(1, d)  # three elements drop to 1 - 1/d
        for check in (verify_cover, fraction_verify_cover):
            assert not check(u, weights)

    def test_cover_rejections(self):
        u = eset([1, 2, 3], 4)
        big = {v: F(5) for v in u.children()}
        cases = [
            {**big, eset([1, 2], 4): F(-1)},        # negative weight
            {**big, eset([1, 4], 4): F(1)},         # not a child of u
            {**big, EncoderSet((1, 2), 5): F(1)},   # a child on another ground
        ]
        assert verify_cover(u, big)
        for weights in cases:
            for check in (verify_cover, fraction_verify_cover):
                assert not check(u, weights)

    def test_singleton_parent_raises(self):
        for check in (verify_cover, fraction_verify_cover):
            with pytest.raises(ValueError):
                check(eset([2], 3), {})

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3])),
                 min_size=1, max_size=6),
        st.data(),
    )
    def test_level_failures_match_reference(self, lam, data):
        alpha = data.draw(st.integers(1, len(lam)))
        assignment = dict(f_alpha(lam, alpha).assignment)
        if data.draw(st.booleans()):
            # any alpha-subset: the packing lists only its positive ones,
            # and none at all when every weight is zero
            u = data.draw(st.sampled_from(subsets_of_size(len(lam), alpha)))
            delta = F(data.draw(st.integers(-3, 3)), data.draw(st.sampled_from([1, 4, 9])))
            assignment[u] = assignment.get(u, F(0)) + delta
        coeffs = SubsetCoefficients(assignment)
        assert audit_level(lam, alpha, coeffs) == fraction_audit_level(lam, alpha, coeffs)

    def test_parent_sums_reject_a_foreign_subset(self):
        chain = han_chain(3)
        u = eset([1, 2], 3)
        chain.covers[2][u][eset([1, 3], 3)] = F(0)  # a level-2 set, not a child
        assert verify_chain(chain).failures == [
            "descent 2: invalid cover at {1,2}",
            "descent 2: parent-sum identity fails",
        ]

    def test_a_shared_verdict_still_checks_each_covers_children(self):
        # every level-3 cover of the uniform chain holds the same weights,
        # so their covering sums agree; a swapped child in a later cover
        # must still fail on its own
        chain = han_chain(4)
        weights = chain.covers[3][eset([1, 2, 4], 4)]
        weights[eset([1, 3], 4)] = weights.pop(eset([1, 2], 4))
        assert verify_chain(chain).failures == [
            "descent 3: invalid cover at {1,2,4}",
            "descent 3: parent-sum identity fails",
        ]

    def test_each_parent_of_a_shared_weight_vector_is_checked(self):
        # every level-3 cover of the uniform chain holds one weight vector,
        # checked once; two parents whose child masks are wrong are each
        # reported, and no other
        chain = han_chain(5)
        per_u = chain.covers[3]
        assert len({tuple(gu.values()) for gu in per_u.values()}) == 1
        for parent, child, foreign in (([1, 2, 3], [1, 2], [1, 4]), ([2, 4, 5], [4, 5], [1, 2])):
            weights = per_u[eset(parent, 5)]
            weights[eset(foreign, 5)] = weights.pop(eset(child, 5))
        assert verify_chain(chain).failures == [
            "descent 3: invalid cover at {1,2,3}",
            "descent 3: invalid cover at {2,4,5}",
            "descent 3: parent-sum identity fails",
        ]

    def test_each_subset_of_a_shared_split_is_checked(self):
        # with equal weights every level-2 subset splits the same way over
        # its adversary sets; two subsets whose adversary masks are wrong
        # are each reported, and no other
        cond = conditional_chain((1, 1, 1, 1), 1)
        level = cond.split[2]
        assert len({tuple(parts.values()) for parts in level.values()}) == 1
        parts = level[eset([1, 2], 4)]
        parts[eset([2], 4)] = parts.pop(eset([3], 4))
        parts = level[eset([3, 4], 4)]
        parts[eset([1, 2], 4)] = parts.pop(eset([1], 4))
        assert verify_conditional(cond).failures == [
            "level 2: adversary overlaps {1,2}",
            "level 2: adversary size != 1 at {3,4}",
        ]

    def test_a_set_over_another_ground_takes_no_native_sets_place(self):
        # {1,2} over four encoders has the mask of {1,2} over three, and
        # fails the family, cover, identity and adversary checks it meets
        chain = han_chain(3)
        level = chain.levels[2].assignment
        level[EncoderSet((1, 2), 4)] = level.pop(eset([1, 2], 3))
        assert verify_chain(chain).failures == [
            "level 2: wrong subset family",
            "descent 2: no cover at {1,2}",
            "descent 3: parent-sum identity fails",
            "descent 2: parent-sum identity fails",
        ]
        chain = han_chain(3)
        weights = chain.covers[3][eset([1, 2, 3], 3)]
        weights[EncoderSet((1, 2), 4)] = weights.pop(eset([1, 2], 3))
        assert verify_chain(chain).failures == [
            "descent 3: invalid cover at {1,2,3}",
            "descent 3: parent-sum identity fails",
        ]
        cond = conditional_chain((1, 1, 1), 1)
        parts = cond.split[2][eset([1, 2], 3)]
        parts[EncoderSet((3,), 4)] = parts.pop(eset([3], 3))
        assert verify_conditional(cond).failures == ["level 2: adversary size != 1 at {1,2}"]

    @pytest.mark.parametrize("d", [1, 5, 10**30])
    def test_capacity_bound_is_exact(self, d):
        lam = (F(2), F(1), F(1))
        full = {eset([1, 2], 3): F(1), eset([1, 3], 3): F(1), eset([2, 3], 3): F(0)}
        coeffs = SubsetCoefficients(full)
        assert audit_level(lam, 2, coeffs) == []  # every load equals its capacity
        over = dict(full)
        over[eset([1, 3], 3)] += F(1, d)
        coeffs = SubsetCoefficients(over)
        failures = [
            "level 2: capacity exceeded at encoder 1",
            "level 2: capacity exceeded at encoder 3",
            "level 2: total differs from the optimum",
        ]
        assert audit_level(lam, 2, coeffs) == failures
        assert fraction_audit_level(lam, 2, coeffs) == failures


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
            a = complement(u)
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

    @pytest.mark.parametrize("lam,n", [([], 0), ((1, -1), 5)])
    def test_weights_are_checked_before_n(self, lam, n):
        with pytest.raises(ValueError, match="weights must be nonempty and nonnegative"):
            conditional_chain(lam, n)


def tied_lambda(rng, L):
    """Weights from a few values, so that zeros and ties are common; a
    dominant weight now and then drives the recursive case."""
    values = [F(0), F(0)] + [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3)]
    lam = [rng.choice(values) for _ in range(L)]
    if rng.random() < 0.3:
        lam[rng.randrange(L)] = F(rng.randint(10, 60))
    return lam


def dict_orders(chain):
    """Every level and cover dict of a chain, as lists in insertion order."""
    levels = [(a, list(c.assignment.items())) for a, c in chain.levels.items()]
    covers = [
        (a, [(u, list(gu.items())) for u, gu in per_u.items()])
        for a, per_u in chain.covers.items()
    ]
    return levels, covers


def split_orders(cond):
    """Every level and adversary dict of a split, as lists in insertion order."""
    return [
        (a, [(u, list(parts.items())) for u, parts in per_u.items()])
        for a, per_u in cond.split.items()
    ]


def corrupt_first_call(monkeypatch, name, change):
    """Wrap the builders' step `name` so that `change` alters what its
    first call returns, whatever its arguments."""
    real, calls = getattr(cov, name), []

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        if not calls:
            change(out)
        calls.append(name)
        return out

    monkeypatch.setattr(cov, name, wrapped)


class TestIntegerDescent:
    """The builders on the integer core must give the standalone `Fraction`
    builders' chains exactly, in the same dict order."""

    def test_chains_match_the_fraction_descent(self):
        rng = random.Random(2011)
        cases = set()
        for _ in range(50):
            L = rng.randint(1, 7)
            lam = tied_lambda(rng, L)
            chain = yz_chain(lam)
            ref = fraction_yz_chain(lam)
            assert chain_to_text(chain) == chain_to_text(ref)
            assert dict_orders(chain) == dict_orders(ref)
            assert chain.case_events == ref.case_events
            cases.update(case for _, case in chain.case_events)
            for n in range(L):
                got = conditional_chain(lam, n)
                want = fraction_conditional_chain(lam, n)
                assert conditional_to_text(got) == conditional_to_text(want)
                assert split_orders(got) == split_orders(want)
        assert cases == {CASE_BASE, CASE_1, CASE_2, CASE_3}

    @pytest.mark.parametrize(
        "lam,n", [((1, 1, 0), 1), ((1, 0, 0), 2), ((2, 0, 1, 0), 2), ((0, 0, 3, 3), 1)]
    )
    def test_restart_on_a_vanished_level(self, lam, n):
        got, want = conditional_chain(lam, n), fraction_conditional_chain(lam, n)
        assert conditional_to_text(got) == conditional_to_text(want)
        assert split_orders(got) == split_orders(want)

    def test_level_total_must_be_positive(self, monkeypatch):
        # level 2 zeroed inside the descent: its shifted cover has no total
        # to scale by
        corrupt_first_call(monkeypatch, "_reconstruct", lambda out: out[0].update(
            dict.fromkeys(out[0], 0)))
        with pytest.raises(AssertionError, match="positive level total"):
            yz_chain((1, 1, 1))
        with pytest.raises(AssertionError, match="positive level total"):
            fraction_case3({1: F(1), 2: F(1), 3: F(1)}, (1, 2, 3), 2, {1 << 1 | 1 << 2: F(0)})


class TestInternalAudit:
    """The builders audit their integer core before anything is returned:
    one cover weight or one level count changed inside the descent fails
    it, and the failures name the level or descent."""

    BUILDERS = [yz_chain, lambda lam: conditional_chain(lam, 1)]

    @staticmethod
    def first(mapping):
        return next(iter(mapping))

    @pytest.mark.parametrize("build", BUILDERS, ids=["yz", "conditional"])
    def test_a_cover_weight(self, monkeypatch, build):
        def lower(out):
            covers, _ = out
            gu = covers[self.first(covers)]
            gu[self.first(gu)] -= 1

        corrupt_first_call(monkeypatch, "_case3", lower)
        with pytest.raises(AssertionError) as err:
            build((1, 1, 1, 1))
        message = str(err.value)
        assert message.startswith("chain fails its audit: ")
        assert "descent 4: invalid cover at {1,2,3,4}" in message

    @pytest.mark.parametrize("build", BUILDERS, ids=["yz", "conditional"])
    def test_a_level_count(self, monkeypatch, build):
        def raise_one(out):
            level, _ = out
            level[self.first(level)] += 1

        corrupt_first_call(monkeypatch, "_reconstruct", raise_one)
        with pytest.raises(AssertionError) as err:
            build((1, 1, 1, 1))
        message = str(err.value)
        assert message.startswith("chain fails its audit: ")
        assert "level 3: total differs from the optimum" in message
        assert "descent 4: parent-sum identity fails" in message

    def test_a_split_count(self, monkeypatch):
        def raise_one(split):
            per_u, _ = split[1]
            parts = per_u[self.first(per_u)]
            parts[self.first(parts)] += 1

        corrupt_first_call(monkeypatch, "_push", raise_one)
        with pytest.raises(AssertionError) as err:
            conditional_chain((1, 1, 1, 1), 1)
        assert str(err.value) == (
            "conditional chain fails its audit: level 1: capacity exceeded at encoder 1; "
            "level 1: total differs from the optimum"
        )


class TestShapeTables:
    """What a build touches that depends on L alone comes from tables built
    once: the families of rank masks with their children, and every
    subset's shared set.  A table of more than MAX_SHARED_FAMILY subsets is
    built for the call and dropped, with the same chain."""

    @pytest.mark.parametrize("n", range(0, 7))
    def test_families_run_in_the_descents_order(self, n):
        bits = [1 << i for i in range(n, 0, -1)]
        for alpha in range(0, n + 2):
            want = {sum(c): tuple(sum(c) ^ b for b in reversed(c))
                    for c in combinations(bits, alpha)}
            got = cov._family(n, alpha)
            assert list(got.items()) == list(want.items())

    def test_the_tables_stay_within_the_cap(self):
        for L in range(1, 9):
            lam = [F(l % 4 + 1, 1 + l % 3) for l in range(L)]
            verify_chain(yz_chain(lam))
            conditional_chain(lam, L // 2)
        assert all(len(f) <= cov.MAX_SHARED_FAMILY for f in cov._FAMILIES.values())
        assert all(1 << L <= cov.MAX_SHARED_FAMILY for L in cov._SETS)
        assert (8, 4) in cov._FAMILIES and 8 in cov._SETS

    @pytest.mark.parametrize("lam", [(1, 5, 1, 2, 3, 1), (9, 1, 1, 1, 1, 1), (0, 2, 0, 1, 3, 1)])
    def test_past_the_cap_nothing_is_kept_and_the_chain_is_the_same(self, monkeypatch, lam):
        want = chain_to_text(yz_chain(lam))
        want_cond = [conditional_to_text(conditional_chain(lam, n)) for n in range(len(lam))]
        monkeypatch.setattr(cov, "MAX_SHARED_FAMILY", 4)
        monkeypatch.setattr(cov, "_FAMILIES", {})
        monkeypatch.setattr(cov, "_SETS", {})
        chain = yz_chain(lam)
        assert chain_to_text(chain) == want
        assert verify_chain(chain).ok
        for n in range(len(lam)):
            cond = conditional_chain(lam, n)
            assert conditional_to_text(cond) == want_cond[n]
            assert verify_conditional(cond).ok
        assert all(len(f) <= 4 for f in cov._FAMILIES.values())
        assert (6, 3) not in cov._FAMILIES and not cov._SETS


class TestLpFree:
    @pytest.fixture(autouse=True)
    def _no_lp(self, monkeypatch):
        import smdc.region as region

        def refuse(*args, **kwargs):
            raise AssertionError("chain construction reached the LP")

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

    def test_golden_conditional_format(self):
        # zero split weights stay in the file as keys of every child
        assert conditional_to_text(conditional_chain((1, 1, 0), 1)) == (
            "smdc-cond-chain 1\n"
            "lambda 1 1 0\n"
            "n 1\n"
            "s 1 1 2 0\n"
            "s 1 1 3 1\n"
            "s 1 2 1 0\n"
            "s 1 2 3 1\n"
            "s 1 3 1 0\n"
            "s 1 3 2 0\n"
            "s 2 1,2 3 1\n"
            "s 2 1,3 2 0\n"
            "s 2 2,3 1 0\n"
        )
        # level 2 vanishes with one positive weight: level 1 restarts from
        # its own optimum, on each subset's smallest adversary set
        assert conditional_to_text(conditional_chain((1, 0, 0), 1)) == (
            "smdc-cond-chain 1\n"
            "lambda 1 0 0\n"
            "n 1\n"
            "s 1 1 2 1\n"
            "s 1 1 3 0\n"
            "s 1 2 1 0\n"
            "s 1 2 3 0\n"
            "s 1 3 1 0\n"
            "s 1 3 2 0\n"
            "s 2 1,2 3 0\n"
            "s 2 1,3 2 0\n"
            "s 2 2,3 1 0\n"
        )

    def test_chain_round_trip(self):
        chain = yz_chain((3, 1, 1))
        text = chain_to_text(chain)
        back = chain_from_text(text)
        assert back.weights == chain.weights
        for alpha in chain.levels:
            assert back.levels[alpha].assignment == chain.levels[alpha].assignment
        assert back.covers == chain.covers
        assert verify_chain(back).ok

    def test_conditional_round_trip(self):
        cond = conditional_chain((2, 1, 1), 1)
        back = conditional_from_text(conditional_to_text(cond))
        assert back.split == cond.split
        assert verify_conditional(back).ok

    def test_verify_text_reads_either_kind(self):
        # the kind is read from the first nonblank line, as the readers do
        for lead in ("", "\n \n"):
            assert cov.verify_text(lead + chain_to_text(yz_chain((3, 1, 1)))).ok
            assert cov.verify_text(lead + conditional_to_text(conditional_chain((2, 1, 1), 1))).ok
        text = conditional_to_text(conditional_chain((1, 1, 1), 1))
        report = cov.verify_text(text.replace("s 1 1 2 ", "s 1 1 1 "))
        assert "level 1: adversary overlaps {1}" in report.failures

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            chain_from_text("not a chain\n")
        with pytest.raises(ValueError):
            chain_from_text("smdc-chain 1\nlambda 1 1\nq nonsense\n")

    @pytest.mark.parametrize(
        "record,kind",
        [("c 2 1,3 1", "c"), ("g 3 1,2,3 1,3 1", "g"), ("s 2 1,3 2 1", "s")],
    )
    def test_rejects_duplicate_records(self, record, kind):
        # the records are copies of lines already in the file: even an
        # equal second record is refused
        lam = (3, 2, 1)
        if kind == "s":
            text, parse = conditional_to_text(conditional_chain(lam, 1)), conditional_from_text
        else:
            text, parse = chain_to_text(yz_chain(lam)), chain_from_text
        assert record + "\n" in text
        with pytest.raises(ValueError, match=f"duplicate {kind} record"):
            parse(text + record + "\n")

    def test_detects_tampered_level(self):
        chain = yz_chain((1, 1, 1))
        text = chain_to_text(chain).replace("c 2 1,2 1/2", "c 2 1,2 2/3")
        assert not verify_chain(chain_from_text(text)).ok

    def test_a_weighted_parent_needs_a_cover(self, coverless_chain):
        text, failures = coverless_chain
        assert cov.verify_text(text).failures == failures


def _on_largest_adversary(text):
    """The conditional file with each level-1 subset's whole weight moved
    onto its largest adversary set: every subset keeps its total, so the
    level audit alone still passes."""
    cond = conditional_from_text(text)
    level = cond.split[1]
    for u, parts in level.items():
        top, total = max(parts, key=lambda a: a.members), sum(parts.values())
        level[u] = {a: total if a == top else F(0) for a in parts}
    return conditional_to_text(cond)


class TestConditionalDescent:
    """A conditional split carries no covers, so `verify_conditional`, and
    `verify_text` through it, checks its descent against the chain built
    for its weights and N."""

    BUILT = conditional_to_text(conditional_chain((1, 3, 3, 3), 1))

    @pytest.mark.parametrize("tamper,failures", [
        (_on_largest_adversary, [f"descent 1: adversary split at {{{e}}} is not the chain's"
                                 for e in (1, 2, 3, 4)]),
        (lambda text: text.replace("s 1 2 1 7/3", "s 1 2 1 1/3").replace(
            "s 1 2 3 1/3", "s 1 2 3 7/3"),
         ["descent 1: adversary split at {2} is not the chain's"]),
    ], ids=["largest-adversary", "swapped-pair"])
    def test_a_split_no_chain_builds_fails(self, tamper, failures):
        text = tamper(self.BUILT)
        assert text != self.BUILT
        assert verify_conditional(conditional_from_text(text)).failures == failures
        assert cov.verify_text(text).failures == failures

    def test_a_level_one_split_no_chain_builds_fails(self):
        # level 2 as built for (1, 1, 1) and N = 1, level 1 moved onto one
        # adversary set per subset: every level total holds, but with X1
        # and X2 independent fair bits and X3 = X1 the inequality fails
        built = conditional_chain((1, 1, 1), 1)
        moved = ConditionalAssignment(built.weights, 1, {
            2: built.split[2],
            1: {eset([1], 3): {eset([2], 3): F(0), eset([3], 3): F(1)},
                eset([2], 3): {eset([1], 3): F(1), eset([3], 3): F(0)},
                eset([3], 3): {eset([1], 3): F(1), eset([2], 3): F(0)}},
        })
        assert verify_conditional(moved).failures == [
            f"descent 1: adversary split at {{{e}}} is not the chain's" for e in (1, 2, 3)
        ]
        pmf = JointPMF([2] * 3, {(a, b, a): F(1, 4) for a in (0, 1) for b in (0, 1)})
        for split, lhs in ((built, 2.0), (moved, 1.0)):
            report = check_conditional_yz(pmf, split, 2)
            assert (report.lhs, report.rhs) == pytest.approx((lhs, 1.5), abs=1e-12)

    def test_the_moved_split_breaks_the_inequality(self):
        # X1 and X2 = X3 = X4, two independent fair bits
        pmf = JointPMF([2] * 4, {(a, b, b, b): F(1, 4) for a in (0, 1) for b in (0, 1)})
        built = conditional_from_text(self.BUILT)
        moved = conditional_from_text(_on_largest_adversary(self.BUILT))
        assert check_conditional_yz(pmf, built, 2).slack == pytest.approx(3.5, abs=1e-12)
        assert check_conditional_yz(pmf, moved, 2).slack == pytest.approx(-3.5, abs=1e-12)

    def test_zero_weight_records_are_ignored(self):
        # a subset's zero records may go, so long as it keeps a record
        cond = conditional_chain((3, 1, 1, 0), 1)
        text = conditional_to_text(cond)
        for per_u in cond.split.values():
            for u, parts in per_u.items():
                if any(parts.values()):
                    per_u[u] = {a: s for a, s in parts.items() if s}
        assert conditional_to_text(cond) != text
        assert cov.verify_text(conditional_to_text(cond)).ok

    def test_every_built_file_passes(self):
        rng = random.Random(22)
        for _ in range(60):
            L = rng.randint(2, 6)
            lam = [F(rng.choice((0, 0, 1, 2, 3, 5)), rng.randint(1, 3)) for _ in range(L)]
            lam[rng.randrange(L)] += 1
            n = rng.randint(0, L - 1)
            text = conditional_to_text(conditional_chain(lam, n))
            assert cov.verify_text(text).ok, (lam, n)

    def test_above_the_chain_cap_fails(self, monkeypatch):
        monkeypatch.setattr(cov, "MAX_CHAIN_GROUND", 3)
        assert cov.verify_text(self.BUILT).failures == [
            "descent: chains support at most L=3, got 4"
        ]
