import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

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
from smdc.region import SubsetCoefficients, audit_level, f_alpha
from smdc.subsets import MAX_CHAIN_GROUND, EncoderSet, subsets_of_size, window

from oracles import (
    fraction_audit_level,
    fraction_case3,
    fraction_level_coefficients,
    fraction_push,
    fraction_reconstruct,
    fraction_verify_cover,
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
                u = window(1, alpha, L)
                in_family = [window(1, alpha - 1, L), window(2, alpha - 1, L)]
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


def fraction_descent():
    """The chain builders on the `Fraction` descent and push."""
    return mock.patch.multiple(
        cov, _case3=fraction_case3, _reconstruct=fraction_reconstruct, _push=fraction_push
    )


def dict_orders(chain):
    """Every level and cover dict of a chain, as lists in insertion order."""
    levels = [(a, list(c.assignment.items())) for a, c in chain.levels.items()]
    covers = [
        (a, [(u, list(gu.items())) for u, gu in per_u.items()])
        for a, per_u in chain.covers.items()
    ]
    return levels, covers


class TestIntegerDescent:
    """The descent on shared integer cover weights and the integer push must
    give the `Fraction` descent's chains exactly, in the same dict order."""

    def test_chains_match_the_fraction_descent(self):
        rng = random.Random(2011)
        cases = set()
        for _ in range(50):
            L = rng.randint(1, 7)
            lam = tied_lambda(rng, L)
            chain = yz_chain(lam)
            with fraction_descent():
                ref = yz_chain(lam)
            assert chain_to_text(chain) == chain_to_text(ref)
            assert dict_orders(chain) == dict_orders(ref)
            assert chain.case_events == ref.case_events
            cases.update(case for _, case in chain.case_events)
            for n in range(L):
                got = conditional_chain(lam, n)
                with fraction_descent():
                    want = conditional_chain(lam, n)
                assert conditional_to_text(got) == conditional_to_text(want)
                assert [
                    (a, [(u, list(parts.items())) for u, parts in per_u.items()])
                    for a, per_u in got.split.items()
                ] == [
                    (a, [(u, list(parts.items())) for u, parts in per_u.items()])
                    for a, per_u in want.split.items()
                ]
                for alpha in got.split:
                    coeffs = got.level_coefficients(alpha).assignment
                    assert list(coeffs.items()) == list(
                        fraction_level_coefficients(got, alpha).items()
                    )
        assert cases == {CASE_BASE, CASE_1, CASE_2, CASE_3}

    @pytest.mark.parametrize(
        "lam,n", [((1, 1, 0), 1), ((1, 0, 0), 2), ((2, 0, 1, 0), 2), ((0, 0, 3, 3), 1)]
    )
    def test_restart_on_a_vanished_level(self, lam, n):
        got = conditional_chain(lam, n)
        with fraction_descent():
            want = conditional_chain(lam, n)
        assert conditional_to_text(got) == conditional_to_text(want)

    def test_level_total_must_be_positive(self):
        ground = (1, 2, 3)
        lam = {1: F(1), 2: F(1), 3: F(1)}
        for case3 in (cov._case3, fraction_case3):
            with pytest.raises(AssertionError, match="positive level total"):
                case3(lam, ground, 2, {1 << 1 | 1 << 2: F(0)})


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
