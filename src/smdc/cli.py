"""Command-line front end.

Exit codes: 0 success (holds / member / recovered), 1 a checked property
fails (non-member or violated inequality, certificate printed), 2 usage
error, 3 data or format error.  Rationals are read with the grammar of
chain and pmf files (`exactlp.as_fraction`) and print exactly as p/q;
floats carry 12 significant digits.  `--json` wraps results in one envelope:
{"command", "inputs", "result", "certificate"?}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import covers as cov
from . import entropy as ent
from . import region as reg
from .codec import (
    SCHEME_SMDC,
    SCHEME_SMDCA,
    SCHEME_SSMDC,
    BundleFormatError,
    ShareBundle,
    key_bytes_needed,
    smdc_decode,
    smdc_encode,
    smdca_decode,
    smdca_encode,
    ssmdc_decode,
    ssmdc_encode,
)
from .exactlp import as_fraction, as_fractions
from .subsets import EncoderSet, format_subset

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_DATA = 3

SCHEMES = {"smdc": SCHEME_SMDC, "smdc-a": SCHEME_SMDCA, "s-smdc": SCHEME_SSMDC}
# the codec encode options that only one scheme reads, by dest
SCHEME_OPTIONS = {"r0_bytes": "smdc-a", "n": "s-smdc", "key_file": "s-smdc"}


def rational_list(text: str) -> tuple[Fraction, ...]:
    return as_fractions(text.split(","))


def index_list(text: str) -> tuple[int, ...]:
    if text.strip() == "-":
        return ()
    return tuple(int(part) for part in text.split(","))


def fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonify(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, EncoderSet):
        return format_subset(value)
    if isinstance(value, dict):
        return {str(_jsonify(k)): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def emit(args, result: dict, certificate: dict | None = None, text=None) -> None:
    if args.json:
        envelope = {
            "command": args.command_path,
            "inputs": {
                k: v
                for k, v in vars(args).items()
                if k not in ("func", "json", "command_path") and v is not None
                and not callable(v)
            },
            "result": _jsonify(result),
        }
        if certificate is not None:
            envelope["certificate"] = _jsonify(certificate)
        print(json.dumps(envelope, default=str))
    elif text is not None:
        for line in text:
            print(line)


# region ---------------------------------------------------------------------


def cmd_region_f(args) -> int:
    coeffs = reg.f_alpha(args.weights, args.alpha)
    lines = [f"f_{args.alpha} = {fmt(coeffs.total)}"]
    assignment = dict(sorted(coeffs.assignment.items(), key=lambda kv: kv[0].members))
    lines += [f"c {u} = {fmt(v)}" for u, v in assignment.items()]
    emit(args, {"total": coeffs.total, "assignment": assignment}, text=lines)
    return EXIT_OK


def cmd_region_profile(args) -> int:
    prof = reg.f_profile(args.weights)
    emit(
        args,
        {"profile": list(prof)},
        text=[" ".join(fmt(x) for x in prof)],
    )
    return EXIT_OK


def cmd_region_min_sum(args) -> int:
    value = reg.min_sum_rate(args.entropies)
    emit(args, {"min_sum_rate": value}, text=[fmt(value)])
    return EXIT_OK


def _emit_verdict(args, verdict) -> int:
    cert = None
    lines = []
    if verdict.member:
        lines.append("member")
        witness = {str(a): list(r) for a, r in verdict.witness.items()}
        result = {"member": True, "witness": witness}
    else:
        lines.append("non-member")
        cert = {"lambda": list(verdict.certificate)}
        if verdict.certificate_lambda0 is not None:
            cert["lambda0"] = verdict.certificate_lambda0
        if verdict.certificate_m is not None:
            cert["m"] = verdict.certificate_m
        lam = ",".join(fmt(x) for x in verdict.certificate)
        if verdict.certificate_lambda0 is not None:
            lines.append(
                f"certificate lambda0 = {fmt(verdict.certificate_lambda0)}"
                f" lambda = {lam} (m = {verdict.certificate_m})"
            )
        else:
            lines.append(f"certificate lambda = {lam}")
        result = {"member": False}
    emit(args, result, certificate=cert, text=lines)
    return EXIT_OK if verdict.member else EXIT_VIOLATED


def cmd_region_member(args) -> int:
    return _emit_verdict(args, reg.smdc_member(args.rates, args.entropies))


def cmd_region_member_a(args) -> int:
    return _emit_verdict(args, reg.smdca_member(args.r0, args.rates, args.entropies))


def cmd_region_member_s(args) -> int:
    return _emit_verdict(args, reg.ssmdc_member(args.rates, args.entropies, args.n))


def cmd_region_greedy(args) -> int:
    alloc = reg.greedy_allocation(args.r0, args.entropies)
    level = "all" if alloc.level is None else str(alloc.level)
    lines = [
        f"q = {level}",
        "stored " + " ".join(fmt(x) for x in alloc.stored_at_zero),
        "residual " + " ".join(fmt(x) for x in alloc.residual),
    ]
    emit(
        args,
        {
            "q": level,
            "stored_at_zero": list(alloc.stored_at_zero),
            "residual": list(alloc.residual),
        },
        text=lines,
    )
    return EXIT_OK


def cmd_region_hyperplane_a(args) -> int:
    value = reg.smdca_hyperplane(args.m, args.weights, args.entropies)
    emit(args, {"rhs": value}, text=[fmt(value)])
    return EXIT_OK


# covers -----------------------------------------------------------------------


def _write_chain_text(args, text: str, extra: dict) -> None:
    if args.out:
        Path(args.out).write_text(text)
    if args.json:
        emit(args, {"chain": text, **extra})
    elif not args.out:
        sys.stdout.write(text)


def cmd_covers_han(args) -> int:
    chain = cov.han_chain(args.encoders)
    _write_chain_text(args, cov.chain_to_text(chain), {})
    return EXIT_OK


def cmd_covers_chain(args) -> int:
    chain = cov.yz_chain(args.weights)
    cases = sorted({c for _, c in chain.case_events})
    _write_chain_text(args, cov.chain_to_text(chain), {"cases": cases})
    return EXIT_OK


def cmd_covers_conditional(args) -> int:
    cond = cov.conditional_chain(args.weights, args.n)
    _write_chain_text(args, cov.conditional_to_text(cond), {})
    return EXIT_OK


def cmd_covers_verify(args) -> int:
    report = cov.verify_text(Path(args.file).read_text())
    lines = ["pass" if report.ok else "fail"] + report.failures
    emit(args, {"ok": report.ok, "failures": report.failures}, text=lines)
    return EXIT_OK if report.ok else EXIT_VIOLATED


# entropy ------------------------------------------------------------------------


def _load_pmf(path: str) -> ent.JointPMF:
    return ent.pmf_from_text(Path(path).read_text())


def cmd_entropy_h(args) -> int:
    pmf = _load_pmf(args.pmf)
    if args.given:
        value = pmf.conditional_entropy(args.set, args.given)
    else:
        value = pmf.subset_entropy(args.set)
    emit(args, {"entropy_bits": value}, text=[fmt(value)])
    return EXIT_OK


def _check(args, pmf, alpha, weights) -> ent.InequalityReport:
    """The one map from --which to a check, for a pmf file and for sweeps."""
    which = args.which
    if which != "mt" and alpha is None:
        raise ValueError(f"--alpha is required for the {which} check")
    if which == "han":
        return ent.check_han(pmf, alpha)
    if which == "window":
        return ent.check_sliding_window(pmf, alpha)
    if weights and len(weights) != pmf.variable_count:
        # before any chain is built: a chain on L weights has L * 2**(L-1)
        # cover entries
        raise ValueError(
            f"--weights has {len(weights)} entries, the pmf {pmf.variable_count} variables"
        )
    if which == "mt":
        if not args.u:
            raise ValueError("--u is required for the cover inequality")
        u = EncoderSet.of(args.u, pmf.variable_count)
        if weights:
            cover = cov.yz_chain(weights).covers.get(len(u), {}).get(u)
            if cover is None:
                raise ValueError(f"the chain for these weights has no cover at {u}")
        else:
            cover = dict.fromkeys(u.children(), Fraction(1, len(u) - 1))
        return ent.check_mt(pmf, u, cover)
    if not weights:
        raise ValueError("--weights is required for the chain inequality")
    if which == "yz":
        return ent.check_yz(pmf, cov.yz_chain(weights), alpha)
    cond = cov.conditional_chain(weights, args.n or 0)
    return ent.check_conditional_yz(pmf, cond, alpha)


def _sweep_weights(which, rng, L):
    """Fresh chain weights for every yz check of a sweep; han and window
    take none, and the other checks do not sweep."""
    if which == "yz":
        return [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(L)]
    if which not in ("han", "window"):
        raise ValueError("--trials supports han, window and yz sweeps")
    return None


def cmd_entropy_check(args) -> int:
    if args.trials:
        if args.trials < 1 or args.vars < 2:
            raise ValueError("--trials sweeps need --trials >= 1 and --vars >= 2")
        rng = random.Random(args.seed)
        L = args.vars
        worst = None
        for _ in range(args.trials):
            pmf = ent.random_pmf(rng, [args.alphabet] * L)
            for alpha in range(2, L + 1):
                rep = _check(args, pmf, alpha, _sweep_weights(args.which, rng, L))
                if worst is None or rep.slack < worst.slack:
                    worst = rep
        ok = worst.holds
        lines = [
            f"{args.trials} trials, worst slack {fmt(worst.slack)}",
            "holds" if ok else "VIOLATED",
        ]
        emit(args, {"holds": ok, "worst_slack": worst.slack}, text=lines)
        return EXIT_OK if ok else EXIT_VIOLATED
    if not args.pmf:
        raise ValueError("need --pmf or --trials")
    rep = _check(args, _load_pmf(args.pmf), args.alpha, args.weights)
    lines = [
        f"lhs = {fmt(rep.lhs)}",
        f"rhs = {fmt(rep.rhs)}",
        f"slack = {fmt(rep.slack)}",
        "holds" if rep.holds else "VIOLATED",
    ]
    emit(
        args,
        {"holds": rep.holds, "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack},
        text=lines,
    )
    return EXIT_OK if rep.holds else EXIT_VIOLATED


def cmd_entropy_perm_identity(args) -> int:
    ok = ent.permutation_identity(args.encoders, args.alpha)
    emit(args, {"holds": ok}, text=["holds" if ok else "VIOLATED"])
    return EXIT_OK if ok else EXIT_VIOLATED


# codec ---------------------------------------------------------------------------


def _key_stream(args, needed: int) -> bytes:
    if args.key_file:
        data = Path(args.key_file).read_bytes()
        if len(data) < needed:
            raise ValueError(
                f"key file supplies {len(data)} bytes, need {needed}"
            )
        return data[:needed]
    return os.urandom(needed)


def cmd_codec_encode(args) -> int:
    for dest, owner in SCHEME_OPTIONS.items():
        if getattr(args, dest) is not None and args.scheme != owner:
            option = "--" + dest.replace("_", "-")
            print(f"error: {option} belongs to the {owner} scheme, not {args.scheme}",
                  file=sys.stderr)
            return EXIT_USAGE
    scheme = SCHEMES[args.scheme]
    paths = [Path(p) for p in args.inputs.split(",")]
    sources = [p.read_bytes() for p in paths]
    stem = args.stem or paths[0].stem
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if scheme == SCHEME_SMDC:
        bundles = smdc_encode(sources)
    elif scheme == SCHEME_SMDCA:
        bundles = smdca_encode(sources, args.r0_bytes or 0)
    else:
        n = args.n or 0
        needed = key_bytes_needed([len(s) for s in sources], n)
        bundles = ssmdc_encode(sources, n, _key_stream(args, needed))
    written = []
    for b in bundles:
        path = out_dir / f"{stem}.enc{b.encoder_index}.smdc"
        path.write_bytes(b.to_bytes())
        written.append(str(path))
    emit(args, {"bundles": written}, text=written)
    return EXIT_OK


def cmd_codec_decode(args) -> int:
    bundles = [
        ShareBundle.from_bytes(Path(p).read_bytes())
        for p in args.bundles.split(",")
    ]
    scheme = bundles[0].scheme
    if scheme == SCHEME_SMDC:
        sources = smdc_decode(bundles)
    elif scheme == SCHEME_SMDCA:
        sources = smdca_decode(bundles)
    else:
        sources = ssmdc_decode(bundles)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for alpha, data in enumerate(sources, 1):
        path = out_dir / f"source{alpha}.bin"
        path.write_bytes(data)
        written.append(str(path))
    emit(args, {"sources": written}, text=written)
    return EXIT_OK


# parser ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smdc",
        description="Multilevel diversity coding: rate regions, entropy "
        "inequalities, coefficient chains, and codecs.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    def add(group_parser, name, func, **kwargs):
        p = group_parser.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    region = parser_region = sub.add_parser("region", help="rate-region computations")
    region_sub = parser_region.add_subparsers(dest="op", required=True)
    p = add(region_sub, "f", cmd_region_f, help="level coefficient and assignment")
    p.add_argument("--weights", type=rational_list, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p = add(region_sub, "profile", cmd_region_profile, help="all level coefficients")
    p.add_argument("--weights", type=rational_list, required=True)
    p = add(region_sub, "min-sum", cmd_region_min_sum, help="minimum sum rate")
    p.add_argument("--entropies", type=rational_list, required=True)
    p = add(region_sub, "member", cmd_region_member, help="plain-scheme membership")
    p.add_argument("--rates", type=rational_list, required=True)
    p.add_argument("--entropies", type=rational_list, required=True)
    p = add(region_sub, "member-a", cmd_region_member_a, help="all-access membership")
    p.add_argument("--r0", type=as_fraction, required=True)
    p.add_argument("--rates", type=rational_list, required=True)
    p.add_argument("--entropies", type=rational_list, required=True)
    p = add(region_sub, "member-s", cmd_region_member_s, help="secure membership")
    p.add_argument("--rates", type=rational_list, required=True)
    p.add_argument("--entropies", type=rational_list, required=True)
    p.add_argument("--n", type=int, required=True, help="secrecy threshold")
    p = add(region_sub, "greedy", cmd_region_greedy, help="all-access budget split")
    p.add_argument("--r0", type=as_fraction, required=True)
    p.add_argument("--entropies", type=rational_list, required=True)
    p = add(region_sub, "hyperplane-a", cmd_region_hyperplane_a,
            help="all-access hyperplane right-hand side")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--weights", type=rational_list, required=True)
    p.add_argument("--entropies", type=rational_list, required=True)

    covers = sub.add_parser("covers", help="coefficient chains and covers")
    covers_sub = covers.add_subparsers(dest="op", required=True)
    p = add(covers_sub, "han", cmd_covers_han, help="uniform chain")
    p.add_argument("--encoders", type=int, required=True)
    p.add_argument("--out")
    p = add(covers_sub, "chain", cmd_covers_chain, help="chain for a weight vector")
    p.add_argument("--weights", type=rational_list, required=True)
    p.add_argument("--out")
    p = add(covers_sub, "conditional", cmd_covers_conditional,
            help="chain with adversary sets")
    p.add_argument("--weights", type=rational_list, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p = add(covers_sub, "verify", cmd_covers_verify, help="audit a chain")
    p.add_argument("--file", required=True)

    entropy = sub.add_parser("entropy", help="entropy and inequality checks")
    entropy_sub = entropy.add_subparsers(dest="op", required=True)
    p = add(entropy_sub, "h", cmd_entropy_h, help="subset entropy of a pmf file")
    p.add_argument("--pmf", required=True)
    p.add_argument("--set", type=index_list, required=True)
    p.add_argument("--given", type=index_list)
    p = add(entropy_sub, "check", cmd_entropy_check, help="inequality checks")
    p.add_argument("--which", required=True,
                   choices=["han", "window", "mt", "yz", "cyz"])
    p.add_argument("--pmf")
    p.add_argument("--alpha", type=int)
    p.add_argument("--weights", type=rational_list)
    p.add_argument("--n", type=int)
    p.add_argument("--u", type=index_list)
    p.add_argument("--trials", type=int)
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--seed", type=int)
    p = add(entropy_sub, "perm-identity", cmd_entropy_perm_identity,
            help="window relabeling multiplicity")
    p.add_argument("--encoders", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)

    codec = sub.add_parser("codec", help="encode and decode byte sources")
    codec_sub = codec.add_subparsers(dest="op", required=True)
    p = add(codec_sub, "encode", cmd_codec_encode, help="write share bundles")
    p.add_argument("--scheme", required=True, choices=sorted(SCHEMES))
    p.add_argument("--inputs", required=True, help="comma-separated source files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stem")
    p.add_argument("--r0-bytes", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--key-file")
    p = add(codec_sub, "decode", cmd_codec_decode, help="recover sources")
    p.add_argument("--bundles", required=True, help="comma-separated bundle files")
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    args.command_path = f"{args.group}.{args.op}"
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (BundleFormatError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
