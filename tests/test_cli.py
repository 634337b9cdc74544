import json
import random
import time
from fractions import Fraction

import pytest

from smdc.cli import main, rational_list
from smdc.entropy import MAX_STATES
from smdc.exactlp import as_fraction
from smdc.region import MAX_MEMBERSHIP_GROUND, SubsetCoefficients, audit_level, f_value
from smdc.subsets import EncoderSet

from oracles import fraction_audit_level


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_rational_forms(self):
        assert rational_list("3/4,1.4,2,-0.25") == (
            Fraction(3, 4), Fraction(7, 5), Fraction(2), Fraction(-1, 4)
        )

    def test_rejects_junk(self):
        for text in ["1.2.3", "1/0", "1e5"]:
            with pytest.raises(ValueError):
                rational_list(f"1,{text}")

    def test_arguments_share_the_file_grammar(self, capsys, tmp_path):
        # a pmf file already reads "1." and "1_0" as rationals
        code, out, _ = run(capsys, "region", "profile", "--weights", "1.,1_0.5")
        assert code == 0 and out.split() == ["23/2", "1"]
        code, out, _ = run(capsys, "region", "greedy", "--r0", "1.", "--entropies", "1,1")
        assert code == 0 and out.startswith("q = 2")

    @pytest.mark.parametrize(
        "argv",
        [
            ["codec", "encode", "--scheme", "s-smdc", "--n", "1", "--seed", "1",
             "--inputs", "{tmp}/a.bin", "--out-dir", "{tmp}/enc"],
            ["covers", "verify", "--weights", "1,1"],
            ["covers", "verify"],
        ],
    )
    def test_one_source_per_input(self, capsys, tmp_path, argv):
        # keys come from --key-file or the OS, and verify audits a file only
        code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2 and "usage:" in err
        assert not list(tmp_path.iterdir())


class TestRegionCommands:
    def test_min_sum(self, capsys):
        code, out, _ = run(capsys, "region", "min-sum", "--entropies", "1,1,1")
        assert code == 0
        assert out.strip() == "11/2"

    def test_profile(self, capsys):
        code, out, _ = run(capsys, "region", "profile", "--weights", "1,1,1,1")
        assert code == 0
        assert out.strip() == "4 2 4/3 1"

    def test_member_yes(self, capsys):
        code, out, _ = run(
            capsys, "region", "member", "--rates", "2,1", "--entropies", "1,1"
        )
        assert code == 0
        assert "member" in out

    def test_member_no_with_certificate(self, capsys):
        code, out, _ = run(
            capsys, "region", "member", "--rates", "1.4,1.4", "--entropies", "1,1"
        )
        assert code == 1
        assert "non-member" in out
        assert "certificate" in out

    def test_member_json_envelope(self, capsys):
        code, out, _ = run(
            capsys,
            "region",
            "member",
            "--rates",
            "1.4,1.4",
            "--entropies",
            "1,1",
            "--json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["command"] == "region.member"
        assert doc["result"]["member"] is False
        assert "lambda" in doc["certificate"]

    @pytest.mark.parametrize("member", [True, False])
    def test_member_at_the_cap(self, capsys, member):
        L = MAX_MEMBERSHIP_GROUND
        h = [Fraction(a % 3 + 1, 2) for a in range(L)]
        point = sum(x / a for a, x in enumerate(h, 1))
        rates = [point + Fraction(l, 8) if member else point * Fraction(9, 10)
                 for l in range(L)]
        code, out, _ = run(
            capsys,
            "region",
            "member",
            "--rates",
            ",".join(str(x) for x in rates),
            "--entropies",
            ",".join(str(x) for x in h),
            "--json",
        )
        doc = json.loads(out)
        if member:
            assert code == 0
            witness = doc["result"]["witness"]
            assert sorted(witness, key=int) == [str(a) for a in range(1, L + 1)]
            assert all(len(split) == L for split in witness.values())
        else:
            assert code == 1
            assert doc["result"]["member"] is False
            assert '"certificate"' in out
            assert len(doc["certificate"]["lambda"]) == L

    def test_member_a(self, capsys):
        code, out, _ = run(
            capsys,
            "region",
            "member-a",
            "--r0",
            "0.5",
            "--rates",
            "0.9,0.9",
            "--entropies",
            "1,1",
        )
        assert code == 1
        assert "lambda0" in out

    def test_greedy(self, capsys):
        code, out, _ = run(
            capsys, "region", "greedy", "--r0", "1/2", "--entropies", "1,1"
        )
        assert code == 0
        assert "q = 1" in out

    @pytest.mark.parametrize("weights,alpha", [("1,1,1", 2), ("3,1,0,2", 3), ("5,1,1", 1)])
    def test_f_assignment(self, capsys, weights, alpha):
        lam = rational_list(weights)
        total = f_value(lam, alpha)
        argv = ("region", "f", "--weights", weights, "--alpha", str(alpha))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        first, *rest = out.splitlines()
        assert first == f"f_{alpha} = {total}"
        shown = {
            line.split()[1].strip("{}"): as_fraction(line.split()[3])
            for line in rest
        }
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assignment = {u: as_fraction(v) for u, v in result["assignment"].items()}
        assert as_fraction(result["total"]) == sum(assignment.values()) == total
        assert shown == {u: v for u, v in assignment.items() if v}
        assert all(v >= 0 for v in assignment.values())
        for l, cap in enumerate(lam, 1):
            assert sum(v for u, v in assignment.items() if str(l) in u.split(",")) <= cap

    def test_f_at_the_ground_cap(self, capsys):
        # 24 weights at alpha=12: an LP over all C(24, 12) subsets would
        # have 2.7 million columns; the laid-out packing takes milliseconds
        rng = random.Random(16)
        lam = [Fraction(rng.randint(0, 90), rng.randint(1, 7)) for _ in range(24)]
        lam[5] = Fraction(4000)
        weights = ",".join(map(str, lam))
        start = time.perf_counter()
        code, out, _ = run(capsys, "region", "f", "--weights", weights, "--alpha", "12", "--json")
        assert time.perf_counter() - start < 1
        assert code == 0
        result = json.loads(out)["result"]
        assignment = {
            EncoderSet(tuple(map(int, u.split(","))), 24): as_fraction(v)
            for u, v in result["assignment"].items()
        }
        assert 0 < len(assignment) <= 24
        packing = SubsetCoefficients(assignment)
        assert audit_level(lam, 12, packing) == fraction_audit_level(lam, 12, packing) == []
        assert as_fraction(result["total"]) == f_value(lam, 12)

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "region", "min-sum")
        assert code == 2

    def test_data_error(self, capsys):
        code, _, err = run(
            capsys, "region", "member", "--rates", "1,1", "--entropies", "1,1,1"
        )
        assert code == 3
        assert "error" in err


class TestCoversCommands:
    def test_chain_verify_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "chain.txt"
        code, _, _ = run(
            capsys,
            "covers",
            "chain",
            "--weights",
            "3,1,1",
            "--out",
            str(out_file),
        )
        assert code == 0
        code, out, _ = run(capsys, "covers", "verify", "--file", str(out_file))
        assert code == 0
        assert out.strip().splitlines()[0] == "pass"

    def test_verify_catches_tampering(self, capsys, tmp_path):
        out_file = tmp_path / "chain.txt"
        run(capsys, "covers", "han", "--encoders", "3", "--out", str(out_file))
        text = out_file.read_text().replace("c 1 1 1/3", "c 1 1 1/2")
        out_file.write_text(text)
        code, out, _ = run(capsys, "covers", "verify", "--file", str(out_file))
        assert code == 1
        assert "fail" in out

    def test_verify_needs_a_cover_at_every_weighted_parent(
        self, capsys, tmp_path, coverless_chain
    ):
        text, failures = coverless_chain
        path = tmp_path / "chain.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "covers", "verify", "--file", str(path))
        assert code == 1
        assert out.splitlines() == ["fail", *failures]

    def test_conditional_file(self, capsys, tmp_path):
        out_file = tmp_path / "cond.txt"
        code, _, _ = run(
            capsys,
            "covers",
            "conditional",
            "--weights",
            "1,1,1",
            "--n",
            "1",
            "--out",
            str(out_file),
        )
        assert code == 0
        assert out_file.read_text().startswith("smdc-cond-chain 1")
        code, _, _ = run(capsys, "covers", "verify", "--file", str(out_file))
        assert code == 0

    @pytest.mark.parametrize(
        "lead,header,want",
        [
            ("\n  \n", "smdc-cond-chain 1", 0),
            ("\n", "smdc-cond-chain 2", 3),
            ("", "smdc-cond-chain 2", 3),
        ],
    )
    def test_verify_takes_the_kind_from_the_first_nonblank_line(
        self, capsys, tmp_path, lead, header, want
    ):
        path = tmp_path / "cond.txt"
        assert run(capsys, "covers", "conditional", "--weights", "2,1,1", "--n", "1",
                   "--out", str(path))[0] == 0
        text = path.read_text().replace("smdc-cond-chain 1", header)
        path.write_text(lead + text)
        code, out, err = run(capsys, "covers", "verify", "--file", str(path))
        assert code == want
        if want == 0:
            assert out.splitlines() == ["pass"]
        else:
            assert out == "" and "expected header 'smdc-cond-chain 1'" in err

    def test_chain_json_lists_cases(self, capsys):
        code, out, _ = run(
            capsys, "covers", "chain", "--weights", "5,1,1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert "case2" in doc["result"]["cases"]

    @pytest.mark.parametrize(
        "text",
        [
            "smdc-chain 1\n",
            "smdc-cond-chain 1\nlambda 1 1\n",
            "smdc-chain 1\nlambda 1 1/0\n",
            "smdc-cond-chain 1\nlambda 1 1\nn 1\ns 1 1 2 1/0\n",
        ],
    )
    def test_verify_rejects_truncated_or_zero_denominator(self, capsys, tmp_path, text):
        path = tmp_path / "chain.txt"
        path.write_text(text)
        code, _, err = run(capsys, "covers", "verify", "--file", str(path))
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "head,record",
        [
            ("smdc-chain 1", "c {a} {u} 1"),
            ("smdc-cond-chain 1\nn 0", "s {a} {u} - 1"),
        ],
    )
    def test_verify_rejects_short_family_at_once(self, capsys, tmp_path, head, record):
        # 24 weights and one record per level: the full levels would hold
        # 2^24 subsets, so the count is compared before enumerating
        L = 24
        header, *n_line = head.split("\n")
        lines = [header, "lambda " + " ".join(["1"] * L), *n_line]
        lines += [
            record.format(a=a, u=",".join(str(m) for m in range(1, a + 1)))
            for a in range(1, L + 1)
        ]
        path = tmp_path / "chain.txt"
        path.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "covers", "verify", "--file", str(path))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "wrong subset family" in out

    def test_verify_names_an_index_below_one(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("smdc-chain 1\nlambda 1 1\nc 1 0 1\n")
        code, out, err = run(capsys, "covers", "verify", "--file", str(path))
        assert code == 3
        assert out == "" and err == "error: encoder index 0 is below 1\n"

    def test_verify_rejects_exponent_at_once(self, capsys, tmp_path):
        # Fraction would expand this to a ten-million-digit integer
        path = tmp_path / "chain.txt"
        path.write_text("smdc-chain 1\nlambda 1e10000000 1\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "covers", "verify", "--file", str(path))
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "exponent" in err

    @pytest.mark.parametrize(
        "argv,record",
        [
            (["chain", "--weights", "3,2,1"], "c 1 1 99"),
            (["conditional", "--weights", "3,2,1", "--n", "1"], "s 1 1 3 99"),
        ],
    )
    def test_verify_rejects_duplicate_records(self, capsys, tmp_path, argv, record):
        # a second record for a key, put before the true one, must not
        # be read over by it
        path = tmp_path / "chain.txt"
        assert run(capsys, "covers", *argv, "--out", str(path))[0] == 0
        lines = path.read_text().splitlines()
        key = record.rsplit(" ", 1)[0] + " "
        at = next(i for i, ln in enumerate(lines) if ln.startswith(key))
        lines.insert(at, record)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "covers", "verify", "--file", str(path))
        assert code == 3
        assert out == "" and "duplicate" in err


PMF_TEXT = "2 2 2\n0 0 1/3\n0 1 1/3\n1 0 1/3\n"


class TestEntropyCommands:
    def test_h(self, capsys, tmp_path):
        pmf = tmp_path / "p.pmf"
        pmf.write_text(PMF_TEXT)
        code, out, _ = run(
            capsys, "entropy", "h", "--pmf", str(pmf), "--set", "1"
        )
        assert code == 0
        assert abs(float(out.strip()) - 0.918295834054) < 1e-9

    def test_h_conditional(self, capsys, tmp_path):
        pmf = tmp_path / "p.pmf"
        pmf.write_text(PMF_TEXT)
        code, out, _ = run(
            capsys, "entropy", "h", "--pmf", str(pmf), "--set", "2", "--given", "1"
        )
        assert code == 0
        assert abs(float(out.strip()) - 0.666666666667) < 1e-9

    def test_check_single(self, capsys, tmp_path):
        pmf = tmp_path / "p.pmf"
        pmf.write_text(PMF_TEXT)
        code, out, _ = run(
            capsys,
            "entropy",
            "check",
            "--which",
            "han",
            "--pmf",
            str(pmf),
            "--alpha",
            "2",
        )
        assert code == 0
        assert "holds" in out

    def test_check_trials_seeded(self, capsys):
        args = (
            "entropy", "check", "--which", "window",
            "--trials", "5", "--vars", "3", "--seed", "7", "--json",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert json.loads(out1)["result"] == json.loads(out2)["result"]

    def test_check_cover_inequality(self, capsys, tmp_path):
        pmf = tmp_path / "p.pmf"
        pmf.write_text(PMF_TEXT)
        code, out, _ = run(
            capsys,
            "entropy", "check", "--which", "mt",
            "--pmf", str(pmf), "--u", "1,2",
        )
        assert code == 0 and "holds" in out
        code, out, _ = run(
            capsys,
            "entropy", "check", "--which", "mt",
            "--pmf", str(pmf), "--u", "1,2", "--weights", "2,1",
        )
        assert code == 0 and "holds" in out

    def test_check_conditional_chain(self, capsys, tmp_path):
        pmf = tmp_path / "p.pmf"
        pmf.write_text("3 2 2 2\n0 0 0 1/4\n0 1 1 1/4\n1 0 1 1/4\n1 1 0 1/4\n")
        code, out, _ = run(
            capsys,
            "entropy", "check", "--which", "cyz",
            "--pmf", str(pmf), "--weights", "1,1,1", "--n", "1", "--alpha", "2",
        )
        assert code == 0 and "holds" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--which", "han", "--trials", "3", "--vars", "1"),
            ("--which", "han", "--trials", "-2"),
            ("--which", "han", "--trials", "2", "--alphabet", "0"),
        ],
    )
    def test_empty_trial_sweep_is_data_error(self, capsys, argv):
        code, out, err = run(capsys, "entropy", "check", *argv)
        assert code == 3
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize(
        "extra",
        [
            ("--which", "han"),
            ("--which", "window"),
            ("--which", "yz", "--weights", "1,1,1"),
            ("--which", "cyz", "--weights", "1,1,1", "--n", "1"),
        ],
    )
    def test_check_without_alpha_is_data_error(self, capsys, tmp_path, extra):
        pmf = tmp_path / "p.pmf"
        pmf.write_text(PMF_TEXT)
        code, _, err = run(capsys, "entropy", "check", "--pmf", str(pmf), *extra)
        assert code == 3
        assert err.startswith("error:") and "--alpha" in err

    @pytest.mark.parametrize("u,weights", [("1", "1,1"), ("1,2", "1,0")])
    def test_cover_missing_from_chain_is_data_error(self, capsys, tmp_path, u, weights):
        pmf = tmp_path / "p.pmf"
        pmf.write_text(PMF_TEXT)
        code, _, err = run(
            capsys, "entropy", "check", "--which", "mt",
            "--pmf", str(pmf), "--u", u, "--weights", weights,
        )
        assert code == 3
        assert err.startswith("error:") and "no cover" in err

    def test_oversized_trial_sweep_fails_at_once(self, capsys):
        # 2^40 outcomes: the state count is checked before enumerating;
        # 2^15000 has more digits than Python will print, so the error
        # names the cap, not the count
        for n_vars in ("40", "15000"):
            start = time.perf_counter()
            code, out, err = run(
                capsys, "entropy", "check", "--which", "han", "--trials", "1",
                "--vars", n_vars,
            )
            assert time.perf_counter() - start < 1
            assert code == 3
            assert err.startswith("error:") and out == ""
            assert "state space" in err and str(MAX_STATES) in err

    def test_perm_identity(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "perm-identity", "--encoders", "4", "--alpha", "2"
        )
        assert code == 0
        assert out.strip() == "holds"

    def test_bad_pmf_file(self, capsys, tmp_path):
        pmf = tmp_path / "bad.pmf"
        pmf.write_text("2 2 2\n0 0 1/2\n")
        code, _, err = run(
            capsys, "entropy", "h", "--pmf", str(pmf), "--set", "1"
        )
        assert code == 3

    def test_exponent_pmf_file(self, capsys, tmp_path):
        pmf = tmp_path / "bad.pmf"
        pmf.write_text("1 2\n0 1e10000000\n1 0\n")
        code, _, err = run(
            capsys, "entropy", "h", "--pmf", str(pmf), "--set", "1"
        )
        assert code == 3
        assert "exponent" in err

    def test_zero_denominator_pmf_file(self, capsys, tmp_path):
        pmf = tmp_path / "bad.pmf"
        pmf.write_text("1 2\n0 1/0\n")
        code, _, err = run(
            capsys, "entropy", "h", "--pmf", str(pmf), "--set", "1"
        )
        assert code == 3
        assert err.startswith("error:")


class TestCodecCommands:
    def _write_sources(self, tmp_path, lengths, seed=0):
        rng = random.Random(seed)
        paths = []
        for i, n in enumerate(lengths):
            p = tmp_path / f"w{i + 1}.bin"
            p.write_bytes(bytes(rng.randrange(256) for _ in range(n)))
            paths.append(p)
        return paths

    def test_encode_decode_round_trip(self, capsys, tmp_path):
        paths = self._write_sources(tmp_path, [10, 9, 8])
        out_dir = tmp_path / "enc"
        code, _, _ = run(
            capsys,
            "codec",
            "encode",
            "--scheme",
            "smdc",
            "--inputs",
            ",".join(str(p) for p in paths),
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        dec_dir = tmp_path / "dec"
        code, out, _ = run(
            capsys,
            "codec",
            "decode",
            "--bundles",
            f"{out_dir}/w1.enc1.smdc,{out_dir}/w1.enc3.smdc",
            "--out-dir",
            str(dec_dir),
        )
        assert code == 0
        assert (dec_dir / "source1.bin").read_bytes() == paths[0].read_bytes()
        assert (dec_dir / "source2.bin").read_bytes() == paths[1].read_bytes()

    def test_all_access_round_trip(self, capsys, tmp_path):
        paths = self._write_sources(tmp_path, [6, 6])
        out_dir = tmp_path / "enc"
        code, _, _ = run(
            capsys,
            "codec",
            "encode",
            "--scheme",
            "smdc-a",
            "--r0-bytes",
            "3",
            "--inputs",
            ",".join(str(p) for p in paths),
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        dec_dir = tmp_path / "dec"
        code, _, _ = run(
            capsys,
            "codec",
            "decode",
            "--bundles",
            f"{out_dir}/w1.enc0.smdc,{out_dir}/w1.enc2.smdc",
            "--out-dir",
            str(dec_dir),
        )
        assert code == 0
        assert (dec_dir / "source1.bin").read_bytes() == paths[0].read_bytes()

    def test_secure_seeded_reproducible(self, capsys, tmp_path):
        paths = self._write_sources(tmp_path, [8, 8])
        keys = tmp_path / "keys.bin"
        keys.write_bytes(bytes(range(64)))
        args = lambda d: (
            "codec", "encode", "--scheme", "s-smdc", "--n", "1",
            "--key-file", str(keys), "--inputs", ",".join(str(p) for p in paths),
            "--out-dir", str(d),
        )
        assert run(capsys, *args(tmp_path / "a"))[0] == 0
        assert run(capsys, *args(tmp_path / "b"))[0] == 0
        for l in range(1, 4):
            a = (tmp_path / "a" / f"w1.enc{l}.smdc").read_bytes()
            b = (tmp_path / "b" / f"w1.enc{l}.smdc").read_bytes()
            assert a == b
        dec_dir = tmp_path / "dec"
        code, _, _ = run(
            capsys,
            "codec",
            "decode",
            "--bundles",
            ",".join(
                str(tmp_path / "a" / f"w1.enc{l}.smdc") for l in (1, 3)
            ),
            "--out-dir",
            str(dec_dir),
        )
        assert code == 0
        assert (dec_dir / "source1.bin").read_bytes() == paths[0].read_bytes()

    def test_env_seed_does_not_fix_keys(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SMDC_SEED", "5")
        paths = self._write_sources(tmp_path, [8, 8])
        for d in "ab":
            code, _, _ = run(
                capsys, "codec", "encode", "--scheme", "s-smdc", "--n", "1",
                "--inputs", ",".join(str(p) for p in paths),
                "--out-dir", str(tmp_path / d),
            )
            assert code == 0
        blobs = [
            [(tmp_path / d / f"w1.enc{l}.smdc").read_bytes() for l in range(1, 4)]
            for d in "ab"
        ]
        assert blobs[0] != blobs[1]

    def test_one_corrupted_byte_is_data_error(self, capsys, tmp_path):
        paths = self._write_sources(tmp_path, [10, 9])
        out_dir = tmp_path / "enc"
        run(
            capsys, "codec", "encode", "--scheme", "smdc",
            "--inputs", ",".join(str(p) for p in paths), "--out-dir", str(out_dir),
        )
        bundle = out_dir / "w1.enc2.smdc"
        blob = bytearray(bundle.read_bytes())
        blob[-5] ^= 1
        bundle.write_bytes(bytes(blob))
        code, _, err = run(
            capsys, "codec", "decode", "--bundles",
            f"{out_dir}/w1.enc1.smdc,{bundle}", "--out-dir", str(tmp_path / "dec"),
        )
        assert code == 3
        assert err.startswith("error:") and "checksum" in err

    @pytest.mark.parametrize(
        "scheme,extra,option,owner",
        [
            ("smdc", ["--r0-bytes", "5"], "--r0-bytes", "smdc-a"),
            ("s-smdc", ["--n", "1", "--r0-bytes", "5"], "--r0-bytes", "smdc-a"),
            ("smdc", ["--n", "2", "--key-file", "missing.bin"], "--n", "s-smdc"),
            ("smdc-a", ["--n", "1"], "--n", "s-smdc"),
            ("smdc", ["--key-file", "missing.bin"], "--key-file", "s-smdc"),
            ("smdc-a", ["--r0-bytes", "1", "--key-file", "k"], "--key-file", "s-smdc"),
        ],
    )
    def test_another_schemes_option_is_usage_error(
        self, capsys, tmp_path, scheme, extra, option, owner
    ):
        # refused before any file is read or written: the inputs and the
        # key file do not exist, and no output directory appears
        out_dir = tmp_path / "enc"
        code, out, err = run(
            capsys, "codec", "encode", "--scheme", scheme, *extra,
            "--inputs", str(tmp_path / "missing.bin"), "--out-dir", str(out_dir),
        )
        assert code == 2 and out == ""
        assert err == f"error: {option} belongs to the {owner} scheme, not {scheme}\n"
        assert not out_dir.exists()

    def test_corrupt_bundle_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.smdc"
        bad.write_bytes(b"not a bundle")
        code, _, err = run(
            capsys, "codec", "decode", "--bundles", str(bad), "--out-dir", str(tmp_path)
        )
        assert code == 3

    @pytest.mark.parametrize("seed", [None, "3"])
    def test_negative_key_count_is_data_error(self, capsys, tmp_path, seed):
        paths = self._write_sources(tmp_path, [8, 8])
        argv = ["codec", "encode", "--scheme", "s-smdc", "--n", "-1",
                "--inputs", ",".join(str(p) for p in paths), "--out-dir", str(tmp_path / "enc")]
        if seed:
            keys = tmp_path / "keys.bin"
            keys.write_bytes(random.Random(int(seed)).randbytes(64))
            argv += ["--key-file", str(keys)]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err == "error: num_keys must be nonnegative\n"
        assert not list((tmp_path / "enc").glob("*.smdc"))
