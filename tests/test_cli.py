import json
import random
import time
from fractions import Fraction

import pytest

from smdc.cli import main, parse_rational
from smdc.region import f_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_rational_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("1.4") == Fraction(7, 5)
        assert parse_rational("2") == Fraction(2)
        assert parse_rational("-0.25") == Fraction(-1, 4)

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_rational("1.2.3")
        with pytest.raises(ValueError):
            parse_rational("1/0")


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
        lam = [parse_rational(x) for x in weights.split(",")]
        total = f_value(lam, alpha)
        argv = ("region", "f", "--weights", weights, "--alpha", str(alpha))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        first, *rest = out.splitlines()
        assert first == f"f_{alpha} = {total}"
        shown = {
            line.split()[1].strip("{}"): parse_rational(line.split()[3])
            for line in rest
        }
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assignment = {u: parse_rational(v) for u, v in result["assignment"].items()}
        assert parse_rational(result["total"]) == sum(assignment.values()) == total
        assert shown == {u: v for u, v in assignment.items() if v}
        assert all(v >= 0 for v in assignment.values())
        for l, cap in enumerate(lam, 1):
            assert sum(v for u, v in assignment.items() if str(l) in u.split(",")) <= cap

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

    def test_verify_rejects_exponent_at_once(self, capsys, tmp_path):
        # Fraction would expand this to a ten-million-digit integer
        path = tmp_path / "chain.txt"
        path.write_text("smdc-chain 1\nlambda 1e10000000 1\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "covers", "verify", "--file", str(path))
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "exponent" in err


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

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SMDC_SEED", "13")
        code, out, _ = run(
            capsys, "entropy", "check", "--which", "han", "--trials", "3", "--json"
        )
        assert code == 0
        first = json.loads(out)["result"]
        code, out, _ = run(
            capsys, "entropy", "check", "--which", "han", "--trials", "3", "--json"
        )
        assert json.loads(out)["result"] == first

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
        args = lambda d: (
            "codec", "encode", "--scheme", "s-smdc", "--n", "1",
            "--seed", "99", "--inputs", ",".join(str(p) for p in paths),
            "--out-dir", str(d),
        )
        run(capsys, *args(tmp_path / "a"))
        run(capsys, *args(tmp_path / "b"))
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

    def test_corrupt_bundle_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.smdc"
        bad.write_bytes(b"not a bundle")
        code, _, err = run(
            capsys, "codec", "decode", "--bundles", str(bad), "--out-dir", str(tmp_path)
        )
        assert code == 3
