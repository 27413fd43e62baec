import builtins
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import weakref

import pytest

from qem_mix import cli, depfilter, harness
from qem_mix.cli import dispatch
from qem_mix.shotdata import load_counts, save_counts

from conftest import PEAK, SRC, run_python, walsh_dataset


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``qem-mix argv`` in a fresh interpreter that imports this qem_mix."""
    return subprocess.run([sys.executable, "-m", "qem_mix.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120, **kwargs)


class TestHelpAndUsage:
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["generate", "--help"], ["filter", "--help"],
         ["mitigate", "--help"], ["evaluate", "--help"], ["sweep", "--help"]],
    )
    def test_help_exits_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "usage" in out.lower()

    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "generate", "--n", "4")
        assert code == 1

    def test_help_documents_defaults(self, capsys):
        _, out, _ = run(capsys, "mitigate", "--help")
        assert "--k-max" in out and "16" in out
        assert "--delta" in out and "1e-05" in out


class TestExitCodes:
    def test_missing_file_exit_2_names_path(self, capsys):
        code, _, err = run(capsys, "filter", "missing.txt")
        assert code == 2
        assert "missing.txt" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("01\n0x\n")
        code, _, _ = run(capsys, "filter", str(bad))
        assert code == 2

    def test_infeasible_generate_exit_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "--n", "2", "--k", "5", "--s", "10",
            "--seed", "1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 1

    @pytest.mark.parametrize("flag,value,field", [
        ("--eta", "nan", "eta"), ("--delta", "nan", "delta"),
        ("--eta", "-1", "eta"), ("--k-max", "0", "k_max"),
    ])
    def test_bad_config_value_exit_1(self, capsys, tmp_path, flag, value, field):
        data = tmp_path / "shots.txt"
        data.write_text("0101\n0101\n0111\n")
        model = tmp_path / "model.json"
        code, _, err = run(capsys, "mitigate", str(data), "--seed", "1",
                           "--model-out", str(model), flag, value)
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and field in errors[0]
        assert "Traceback" not in err
        assert not model.exists()

    def test_allocation_that_cannot_be_met_exit_1(self, tmp_path):
        # 10**12 shots under a 2 GiB address-space limit set in the child only
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        out = tmp_path / "x.json"
        done = run_cli("generate", "--n", "20", "--k", "2", "--s", str(10**12), "--seed", "1",
                       "--out", str(out), preexec_fn=limit)
        assert done.returncode == 1
        errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in done.stderr
        assert not out.exists()

    def test_widest_register_exit_3_fast(self, tmp_path):
        # 10 n=16,384 strings 8,192 bits apart: the filter widens to r=8043
        # and keeps nothing, and EM on the unfiltered shots fails its mass
        # floor
        path = str(tmp_path / "wide.json")
        save_counts(walsh_dataset(16384, 10), path)
        start = time.perf_counter()
        done = run_cli("--log-level", "debug", "mitigate", path, "--seed", "5")
        assert time.perf_counter() - start < 10
        assert done.returncode == 3
        lines = done.stderr.splitlines()
        assert [line for line in lines if line.startswith("error:")] == \
            ["error: all 1 components fell below the n/2 mass floor"]
        assert any(line.startswith("DEBUG qem_mix.depfilter: radius 8043 support: U=10, ")
                   for line in lines)
        assert "WARNING qem_mix.harness: filter would remove all 10 shots; " \
               "running EM unfiltered" in lines

    def test_all_filtered_exit_3(self, capsys, tmp_path):
        shots = tmp_path / "shots.txt"
        shots.write_text("0000000000\n1111111111\n")
        code, _, err = run(capsys, "filter", str(shots))
        assert code == 3
        assert "eta" in err
        assert "radius 3" in err  # the two strings are 10 apart


    @pytest.mark.parametrize("command", ["filter", "mitigate"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_exit_1_before_load(self, capsys, tmp_path, command, value):
        # the input does not exist: the flag must be rejected before any read
        model = tmp_path / "model.json"
        code, _, err = run(capsys, command, str(tmp_path / "missing.txt"),
                           "--threshold", value, *(
                               ["--model-out", str(model)] if command == "mitigate" else []))
        assert code == 1
        assert err.splitlines() == [f"error: threshold must be finite, got {value}"]
        assert not model.exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--n", "8", "--k", "2", "--s", "100", "--seed", "-1", "--out", "x.json"],
        ["--seed", "-5", "mitigate", "MISSING"],
        ["mitigate", "MISSING", "--seed", "-5"],
        ["--seed", "-2", "sweep", "--config", "MISSING", "--out", "out"],
    ], ids=["generate", "master-mitigate", "mitigate", "master-sweep"])
    def test_negative_seed_exit_1_before_load(self, capsys, tmp_path, monkeypatch, argv):
        # no input exists: the seed must be rejected before any read
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert len(err.splitlines()) == 1 and "seed must be >= 0" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--p", "2"], ["--p", "nan"], ["--eps-low", "0.6", "--eps-high", "0.7"], ["--s", "0"],
        ["--n", "0"],
    ], ids=["p-2", "p-nan", "eps-interval", "s-0", "n-0"])
    def test_bad_noise_value_exit_1(self, capsys, tmp_path, monkeypatch, flags):
        from qem_mix import cli, synth

        draws = []

        def counted(*args):
            draws.append(args)
            return synth.generate_shots(*args)
        monkeypatch.setattr(cli, "generate_shots", counted)
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "--quiet", "generate", "--n", "4", "--k", "2", "--s", "10",
                           "--seed", "1", "--out", str(out), *flags)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()
        # only a bad shot count reaches the sampler, which rejects it first
        assert len(draws) == (flags[0] == "--s")


DEEP = ("[" * 200_000 + "]" * 200_000).encode()
GOOD_MODEL = {"solutions": ["01"], "alpha": [1.0], "eps": [0.1, 0.1]}
GOOD_TRUTH = {"solutions": ["01"], "weights": [1.0], "p": 0.5, "eps": [0.1, 0.1]}


def _write(path, doc) -> str:
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(path)


class TestMalformedFiles:
    """Each malformed input ends with one error line naming it, exit 2."""

    def _expect_exit_2(self, capsys, *argv, name):
        code, _, err = run(capsys, "--quiet", *argv)
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert name in err

    @pytest.mark.parametrize("name,body", [
        ("counts.json", b'{"01\xff": 3}'),
        ("counts.json", b'{"01": 1, "10": 2, "x": "\xc3\x28"}'),
        ("shots.txt", b"0101\n01\xff1\n"),
        ("shots.txt", b"\xff0101\n"),
        ("counts.json", b'{"a": ' + DEEP + b"}"),
    ], ids=["counts-key-not-utf8", "counts-value-not-utf8", "shots-not-utf8",
            "shots-first-byte-not-utf8", "counts-nested-deep"])
    def test_dataset_file(self, capsys, tmp_path, name, body):
        path = _write(tmp_path / name, body)
        self._expect_exit_2(capsys, "filter", path, name=name)

    @pytest.mark.parametrize("doc", [
        json.dumps(GOOD_MODEL).encode()[:-1] + b', "x": "\xff"}',
        DEEP, [GOOD_MODEL], dict(GOOD_MODEL, solutions=[1]), dict(GOOD_MODEL, alpha=["x"]),
    ], ids=["not-utf8", "nested-deep", "list", "solution-not-text", "alpha-not-number"])
    def test_model_file(self, capsys, tmp_path, doc):
        model = _write(tmp_path / "model.json", doc)
        truth = _write(tmp_path / "truth.json", GOOD_TRUTH)
        self._expect_exit_2(capsys, "evaluate", "--model", model, "--truth", truth,
                            name="model.json")

    @pytest.mark.parametrize("doc", [
        json.dumps(GOOD_TRUTH).encode()[:-1] + b', "\xfe": 1}',
        DEEP, [GOOD_TRUTH], dict(GOOD_TRUTH, p="x"),
    ], ids=["not-utf8", "nested-deep", "list", "p-not-number"])
    def test_truth_file(self, capsys, tmp_path, doc):
        model = _write(tmp_path / "model.json", GOOD_MODEL)
        truth = _write(tmp_path / "truth.json", doc)
        self._expect_exit_2(capsys, "evaluate", "--model", model, "--truth", truth,
                            name="truth.json")

    @pytest.mark.parametrize("body", [DEEP, b"\xff{}"], ids=["nested-deep", "not-utf8"])
    def test_sweep_config(self, capsys, tmp_path, body):
        path = _write(tmp_path / "sweep.json", body)
        self._expect_exit_2(capsys, "sweep", "--config", path,
                            "--out", str(tmp_path / "out"), name="sweep.json")


class TestBadValues:
    """Non-finite numbers fail at load, and a bad line, key or string is
    quoted in part."""

    @pytest.mark.parametrize("name,doc,exit_code", [
        ("model.json", dict(GOOD_MODEL, alpha=[float("nan")]), 3),
        ("model.json", dict(GOOD_MODEL, eps=[float("nan"), 0.1]), 3),
        ("truth.json", dict(GOOD_TRUTH, solutions=["01", "10"], weights=[float("nan"), 1.0]), 2),
    ], ids=["alpha-nan", "eps-nan", "weights-nan"])
    def test_non_finite_number_rejected_at_load(self, capsys, tmp_path, monkeypatch,
                                                name, doc, exit_code):
        from qem_mix import cli

        def no_scoring(*args):
            raise AssertionError("scored a model that should not load")
        monkeypatch.setattr(cli, "ber", no_scoring)
        files = {"model.json": GOOD_MODEL, "truth.json": GOOD_TRUTH, name: doc}
        model, truth = (_write(tmp_path / f, d) for f, d in files.items())
        code, _, err = run(capsys, "--quiet", "evaluate", "--model", model, "--truth", truth)
        assert code == exit_code
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {tmp_path / name}: ")

    def test_long_shots_line_quoted_in_part(self, capsys, tmp_path):
        path = _write(tmp_path / "shots.txt", DEEP)
        code, _, err = run(capsys, "--quiet", "filter", path)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}:1: ")
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("table", [
        {"0" * 16000 + "2": 1}, {"0" * 16001: 0}, {"0" * 16000: 1, "1" * 15999: 2},
    ], ids=["bad-key", "bad-count", "width-mismatch"])
    def test_long_counts_key_quoted_in_part(self, capsys, tmp_path, table):
        path = _write(tmp_path / "counts.json", table)
        code, _, err = run(capsys, "--quiet", "filter", path)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
        assert len(err) < 300 and "…" in err

    def test_long_model_string_quoted_in_part(self, capsys, tmp_path):
        model = _write(tmp_path / "model.json",
                       dict(GOOD_MODEL, solutions=["0" * 16000 + "2"], eps=[0.1] * 16001))
        truth = _write(tmp_path / "truth.json", GOOD_TRUTH)
        code, _, err = run(capsys, "--quiet", "evaluate", "--model", model, "--truth", truth)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {model}: ")
        assert len(err) < 300 and "…" in err

    def test_evaluate_width_mismatch_names_both_files(self, capsys, tmp_path):
        # a 128-bit model against a 4,096-bit truth is refused before scoring
        model = _write(tmp_path / "model.json",
                       dict(GOOD_MODEL, solutions=["01" * 64], eps=[0.1] * 128))
        truth = _write(tmp_path / "truth.json",
                       dict(GOOD_TRUTH, solutions=["01" * 2048], eps=[0.1] * 4096))
        code, _, err = run(capsys, "--quiet", "evaluate", "--model", model, "--truth", truth)
        assert code == 2
        assert err == (f"error: model {model} has 128-bit strings, "
                       f"truth {truth} has 4096-bit strings\n")
        assert len(err) < 300


class TestGenerate:
    def test_writes_dataset_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "data.json"
        code, _, _ = run(
            capsys, "generate", "--n", "6", "--k", "2", "--s", "200",
            "--p", "0.2", "--eps-low", "0.01", "--eps-high", "0.05",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        ds = load_counts(out)
        assert ds.n == 6 and ds.s == 200
        sidecar = json.loads((tmp_path / "data.json.truth.json").read_text())
        assert sidecar["k"] == 2 and len(sidecar["solutions"]) == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["generate", "--n", "8", "--k", "3", "--s", "500", "--p", "0.5",
                "--seed", "11"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.json.truth.json").read_bytes() == (
            tmp_path / "b.json.truth.json"
        ).read_bytes()

    @pytest.mark.parametrize("flags, counts_sha, truth_sha", [
        (["--n", "20", "--k", "4", "--s", "100000", "--seed", "11"],
         "23c8f56b6ca00e11dd205890322451aa2f5d248566d1bfa06c7a0b36d304d007",
         "4c7503f934932d9cdc33470f8cf8894597d33a52e0a6b65670cefad4fac20c23"),
        (["--n", "128", "--k", "4", "--s", "20000", "--seed", "12"],
         "8691f402615a804cac0a07f75e7c6f14ae6956b5ddb645d0b7caa3c6fd7e21ee",
         "d68243c3691dd5c32a8228d06240a521bbf02b04da62332ca614c3ee0fd190bc"),
    ], ids=["n20", "n128"])
    def test_golden_bytes(self, capsys, tmp_path, flags, counts_sha, truth_sha):
        # a seed's files are the same bytes on every version of the writer
        out = tmp_path / "data.json"
        assert run(capsys, "generate", *flags, "--out", str(out))[0] == 0
        for path, sha in ((out, counts_sha), (tmp_path / "data.json.truth.json", truth_sha)):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == sha

    @pytest.mark.parametrize("threads", [1, 2])
    def test_golden_bytes_of_a_widened_filter(self, capsys, tmp_path, monkeypatch, threads):
        # n=128, U=2000: the radius-35 Gram pass spans four tiles a side
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: threads)
        monkeypatch.chdir(tmp_path)  # the model records its input's path
        assert run(capsys, "generate", "--n", "128", "--k", "4", "--s", "2000",
                   "--seed", "13", "--out", "d.json")[0] == 0
        assert run(capsys, "mitigate", "d.json", "--seed", "14", "--model-out", "m.json")[0] == 0
        assert run(capsys, "filter", "d.json", "--out", "f.json")[0] == 0
        assert load_counts("d.json").distinct == 2000
        for name, sha in (
            ("m.json", "e4c305f34acc732d85ad29bebe5f71b5ad30df0e95ec87b52b4ce04e0c2a4fd1"),
            ("f.json", "15a377228c51faa7e42b0b47e0f12f948680bab194c64d9d56f57abf035f6338"),
        ):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha

    def test_unseeded_prints_effective_seed(self, tmp_path, caplog, capsys):
        import logging
        with caplog.at_level(logging.INFO, logger="qem_mix"):
            code = dispatch([
                "generate", "--n", "4", "--k", "2", "--s", "50",
                "--out", str(tmp_path / "d.json"),
            ])
        capsys.readouterr()
        assert code == 0
        assert any("seed" in r.message for r in caplog.records)


class TestFilterCommand:
    def test_report_both_forms(self, capsys, tmp_path):
        shots = tmp_path / "shots.txt"
        shots.write_text("01\n01\n01\n00\n")
        code, out, _ = run(capsys, "filter", str(shots), "--eta", "1.0", "--t-floor", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("filter: S_in=4")
        report = json.loads(lines[1])
        assert report["s_in"] == 4
        assert report["s_out"] == 4  # 00 is a 1-Hamming neighbor of 01
        assert report["lambda"] == 1.0
        assert report["radius"] == 1
        assert " r=1 " in lines[0]

    def test_reports_widened_radius(self, capsys, tmp_path):
        # 64-bit strings, none one bit apart: three lie 2 or 4 apart, one far
        shots = tmp_path / "shots.txt"
        shots.write_text("".join(
            x + "\n" for x in ("0" * 64, "1" * 64, "1" * 62 + "00", "1" * 60 + "0011")
        ))
        code, out, _ = run(capsys, "filter", str(shots), "--t-floor", "3")
        assert code == 0
        lines = out.strip().splitlines()
        report = json.loads(lines[1])
        assert report["radius"] > 1
        assert f" r={report['radius']} " in lines[0]
        assert report["s_out"] == 3

    @pytest.mark.parametrize("flags, t_floor, lines", [
        (["--n", "20", "--k", "4", "--s", "100000", "--seed", "11"], "2", [
            "filter: S_in=100000 S_out=35364 r=1 T=3.00407 lambda=0.0953674 removed=64636",
            '{"lambda": 0.095367431640625, "radius": 1, "removed": 64636, "s_in": 100000, '
            '"s_out": 35364, "threshold": 3.0040740966796875}',
        ]),
        (["--n", "128", "--k", "4", "--s", "2000", "--seed", "13"], "65", [
            "filter: S_in=2000 S_out=193 r=51 T=65 lambda=5.87747e-36 removed=1807",
            '{"lambda": 5.8774717541114375e-36, "radius": 51, "removed": 1807, "s_in": 2000, '
            '"s_out": 193, "threshold": 65.0}',
        ]),
    ], ids=["radius-1", "widened"])
    def test_report_lines_are_pinned(self, capsys, tmp_path, flags, t_floor, lines):
        # both forms of the report, whole, on a radius-1 and a widened filter
        data = tmp_path / "data.json"
        assert run(capsys, "generate", *flags, "--out", str(data))[0] == 0
        code, out, _ = run(capsys, "filter", str(data), "--t-floor", t_floor)
        assert code == 0
        assert out.splitlines() == lines

    def test_writes_filtered_counts(self, capsys, tmp_path):
        shots = tmp_path / "shots.txt"
        shots.write_text("0011\n" * 30 + "1100\n")
        out = tmp_path / "kept.json"
        code, _, _ = run(
            capsys, "filter", str(shots), "--threshold", "5", "--out", str(out)
        )
        assert code == 0
        kept = load_counts(out)
        assert {k.text for k in kept.counts} == {"0011"}

    @pytest.mark.parametrize("body, s_in", [
        (' {"0101": 3, "0110": 4}', 7),
        ('\r\n\t {"0101":3}\n', 3),
        ("\n\n0101\n \n0110\n", 2),
    ], ids=["counts-after-space", "counts-after-whitespace", "shots-after-blank-lines"])
    def test_format_read_from_first_non_blank_byte(self, capsys, tmp_path, body, s_in):
        data = tmp_path / "data"
        data.write_text(body)
        code, out, err = run(capsys, "filter", str(data), "--threshold", "1")
        assert code == 0, err
        assert out.startswith(f"filter: S_in={s_in} ")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="opens a pipe by path")
    @pytest.mark.parametrize("body", [
        b"0101\n0110\n0101\n1111\n",
        b'{"0101":3,"0110":4}\n',
    ], ids=["shots", "counts"])
    def test_reads_a_pipe_once(self, capsys, tmp_path, body):
        # like a shell's <(...): a second open of the path reads nothing
        data = tmp_path / "data"
        data.write_bytes(body)
        by_name = run(capsys, "filter", str(data), "--t-floor", "1")
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, body)
            os.close(write_end)
            by_pipe = run(capsys, "filter", f"/dev/fd/{read_end}", "--t-floor", "1")
        finally:
            os.close(read_end)
        assert by_pipe[:2] == by_name[:2]
        assert by_name[0] == 0 and len(by_name[1].splitlines()) == 2

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="opens a pipe by path")
    @pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("body", [
        b'{"0101":3,"0110":4}\n',
        b'{"0101": 3, "0110": 4}',
        b"0101\n0110\n0101\n",
    ], ids=["counts", "other-counts", "shots"])
    def test_opens_its_input_once(self, capsys, monkeypatch, tmp_path, body, piped):
        # the format is sniffed from the stream the loader then reads
        opened, real_open = [], builtins.open

        def counted_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        data = tmp_path / "data"
        data.write_bytes(body)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, body)
            os.close(write_end)
            path = f"/dev/fd/{read_end}" if piped else str(data)
            monkeypatch.setattr(builtins, "open", counted_open)
            code, out, err = run(capsys, "filter", path, "--t-floor", "1")
        finally:
            os.close(read_end)
        assert code == 0, err
        assert opened.count(path) == 1


class TestPipeline:
    def _generate(self, capsys, tmp_path, seed="3"):
        data = tmp_path / "data.json"
        code, _, _ = run(
            capsys, "generate", "--n", "10", "--k", "2", "--s", "4000",
            "--p", "0.85", "--eps-low", "0.02", "--eps-high", "0.1",
            "--seed", seed, "--out", str(data),
        )
        assert code == 0
        return data

    def test_generate_filter_mitigate_evaluate(self, capsys, tmp_path):
        data = self._generate(capsys, tmp_path)
        model = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "mitigate", str(data), "--model-out", str(model),
            "--seed", "4", "--t-floor", "25",
        )
        assert code == 0
        code, out, _ = run(
            capsys, "evaluate", "--model", str(model),
            "--truth", str(tmp_path / "data.json.truth.json"),
        )
        assert code == 0
        result = json.loads(out)
        assert result["ber"] == 0.0
        assert result["k_correct"] is True
        assert result["k_hat"] == 2
        assert result["hellinger"] > 0.99

    def test_mitigate_deterministic(self, capsys, tmp_path):
        data = self._generate(capsys, tmp_path)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for m in (m1, m2):
            code, _, _ = run(
                capsys, "mitigate", str(data), "--model-out", str(m), "--seed", "9"
            )
            assert code == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_only_generate_loads_numpy_random(self, capsys, tmp_path):
        # numpy.random brings OpenSSL in through secrets and hashlib: a
        # fresh process that filters, mitigates and evaluates never loads it
        data = self._generate(capsys, tmp_path)
        out, model = str(tmp_path / "f.json"), str(tmp_path / "m.json")
        code = (
            "import sys\n"
            "from qem_mix import cli\n"
            "for argv in (\n"
            f"    ['filter', {str(data)!r}, '--t-floor', '25', '--out', {out!r}],\n"
            f"    ['mitigate', {str(data)!r}, '--t-floor', '25', '--seed', '4',\n"
            f"     '--model-out', {model!r}],\n"
            f"    ['evaluate', '--model', {model!r}, '--truth', {str(data) + '.truth.json'!r}],\n"
            "):\n"
            "    assert cli.dispatch(['--quiet', *argv]) == 0, argv\n"
            "    assert 'numpy.random' not in sys.modules, argv[0]\n"
            "argv = ['--quiet', 'generate', '--n', '4', '--k', '1', '--s', '10',\n"
            f"        '--out', {str(tmp_path / 'g.json')!r}]\n"
            "assert cli.dispatch(argv) == 0\n"
            "assert 'numpy.random' in sys.modules\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr

    def test_mitigate_logs_radius_not_in_model(self, capsys, tmp_path, caplog):
        import logging
        data = tmp_path / "wide.txt"
        data.write_text("".join(
            x + "\n" for x in ("0" * 64, "1" * 64, "1" * 62 + "00", "1" * 60 + "0011")
        ))
        model = tmp_path / "model.json"
        with caplog.at_level(logging.INFO, logger="qem_mix"):
            code = dispatch([
                "mitigate", str(data), "--model-out", str(model), "--t-floor", "3",
                "--no-mml", "--k-max", "1", "--seed", "1",
            ])
        capsys.readouterr()
        assert code == 0
        assert any("kept 3 of 4 shots at Hamming radius" in r.message
                   for r in caplog.records)
        doc = json.loads(model.read_text())
        assert doc["meta"]["filter_kept"] == 3
        assert "radius" not in doc and "radius" not in doc["meta"]

    def test_skip_filter_and_no_mml(self, capsys, tmp_path):
        data = tmp_path / "clean.txt"
        data.write_text("0101\n" * 60 + "1010\n" * 40)
        model = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "mitigate", str(data), "--model-out", str(model),
            "--skip-filter", "--no-mml", "--k-min", "2", "--k-max", "2",
            "--seed", "1",
        )
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["k_hat"] == 2
        assert sorted(doc["solutions"]) == ["0101", "1010"]

    def test_threshold_override_on_mitigate(self, capsys, tmp_path):
        data = tmp_path / "clean.txt"
        data.write_text("0101\n" * 60 + "1111\n" * 2)
        model = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "mitigate", str(data), "--model-out", str(model),
            "--threshold", "10", "--seed", "2",
        )
        assert code == 0
        doc = json.loads(model.text if hasattr(model, "text") else model.read_text())
        assert doc["solutions"] == ["0101"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before CPython 3.11 the caller's frame keeps a call's arguments alive, "
    "so the input outlives the filter"))
class TestInputFreedBeforeEm:
    def _input_alive_at_em(self, capsys, monkeypatch, data, *flags) -> bool:
        """Whether the dataset ``mitigate`` loaded is alive when EM starts."""
        loaded, alive = [], []
        load, em = cli._load_dataset, harness.run_em

        def load_spy(path):
            dataset = load(path)
            loaded.append(weakref.ref(dataset))
            return dataset

        def em_spy(*args, **kwargs):
            alive.append(loaded[0]() is not None)
            return em(*args, **kwargs)

        monkeypatch.setattr(cli, "_load_dataset", load_spy)
        monkeypatch.setattr(harness, "run_em", em_spy)
        code, _, err = run(capsys, "mitigate", str(data), "--seed", "1",
                           "--model-out", str(data) + ".model.json", *flags)
        assert code == 0, err
        return alive == [True]

    def test_freed_after_the_filter(self, capsys, monkeypatch, tmp_path):
        data = tmp_path / "data.json"
        assert run(capsys, "generate", "--n", "10", "--k", "2", "--s", "4000",
                   "--seed", "3", "--out", str(data))[0] == 0
        assert not self._input_alive_at_em(capsys, monkeypatch, data, "--t-floor", "25")

    def test_kept_where_em_runs_on_it(self, capsys, monkeypatch, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("0101\n" * 60 + "1010\n" * 40)
        assert self._input_alive_at_em(capsys, monkeypatch, data, "--skip-filter")
        # every string has 3 shots within one bit, under T=10: the filter
        # removes them all and EM falls back to the input
        data.write_text("0000000000\n" * 3 + "1111111111\n" * 3)
        assert self._input_alive_at_em(capsys, monkeypatch, data,
                                       "--threshold", "10", "--no-mml")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_em_raises_no_new_peak(self, capsys, tmp_path):
        # a fresh process: EM's arrays and imports fit under the peak the
        # load and the filter set, once the unfiltered input is freed
        data = tmp_path / "data.json"
        assert run(capsys, "generate", "--n", "20", "--k", "4", "--s", "1000000",
                   "--p", "0.85", "--eps-low", "0.02", "--eps-high", "0.1",
                   "--seed", "11", "--out", str(data))[0] == 0
        code = PEAK + (
            "from qem_mix import cli, harness\n"
            "marks = {}\n"
            "def after(name, func):\n"
            "    def spy(*args, **kwargs):\n"
            "        result = func(*args, **kwargs)\n"
            "        marks[name] = peak()\n"
            "        return result\n"
            "    return spy\n"
            "harness.filter_dataset = after('filter', harness.filter_dataset)\n"
            "harness.run_em = after('em', harness.run_em)\n"
            f"argv = ['--quiet', 'mitigate', {str(data)!r}, '--t-floor', '65', '--seed', '5']\n"
            "assert cli.dispatch(argv) == 0\n"
            "print(marks['filter'], marks['em'])\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        filtered, em = map(int, done.stdout.split())
        assert em <= filtered + 1024  # KiB


class TestProcessExit:
    """``main`` freezes the heap before it exits; ``dispatch`` does not."""

    SWEEP = {"n_values": [8], "k_values": [2], "s_values": [500],
             "noise": [{"p": 0.3, "eps_low": 0.01, "eps_high": 0.05}],
             "repeats": 2, "master_seed": 3, "em": {"k_max": 6}}
    COMMANDS = (
        ("generate", "--n", "10", "--k", "2", "--s", "2000", "--p", "0.85",
         "--eps-low", "0.02", "--eps-high", "0.1", "--seed", "3", "--out", "data.json"),
        ("filter", "data.json", "--t-floor", "25", "--out", "kept.json"),
        ("mitigate", "data.json", "--t-floor", "25", "--seed", "4", "--model-out", "model.json"),
        ("evaluate", "--model", "model.json", "--truth", "data.json.truth.json"),
        ("sweep", "--config", "sweep.json", "--out", "sweep"),
    )
    OUTPUTS = ("data.json", "data.json.truth.json", "kept.json", "model.json",
               "sweep/rows.csv", "sweep/summary.json")

    def test_main_freezes_the_heap(self, tmp_path):
        # the atexit hook runs after main's sys.exit, during finalization
        shots = tmp_path / "shots.txt"
        shots.write_text("0110\n" * 3 + "0111\n")
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"sys.argv = ['qem-mix', '--quiet', 'filter', {str(shots)!r}]\n"
            "from qem_mix import cli\n"
            "cli.main()\n"
        )
        done = run_python(code)
        assert done.returncode == 0 and done.stderr == ""
        lines = done.stdout.splitlines()
        assert len(lines) == 3 and lines[0].startswith("filter: S_in=4 S_out=4 ")
        word, count = lines[2].split()
        assert word == "frozen" and int(count) > 0

    def test_processes_match_dispatch(self, capsys, tmp_path, monkeypatch):
        # the same commands, by relative paths, in two directories: one
        # through fresh ``python -m qem_mix.cli`` processes, one in-process
        outs = {}
        for side in ("process", "dispatch"):
            work = tmp_path / side
            work.mkdir()
            (work / "sweep.json").write_text(json.dumps(self.SWEEP))
            monkeypatch.chdir(work)
            stdout = []
            for argv in self.COMMANDS:
                if side == "process":
                    done = run_cli("--quiet", *argv, cwd=work)
                    code, out = done.returncode, done.stdout
                else:
                    code, out, _ = run(capsys, "--quiet", *argv)
                assert code == 0, (side, argv)
                stdout.append(out)
            outs[side] = stdout, [(work / name).read_bytes() for name in self.OUTPUTS]
        assert outs["process"] == outs["dispatch"]

    @pytest.mark.parametrize("argv, exit_code", [
        (("generate", "--n", "2", "--k", "5", "--s", "10", "--seed", "1", "--out", "x.json"), 1),
        (("filter", "missing.json"), 2),
        (("filter", "shots.txt"), 3),
    ], ids=["exit-1", "exit-2", "exit-3"])
    def test_exit_codes_through_main(self, tmp_path, argv, exit_code):
        (tmp_path / "shots.txt").write_text("0000000000\n1111111111\n")
        done = run_cli(*argv, cwd=tmp_path)
        assert done.returncode == exit_code
        assert len([line for line in done.stderr.splitlines()
                    if line.startswith("error: ")]) == 1
        assert "Traceback" not in done.stderr

    def test_no_command_leaves_a_resource_to_collect(self, tmp_path):
        # the freeze leaves garbage alive at exit to the OS, so every output
        # must be closed before dispatch returns: in dev mode, an unclosed
        # file found by the collection after each command would warn
        (tmp_path / "sweep.json").write_text(json.dumps(self.SWEEP))
        code = (
            "import gc\n"
            "from qem_mix import cli\n"
            f"for argv in {[list(argv) for argv in self.COMMANDS]!r}:\n"
            "    assert cli.dispatch(['--quiet', *argv]) == 0, argv\n"
            "    gc.collect()\n"
            "assert cli.dispatch(['--quiet', 'sweep', '--config', 'sweep.json',\n"
            "                     '--out', 'sweep2', '--jobs', '2']) == 0\n"
            "gc.collect()\n"
        )
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                              cwd=tmp_path, capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"))
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr and "Exception ignored" not in done.stderr


class TestSweepCommand:
    def _config(self, tmp_path, master_seed=3):
        doc = {
            "n_values": [8], "k_values": [2], "s_values": [500],
            "noise": [{"p": 0.3, "eps_low": 0.01, "eps_high": 0.05}],
            "repeats": 2, "master_seed": master_seed,
            "filter": {"eta": 1.5, "t_floor": 2},
            "em": {"k_max": 6},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        return path

    def test_sweep_outputs(self, capsys, tmp_path):
        config = self._config(tmp_path)
        out = tmp_path / "out"
        code, _, _ = run(capsys, "sweep", "--config", str(config), "--out", str(out))
        assert code == 0
        rows = (out / "rows.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 repeats
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overall_p_k_error"] == 0.0

    def test_jobs_do_not_change_bytes(self, capsys, tmp_path):
        config = self._config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "sweep", "--config", str(config), "--out", str(a), "--jobs", "1")[0] == 0
        assert run(capsys, "sweep", "--config", str(config), "--out", str(b), "--jobs", "2")[0] == 0
        assert (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    @pytest.mark.parametrize("p", [2, "nan"])
    def test_bad_noise_config_exit_2(self, capsys, tmp_path, p):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"n_values": [8], "k_values": [2], "s_values": [50],
                                    "noise": [{"p": p}]}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "--quiet", "sweep", "--config", str(path), "--out", str(out))
        assert code == 2
        assert len(err.splitlines()) == 1 and "depolarizing probability" in err
        assert not out.exists()

    def test_negative_master_seed_in_config_exit_2(self, capsys, tmp_path):
        config = self._config(tmp_path, master_seed=-3)
        out = tmp_path / "out"
        code, _, err = run(capsys, "--quiet", "sweep", "--config", str(config), "--out", str(out))
        assert code == 2
        assert err.splitlines() == [f"error: {config}: master_seed must be >= 0, got -3"]
        assert not out.exists()

    def test_non_integer_em_field_exit_2(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"n_values": [8], "k_values": [2], "s_values": [50],
                                    "noise": [{"p": 0.5}], "em": {"k_max": 4.5}}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "--quiet", "sweep", "--config", str(path), "--out", str(out))
        assert code == 2
        assert err.splitlines() == [f"error: {path}: k_max: 4.5 is not an integer"]
        assert not (out / "rows.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("t_floor", True), ("t_floor", 65.5), ("eta", True)])
    def test_mistyped_filter_field_exit_2(self, capsys, tmp_path, field, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"n_values": [8], "k_values": [2], "s_values": [50],
                                    "noise": [{"p": 0.5}], "filter": {field: value}}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "--quiet", "sweep", "--config", str(path), "--out", str(out))
        assert code == 2
        assert len(err.splitlines()) == 1 and f"{path}: {field}" in err
        assert not out.exists()

    @pytest.mark.parametrize("change,shown", [
        ({"noise": [5]}, "noise: 5"), ({"filter": 3}, "filter: 3"),
        ({"filter": None}, "filter: None"), ({"em": [1]}, "em: [1]"),
    ], ids=["number-noise-entry", "number-filter", "null-filter", "list-em"])
    def test_non_object_field_exit_2(self, capsys, tmp_path, change, shown):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict({"n_values": [8], "k_values": [2], "s_values": [50],
                                         "noise": [{"p": 0.5}]}, **change)))
        out = tmp_path / "out"
        code, _, err = run(capsys, "--quiet", "sweep", "--config", str(path), "--out", str(out))
        assert code == 2
        assert err.splitlines() == [f"error: {path}: {shown} is not an object"]
        assert not (out / "rows.csv").exists()

    def test_import_loads_no_pool_module(self):
        # only a sweep with --jobs > 1 or a radius-r filter pass needs a pool
        code = ("import sys, qem_mix.cli\n"
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process',\n"
                "                         'concurrent.futures.thread') if m in sys.modules))")
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_1_before_load(self, capsys, tmp_path, monkeypatch, jobs):
        from qem_mix import cli

        def no_load(path):
            raise AssertionError("read the config despite a bad --jobs")
        monkeypatch.setattr(cli, "load_sweep_config", no_load)
        out = tmp_path / "out"
        code, _, err = run(capsys, "sweep", "--config", str(self._config(tmp_path)),
                           "--out", str(out), "--jobs", jobs)
        assert code == 1
        assert err.splitlines() == [f"error: --jobs must be >= 1, got {jobs}"]
        assert not out.exists()

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert "nope.json" in err
