import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from otce import (
    MetricConfig,
    SinkhornConfig,
    SyntheticTaskSpec,
    f_otce,
    generate_task_pair,
    jc_otce,
    read_feature_file,
    write_feature_file,
)
from otce.cli import main

from conftest import make_set, well_separated_set


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, [str(a) for a in args])
    return result


def report_of(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def assert_invalid_option(result):
    # A config's ValueError is reported as invalid input, not a traceback.
    assert result.exit_code == 2, result.output
    assert "error: invalid option:" in result.output
    assert isinstance(result.exception, SystemExit)


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing_ms"}


@pytest.fixture
def task_files(tmp_path, rng):
    src = well_separated_set(rng, n=24, d=3, classes=2, name="src")
    tgt = well_separated_set(rng, n=24, d=3, classes=2, name="tgt")
    src_path = tmp_path / "src.ftrs"
    tgt_path = tmp_path / "tgt.ftrs"
    write_feature_file(src, src_path)
    write_feature_file(tgt, tgt_path)
    return src_path, tgt_path


class TestScore:
    def test_identical_files_recover_zero(self, runner, tmp_path, rng):
        fs = well_separated_set(rng, n=20, classes=2)
        path = tmp_path / "a.ftrs"
        write_feature_file(fs, path)
        result = invoke(
            runner, "score", "--metric", "f-otce",
            "--source", path, "--target", path, "--lambda", 1e-3,
        )
        report = report_of(result)
        assert abs(report["results"]["value"]) <= 1e-3
        assert report["results"]["metric"] == "f-otce"
        assert report["command"] == "score"

    def test_jc_gamma_one_equals_f(self, runner, task_files):
        src, tgt = task_files
        f_report = report_of(invoke(
            runner, "score", "--metric", "f-otce", "--source", src, "--target", tgt
        ))
        jc_report = report_of(invoke(
            runner, "score", "--metric", "jc-otce", "--gamma", 1.0,
            "--source", src, "--target", tgt,
        ))
        assert jc_report["results"]["value"] == f_report["results"]["value"]

    def test_nce_requires_paired_lengths(self, runner, tmp_path, rng):
        a = well_separated_set(rng, n=10, classes=2)
        b = well_separated_set(rng, n=12, classes=2)
        pa, pb = tmp_path / "a.ftrs", tmp_path / "b.ftrs"
        write_feature_file(a, pa)
        write_feature_file(b, pb)
        result = invoke(runner, "score", "--metric", "nce", "--source", pa, "--target", pb)
        assert result.exit_code == 2

    def test_nce_value(self, runner, tmp_path):
        a = make_set([[0.0], [1.0]], [0, 1])
        b = make_set([[0.0], [1.0]], [0, 1])
        pa, pb = tmp_path / "a.ftrs", tmp_path / "b.ftrs"
        write_feature_file(a, pa)
        write_feature_file(b, pb)
        report = report_of(
            invoke(runner, "score", "--metric", "nce", "--source", pa, "--target", pb)
        )
        assert report["results"]["value"] == 0.0
        assert report["results"]["lambda"] is None

    @pytest.mark.parametrize("max_iter", [1000, 3])
    def test_marginal_error_reported(self, runner, task_files, max_iter):
        src, tgt = task_files
        report = report_of(invoke(
            runner, "score", "--metric", "f-otce", "--source", src, "--target", tgt,
            "--max-iter", max_iter,
        ))
        results = report["results"]
        score = f_otce(
            read_feature_file(src), read_feature_file(tgt),
            MetricConfig(sinkhorn=SinkhornConfig(max_iterations=max_iter)),
        )
        assert results["marginal_error"] == score.final_marginal_error
        assert results["converged"] == (score.final_marginal_error <= 1e-9)
        assert list(results)[-1] == "marginal_error"

    def test_jc_label_diagnostics_reported_last(self, runner, task_files):
        src, tgt = task_files
        report = report_of(invoke(
            runner, "score", "--metric", "jc-otce", "--source", src, "--target", tgt,
            "--max-iter", 3,
        ))
        results = report["results"]
        score = jc_otce(
            read_feature_file(src), read_feature_file(tgt),
            MetricConfig(sinkhorn=SinkhornConfig(max_iterations=3)),
        )
        assert list(results)[-3:] == ["marginal_error", "label_unconverged", "label_marginal_error"]
        assert results["label_unconverged"] == score.label_unconverged == 4
        assert results["label_marginal_error"] == score.label_marginal_error > 0.0

    def test_nce_marginal_error_is_zero(self, runner, tmp_path):
        a = make_set([[0.0], [1.0]], [0, 1])
        pa = tmp_path / "a.ftrs"
        write_feature_file(a, pa)
        report = report_of(
            invoke(runner, "score", "--metric", "nce", "--source", pa, "--target", pa)
        )
        assert report["results"]["marginal_error"] == 0.0

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = invoke(
            runner, "score", "--metric", "f-otce",
            "--source", tmp_path / "no.ftrs", "--target", tmp_path / "no.ftrs",
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("options", [
        ("--metric", "f-otce", "--lambda", 0),
        ("--metric", "f-otce", "--lambda", "nan"),
        ("--metric", "f-otce", "--lambda", "inf"),
        ("--metric", "f-otce", "--max-iter", 0),
        ("--metric", "jc-otce", "--gamma", 2),
        # nce takes neither option, but its report echoes both.
        ("--metric", "nce", "--lambda", "nan"),
        # Plain scaling was removed.
        ("--metric", "f-otce", "--no-log-domain"),
    ])
    def test_invalid_option_exit_2(self, runner, task_files, options):
        src, tgt = task_files
        result = invoke(runner, "score", "--source", src, "--target", tgt, *options)
        assert_invalid_option(result)

    def test_report_deterministic_modulo_timing(self, runner, task_files):
        src, tgt = task_files
        args = ("score", "--metric", "jc-otce", "--source", src, "--target", tgt)
        a = report_of(invoke(runner, *args))
        b = report_of(invoke(runner, *args))
        assert strip_timing(a) == strip_timing(b)


class TestRank:
    def test_singleton(self, runner, tmp_path, rng):
        tgt = well_separated_set(rng, n=12, classes=2)
        tgt_path = tmp_path / "t.ftrs"
        write_feature_file(tgt, tgt_path)
        sources = tmp_path / "zoo"
        sources.mkdir()
        write_feature_file(well_separated_set(rng, n=10, classes=2), sources / "only.ftrs")
        report = report_of(invoke(runner, "rank", "--target", tgt_path, "--sources", sources))
        ranking = report["results"]["ranking"]
        assert len(ranking) == 1 and ranking[0]["rank"] == 1

    def test_self_ranks_first(self, runner, tmp_path, rng):
        tgt = well_separated_set(rng, n=16, classes=2, name="self")
        tgt_path = tmp_path / "t.ftrs"
        write_feature_file(tgt, tgt_path)
        sources = tmp_path / "zoo"
        sources.mkdir()
        write_feature_file(tgt, sources / "self.ftrs")
        other = well_separated_set(rng, n=16, classes=2, name="other")
        shuffled = make_set(
            other.features, np.random.default_rng(0).permutation(other.labels), 2
        )
        write_feature_file(shuffled, sources / "other.ftrs")
        report = report_of(invoke(
            runner, "rank", "--target", tgt_path, "--sources", sources,
            "--lambda", 1e-3,
        ))
        ranking = report["results"]["ranking"]
        assert ranking[0]["task_id"] == "self"
        assert abs(ranking[0]["value"]) <= 1e-3
        assert all(entry["marginal_error"] >= 0.0 for entry in ranking)

    def test_empty_dir_exit_2(self, runner, tmp_path):
        tgt_path = tmp_path / "t.ftrs"
        write_feature_file(make_set([[0.0]], [0]), tgt_path)
        empty = tmp_path / "zoo"
        empty.mkdir()
        result = invoke(runner, "rank", "--target", tgt_path, "--sources", empty)
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "options", [("--lambda", "inf"), ("--gamma", -1), ("--no-log-domain",)]
    )
    def test_invalid_option_exit_2(self, runner, tmp_path, rng, options):
        tgt_path = tmp_path / "t.ftrs"
        write_feature_file(well_separated_set(rng, n=8, classes=2), tgt_path)
        sources = tmp_path / "zoo"
        sources.mkdir()
        write_feature_file(well_separated_set(rng, n=8, classes=2), sources / "a.ftrs")
        result = invoke(
            runner, "rank", "--target", tgt_path, "--sources", sources,
            "--metric", "jc-otce", *options,
        )
        assert_invalid_option(result)

    def test_corrupt_source_exit_2_names_file(self, runner, tmp_path, rng):
        tgt_path = tmp_path / "t.ftrs"
        write_feature_file(well_separated_set(rng, n=8, classes=2), tgt_path)
        sources = tmp_path / "zoo"
        sources.mkdir()
        (sources / "broken.ftrs").write_bytes(b"garbage")
        result = invoke(runner, "rank", "--target", tgt_path, "--sources", sources)
        assert result.exit_code == 2
        assert "broken.ftrs" in result.output

    def test_failing_source_exit_2_names_file(self, runner, tmp_path, rng):
        # A source of another feature dimension reads fine and fails only
        # when it is scored; the error names it, and the exit code stays 2.
        tgt_path = tmp_path / "t.ftrs"
        write_feature_file(well_separated_set(rng, n=8, d=3, classes=2), tgt_path)
        sources = tmp_path / "zoo"
        sources.mkdir()
        for name in ("a", "c"):
            write_feature_file(well_separated_set(rng, n=8, d=3, classes=2), sources / f"{name}.ftrs")
        write_feature_file(well_separated_set(rng, n=8, d=4, classes=2), sources / "wide.ftrs")
        result = invoke(runner, "rank", "--target", tgt_path, "--sources", sources)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.strip() == (
            f"error: {sources / 'wide.ftrs'}: feature dimensions differ: 4 vs 3"
        )

    def test_overflowing_source_exit_3_names_file(self, runner, tmp_path, rng):
        # -cost/lam overflows on every source, so the first one scored
        # fails; the error names it, and the exit code stays 3.
        tgt_path = tmp_path / "t.ftrs"
        write_feature_file(well_separated_set(rng, n=8, classes=2), tgt_path)
        sources = tmp_path / "zoo"
        sources.mkdir()
        for name in ("a", "b"):
            write_feature_file(well_separated_set(rng, n=8, classes=2), sources / f"{name}.ftrs")
        result = invoke(
            runner, "rank", "--target", tgt_path, "--sources", sources, "--lambda", 1e-308
        )
        assert result.exit_code == 3 and result.stdout == ""
        assert result.stderr.strip() == (
            f"numerical failure: {sources / 'a.ftrs'}: -cost/lam overflows (lam=1e-308)"
        )
        assert "retry" not in result.stderr


class TestCorr:
    def _write(self, tmp_path, rows, header=True):
        path = tmp_path / "pairs.csv"
        lines = (["task_id,score,accuracy"] if header else []) + rows
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_concordant(self, runner, tmp_path):
        path = self._write(tmp_path, ["a,-0.9,0.1", "b,-0.5,0.5", "c,-0.1,0.9"])
        report = report_of(invoke(runner, "corr", "--pairs", path))
        assert report["results"]["spearman_rho"] == pytest.approx(1.0)
        assert report["results"]["kendall_tau"] == pytest.approx(1.0)

    def test_reversed(self, runner, tmp_path):
        path = self._write(tmp_path, ["a,-0.1,0.1", "b,-0.5,0.5", "c,-0.9,0.9"])
        report = report_of(invoke(runner, "corr", "--pairs", path))
        assert report["results"]["spearman_rho"] == pytest.approx(-1.0)
        assert report["results"]["kendall_tau"] == pytest.approx(-1.0)

    def test_worked_three_row_example(self, runner, tmp_path):
        # accuracy ranks (1,2,3) against score ranks (1,3,2)
        path = self._write(tmp_path, ["a,-0.9,0.2", "b,-0.3,0.5", "c,-0.5,0.8"])
        report = report_of(invoke(runner, "corr", "--pairs", path, "--method", "both"))
        assert report["results"]["spearman_rho"] == pytest.approx(0.5, abs=1e-12)
        assert report["results"]["kendall_tau"] == pytest.approx(1 / 3, abs=1e-12)

    def test_too_few_rows_exit_2(self, runner, tmp_path):
        path = self._write(tmp_path, ["a,-0.9,0.2"])
        assert invoke(runner, "corr", "--pairs", path).exit_code == 2

    def test_header_after_blank_line(self, runner, tmp_path):
        # The header is the first non-blank row, wherever it stands.
        rows = ["a,-0.9,0.2", "b,-0.3,0.5", "c,-0.5,0.8"]
        plain = report_of(invoke(runner, "corr", "--pairs", self._write(tmp_path, rows)))
        path = tmp_path / "pairs.csv"
        path.write_text("\n" + path.read_text())
        assert report_of(invoke(runner, "corr", "--pairs", path))["results"] == plain["results"]

    def test_headerless(self, runner, tmp_path):
        path = self._write(tmp_path, ["a,-0.9,0.1", "b,-0.1,0.9"], header=False)
        report = report_of(invoke(runner, "corr", "--pairs", path))
        assert report["results"]["n"] == 2

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_non_finite_score_exit_2(self, runner, tmp_path, score):
        path = self._write(tmp_path, ["a,-0.9,0.1", f"b,{score},0.5", "c,-0.1,0.9"])
        result = invoke(runner, "corr", "--pairs", path)
        assert result.exit_code == 2
        assert "must be finite" in result.output


class TestOptimize:
    def test_zero_steps_bit_exact(self, runner, tmp_path, rng):
        spec = SyntheticTaskSpec(samples_per_class=6, seed=3)
        src, tgt = generate_task_pair(spec)
        sp, tp = tmp_path / "s.ftrs", tmp_path / "t.ftrs"
        write_feature_file(src, sp)
        write_feature_file(tgt, tp)
        out = tmp_path / "o.ftrs"
        report = report_of(invoke(
            runner, "optimize", "--source", sp, "--target", tp,
            "--out", out, "--steps", 0,
        ))
        assert out.read_bytes() == tp.read_bytes()
        assert report["results"]["initial_f_otce"] == report["results"]["final_f_otce"]

    def test_zero_lr_constant_trace(self, runner, tmp_path):
        spec = SyntheticTaskSpec(samples_per_class=6, seed=3)
        src, tgt = generate_task_pair(spec)
        sp, tp = tmp_path / "s.ftrs", tmp_path / "t.ftrs"
        write_feature_file(src, sp)
        write_feature_file(tgt, tp)
        out = tmp_path / "o.ftrs"
        trace = tmp_path / "trace.csv"
        report_of(invoke(
            runner, "optimize", "--source", sp, "--target", tp, "--out", out,
            "--steps", 3, "--lr", 0.0, "--trace", trace,
            "--source-batch", 100, "--target-batch", 100,
        ))
        values = {line.split(",")[1] for line in trace.read_text().splitlines()[1:]}
        assert len(values) == 1
        assert out.read_bytes() == tp.read_bytes()

    def test_overflowing_gradient_exit_3(self, tmp_path):
        # At lam 1e-300 -cost/lam is finite, but the gradient overflows. Run
        # with every RuntimeWarning an error, the report is exit 3, with no
        # retry hint and no warning.
        src, tgt = generate_task_pair(SyntheticTaskSpec(
            classes=3, dim=2, samples_per_class=10, centroid_separation=4.0,
            domain_shift=1.0, seed=1,
        ))
        sp, tp, out = tmp_path / "s.ftrs", tmp_path / "t.ftrs", tmp_path / "o.ftrs"
        write_feature_file(src, sp)
        write_feature_file(tgt, tp)
        source = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "otce.cli", "optimize",
             "--source", str(sp), "--target", str(tp), "--out", str(out),
             "--lambda", "1e-300", "--steps", "3"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 3, result.stderr
        assert result.stderr == "numerical failure: non-finite gradient (lam=1e-300)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "options",
        [("--unroll", 0), ("--lr", -1), ("--lambda", "inf"), ("--lr", "inf"), ("--seed", -1)],
    )
    def test_invalid_option_exit_2(self, runner, tmp_path, options):
        src, tgt = generate_task_pair(SyntheticTaskSpec(samples_per_class=6, seed=3))
        sp, tp = tmp_path / "s.ftrs", tmp_path / "t.ftrs"
        write_feature_file(src, sp)
        write_feature_file(tgt, tp)
        out = tmp_path / "o.ftrs"
        result = invoke(
            runner, "optimize", "--source", sp, "--target", tp, "--out", out,
            "--steps", 1, *options,
        )
        assert_invalid_option(result)
        assert not out.exists()

    def test_synthetic_task_improves(self, runner, tmp_path):
        spec = SyntheticTaskSpec(
            samples_per_class=12, seed=5, domain_shift=2.0,
            label_permutation_fraction=0.3,
        )
        src, tgt = generate_task_pair(spec)
        sp, tp = tmp_path / "s.ftrs", tmp_path / "t.ftrs"
        write_feature_file(src, sp)
        write_feature_file(tgt, tp)
        out = tmp_path / "o.ftrs"
        report = report_of(invoke(
            runner, "optimize", "--source", sp, "--target", tp, "--out", out,
            "--steps", 40, "--lr", 5.0, "--seed", 1,
        ))
        assert report["results"]["final_f_otce"] > report["results"]["initial_f_otce"]
        assert read_feature_file(out).n == tgt.n


class TestSynthAndConvert:
    def test_same_spec_identical_hashes(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "classes": 2, "dim": 2, "samples_per_class": 5,
            "centroid_separation": 4.0, "seed": 12,
        }))
        a = report_of(invoke(runner, "synth", "--spec", spec, "--out", tmp_path / "a"))
        b = report_of(invoke(runner, "synth", "--spec", spec, "--out", tmp_path / "b"))
        assert a["results"]["sha256"] == b["results"]["sha256"]

    def test_malformed_json_exit_2(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert invoke(runner, "synth", "--spec", spec, "--out", tmp_path / "x").exit_code == 2

    def test_unknown_key_exit_2(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"classes": 2, "bogus": 1}))
        assert invoke(runner, "synth", "--spec", spec, "--out", tmp_path / "x").exit_code == 2

    def test_full_noise_scores_near_independence(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "classes": 2, "dim": 2, "samples_per_class": 100,
            "label_permutation_fraction": 1.0, "seed": 3,
        }))
        report = report_of(invoke(runner, "synth", "--spec", spec, "--out", tmp_path / "x"))
        score = report_of(invoke(
            runner, "score", "--metric", "f-otce",
            "--source", report["results"]["source"],
            "--target", report["results"]["target"],
        ))
        assert abs(score["results"]["value"] - (-math.log(2))) < 0.1

    def test_convert_round_trip(self, runner, tmp_path):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text("0,1.5,2.5\n1,0.25,-1.0\n")
        out = tmp_path / "out.ftrs"
        report = report_of(invoke(runner, "convert", "--csv", csv_path, "--out", out))
        assert report["results"] == {
            "output": str(out), "samples": 2, "dim": 2, "classes": 2,
        }
        fs = read_feature_file(out)
        assert fs.features.tolist() == [[1.5, 2.5], [0.25, -1.0]]
        assert fs.labels.tolist() == [0, 1]

    def test_convert_header_after_blank_line(self, runner, tmp_path):
        text = "label,x0,x1\n0,1.0,2.0\n1,3.0,4.0\n"
        outputs = []
        for name, body in (("plain", text), ("blank", "\n" + text)):
            csv_path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.ftrs"
            csv_path.write_text(body)
            report_of(invoke(runner, "convert", "--csv", csv_path, "--out", out, "--has-header"))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestLambdaOverflow:
    # A lambda so small that -cost/lambda overflows, or at 5e-324 -1/lambda
    # itself, is a numerical failure naming lambda in every command that
    # solves, not a zero-mass plan (exit 2) or a score from a garbage
    # kernel (exit 0).
    SPEC = {"classes": 3, "dim": 2, "samples_per_class": 10, "centroid_separation": 4.0,
            "domain_shift": 1.0, "seed": 1}

    @pytest.mark.parametrize("lam", ["1e-308", "5e-324"])
    @pytest.mark.parametrize("command", [
        ("score", "--metric", "f-otce"),
        ("score", "--metric", "jc-otce"),
        ("optimize", "--steps", "2"),
    ], ids=["f-otce", "jc-otce", "optimize"])
    def test_exit_3(self, runner, tmp_path, command, lam):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        pair = report_of(invoke(runner, "synth", "--spec", spec, "--out", tmp_path))["results"]
        if command[0] == "optimize":
            command += ("--out", tmp_path / "out.ftrs")
        result = invoke(
            runner, *command, "--source", pair["source"], "--target", pair["target"],
            "--lambda", lam,
        )
        assert result.exit_code == 3, result.output
        assert f"-cost/lam overflows (lam={float(lam)!r})" in result.output
        assert "retry" not in result.output


# Malformed inputs that once ended in a traceback (exit 1), were taken
# silently (exit 0: the 3e9 label, samples_per_class 2.5, seed true, a NaN
# shift, a true separation or fraction) or failed only after a numpy
# RuntimeWarning (an infinite separation or shift). IN is the input file
# written from the bytes, OUT a path that does not exist.
_LONG = "1" * 200_000  # over csv's 131072-character field limit
_SYNTH = ["synth", "--spec", "IN", "--out", "OUT"]
_CONVERT = ["convert", "--csv", "IN", "--out", "OUT"]
_MALFORMED = {
    "synth-float-dim": (_SYNTH, b'{"dim": 2.0}'),
    "synth-float-samples": (_SYNTH, b'{"samples_per_class": 2.5}'),
    "synth-float-seed": (_SYNTH, b'{"seed": 1.5}'),
    "synth-bool-seed": (_SYNTH, b'{"seed": true}'),
    "synth-nan-shift": (_SYNTH, b'{"domain_shift": NaN}'),
    "synth-inf-shift": (_SYNTH, b'{"domain_shift": Infinity}'),
    "synth-huge-int-shift": (_SYNTH, b'{"domain_shift": 1' + b"0" * 400 + b"}"),
    "synth-inf-separation": (_SYNTH, b'{"centroid_separation": Infinity}'),
    "synth-bool-separation": (_SYNTH, b'{"centroid_separation": true}'),
    "synth-bool-fraction": (_SYNTH, b'{"label_permutation_fraction": true}'),
    "synth-not-utf8": (_SYNTH, b'{"seed": "\xff"}'),
    "synth-out-onto-file": (["synth", "--spec", "IN", "--out", "IN"], b"{}"),
    "convert-long-field": (_CONVERT, f"0,{_LONG}\n".encode()),
    "convert-not-utf8": (_CONVERT, b"0,1.0\n1,\xff\n"),
    "convert-label-3e9": (_CONVERT, b"0,1.0\n3000000000,2.0\n"),
    "convert-label-1e20": (_CONVERT, b"0,1.0\n100000000000000000000,2.0\n"),
    "corr-long-field": (["corr", "--pairs", "IN"], f"a,{_LONG},0.5\nb,0.1,0.2\n".encode()),
    "corr-not-utf8": (["corr", "--pairs", "IN"], b"a,0.1,0.5\nb,\xff,0.2\n"),
}


@pytest.mark.parametrize("args,payload", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_exit_2(runner, tmp_path, args, payload):
    given = tmp_path / "given"
    given.write_bytes(payload)
    paths = {"IN": given, "OUT": tmp_path / "out"}
    result = invoke(runner, *(paths.get(a, a) for a in args))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output
    assert not paths["OUT"].exists()
    # A rejected spec field is named.
    field = re.match(rb'\{"(\w+)": [^"]', payload)
    if args == _SYNTH and field:
        assert field[1].decode() in lines[0]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"bare {constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_every_command_reports_strict_json(runner, tmp_path, task_files):
    # json.loads takes a bare NaN or Infinity unless told not to.
    src, tgt = task_files
    sources = tmp_path / "sources"
    sources.mkdir()
    (sources / "a.ftrs").write_bytes(src.read_bytes())
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("a,-0.9,0.1\nb,-0.5,0.5\nc,-0.1,0.9\n")
    spec = tmp_path / "spec.json"
    spec.write_text('{"samples_per_class": 4, "domain_shift": 1.5}')
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("0,1.5,2.5\n1,0.25,-1.0\n")
    commands = [
        *(["score", "--metric", m, "--source", src, "--target", tgt]
          for m in ("f-otce", "jc-otce", "nce")),
        ["rank", "--target", tgt, "--sources", sources],
        ["corr", "--pairs", pairs],
        ["optimize", "--source", src, "--target", tgt, "--out", tmp_path / "o.ftrs",
         "--steps", 2, "--trace", tmp_path / "trace.csv"],
        ["synth", "--spec", spec, "--out", tmp_path / "synth"],
        ["convert", "--csv", csv_path, "--out", tmp_path / "c.ftrs"],
    ]
    for args in commands:
        result = invoke(runner, *args)
        assert result.exit_code == 0, result.output
        assert _strict_json(result.stdout)["command"] == args[0]
