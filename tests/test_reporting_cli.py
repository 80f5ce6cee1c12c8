"""Tests for the reporting helpers and the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets import make_blobs
from repro.reporting import compare_methods, evaluate_summary, render_comparison


class TestReporting:
    def test_evaluate_summary_panel(self):
        X, y = make_blobs(200, n_clusters=4, cluster_std=0.1, random_state=0)
        from repro import KMeans

        model = KMeans(4, n_init=5, random_state=0).fit(X)
        panel = evaluate_summary(X, y, model.labels_, model.cluster_centers_)
        assert set(panel) == {"ari", "acc", "nmi", "inertia"}
        assert panel["acc"] > 0.9
        assert panel["inertia"] == pytest.approx(model.inertia_)

    def test_compare_methods_order_and_budget(self):
        X, y = make_blobs(300, n_clusters=9, random_state=1)
        results = compare_methods(X, y, 9, n_init=3, random_state=0)
        assert len(results) == 4
        # First two are the KR variants at (3, 3).
        assert results[0].method.startswith("Khatri-Rao-k-Means-+")
        assert results[1].method.startswith("Khatri-Rao-k-Means-x")
        # Equal-parameter baseline, then the optimistic bound.
        assert results[2].parameters == results[0].parameters
        assert results[3].parameters > results[0].parameters

    def test_compare_methods_prime_k_fallback(self):
        X, y = make_blobs(200, n_clusters=7, random_state=2)
        results = compare_methods(X, y, 7, n_init=2, random_state=0)
        # 7 is prime: the protocol falls back to factoring 8 -> (4, 2).
        assert "(4, 2)" in results[0].method

    def test_render_comparison(self):
        X, y = make_blobs(200, n_clusters=4, random_state=3)
        block = render_comparison(compare_methods(X, y, 4, n_init=2,
                                                  random_state=0))
        assert "ARI" in block and "params*" in block
        assert len(block.splitlines()) == 7  # header, rule, 4 rows, footnote


class TestCLI:
    def test_parser_version_and_commands(self):
        parser = build_parser()
        for command in ("datasets", "fit", "summary", "quantize", "serve"):
            args = parser.parse_args(
                [command] + (["--dataset", "r15"] if command == "fit" else [])
                + (["x.npz"] if command == "summary" else [])
                + (["--model", "m=x.npz"] if command == "serve" else [])
            )
            assert args.command == command

    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "stickfigures" in out

    def test_fit_command_with_save(self, tmp_path, capsys):
        target = tmp_path / "summary.npz"
        code = main([
            "fit", "--dataset", "r15", "--scale", "0.3", "--n-init", "2",
            "--cardinalities", "5", "3", "--save", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Khatri-Rao-k-Means-+" in out
        assert target.exists()

        assert main(["summary", str(target)]) == 0
        out = capsys.readouterr().out
        assert "15 clusters" in out

    def test_quantize_command(self, capsys):
        assert main(["quantize", "--colors", "3", "3"]) == 0
        out = capsys.readouterr().out
        assert "khatri-rao-k-means" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag,value", [
        ("--n-jobs", "0"), ("--n-jobs", "-1"),
        ("--n-threads", "0"), ("--n-threads", "-1"),
    ])
    def test_non_positive_worker_counts_exit_before_any_work(
        self, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "fit", "--dataset", "r15", "--scale", "0.3",
                "--save", str(tmp_path / "m.npz"),
                "--checkpoint-dir", str(tmp_path / "d"), flag, value,
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no dataset loaded, no table fitted
        assert "usage:" in captured.err and flag in captured.err

    def test_n_jobs_with_checkpoint_dir_is_refused(self, tmp_path, capsys):
        code = main([
            "fit", "--dataset", "r15", "--save", str(tmp_path / "m.npz"),
            "--checkpoint-dir", str(tmp_path / "d"), "--n-jobs", "1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n-jobs is incompatible" in captured.err


class TestCLIServe:
    """The serve command's parser defaults and server construction.

    serve_forever itself is exercised end-to-end by the smoke harness
    (python -m repro.serving._smoke) and the CI serving-smoke step; here
    we build the exact CLI-shaped server without entering the loop.
    """

    @pytest.fixture
    def saved_summary(self, tmp_path):
        from repro import KhatriRaoKMeans, summarize

        X, _ = make_blobs(200, n_clusters=9, random_state=0)
        model = KhatriRaoKMeans((3, 3), n_init=2, random_state=0).fit(X)
        return summarize(model).save(tmp_path / "m.npz")

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m=x.npz"])
        assert args.dtype == "float32"          # float32 is the hot path
        assert args.window_ms == 0.0            # work-conserving batcher
        assert args.port == 8080
        assert args.rate_limit is None

    def test_build_server_from_args(self, saved_summary):
        from repro.cli import build_server_from_args

        args = build_parser().parse_args([
            "serve", "--model", f"demo={saved_summary}",
            "--port", "0", "--window-ms", "2", "--rate-limit", "100",
            "--quiet",
        ])
        server = build_server_from_args(args)
        try:
            assert server.registry.get("demo").dtype == np.float32
            assert server.batcher.window_s == pytest.approx(0.002)
            assert server.bucket is not None
            assert server.log_requests is False
            assert server.server_address[1] > 0
        finally:
            server.stop()

    def test_build_server_native_dtype(self, saved_summary):
        from repro.cli import build_server_from_args

        args = build_parser().parse_args([
            "serve", "--model", f"demo={saved_summary}",
            "--dtype", "native", "--port", "0", "--quiet",
        ])
        server = build_server_from_args(args)
        try:
            assert server.registry.get("demo").dtype == np.float64
        finally:
            server.stop()

    def test_bad_model_spec_rejected(self, saved_summary):
        from repro.cli import build_server_from_args
        from repro.exceptions import ValidationError

        args = build_parser().parse_args([
            "serve", "--model", "just-a-name", "--port", "0",
        ])
        with pytest.raises(ValidationError, match="NAME=PATH"):
            build_server_from_args(args)

    def test_malformed_artifact_refused_at_startup(self, tmp_path):
        from repro.cli import build_server_from_args
        from repro.exceptions import SummaryFormatError

        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"garbage")
        args = build_parser().parse_args([
            "serve", "--model", f"bad={bad}", "--port", "0",
        ])
        with pytest.raises(SummaryFormatError):
            build_server_from_args(args)


def test_cli_import_loads_no_scipy():
    """scipy is imported at first use: ``repro.cli`` (and so every
    ``serve`` process) must not pay ~0.4 s to load it up front."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
