"""End-to-end tests for ``python -m repro.analysis`` (both subcommands)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.__main__ import main
from repro.analysis.demos import DEMOS, resolve_target
from repro.core.uncertain import Uncertain

BAD_SOURCE = """\
from repro import Uncertain
from repro.dists import Gaussian

x = Uncertain(Gaussian(0, 1))
y = float(x)
"""

CLEAN_SOURCE = "a = 1\n"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE)
    return path


class TestLintCommand:
    def test_finding_exits_nonzero(self, bad_file, capsys):
        assert main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "UNC201" in out and "bad.py:5" in out

    def test_clean_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text(CLEAN_SOURCE)
        assert main(["lint", str(path)]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_exit_zero_flag(self, bad_file):
        assert main(["lint", str(bad_file), "--exit-zero"]) == 0

    def test_json_output_to_file(self, bad_file, tmp_path):
        report = tmp_path / "report.json"
        main(["lint", str(bad_file), "--json", "--output", str(report)])
        payload = json.loads(report.read_text())
        assert payload["version"] == 1
        assert payload["mode"] == "lint"
        assert [f["rule"] for f in payload["findings"]] == ["UNC201"]

    def test_lint_directory(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_SOURCE)
        (tmp_path / "ok.py").write_text(CLEAN_SOURCE)
        assert main(["lint", str(tmp_path)]) == 1
        assert "found 1 issue(s)" in capsys.readouterr().out

    def test_select_filter(self, bad_file, capsys):
        assert main(["lint", str(bad_file), "--select", "UNC203"]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_enable_unc204(self, tmp_path, capsys):
        path = tmp_path / "loop.py"
        path.write_text(
            "from repro import Uncertain\n"
            "from repro.dists import Gaussian\n"
            "x = Uncertain(Gaussian(0, 1))\n"
            "for _ in range(3):\n"
            "    if x > 1.0:\n"
            "        pass\n"
        )
        assert main(["lint", str(path)]) == 0  # opt-in rule is off (info-only)
        assert main(["lint", str(path), "--enable-unc204"]) == 0
        assert "UNC204" in capsys.readouterr().out


class TestGraphCommand:
    def test_div_by_zero_demo(self, capsys):
        assert main(["graph", "div-by-zero"]) == 1
        out = capsys.readouterr().out
        assert "UNC101" in out
        assert "inferred supports" in out
        assert "distance_m" in out

    def test_clean_demo_exits_zero(self, capsys):
        assert main(["graph", "fig08"]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_warning_only_demo_exits_zero(self, capsys):
        assert main(["graph", "decided-comparison"]) == 0
        assert "UNC103" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["graph", "div-by-zero", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "graph"
        assert payload["target"] == "div-by-zero"
        assert [f["rule"] for f in payload["findings"]] == ["UNC101"]
        assert payload["inferred_supports"]  # one entry per node

    def test_module_callable_spec(self, capsys):
        assert main(
            ["graph", "tests.analysis.test_cli:build_bad_graph"]
        ) == 1
        assert "UNC101" in capsys.readouterr().out

    def test_unknown_demo_rejected(self):
        with pytest.raises(SystemExit):
            main(["graph", "no-such-demo"])

    def test_every_demo_builds(self):
        for name in DEMOS:
            assert isinstance(resolve_target(name), Uncertain)


class TestCertifyCommand:
    def test_default_corpus_certifies_and_exits_zero(self, capsys):
        assert main(["certify"]) == 0
        out = capsys.readouterr().out
        assert "rejected 0" in out
        for name in ("fig08", "gps-window", "sprt-sum"):
            assert f"{name}: certified" in out

    def test_single_target(self, capsys):
        assert main(["certify", "fig08"]) == 0
        out = capsys.readouterr().out
        assert "kernel-certify: certified" in out
        assert "stream-certify" not in out

    def test_json_report_to_file(self, tmp_path):
        report = tmp_path / "certify.json"
        assert main(["certify", "fig08", "--json",
                     "--output", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["mode"] == "certify"
        target = payload["targets"]["fig08"]
        assert target["status"] == "certified"
        assert target["elapsed_ms"] > 0
        assert [r["name"] for r in target["records"]] == ["kernel-certify"]

    def test_probe_targets_do_not_fail_the_gate(self, capsys):
        # There is no probe to defer to: an opaque plan falls back to the
        # numpy engine, which fails the gate unless it is advisory.
        target = "tests.analysis.test_cli:build_opaque_graph"
        assert main(["certify", target]) == 1
        assert "fallback" in capsys.readouterr().out
        assert main(["certify", target, "--exit-zero"]) == 0

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["certify", "no-such-plan"])


def build_bad_graph() -> Uncertain:
    """Target for the ``module:callable`` spec test."""
    from repro.dists import Gaussian, Uniform

    return Uncertain(Uniform(0, 10)) / Uncertain(Gaussian(1.0, 0.5))


def build_opaque_graph() -> Uncertain:
    """A plan with an opaque map: the fused backend falls back to numpy."""
    from repro.dists import Gaussian

    return Uncertain(Gaussian(0, 1)).map(lambda v: v * 2.0)
