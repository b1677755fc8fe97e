"""CLI tests for the observability flags: --profile and --scrape-metrics.

The serve-side flags (--metrics/--access-log/--slow-query-ms) are
exercised against a live server in ``tests/server/test_metrics_endpoint``
and end-to-end by the CI serve smoke test; here we cover the pure-CLI
surfaces that need no running server.
"""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs-cli") / "doc.nt"
    assert main(["generate", str(path), "--triples", "2000"]) == 0
    return str(path)


class TestQueryProfile:
    def test_profile_prints_stage_and_step_timings(self, document, capsys):
        capsys.readouterr()
        assert main(["query", document, "--query", "Q2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stages:" in out
        for stage in ("parse=", "plan=", "execute="):
            assert stage in out
        assert "time=" in out
        assert "est=" in out and "actual=" in out
        result = out.strip().splitlines()[-1]
        assert result.startswith("result: rows=")
        for field in (" decoded=", " operators=", " boundary="):
            assert field in result

    def test_profile_and_explain_share_the_traced_report(self, document,
                                                         capsys):
        capsys.readouterr()
        assert main(["query", document, "--query", "Q1", "--explain"]) == 0
        out = capsys.readouterr().out
        # --explain rides the same traced path, so it reports stages too.
        assert "stages:" in out


class TestLoadtestScrapeMetrics:
    def test_scrape_metrics_requires_url(self, document, capsys):
        with pytest.raises(SystemExit):
            main(["loadtest", "--document", document, "--duration", "0.1",
                  "--scrape-metrics"])
        assert "--scrape-metrics requires --url" in capsys.readouterr().err
