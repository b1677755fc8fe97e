"""CLI tests for ``repro loadtest``: usage errors before any load, the
``--json`` keys CI reads, ``--fail-on-error``, and in-process writes.
"""

import json

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph
from repro.cli import main
from repro.store import MvccStore

#: The ``--json`` keys CI's step summary reads.
CI_KEYS = ("total", "reads", "writes", "read_qps", "write_qps", "error",
           "rejected", "torn", "p95")

#: Bad arguments -> a fragment the usage error must print.
BAD_ARGUMENTS = {
    "unknown-id": (["--mix", "Q99=1"], "unknown query 'Q99'"),
    "weight-not-a-number": (["--mix", "Q1=x"], "not 'x'"),
    "weight-zero": (["--mix", "Q1=0"], "not 0"),
    "weight-nan": (["--mix", "Q1=nan"], "not nan"),
    "no-clients": (["--clients", "0"], "not 0"),
    "all-updates": (["--update-fraction", "1"], "not 1"),
    "negative-updates": (["--update-fraction", "-0.5"], "not -0.5"),
    "no-room-for-probes": (["--update-fraction", "0.9"], "not 0.9"),
    # A budget that voids the run: every request an error or a timeout,
    # or no request at all.
    "timeout-nan": (["--timeout", "nan"],
                    "--timeout: must be a positive number of seconds, not nan"),
    "timeout-zero": (["--timeout", "0"],
                     "--timeout: must be a positive number of seconds, not 0"),
    "timeout-negative": (["--timeout", "-1"],
                         "--timeout: must be a positive number of seconds, not -1"),
    "duration-nan": (["--duration", "nan"],
                     "--duration: must be a positive number of seconds, not nan"),
    "duration-zero": (["--duration", "0"],
                      "--duration: must be a positive number of seconds, not 0"),
    "duration-negative": (["--duration", "-1"],
                          "--duration: must be a positive number of seconds, not -1"),
}


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("loadtest-cli") / "doc.nt"
    assert main(["generate", str(path), "--triples", "1000"]) == 0
    return str(path)


def loadtest(capsys, *options):
    capsys.readouterr()
    code = main(["loadtest", "--duration", "0.3", "--clients", "2",
                 "--mix", "Q1,Q12c", *options])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_are_usage_errors_before_loading(tmp_path, capsys, case):
    arguments, fragment = BAD_ARGUMENTS[case]
    # The document does not exist: the arguments must be rejected first.
    with pytest.raises(SystemExit) as exited:
        main(["loadtest", "--document", str(tmp_path / "missing.sp2b"),
              *arguments])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert fragment in err


@pytest.mark.parametrize("read_only", [False, True],
                         ids=["writable", "read-only"])
def test_json_carries_every_key_ci_reads(capsys, read_only):
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=500))
    engine.store = MvccStore(engine.store)
    with SparqlServer(engine, port=0, workers=2,
                      read_only=read_only) as server:
        code, out, _ = loadtest(capsys, "--url", server.url, "--json",
                                "--update-fraction", "0.3")
    assert code == 0
    report = json.loads(out)
    assert set(CI_KEYS) <= set(report) and "mode" not in report
    assert report["writes"] > 0 and report["error"] == 0
    assert report["torn"] == 0
    # A read-only server refuses writes by policy: rejected, not error.
    assert (report["rejected"] > 0) == read_only
    assert (report["write_qps"] > 0) != read_only


def test_fail_on_error_exits_1_against_an_unreachable_url(capsys):
    code, _, err = loadtest(capsys, "--url", "http://127.0.0.1:9/sparql",
                            "--fail-on-error")
    assert code == 1
    assert "loadtest failed: " in err


def test_fail_on_error_exits_0_against_a_healthy_server(capsys):
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=500))
    with SparqlServer(engine, port=0, workers=2) as server:
        code, out, _ = loadtest(capsys, "--url", server.url, "--fail-on-error")
    assert code == 0
    assert out.startswith("2 client(s), ")


def test_in_process_writes_commit_without_torn_reads(document, capsys):
    code, out, _ = loadtest(capsys, "--document", document, "--json",
                            "--update-fraction", "0.3")
    assert code == 0
    report = json.loads(out)
    assert report["writes"] > 0 and report["torn"] == 0
    assert report["error"] == 0
