"""CLI tests for ``repro query``: engines, output formats, --limit, --repeat,
query files, and the failures that must print a message, never a traceback.
"""

import csv
import io
import json
import socket
import xml.etree.ElementTree as ET

import pytest

from repro.cli import CLI_ENGINE_CONFIGS, TABLE_PREVIEW_ROWS, main
from repro.queries import get_query
from repro.sparql.serializers import FORMATS

SPARQL_RESULTS = "{http://www.w3.org/2005/sparql-results#}"

#: format -> stdout document -> the values of its solutions' ``?yr``.
YEARS = {
    "json": lambda out: [b["yr"]["value"]
                         for b in json.loads(out)["results"]["bindings"]],
    "xml": lambda out: [e.text for e in ET.fromstring(out).iter(
        SPARQL_RESULTS + "literal")],
    "csv": lambda out: [row["yr"] for row in csv.DictReader(io.StringIO(out))],
    "tsv": lambda out: [line.split('"')[1] for line in out.splitlines()[1:]],
}

#: format -> stdout document -> the boolean of an ASK result.
BOOLEAN = {
    "json": lambda out: json.loads(out)["boolean"],
    "xml": lambda out: ET.fromstring(out).find(SPARQL_RESULTS + "boolean")
    .text == "true",
    "csv": lambda out: out.strip() == "true",
    "tsv": lambda out: out.strip() == "true",
}


def _undecodable_file(tmp_path):
    path = tmp_path / "latin1.rq"
    path.write_bytes('ASK { ?s ?p "caf\xe9" }'.encode("latin-1"))
    return str(path)


#: --query arguments that are neither a catalog id nor a readable file.
UNREADABLE = {
    "next-id": lambda tmp_path: "Q13",
    "id-prefix": lambda tmp_path: "Q12",
    "empty": lambda tmp_path: "",
    "missing-file": lambda tmp_path: str(tmp_path / "missing.rq"),
    "directory": str,
    "undecodable-file": _undecodable_file,
}


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    # 2000 triples reach the 1940 entry points Q1 relies on.
    path = tmp_path_factory.mktemp("query-cli") / "doc.nt"
    assert main(["generate", str(path), "--triples", "2000"]) == 0
    return str(path)


def run_query(capsys, document, *options):
    capsys.readouterr()
    code = main(["query", document, *options])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(capsys, document, *options):
    code, out, _ = run_query(capsys, document, "--format", "csv", *options)
    assert code == 0
    return out.splitlines()[1:]


@pytest.mark.parametrize("engine", [config.name for config in CLI_ENGINE_CONFIGS])
def test_every_engine_finds_the_1940_journal(document, capsys, engine):
    code, out, _ = run_query(capsys, document, "--query", "Q1", "--engine", engine)
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("Q1: 1 results")
    assert '"1940"' in row


@pytest.mark.parametrize("config", CLI_ENGINE_CONFIGS, ids=lambda config: config.name)
def test_explain_reports_the_plan_of_every_engine(document, capsys, config):
    rows = len(csv_rows(capsys, document, "--query", "Q5a",
                        "--engine", config.name))
    code, out, _ = run_query(capsys, document, "--query", "Q5a", "--explain",
                             "--engine", config.name)
    assert code == 0
    assert f"engine={config.name} rows={rows} " in out
    # Every engine observes each step's actual rows, self time and q-error,
    # and names what reached the result boundary.
    steps = [line for line in out.splitlines() if line.lstrip()[:1].isdigit()]
    assert steps
    for line in steps:
        assert "actual=-" not in line and "qerr=-" not in line and " time=" in line
    assert f"result: rows={rows} decoded=" in out


@pytest.mark.parametrize("format", FORMATS)
def test_select_format_keeps_stdout_one_document(document, capsys, format):
    code, out, err = run_query(capsys, document, "--query", "Q1",
                               "--format", format)
    assert code == 0
    assert YEARS[format](out) == ["1940"]
    assert err.startswith("Q1: prepare ")  # timings stay off stdout


@pytest.mark.parametrize("format", FORMATS)
def test_ask_format_writes_the_boolean(document, capsys, format):
    code, out, _ = run_query(capsys, document, "--query", "Q12a",
                             "--format", format)
    assert code == 0 and BOOLEAN[format](out) is True
    code, out, _ = run_query(capsys, document, "--query", "Q12c",
                             "--format", format)
    assert code == 0 and BOOLEAN[format](out) is False


@pytest.mark.parametrize("limit", (0, 1, 5, 10_000))
def test_limit_keeps_a_prefix_of_the_result(document, capsys, limit):
    full = csv_rows(capsys, document, "--query", "Q3a")
    assert len(full) > 5
    assert csv_rows(capsys, document, "--query", "Q3a",
                    "--limit", str(limit)) == full[:limit]


def test_table_previews_rows_unless_limited(document, capsys):
    total = len(csv_rows(capsys, document, "--query", "Q3a"))
    assert total > TABLE_PREVIEW_ROWS + 1
    _, out, _ = run_query(capsys, document, "--query", "Q3a")
    lines = out.splitlines()
    assert lines[0].startswith(f"Q3a: {total} results")
    assert len(lines) == 1 + TABLE_PREVIEW_ROWS
    limit = TABLE_PREVIEW_ROWS + 1
    _, out, _ = run_query(capsys, document, "--query", "Q3a",
                          "--limit", str(limit))
    assert len(out.splitlines()) == 1 + limit


def test_repeat_prints_the_result_once_and_amortized_times(document, capsys):
    code, out, err = run_query(capsys, document, "--query", "Q1",
                               "--format", "json", "--repeat", "3")
    assert code == 0
    assert YEARS["json"](out) == ["1940"]
    assert "3 runs: first " in err and "amortized " in err


def test_query_file_is_read_when_not_a_catalog_id(document, capsys, tmp_path):
    path = tmp_path / "q1.rq"
    path.write_text(get_query("Q1").text, encoding="utf-8")
    code, out, _ = run_query(capsys, document, "--query", str(path))
    assert code == 0
    assert out.startswith(f"{path}: 1 results")


def test_parse_error_prints_the_payload(document, capsys, tmp_path):
    path = tmp_path / "broken.rq"
    path.write_text("SELECT WHERE {", encoding="utf-8")
    code, out, err = run_query(capsys, document, "--query", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unknown_query_is_a_usage_error_before_loading(tmp_path, capsys, case):
    argument = UNREADABLE[case](tmp_path)
    # The document does not exist: the query must be rejected first.
    with pytest.raises(SystemExit) as exited:
        main(["query", str(tmp_path / "missing.sp2b"), "--query", argument])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"unknown query {argument!r}; known queries: Q1, Q10," in err


#: Bad arguments of every subcommand, each with the message naming it.
BAD_ARGUMENTS = {
    "query-negative-limit": (["query", "{doc}", "--limit", "-1"],
                             "--limit: must be at least 0, not -1"),
    "query-zero-repeat": (["query", "{doc}", "--repeat", "0"],
                          "--repeat: must be at least 1, not 0"),
    "serve-zero-workers": (["serve", "{doc}", "--workers", "0"],
                           "--workers: must be at least 1, not 0"),
    "serve-nan-timeout": (["serve", "{doc}", "--timeout", "nan"],
                          "--timeout: must be a positive number of seconds, not nan"),
    "serve-zero-timeout": (["serve", "{doc}", "--timeout", "0"],
                           "--timeout: must be a positive number of seconds, not 0"),
    "serve-negative-timeout": (["serve", "{doc}", "--timeout", "-1"],
                               "--timeout: must be a positive number of seconds, not -1"),
    "serve-nan-max-timeout": (["serve", "{doc}", "--max-timeout", "NaN"],
                              "--max-timeout: must be a positive number of seconds, not NaN"),
    "serve-zero-max-timeout": (["serve", "{doc}", "--max-timeout", "0"],
                               "--max-timeout: must be a positive number of seconds, not 0"),
    "serve-bad-timeout": (["serve", "{doc}", "--timeout", "soon"],
                          "--timeout: invalid float value: 'soon'"),
    "serve-negative-port": (["serve", "{doc}", "--port", "-1"],
                            "--port: must be a port from 0 to 65535, not -1"),
    "serve-port-too-big": (["serve", "{doc}", "--port", "65536"],
                           "--port: must be a port from 0 to 65535, not 65536"),
    "serve-nan-slow-query": (["serve", "{doc}", "--slow-query-ms", "nan"],
                             "--slow-query-ms: must be a non-negative number of "
                             "milliseconds, not nan"),
    "serve-negative-slow-query": (["serve", "{doc}", "--slow-query-ms", "-5"],
                                  "--slow-query-ms: must be a non-negative number of "
                                  "milliseconds, not -5"),
    "bench-unknown-query": (["bench", "--sizes", "100", "--no-cache",
                             "--queries", "Q1", "Q99"],
                            "unknown query 'Q99'; known queries: Q1,"),
    "bench-zero-runs": (["bench", "--sizes", "100", "--no-cache",
                         "--runs", "0"], "--runs: must be at least 1, not 0"),
    "bench-nan-timeout": (["bench", "--sizes", "100", "--no-cache",
                           "--timeout", "nan"],
                          "--timeout: must be a positive number of seconds, not nan"),
    "bench-zero-timeout": (["bench", "--sizes", "100", "--no-cache",
                            "--timeout", "0"],
                           "--timeout: must be a positive number of seconds, not 0"),
    "bench-negative-timeout": (["bench", "--sizes", "100", "--no-cache",
                                "--timeout", "-5"],
                               "--timeout: must be a positive number of seconds, not -5"),
    "build-negative-size": (["build", "--cache-dir", "{dir}",
                             "--triples", "-5"],
                            "--triples: must be at least 1, not -5"),
    "cache-key-bad-size": (["cache", "key", "--sizes", "abc"],
                           "--sizes takes positive integers, not 'abc'"),
    "cache-key-empty-sizes": (["cache", "key", "--sizes", ""],
                              "--sizes takes positive integers, not ''"),
    "cache-prune-blank-sizes": (["cache", "prune", "--cache-dir", "{dir}",
                                 "--sizes", " , "],
                                "--sizes takes positive integers, not ' , '"),
    "cache-prune-bad-size": (["cache", "prune", "--cache-dir", "{dir}",
                              "--sizes", "1000,0"],
                             "--sizes takes positive integers, not '1000,0'"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_are_usage_errors_before_loading(tmp_path, capsys, case):
    argv, message = BAD_ARGUMENTS[case]
    # The document does not exist: validation must come first.
    argv = [word.format(doc=tmp_path / "missing.sp2b", dir=tmp_path / "cache")
            for word in argv]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not (tmp_path / "cache").exists()


#: Documents that cannot be loaded: (file name, contents or None for a
#: missing file, the reason printed after the file name).
BAD_DOCUMENTS = {
    "missing-ntriples": ("nope.nt", None, "No such file or directory"),
    "missing-snapshot": ("nope.sp2b", None, "No such file or directory"),
    "garbage-snapshot": ("garbage.sp2b", "garbage\n", "not an SP2Bench snapshot"),
    "truncated-triple": ("short.nt", "<a> <b> .\n", "line 1: unexpected character"),
}


@pytest.mark.parametrize("command", ["query", "serve"])
@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_a_bad_document_is_one_line_and_exit_1(tmp_path, capsys, command, case):
    name, contents, reason = BAD_DOCUMENTS[case]
    path = tmp_path / name
    if contents is not None:
        path.write_text(contents, encoding="utf-8")
    argv = [command, str(path)] + (["--port", "0"] if command == "serve" else [])
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot load {path}: {reason}")
    assert err.count("\n") == 1
    assert "serving" not in out


def test_a_busy_port_is_one_line_and_exit_1(tmp_path, capsys):
    document = tmp_path / "one.nt"
    document.write_text("<http://t/a> <http://t/p> <http://t/b> .\n", encoding="utf-8")
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        assert main(["serve", str(document), "--port", str(port), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot bind 127.0.0.1:{port}: ")
    assert err.count("\n") == 1


def test_a_busy_port_is_reported_before_the_document_loads(tmp_path, capsys):
    missing = tmp_path / "missing.nt"
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        assert main(["serve", str(missing), "--port", str(port), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot bind 127.0.0.1:{port}: ")
    assert "cannot load" not in err
    assert err.count("\n") == 1


def test_health_does_not_answer_while_the_document_loads(tmp_path, monkeypatch, capsys):
    import urllib.request

    import repro.cli

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    answered = []

    def loading(document, engine_name):
        # The socket is bound and accepts the connection, but nothing serves
        # it until the load is done.
        try:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=0.3)
            answered.append(True)
        except OSError:
            answered.append(False)
        raise SystemExit(1)

    monkeypatch.setattr(repro.cli, "_build_engine", loading)
    with pytest.raises(SystemExit):
        main(["serve", str(tmp_path / "doc.nt"), "--port", str(port), "--quiet"])
    assert answered == [False]
    assert "serving" not in capsys.readouterr().out


@pytest.mark.parametrize("read_only", [True, False], ids=["read-only", "read-write"])
def test_serve_read_only_flag_reaches_the_server(tmp_path, monkeypatch, capsys, read_only):
    # ``repro serve --read-only`` refuses updates with the structured 403 and
    # keeps the store unwrapped; without it updates commit through MVCC.
    import urllib.error
    import urllib.parse
    import urllib.request

    from repro.server import SparqlServer

    document = tmp_path / "one.nt"
    document.write_text("<http://t/a> <http://t/p> <http://t/b> .\n", encoding="utf-8")
    seen = {}

    def serve_briefly(server):
        with server:  # serves on a background thread until the block ends
            with urllib.request.urlopen(server.health_url, timeout=5) as response:
                seen["read_only"] = json.loads(response.read())["read_only"]
            update = urllib.request.Request(
                server.update_url, data=b"INSERT DATA { <http://t/x> <http://t/p> 1 . }",
                headers={"Content-Type": "application/sparql-update"})
            try:
                with urllib.request.urlopen(update, timeout=5) as response:
                    seen["update"] = response.status, None
            except urllib.error.HTTPError as error:
                seen["update"] = error.code, json.loads(error.read())["error"]["code"]
            query = urllib.parse.urlencode({"query": "SELECT ?s WHERE { ?s ?p ?o }"})
            with urllib.request.urlopen(f"{server.url}?{query}", timeout=5) as response:
                seen["rows"] = len(json.loads(response.read())["results"]["bindings"])
        seen["store"] = type(server.engine.store).__name__

    monkeypatch.setattr(SparqlServer, "serve_forever", serve_briefly)
    argv = ["serve", str(document), "--port", "0", "--quiet"]
    assert main(argv + ["--read-only"] * read_only) == 0
    assert seen["read_only"] is read_only
    if read_only:
        assert seen == {"read_only": True, "update": (403, "read_only"), "rows": 1,
                        "store": "IndexedStore"}
    else:
        assert seen == {"read_only": False, "update": (200, None), "rows": 2,
                        "store": "MvccStore"}
    mode = "read-only" if read_only else "read/write"
    assert f"serving SPARQL Protocol ({mode})" in capsys.readouterr().out
