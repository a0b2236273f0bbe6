"""CLI surface of the observability layer.

``repro simulate --quick --trace --metrics``, ``repro metrics`` and
``repro trace summarize``.  The legacy
``repro trace <output>`` generator keeps its positional argument — the
summarizer is dispatched on the exact ``trace summarize`` prefix.
"""

import repro.obs as obs
from repro.cli import main
from repro.obs.metrics import parse_prometheus


def run_simulate(tmp_path, capsys, *extra, scheme="one"):
    trace = tmp_path / "trace.jsonl"
    prom = tmp_path / "metrics.prom"
    rc = main(
        [
            "simulate", "--quick", "--scheme", scheme,
            "--arrival-rate", "0.5", "--seed", "1",
            "--trace", str(trace), "--metrics", str(prom),
            *extra,
        ]
    )
    return rc, trace, prom, capsys.readouterr().out


def test_simulate_trace_and_metrics_flags(tmp_path, capsys):
    rc, trace, prom, out = run_simulate(tmp_path, capsys)
    assert rc == 0
    assert "wrote" in out and str(trace) in out and str(prom) in out
    records = obs.read_trace(trace)
    counts = obs.validate_trace_records(records)
    assert counts["span"] > 0
    assert counts["event"] > 0
    assert counts["metrics"] == 1
    samples = parse_prometheus(prom.read_text())
    assert samples["repro_server_rekeys_total"] > 0


def test_simulate_obs_check_agrees(tmp_path, capsys):
    from repro.obs.check import main as check_main

    rc, trace, prom, _ = run_simulate(tmp_path, capsys)
    assert rc == 0
    assert check_main([str(trace), str(prom)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_simulate_without_flags_leaves_obs_off(capsys):
    from repro.obs import events, metrics, tracing

    rc = main(
        ["simulate", "--quick", "--scheme", "one",
         "--arrival-rate", "0.5", "--seed", "1"]
    )
    assert rc == 0
    assert metrics.active_registry() is None
    assert tracing.active_tracer() is None
    assert events.active_log() is None
    assert "wrote" not in capsys.readouterr().out.split("scheme:")[0]


def test_metrics_command_prom_format(capsys):
    rc = main(["metrics", "--horizon", "180", "--transport", "none"])
    assert rc == 0
    samples = parse_prometheus(capsys.readouterr().out)
    assert samples["repro_server_rekeys_total"] > 0


def test_metrics_command_json_format(capsys):
    import json

    rc = main(["metrics", "--horizon", "180", "--transport", "none",
               "--format", "json"])
    assert rc == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["server.rekeys"]["kind"] == "counter"


def test_trace_summarize_command(tmp_path, capsys):
    rc, trace, _, _ = run_simulate(tmp_path, capsys)
    assert rc == 0
    rc = main(["trace", "summarize", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "top spans" in out
    assert "epoch" in out


def test_tt_run_reports_its_partitions_per_shard(tmp_path, capsys):
    """The per-partition spans come out of the one batch loop, so a TT run
    has a per-shard table too — its S- and L-partition."""
    from repro.obs.check import main as check_main

    # --quick stops at 600 s: a short S-period, so members reach L.
    rc, trace, prom, _ = run_simulate(
        tmp_path, capsys, "--s-period", "120", scheme="tt"
    )
    assert rc == 0
    rc = main(["trace", "summarize", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    table = out.split("per-shard", 1)[1].split("\n\n", 1)[0]
    rows = {line.split()[0]: line.split() for line in table.splitlines()[2:] if line.strip()}
    assert {"s-partition", "l-partition"} <= set(rows)
    assert int(rows["s-partition"][1]) > 0 and int(rows["s-partition"][3]) > 0
    samples = parse_prometheus(prom.read_text())
    assert samples['repro_shard_batch_keys_count{shard="l-partition"}'] > 0
    assert check_main([str(trace), str(prom)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_trace_generator_still_owns_positional(tmp_path, capsys):
    out_file = tmp_path / "membership.jsonl"
    rc = main(["trace", str(out_file), "--length", "60"])
    assert rc == 0
    assert out_file.exists()
    assert "membership records" in capsys.readouterr().out


def test_trace_export_then_check_chrome(tmp_path, capsys):
    import json

    from repro.obs.check import main as check_main
    from repro.obs.chrometrace import validate_chrome_trace

    rc, trace, prom, _ = run_simulate(tmp_path, capsys)
    assert rc == 0
    chrome = tmp_path / "out.chrome.json"
    rc = main(["trace", "export", str(trace), "--out", str(chrome)])
    out = capsys.readouterr().out
    assert rc == 0
    assert str(chrome) in out and "perfetto" in out.lower()
    doc = json.loads(chrome.read_text())
    counts = validate_chrome_trace(doc)
    assert counts["X"] == obs.validate_trace_records(obs.read_trace(trace))["span"]
    assert check_main([str(trace), str(prom), "--chrome", str(chrome)]) == 0
    assert "chrome trace ok" in capsys.readouterr().out


def test_trace_export_default_output_path(tmp_path, capsys):
    rc, trace, _, _ = run_simulate(tmp_path, capsys)
    assert rc == 0
    rc = main(["trace", "export", str(trace)])
    assert rc == 0
    assert (tmp_path / (trace.name + ".chrome.json")).exists()
    capsys.readouterr()


def test_simulate_serve_flag_announces_endpoint(tmp_path, capsys):
    rc, _, _, out = run_simulate(tmp_path, capsys, "--serve", "0")
    assert rc == 0
    assert "serving live metrics at http://127.0.0.1:" in out
