"""CLI subcommands, run in-process through main()."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["knn", "--algo", "quantum"])

    def test_defaults(self):
        args = build_parser().parse_args(["knn"])
        assert args.n == 4096 and args.k == 1 and args.algo == "fast"


class TestKnnCommand:
    @pytest.mark.parametrize("algo", ["fast", "simple", "kdtree", "grid", "brute"])
    def test_all_algorithms_run(self, algo, capsys):
        rc = main(["knn", "-n", "300", "-k", "1", "--algo", algo, "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "edges" in out
        assert "OK" in out

    def test_scan_policy_accepted(self, capsys):
        assert main(["knn", "-n", "200", "--scan", "log"]) == 0

    def test_save_edges(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        rc = main(["knn", "-n", "200", "--out", str(out)])
        assert rc == 0
        data = np.load(out)
        assert data["edges"].shape[1] == 2
        assert data["points"].shape == (200, 2)

    def test_points_file_input(self, tmp_path, capsys):
        pts = np.random.default_rng(0).random((150, 3))
        f = tmp_path / "pts.npy"
        np.save(f, pts)
        rc = main(["knn", "--points-file", str(f), "-k", "2", "--check"])
        assert rc == 0

    def test_npz_points_file(self, tmp_path, capsys):
        pts = np.random.default_rng(1).random((100, 2))
        f = tmp_path / "pts.npz"
        np.savez(f, points=pts)
        assert main(["knn", "--points-file", str(f), "--check"]) == 0

    def test_workload_choice(self, capsys):
        assert main(["knn", "-n", "300", "--workload", "clustered", "--check"]) == 0


class TestTelemetryFlags:
    def test_knn_writes_event_and_metrics_sinks(self, tmp_path, capsys):
        import json

        ev = tmp_path / "events.jsonl"
        prom = tmp_path / "metrics.prom"
        rc = main(["knn", "-n", "250", "-k", "1",
                   "--events-out", str(ev), "--metrics-out", str(prom)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"wrote events {ev}" in out
        assert f"wrote metrics {prom}" in out
        lines = ev.read_text().splitlines()
        assert lines and json.loads(lines[0])["event"] == "run_meta"
        assert "# TYPE repro_fast_nodes_total counter" in prom.read_text()

    def test_scaling_sinks_cover_largest_run(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        rc = main(["scaling", "--sizes", "256", "512",
                   "--metrics-out", str(prom)])
        assert rc == 0
        assert prom.exists()
        assert "wrote metrics" in capsys.readouterr().out

    def test_trace_target_is_optional(self, capsys):
        rc = main(["trace", "-n", "200", "-k", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace knn:" in out and "EXACT" in out

    def test_trace_mp_engine_with_sinks(self, tmp_path, capsys):
        ev = tmp_path / "e.jsonl"
        tr = tmp_path / "t.json"
        rc = main(["trace", "-n", "300", "--engine", "frontier-mp",
                   "--workers", "2", "--events-out", str(ev),
                   "--trace-out", str(tr)])
        assert rc == 0
        assert ev.exists() and tr.exists()
        text = ev.read_text()
        assert "shard_dispatch" in text and "shard_complete" in text

    def test_trace_flame_replays_saved_trace(self, tmp_path, capsys):
        tr = tmp_path / "t.json"
        assert main(["trace", "-n", "200", "--trace-out", str(tr)]) == 0
        capsys.readouterr()
        rc = main(["trace", "--flame", str(tr)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flame summary" in out and "run" in out

    def test_trace_compare_diffs_two_traces(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["trace", "-n", "200", "--trace-out", str(a)]) == 0
        assert main(["trace", "-n", "400", "--trace-out", str(b)]) == 0
        capsys.readouterr()
        rc = main(["trace", "--compare", str(a), str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-level exclusive work" in out
        assert "all" in out  # totals row

    def test_no_sink_flags_no_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["knn", "-n", "200"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestServeCommand:
    def test_serve_knn(self, capsys):
        rc = main(["serve", "-n", "400", "-k", "2", "--queries", "200",
                   "--max-batch", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve: kind=knn" in out
        assert "served 200 requests" in out and "in-process" in out
        assert "latency p50=" in out and "QPS=" in out
        assert "p95=" in out and "p99=" in out

    def test_serve_covering_with_cache_repeat(self, capsys):
        rc = main(["serve", "-n", "300", "--kind", "covering",
                   "--queries", "100", "--repeat", "2", "--cache-size", "512"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 200 requests" in out
        assert "cache: 100/200 hits (50.0%)" in out  # second pass is cache-hot

    def test_serve_save_then_load_index(self, tmp_path, capsys):
        path = tmp_path / "index.pkl"
        assert main(["serve", "-n", "300", "--queries", "50",
                     "--save-index", str(path)]) == 0
        assert path.exists()
        rc = main(["serve", "--load-index", str(path), "--queries", "50"])
        assert rc == 0
        assert "index loaded" in capsys.readouterr().out

    def test_serve_queries_file_and_sinks(self, tmp_path, capsys):
        qf = tmp_path / "queries.npy"
        np.save(qf, np.random.default_rng(0).random((64, 2)))
        tr, ev, mx = (str(tmp_path / f) for f in
                      ("trace.json", "events.jsonl", "metrics.prom"))
        rc = main(["serve", "-n", "300", "--queries-file", str(qf),
                   "--trace-out", tr, "--events-out", ev, "--metrics-out", mx])
        assert rc == 0
        assert "served 64 requests" in capsys.readouterr().out
        assert "serve.batch" in open(tr).read()
        assert "span_open" in open(ev).read()
        assert 'repro_serve_requests_total{key="serve.requests"} 64.0' in open(mx).read()


class TestUpdateCommand:
    def test_update_generated_stream_with_check(self, capsys):
        rc = main(["update", "-n", "300", "-k", "2", "--commits", "2",
                   "--batch", "10", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "update: built v0 n=300" in out
        assert out.count("exact") == 2  # every commit equivalence-verified
        assert "commits=2 absorbed=2 punts=0" in out
        assert "final n=300 version=2" in out

    def test_update_mutations_file_and_sinks(self, tmp_path, capsys):
        mf = tmp_path / "muts.jsonl"
        mf.write_text(
            '{"op": "insert", "points": [[0.5, 0.5], [0.25, 0.75]]}\n'
            "# comment lines and blanks are skipped\n\n"
            '{"op": "delete", "ids": [3]}\n'
            '{"op": "commit"}\n'
            '{"op": "insert", "points": [[0.125, 0.875]]}\n'  # trailing batch
        )
        tr, ev, mx = (str(tmp_path / f) for f in
                      ("trace.json", "events.jsonl", "metrics.prom"))
        rc = main(["update", "-n", "300", "-k", "2", "--check",
                   "--mutations-file", str(mf),
                   "--trace-out", tr, "--events-out", ev, "--metrics-out", mx])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final n=302 version=2" in out
        assert "update.absorb" in open(tr).read()
        assert "span_open" in open(ev).read()
        assert 'key="update.commits"' in open(mx).read()

    def test_update_save_index_serves(self, tmp_path, capsys):
        path = tmp_path / "index.pkl"
        assert main(["update", "-n", "300", "-k", "2", "--commits", "1",
                     "--batch", "8", "--save-index", str(path)]) == 0
        capsys.readouterr()
        assert main(["serve", "--load-index", str(path), "--queries", "50"]) == 0
        assert "index loaded" in capsys.readouterr().out

    def test_update_bad_mutations_file(self, tmp_path, capsys):
        mf = tmp_path / "bad.jsonl"
        mf.write_text('{"op": "warp", "ids": [1]}\n')
        with pytest.raises(SystemExit):
            main(["update", "-n", "200", "--mutations-file", str(mf)])

    def test_serve_mutations_file_hot_swaps(self, tmp_path, capsys):
        mf = tmp_path / "muts.jsonl"
        mf.write_text(
            '{"op": "insert", "points": [[0.5, 0.5], [0.25, 0.75]]}\n'
            '{"op": "delete", "ids": [3]}\n'
            '{"op": "commit"}\n'
            '{"op": "insert", "points": [[0.125, 0.875]]}\n'
            '{"op": "commit"}\n'
        )
        rc = main(["serve", "-n", "300", "-k", "2", "--queries", "120",
                   "--max-batch", "32", "--mutations-file", str(mf)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "swap -> v1" in out and "swap -> v2" in out
        assert "index built (online)" in out
        assert "hot swaps: 2" in out and "unfulfilled tickets: 0" in out
        assert "v0" in out and "v2" in out  # per-version latency table
        assert "p99 ms" in out  # per-version table carries the tail too

    @pytest.mark.parametrize("flag", [["--engine", "frontier"], ["--workers", "2"],
                                      ["--dtype", "float32"]])
    def test_serve_mutations_file_rejects_offline_build_flags(self, tmp_path, flag):
        mf = tmp_path / "muts.jsonl"
        mf.write_text('{"op": "commit"}\n')
        with pytest.raises(SystemExit, match="online index"):
            main(["serve", "-n", "200", "--mutations-file", str(mf), *flag])


class TestNetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["net", "serve"])
        assert args.net_command == "serve"
        assert args.port == 8377 and args.max_batch == 256
        assert not args.no_adaptive and not hasattr(args, "uvloop")
        # the online build takes no engine/workers, cache keys are exact
        # and the adaptive window reads p95 from its own ring
        for gone in ("engine", "workers", "cache_decimals", "window_latency_source"):
            assert not hasattr(args, gone), gone
        args = build_parser().parse_args(["net", "load", "--self-serve"])
        assert args.net_command == "load"
        assert args.qps == [200.0, 1000.0] and args.modes == ["adaptive"]
        assert not hasattr(args, "engine") and not hasattr(args, "workers")
        for argv in (["net", "serve", "--engine", "frontier"],
                     ["net", "serve", "--cache-decimals", "3"],
                     ["net", "serve", "--window-latency-source", "slo"],
                     ["net", "load", "--workers", "2"],
                     ["serve", "--cache-decimals", "3"],
                     ["update", "--snapshot-min-size", "64"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_net_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["net"])

    def test_net_load_self_serve_prints_table(self, capsys):
        rc = main(["net", "load", "--self-serve", "-n", "250",
                   "--qps", "40", "--duration", "0.3",
                   "--modes", "adaptive", "zero", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "window=adaptive" in out and "window=zero" in out
        assert "p99 ms" in out and "ach qps" in out

    def test_net_load_writes_table_file(self, tmp_path, capsys):
        table = tmp_path / "sweep" / "net.txt"
        rc = main(["net", "load", "--self-serve", "-n", "200",
                   "--qps", "30", "--duration", "0.25",
                   "--out", str(table)])
        assert rc == 0
        text = table.read_text()
        assert "window=adaptive" in text and "p99 ms" in text
        assert f"wrote {table}" in capsys.readouterr().out


class TestOtherCommands:
    def test_separators(self, capsys):
        rc = main(["separators", "-n", "400", "--draws", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MedianCut" in out and "Sphere" in out

    def test_scaling(self, capsys):
        rc = main(["scaling", "--sizes", "512", "1024"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fast depth" in out

    def test_dissect(self, capsys):
        rc = main(["dissect", "-n", "400", "--min-size", "24"])
        assert rc == 0
        assert "separation OK" in capsys.readouterr().out

    def test_dissect_with_fill(self, capsys):
        rc = main(["dissect", "-n", "300", "--fill"])
        assert rc == 0
        assert "fill-in" in capsys.readouterr().out
