"""Integration tests for the CLI (invoked in-process via main())."""

import io

import pytest

from repro.cli import main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestFigure1Command:
    def test_prints_the_recommendation(self):
        code, output = run_cli("figure1")
        assert code == 0
        assert "recommend C2" in output
        assert "A2" in output


class TestGenerateAndRun:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        graph = tmp / "graph.npz"
        stream = tmp / "stream.csv"
        code, out = run_cli(
            "generate-graph", str(graph), "--users", "800", "--seed", "3"
        )
        assert code == 0 and "800 users" in out
        code, out = run_cli(
            "generate-stream", str(stream),
            "--users", "800", "--duration", "300", "--rate", "3",
            "--bursts", "1", "--burst-actors", "40", "--seed", "3",
        )
        assert code == 0 and "events" in out
        return graph, stream

    def test_stream_file_format(self, artifacts):
        _, stream = artifacts
        header, first = stream.read_text().splitlines()[:2]
        assert header == "created_at,actor,target,action"
        parts = first.split(",")
        assert len(parts) == 4
        float(parts[0])  # parsable timestamp

    def test_run_command(self, artifacts):
        graph, stream = artifacts
        code, output = run_cli("run", str(graph), str(stream), "--k", "2")
        assert code == 0
        assert "events processed : " in output
        assert "raw candidates" in output
        assert "query latency" in output

    def test_run_command_batched_matches_per_event(self, artifacts):
        graph, stream = artifacts
        code_one, output_one = run_cli("run", str(graph), str(stream), "--k", "2")
        code_batched, output_batched = run_cli(
            "run", str(graph), str(stream), "--k", "2", "--batch-size", "64"
        )
        assert code_one == 0 and code_batched == 0

        def counts(output):
            return [
                line for line in output.splitlines()
                if "events processed" in line or "raw candidates" in line
            ]

        assert counts(output_one) == counts(output_batched)

    def test_run_rejects_unknown_backend(self, artifacts, capsys):
        """Storage layouts are not selectable: the retired flags are
        ordinary unknown arguments."""
        graph, stream = artifacts
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", str(graph), str(stream), "--s-backend", "csr")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --s-backend csr" in capsys.readouterr().err

    def test_simulate_command(self, artifacts):
        graph, stream = artifacts
        code, output = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
        )
        assert code == 0
        assert "events ingested" in output
        assert "notifications" in output

    def test_simulate_command_micro_batched(self, artifacts):
        graph, stream = artifacts
        code, output = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--batch-size", "16", "--max-batch-wait", "0.2",
        )
        assert code == 0
        assert "events ingested" in output

    def test_simulate_command_delivery_coalesced(self, artifacts):
        graph, stream = artifacts
        code, output = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--delivery-batch-size", "64", "--delivery-max-wait", "0.3",
        )
        assert code == 0
        assert "events ingested" in output
        assert "notifications" in output

    def test_simulate_delivery_coalescing_changes_no_counts(self, artifacts):
        """The delivery window delays dispatch; with a dedup-only funnel
        and a window shorter than any dedup horizon, the notification
        count is unchanged."""
        graph, stream = artifacts
        def counts(output):
            return [
                line for line in output.splitlines()
                if "events ingested" in line or "notifications" in line
            ]
        code_plain, out_plain = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
        )
        code_coalesced, out_coalesced = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--delivery-batch-size", "256", "--delivery-max-wait", "0.05",
        )
        assert code_plain == 0 and code_coalesced == 0
        assert counts(out_plain) == counts(out_coalesced)

    def test_simulate_shm_transport_matches_inprocess_counts(self, artifacts):
        """The transport changes where partitions run, not what they emit:
        same ingested-event and notification counts either way."""
        graph, stream = artifacts

        def counts(output):
            return [
                line for line in output.splitlines()
                if "events ingested" in line or "notifications" in line
            ]

        code_in, out_in = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--batch-size", "32",
        )
        code_proc, out_proc = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--batch-size", "32", "--transport", "shm",
        )
        assert code_in == 0 and code_proc == 0
        assert counts(out_in) == counts(out_proc)

    def test_simulate_delivery_shards_change_no_counts(self, artifacts):
        graph, stream = artifacts

        def counts(output):
            return [
                line for line in output.splitlines()
                if "events ingested" in line or "notifications" in line
            ]

        code_one, out_one = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
        )
        code_sharded, out_sharded = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--delivery-shards", "3",
        )
        assert code_one == 0 and code_sharded == 0
        assert counts(out_one) == counts(out_sharded)

    def test_simulate_ranked_caps_deliveries(self, artifacts):
        graph, stream = artifacts

        def notifications(output):
            for line in output.splitlines():
                if "notifications" in line:
                    return int(line.split(":")[1])
            raise AssertionError("no notification count printed")

        code_plain, out_plain = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--delivery-batch-size", "256",
        )
        code_ranked, out_ranked = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--delivery-batch-size", "256", "--ranked", "--ranked-k", "1",
        )
        assert code_plain == 0 and code_ranked == 0
        assert 0 < notifications(out_ranked) <= notifications(out_plain)

    def test_simulate_adaptive_control_plane(self, artifacts):
        graph, stream = artifacts
        code, output = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--adaptive", "--slo-p99", "60",
        )
        assert code == 0
        assert "control plane" in output
        assert "mode=" in output  # the controller's posture summary

    def test_simulate_slo_requires_adaptive(self, artifacts):
        graph, stream = artifacts
        code, _ = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--slo-p99", "60",
        )
        assert code == 2

    def test_simulate_rejects_nonpositive_delivery_shards(
        self, artifacts, capsys
    ):
        """Arguments are validated before anything is built: a bad value
        under a worker transport must not leave partition workers behind."""
        import multiprocessing

        graph, stream = artifacts
        code, _ = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--transport", "shm",
            "--delivery-shards", "0",
        )
        assert code == 2
        assert "error: --delivery-shards must be positive" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_simulate_rejects_unknown_transport(self, artifacts):
        graph, stream = artifacts
        with pytest.raises(SystemExit):
            run_cli(
                "simulate", str(graph), str(stream),
                "--transport", "telegraph",
            )

    def test_simulate_rejects_the_retired_queue_wire_name(
        self, artifacts, tmp_path, capsys
    ):
        """``--transport process`` named the queue-only worker wire, which
        the host now picks: the flag is refused at parse time (exit 2),
        before any root or worker exists."""
        import multiprocessing

        graph, stream = artifacts
        root = tmp_path / "root"
        with pytest.raises(SystemExit) as exited:
            run_cli(
                "simulate", str(graph), str(stream),
                "--transport", "process", "--wal-dir", str(root),
            )
        assert exited.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err
        assert not root.exists()
        assert multiprocessing.active_children() == []

    def test_analyze_command(self, artifacts):
        graph, _ = artifacts
        code, output = run_cli("analyze", str(graph))
        assert code == 0
        assert "reciprocity" in output

    def test_deterministic_generation(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("generate-stream", str(a), "--users", "100", "--duration", "60", "--seed", "9")
        run_cli("generate-stream", str(b), "--users", "100", "--duration", "60", "--seed", "9")
        assert a.read_text() == b.read_text()


class TestExplainCommand:
    def test_catalog_motif(self):
        code, output = run_cli("explain", "diamond", "--k", "2")
        assert code == 0
        assert "motif diamond:" in output
        assert "kernel for motif 'diamond'" in output
        assert "k-overlap of the witnesses' S follower lists (k=2)" in output

    def test_motif_file(self, tmp_path):
        motif_file = tmp_path / "custom.motif"
        motif_file.write_text(
            "motif my-motif:\n"
            "  match a -[static]-> b\n"
            "  match b -[dynamic, within 120s]-> c\n"
            "  count distinct b >= 2\n"
            "  emit  notify a about c\n"
        )
        code, output = run_cli("explain", str(motif_file))
        assert code == 0
        assert "kernel for motif 'my-motif'" in output
        assert "scan D (tau=120s, action=any)" in output

    def test_unknown_motif_fails(self, capsys):
        code, _ = run_cli("explain", "no-such-motif")
        assert code == 2

    def test_all_catalog_names_explainable(self):
        for name in ("diamond", "wedge", "co-retweet", "favorite-burst"):
            code, output = run_cli("explain", name)
            assert code == 0
            assert f"kernel for motif '{name}'" in output


class TestServingCommands:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli-serving")
        graph = tmp / "graph.npz"
        stream = tmp / "stream.csv"
        code, out = run_cli(
            "generate-graph", str(graph), "--users", "800", "--seed", "3",
            "--chunked",
        )
        assert code == 0 and "800 users" in out
        code, out = run_cli(
            "generate-stream", str(stream),
            "--users", "800", "--duration", "200", "--rate", "4",
            "--bursts", "1", "--burst-actors", "40", "--seed", "3",
        )
        assert code == 0 and "events" in out
        return graph, stream

    def test_generate_graph_chunked_loads_back(self, artifacts):
        from repro.graph.snapshot import GraphSnapshot

        graph, _ = artifacts
        snap = GraphSnapshot.load(graph)
        assert snap.num_users == 800
        assert snap.num_edges > 800

    def test_simulate_query_qps_reports_serving_stats(self, artifacts):
        graph, stream = artifacts
        code, output = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1",
            "--query-qps", "200", "--delivery-shards", "2", "--ranked",
        )
        assert code == 0
        assert "serving reads" in output
        assert "serving cache" in output
        assert "hit rate" in output

    def test_simulate_query_load_changes_no_counts(self, artifacts):
        graph, stream = artifacts

        def counts(output):
            return [
                line for line in output.splitlines()
                if "events ingested" in line or "notifications" in line
            ]

        code_quiet, out_quiet = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1", "--ranked",
        )
        code_queried, out_queried = run_cli(
            "simulate", str(graph), str(stream),
            "--k", "2", "--partitions", "2", "--seed", "1", "--ranked",
            "--query-qps", "100",
        )
        assert code_quiet == 0 and code_queried == 0
        assert counts(out_quiet) == counts(out_queried)

    def test_serve_smoke_queries(self, artifacts):
        graph, stream = artifacts
        code, output = run_cli(
            "serve", str(graph), str(stream),
            "--partitions", "2", "--serving-shards", "2",
            "--smoke-queries", "25",
        )
        assert code == 0
        assert "materialized" in output
        assert "serving on 127.0.0.1:" in output
        assert "smoke: 25 loopback queries" in output
        assert "server saw 25" in output
