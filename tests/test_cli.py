"""Tests for the repro-mem command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import _parse_range, _parse_stream, build_parser, main


class TestParsers:
    def test_parse_range_forms(self):
        assert _parse_range("3") == [3]
        assert _parse_range("1-4") == [1, 2, 3, 4]
        assert _parse_range("1,5,9") == [1, 5, 9]
        assert _parse_range("1-3,8") == [1, 2, 3, 8]

    def test_parse_range_empty(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_range(",")

    def test_parse_stream(self):
        assert _parse_stream("0:6") == (0, 6)
        assert _parse_stream("12:1") == (12, 1)

    def test_parse_stream_bad(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_stream("7")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestClassify:
    def test_conflict_free_pair(self, capsys):
        rc = main(["classify", "-m", "12", "-c", "3", "1", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflict-free" in out
        assert "predicted b_eff: 2" in out
        assert "relative start: 3" in out

    def test_unique_barrier(self, capsys):
        rc = main(["classify", "-m", "26", "-c", "4", "1", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "unique-barrier" in out
        assert "4/3" in out
        assert "delays stream: 2" in out

    def test_sectioned(self, capsys):
        rc = main(["classify", "-m", "12", "-c", "2", "-s", "2", "1", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "s=2 sections" in out

    def test_invalid_memory_is_clean_error(self, capsys):
        rc = main(["classify", "-m", "12", "-c", "3", "-s", "5", "1", "7"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSingle:
    def test_self_conflicting(self, capsys):
        rc = main(["single", "-m", "16", "-c", "4", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "r = 2" in out
        assert "1/2" in out
        assert "self-conflicting" in out

    def test_clean(self, capsys):
        rc = main(["single", "-m", "16", "-c", "4", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflict free" in out


class TestSimulate:
    def test_steady_output(self, capsys):
        rc = main([
            "simulate", "-m", "13", "-c", "6",
            "--stream", "0:1", "--stream", "0:6",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "7/6" in out

    def test_trace_rendering(self, capsys):
        rc = main([
            "simulate", "-m", "12", "-c", "3",
            "--stream", "0:1", "--stream", "3:7", "--trace", "24",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bank 0" in out
        assert "steady b_eff = 2" in out

    def test_cpus_and_priority(self, capsys):
        rc = main([
            "simulate", "-m", "12", "-c", "3", "-s", "3",
            "--stream", "0:1", "--stream", "1:1",
            "--cpus", "0,0", "--priority", "cyclic",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cyclic" in out


class TestTriad:
    def test_small_sweep(self, capsys):
        rc = main(["triad", "--inc", "1,2", "--n", "128"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "INC" in out and "clocks" in out
        assert "streaming d=1" in out

    def test_dedicated(self, capsys):
        rc = main(["triad", "--inc", "1", "--n", "128", "--dedicated"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "other CPU off" in out


class TestAtlas:
    def test_table(self, capsys):
        rc = main(["atlas", "-m", "16", "-c", "4", "--strides", "1-4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Stride atlas" in out
        assert "conflict-free" in out


class TestProfile:
    def test_histogram_output(self, capsys):
        rc = main(["profile", "-m", "13", "-c", "4", "1", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4/3" in out and "7/5" in out
        assert "start(s)" in out

    def test_same_cpu_flag(self, capsys):
        rc = main([
            "profile", "-m", "12", "-c", "3", "-s", "3",
            "1", "1", "--same-cpu", "--priority", "fixed",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3/2" in out  # the linked-conflict lock shows up


class TestCensus:
    def test_table(self, capsys):
        rc = main(["census", "-m", "16", "-c", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflict-free" in out
        assert "120 pairs" in out


class TestObservability:
    def test_observed_census_with_metrics_report(self, capsys):
        rc = main(["census", "-m", "12", "-c", "3", "--observed",
                   "--metrics"])
        cap = capsys.readouterr()
        assert rc == 0
        assert "Observed regime census" in cap.out
        assert "start-resolved runs" in cap.out
        assert "metrics report" in cap.out
        # live cache-hit and tier-dispatch counters must be nonzero
        hits = re.search(r"runner\.executor\.memo_hits\s+counter\s+(\d+)",
                         cap.out)
        assert hits is not None and int(hits.group(1)) > 0
        dispatch = re.search(
            r"runner\.auto\.dispatch\{tier=\w+\}\s+counter\s+(\d+)",
            cap.out,
        )
        assert dispatch is not None and int(dispatch.group(1)) > 0

    def test_metrics_json_file(self, tmp_path, capsys):
        from repro.obs import load_json

        dest = tmp_path / "metrics.json"
        rc = main(["census", "-m", "8", "-c", "2", "--observed",
                   f"--metrics={dest}"])
        cap = capsys.readouterr()
        assert rc == 0
        assert f"metrics written to {dest}" in cap.err
        reg = load_json(dest.read_text())
        counter = reg.get("runner.executor.submitted")
        assert counter is not None and counter.value > 0

    def test_metrics_prometheus_file(self, tmp_path, capsys):
        dest = tmp_path / "metrics.prom"
        rc = main(["census", "-m", "8", "-c", "2", "--observed",
                   f"--metrics={dest}"])
        capsys.readouterr()
        assert rc == 0
        text = dest.read_text()
        assert "# TYPE runner_executor_submitted counter" in text

    def test_trace_spans_output(self, capsys):
        rc = main(["simulate", "-m", "8", "-c", "2", "--stream", "0:1",
                   "--stream", "1:3", "--trace-spans"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "span trace" in out
        assert "cli.command{command=simulate}" in out

    def test_plain_commands_stay_silent(self, capsys):
        rc = main(["census", "-m", "8", "-c", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "metrics report" not in out
        assert "span trace" not in out


class TestResilienceFlags:
    def test_retry_policy_built_from_flags(self):
        from repro.cli import _retry_policy

        args = build_parser().parse_args([
            "census", "-m", "12", "-c", "3", "--observed",
            "--retries", "3", "--chunk-timeout", "5.0",
            "--strict-failures",
        ])
        policy = _retry_policy(args)
        assert policy is not None
        assert policy.max_retries == 3
        assert policy.chunk_timeout == 5.0
        assert policy.strict is True

    def test_no_flags_means_no_policy(self):
        from repro.cli import _retry_policy

        args = build_parser().parse_args([
            "census", "-m", "12", "-c", "3", "--observed",
        ])
        assert _retry_policy(args) is None

    def test_timeout_alone_enables_default_retries(self):
        from repro.cli import _retry_policy

        args = build_parser().parse_args([
            "profile", "-m", "13", "-c", "4", "1", "3",
            "--chunk-timeout", "60",
        ])
        policy = _retry_policy(args)
        assert policy is not None
        assert policy.max_retries == 2
        assert policy.chunk_timeout == 60.0

    def test_census_runs_with_retries(self, capsys):
        rc = main(["census", "-m", "12", "-c", "3", "--observed",
                   "--retries", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Observed regime census" in out

    def test_simulate_runs_through_executor_with_retries(self, capsys):
        rc = main([
            "simulate", "-m", "13", "-c", "6",
            "--stream", "0:1", "--stream", "0:6", "--retries", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "7/6" in out

    def test_profile_runs_with_strict_failures(self, capsys):
        rc = main(["profile", "-m", "13", "-c", "4", "1", "3",
                   "--strict-failures"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "start(s)" in out

    def test_invalid_policy_is_clean_error(self, capsys):
        rc = main(["census", "-m", "12", "-c", "3", "--observed",
                   "--retries", "-1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestStoreFlag:
    @pytest.mark.parametrize("argv", [
        ["census", "-m", "8", "-c", "2", "--observed"],
        ["profile", "-m", "8", "-c", "2", "1", "3"],
        ["serve", "--port", "0"],
    ])
    def test_unusable_store_dir_exits_2_without_traceback(
        self, argv, tmp_path, capsys
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main([*argv, "--store", str(blocker / "store")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "Traceback" not in err

    def test_census_rerun_over_an_undecodable_entry(self, tmp_path, capsys):
        # A stored payload the decoder rejects used to make every rerun
        # exit 2; it is quarantined and its job re-runs instead.
        store = tmp_path / "store"
        argv = [
            "census", "-m", "8", "-c", "2", "--observed", "--store", str(store),
        ]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        entry = next(store.glob("??/*.json"))
        data = json.loads(entry.read_text())
        data["payload"]["bandwidth"] = "oops"
        entry.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="undecodable"):
            assert main(argv) == 0
        rerun = capsys.readouterr().out
        assert ", 1 executed" in rerun

        def table(out: str) -> list[str]:
            return [
                line for line in out.splitlines()
                if not line.startswith("executor:")
            ]

        assert table(rerun) == table(clean)


class TestServeListener:
    @pytest.mark.parametrize("port", ["-5", "70000"])
    def test_port_out_of_range_exits_2(self, port, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", port])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "port must be an integer in 0-65535" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", ["--jobs", "--workers"])
    def test_worker_count_exits_2(self, option, capsys):
        # The drain runs in process: serve takes no worker count.
        with pytest.raises(SystemExit) as exc:
            main(["serve", option, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err

    def test_occupied_port_exits_2_with_one_line(self, capsys):
        import socket

        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            rc = main(["serve", "--host", "127.0.0.1", "--port", str(port)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1

    def test_unresolvable_host_exits_2(self, monkeypatch, capsys):
        import asyncio
        import socket

        async def unresolvable(*args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        # Stubbed so the test never queries a resolver.
        monkeypatch.setattr(asyncio, "start_server", unresolvable)
        rc = main(["serve", "--host", "nowhere.invalid", "--port", "0"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: cannot listen on nowhere.invalid:0: "
            "Name or service not known\n"
        )


class TestDuel:
    def test_output(self, capsys):
        rc = main(["duel", "1", "3", "--n", "128"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CPU 0 (INC=1)" in out
        assert "imbalance" in out


class TestBlockCyclicCli:
    def test_simulate_with_block_cyclic(self, capsys):
        rc = main([
            "simulate", "-m", "12", "-c", "3", "-s", "3",
            "--stream", "0:1", "--stream", "1:1",
            "--cpus", "0,0", "--priority", "block-cyclic:3",
            "--trace", "24", "--show-priority",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "priority  111222" in out  # the Fig. 8b header row
        assert "steady b_eff = 2" in out


class TestInstalledEntryPoint:
    def test_console_script_works(self):
        """The repro-mem entry point must work as an installed command."""
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli"],
            capture_output=True,
            text=True,
        )
        # argparse exits 2 with usage when no command is given
        assert proc.returncode == 2
        assert "repro-mem" in proc.stderr or "usage" in proc.stderr.lower()

    def test_module_invocation_classify(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli",
                "classify", "-m", "12", "-c", "3", "1", "7",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "conflict-free" in proc.stdout


class TestArbiterCli:
    def test_simulate_with_regulation(self, capsys):
        rc = main([
            "simulate", "-m", "8", "-c", "4",
            "--stream", "0:1", "--stream", "0:1", "--cpus", "0,1",
            "--regulate", "stream:0=1/4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "regulate: stream:0=1/4" in out
        assert "steady b_eff = 1/2" in out

    def test_simulate_with_wfq(self, capsys):
        rc = main([
            "simulate", "-m", "8", "-c", "4",
            "--stream", "0:1", "--stream", "0:1", "--cpus", "0,1",
            "--arbiter", "wfq:3,1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "arbiter: wfq:3,1" in out

    def test_profile_accepts_regulation(self, capsys):
        rc = main([
            "profile", "-m", "8", "-c", "4", "1", "1",
            "--regulate", "stream=2/2",
        ])
        assert rc == 0
        assert "start space" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "-m", "8", "-c", "4", "--stream", "0:1",
         "--regulate", "stream=x"],
        ["simulate", "-m", "8", "-c", "4", "--stream", "0:1",
         "--regulate", "cpu=1/4"],
        ["simulate", "-m", "8", "-c", "4", "--stream", "0:1",
         "--arbiter", "wfq:1,2"],
        ["simulate", "-m", "8", "-c", "4", "--stream", "0:1",
         "--priority", "block-cyclic:x"],
        ["simulate", "-m", "8", "-c", "4", "--stream", "0:1",
         "--priority", "block-cyclic:0"],
        ["profile", "-m", "8", "-c", "4", "1", "1",
         "--regulate", "bank:9=1/4"],
    ])
    def test_malformed_specs_exit_2_without_traceback(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: invalid" in err
