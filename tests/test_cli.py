"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_list(capsys):
    out = run_cli(capsys, "list")
    assert "barnes" in out and "raytrace" in out
    assert "16K particles" in out


def test_run_single_protocol(capsys):
    out = run_cli(capsys, "run", "fft", "--protocol", "ccnuma", "--scale", "0.1")
    assert "ccnuma" in out
    assert "cycles" in out


def test_run_all_protocols(capsys):
    out = run_cli(capsys, "run", "em3d", "--scale", "0.1")
    for protocol in ("ideal", "ccnuma", "scoma", "rnuma"):
        assert protocol in out


def test_run_custom_threshold(capsys):
    out = run_cli(
        capsys, "run", "em3d", "--protocol", "rnuma", "--scale", "0.1",
        "--threshold", "16",
    )
    assert "rnuma" in out


def test_topologies_listing(capsys):
    out = run_cli(capsys, "topologies")
    for name in ("uniform", "ring", "mesh", "torus", "fattree"):
        assert name in out
    assert "mean hops" in out and "links" in out


def test_run_on_topology(capsys):
    uniform = run_cli(
        capsys, "run", "em3d", "--protocol", "ccnuma", "--scale", "0.1"
    )
    ring = run_cli(
        capsys, "run", "em3d", "--protocol", "ccnuma", "--scale", "0.1",
        "--topology", "ring",
    )
    assert "on ring" in ring

    def cycles(text):
        line = next(l for l in text.splitlines() if l.startswith("ccnuma"))
        return int(line.split()[1].replace(",", ""))

    # Hop-dependent latency must actually show up.
    assert cycles(ring) > cycles(uniform)


def test_run_link_cost_overrides(capsys):
    cheap = run_cli(
        capsys, "run", "em3d", "--protocol", "ccnuma", "--scale", "0.1",
        "--topology", "ring", "--link-latency", "0", "--link-occupancy", "0",
    )
    slow = run_cli(
        capsys, "run", "em3d", "--protocol", "ccnuma", "--scale", "0.1",
        "--topology", "ring", "--link-latency", "200",
    )

    def cycles(text):
        line = next(l for l in text.splitlines() if l.startswith("ccnuma"))
        return int(line.split()[1].replace(",", ""))

    assert cycles(slow) > cycles(cheap)


def test_unknown_topology_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "em3d", "--topology", "hypercube"])


def test_trace_stats(capsys):
    out = run_cli(capsys, "trace-stats", "fft", "--scale", "0.1")
    assert "accesses" in out
    assert "barriers" in out
    assert "pages touched" in out
    assert "compiled size" in out
    assert "cpu" in out and "references" in out


def test_trace_stats_unknown_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace-stats", "linpack"])


def test_figure6_subset(capsys):
    out = run_cli(capsys, "figure", "6", "--scale", "0.1", "--apps", "em3d")
    assert "Figure 6" in out and "em3d" in out


def test_table1(capsys):
    out = run_cli(capsys, "table", "1")
    assert "C_refetch" in out


def test_table2(capsys):
    out = run_cli(capsys, "table", "2")
    assert "remote fetch" in out


def test_table3(capsys):
    out = run_cli(capsys, "table", "3", "--scale", "0.1")
    assert "moldyn" in out


def test_table4_small(capsys):
    out = run_cli(capsys, "table", "4", "--scale", "0.1")
    assert "Table 4" in out


def test_ablation_placement(capsys):
    out = run_cli(
        capsys, "ablation", "placement", "--scale", "0.1", "--apps", "em3d"
    )
    assert "Ablation" in out


def test_figure_with_jobs_and_store(capsys, tmp_path):
    out = run_cli(
        capsys, "figure", "6", "--scale", "0.1", "--apps", "em3d",
        "--jobs", "2", "--store", str(tmp_path),
    )
    assert "Figure 6" in out
    assert list(tmp_path.glob("*.json")), "store must be populated"


def test_reproduce_full_sweep_and_store_reuse(capsys, tmp_path):
    argv = (
        "reproduce", "--jobs", "2", "--scale", "0.1", "--apps", "em3d",
        "--store", str(tmp_path),
    )
    first = run_cli(capsys, *argv)
    for heading in ("Table 1", "Table 4", "Figure 5", "Figure 9", "Ablation",
                    "Extension: cluster-size", "Extension: topology"):
        assert heading in first
    stored = len(list(tmp_path.glob("*.json")))
    assert stored > 0
    # Second invocation reuses the store and emits byte-identical output.
    second = run_cli(capsys, *argv)
    assert second == first
    assert len(list(tmp_path.glob("*.json"))) == stored


def test_reproduce_no_store(capsys):
    out = run_cli(
        capsys, "reproduce", "--scale", "0.1", "--apps", "em3d", "--no-store"
    )
    assert "Figure 6" in out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "linpack"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_engines_shows_native_core_status(capsys, monkeypatch):
    from repro.sim import native

    monkeypatch.setattr(native, "_tried", True)
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_reason", "no C compiler")
    out = run_cli(capsys, "engines")
    (runahead,) = [line for line in out.splitlines() if line.startswith("runahead")]
    assert runahead.endswith("yes (native core: no C compiler)")

    monkeypatch.setattr(native, "_tried", False)
    out = run_cli(capsys, "engines")
    (runahead,) = [line for line in out.splitlines() if line.startswith("runahead")]
    assert f"(native core: {native.status()})" in runahead
    assert "specialized" not in out


def test_nonpositive_jobs_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reproduce", "--jobs", "0"])


def test_store_path_collision_rejected(tmp_path):
    not_a_dir = tmp_path / "occupied"
    not_a_dir.write_text("")
    with pytest.raises(SystemExit, match="cannot use result store"):
        main(["table", "4", "--scale", "0.1", "--store", str(not_a_dir)])


def test_negative_retries_rejected():
    with pytest.raises(SystemExit, match="retries"):
        main(["table", "4", "--scale", "0.1", "--no-store", "--retries", "-1"])


def test_fail_fast_and_keep_going_conflict():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reproduce", "--fail-fast", "--keep-going"])


def test_reproduce_failure_resume_cycle(capsys, tmp_path, monkeypatch):
    """An injected permanent failure makes ``reproduce`` exit nonzero
    with a failure table and a manifest record; ``--resume`` in a
    healthy environment re-runs only that job and clears the record."""
    argv = [
        "reproduce", "--scale", "0.1", "--apps", "em3d",
        "--store", str(tmp_path), "--backoff", "0",
    ]
    monkeypatch.setenv("REPRO_FAULTS", "worker-raise:index=0")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "skipped" in captured.out  # sections missing their job
    assert "permanently failed" in captured.err
    assert "--resume" in captured.err
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert len(manifest["failures"]) == 1
    assert manifest["failures"][0]["kind"] == "crash"

    monkeypatch.delenv("REPRO_FAULTS")
    assert main(argv + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert "1 job(s) recovered" in captured.err
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["failures"] == []

    # With the store healed, the full report renders every section.
    out = run_cli(capsys, *argv)
    assert "skipped" not in out
    for heading in ("Table 4", "Figure 5", "Extension: topology"):
        assert heading in out


def test_resume_with_clean_manifest_is_noop(capsys, tmp_path):
    argv = [
        "reproduce", "--scale", "0.1", "--apps", "em3d", "--store", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 0
    assert "nothing to resume" in capsys.readouterr().err


def test_resume_requires_store():
    with pytest.raises(SystemExit, match="--resume needs the on-disk store"):
        main(["reproduce", "--resume", "--no-store"])


def test_resume_without_manifest_rejected(tmp_path):
    with pytest.raises(SystemExit, match="no run manifest"):
        main(["reproduce", "--resume", "--store", str(tmp_path)])
