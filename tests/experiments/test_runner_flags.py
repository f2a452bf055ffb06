"""The runner's mode x flag table and its --verify-store guard."""

import json

import pytest

from repro.experiments import runner
from repro.experiments.runner import main

# One argv per kind of run, with the modes the table sees for it.
RUNS = [
    ({"experiment"}, ["fig7"]),
    ({"--list"}, ["--list"]),
    ({"--spec"}, ["--spec", "s.json"]),
    ({"--design-spec"}, ["--design-spec", "s.json"]),
    ({"--search"}, ["--search", "s.json"]),
    ({"--serve"}, ["--serve"]),
    ({"--submit"}, ["--submit", "s.json"]),
    ({"--verify-store"}, ["--verify-store", "store"]),
    ({"--spec", "--fleet"}, ["--spec", "s.json", "--fleet", "http://x"]),
    ({"--search", "--fleet"}, ["--search", "s.json", "--fleet", "http://x"]),
]
SWITCHES = {"--quick", "--profile"}
VALUES = {"--backend": "thread"}


class TestFlagTable:
    @pytest.mark.parametrize("row", runner._FLAG_MODES, ids=lambda row: row[0])
    def test_flag_is_accepted_exactly_where_the_table_says(
            self, row, monkeypatch, tmp_path, capsys):
        """Each run kind either reaches dispatch or exits 2 naming the flag."""
        flag, needs, *excludes = row
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(runner, "_chaos_dispatch", lambda args, parser: 0)
        value = [] if flag in SWITCHES else [VALUES.get(flag, "2")]
        accepted = 0
        for modes, argv in RUNS:
            if flag in argv:
                continue
            rc = main(argv + [flag] + value)
            err = capsys.readouterr().err
            if not needs & modes:
                assert rc == 2 and f"{flag} only applies to" in err, argv
            elif modes.intersection(excludes):
                assert rc == 2 and f"{flag} does not apply to" in err, argv
            else:
                assert rc == 0 and err == "", argv
                accepted += 1
        assert accepted >= 1

    @pytest.mark.parametrize("argv", [
        ["--spec", "examples/specs/fig3_quick.json", "--quick"],
        ["--verify-store", ".", "--json", "x.json"],
        ["--list", "--spec", "s.json"],
        ["--list", "fig3"],
    ])
    def test_flags_that_used_to_be_ignored_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""


class TestVerifyStore:
    @pytest.mark.parametrize("is_file", [False, True], ids=["missing", "file"])
    def test_non_directory_exits_2_and_creates_nothing(self, is_file, tmp_path,
                                                       capsys):
        path = tmp_path / "typo"
        if is_file:
            path.write_text("")
        assert main(["--verify-store", str(path)]) == 2
        assert "cannot verify store" in capsys.readouterr().err
        assert path.exists() == is_file and not path.is_dir()

    def test_empty_store_reports_clean(self, tmp_path, capsys):
        assert main(["--verify-store", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checked"] == 0 and report["quarantined"] == 0
