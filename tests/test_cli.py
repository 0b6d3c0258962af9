"""Tests for the command-line shell."""

import io

import pytest

from repro.cli import CliSession, main

VIDEO = """
<sample>
  <shot id="Intro" start="0" end="8"/>
  <music artist="U2" start="0" end="31"/>
</sample>
"""


@pytest.fixture
def video_file(tmp_path):
    path = tmp_path / "video.xml"
    path.write_text(VIDEO)
    return path


def make_session():
    out = io.StringIO()
    return CliSession(out=out), out


class TestSession:
    def test_load_and_query(self, video_file):
        session, out = make_session()
        session.load_document("video.xml", str(video_file))
        session.handle('doc("video.xml")//music/select-wide::shot')
        text = out.getvalue()
        assert "loaded video.xml" in text
        assert 'id="Intro"' in text
        assert "(1 item(s))" in text

    def test_backslash_load(self, video_file):
        session, out = make_session()
        session.handle(f"\\load video.xml {video_file}")
        session.handle("\\docs")
        assert "doc  video.xml" in out.getvalue()

    def test_strategy_switch(self, video_file):
        session, out = make_session()
        session.load_document("video.xml", str(video_file))
        session.handle("\\strategy ll")
        session.handle('count(doc("video.xml")//shot)')
        text = out.getvalue()
        assert "strategy = ll" in text
        assert "\n1\n" in text

    def test_bad_strategy(self):
        session, out = make_session()
        session.handle("\\strategy warp")
        assert "unknown strategy" in out.getvalue()

    def test_timing_toggle(self, video_file):
        session, out = make_session()
        session.load_document("video.xml", str(video_file))
        session.handle("\\timing on")
        session.handle("1 + 1")
        assert "s)" in out.getvalue()

    def test_query_error_reported_not_raised(self):
        session, out = make_session()
        session.handle('doc("missing.xml")')
        assert "error:" in out.getvalue()

    def test_syntax_error_reported(self):
        session, out = make_session()
        session.handle("for $x in")
        assert "error:" in out.getvalue()

    def test_unknown_command(self):
        session, out = make_session()
        session.handle("\\frobnicate")
        assert "unknown command" in out.getvalue()

    def test_help_and_quit(self):
        session, out = make_session()
        session.handle("\\help")
        assert "\\strategy" in out.getvalue()
        session.handle("\\quit")
        assert session.done

    def test_blob_roundtrip(self, tmp_path, video_file):
        blob_path = tmp_path / "movie.bin"
        blob_path.write_bytes(b"0123456789")
        session, out = make_session()
        session.load_document("video.xml", str(video_file))
        session.handle(f"\\blob movie {blob_path}")
        session.handle(
            'blob-content("movie", doc("video.xml")//shot)')
        assert "012345678" in out.getvalue()

    def test_missing_file_reported(self):
        session, out = make_session()
        session.handle("\\load x.xml /nonexistent/path.xml")
        assert "error:" in out.getvalue()

    def test_workers_switch(self, video_file):
        session, out = make_session()
        session.load_document("video.xml", str(video_file))
        session.handle("\\workers 4")
        assert "workers = 4" in out.getvalue()
        assert session.options.workers == 4
        session.handle('doc("video.xml")//music/select-wide::shot')
        assert 'id="Intro"' in out.getvalue()
        session.handle("\\workers serial")
        assert "workers = serial" in out.getvalue()

    def test_bad_workers_reported(self):
        session, out = make_session()
        session.handle("\\workers plenty")
        assert "error: invalid workers setting 'plenty'" in out.getvalue()
        session.handle("\\workers 0")
        assert "invalid workers setting '0'" in out.getvalue()

    def test_workers_in_help(self):
        session, out = make_session()
        session.handle("\\help")
        assert "\\workers" in out.getvalue()


class TestMain:
    def test_one_shot_query(self, video_file, capsys):
        code = main(["--load", str(video_file), "--query",
                     'count(doc("video.xml")//shot)'])
        assert code == 0
        assert "1" in capsys.readouterr().out

    def test_strategy_flag(self, video_file, capsys):
        code = main(["--load", str(video_file), "--strategy", "ll",
                     "--query",
                     'doc("video.xml")//music/select-narrow::shot'])
        assert code == 0
        assert "Intro" in capsys.readouterr().out

    def test_missing_load_file(self, capsys):
        code = main(["--load", "/does/not/exist.xml", "--query", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_workers_flag(self, video_file, capsys):
        code = main(["--load", str(video_file), "--workers", "4",
                     "--shard-min-rows", "1", "--strategy", "ll",
                     "--query",
                     'doc("video.xml")//music/select-wide::shot'])
        assert code == 0
        assert "Intro" in capsys.readouterr().out

    def test_bad_workers_flag(self, video_file, capsys):
        with pytest.raises(SystemExit):
            main(["--load", str(video_file), "--workers", "lots",
                  "--query", "1"])
        assert "workers" in capsys.readouterr().err

    def test_bad_shard_min_rows_flag(self, video_file, capsys):
        with pytest.raises(SystemExit):
            main(["--load", str(video_file), "--shard-min-rows", "0",
                  "--query", "1"])
        assert "shard_min_rows must be >= 1" in capsys.readouterr().err
