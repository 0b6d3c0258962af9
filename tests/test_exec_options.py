"""One validated ``ExecOptions`` from the engine to the server.

Every execution setting is checked where it is set: a bad value is
refused by ``Database.query``, by ``QueryServer`` construction, by the
CLI's argument parsing and by its REPL commands, each with the message
``ExecOptions`` gives — never by the first query that happens to reach
the code reading it.
"""

import asyncio
import io
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.cli import CliSession, main
from repro.config import ExecOptions
from repro.serve import QueryServer
from repro.xquery import Database
from repro.xquery.context import DynamicContext

INVALID = [
    ("workers", "x"),
    ("executor", "proc"),
    ("kernel", "simd"),
    ("kernel", "auto"),
    ("shard_min_rows", 0),
    ("strategy", "fast"),
    ("pushdown", "sometimes"),
]

#: The command-line flag and the REPL command of each setting the CLI
#: exposes.
FLAGS = {"workers": "--workers", "executor": "--executor",
         "kernel": "--kernel", "shard_min_rows": "--shard-min-rows",
         "strategy": "--strategy"}
COMMANDS = {"workers": "\\workers {}", "executor": "\\executor {}",
            "kernel": "\\kernel {}", "strategy": "\\strategy {}"}


def expected_message(field, value) -> str:
    with pytest.raises(ValueError) as exc:
        ExecOptions(**{field: value})
    return str(exc.value)


def refused_by_query(field, value, capsys) -> str:
    db = Database()
    with pytest.raises(ValueError) as exc:
        db.query("1", **{field: value})
    return str(exc.value)


def refused_by_server(field, value, capsys) -> str:
    with pytest.raises(ValueError) as exc:
        QueryServer(db=Database(), **{field: value})
    return str(exc.value)


def refused_by_argv(field, value, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(["--query", "1", FLAGS[field], str(value)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    return err.strip().splitlines()[-1].partition("error: ")[2]


def refused_by_repl(field, value, capsys) -> str:
    out = io.StringIO()
    session = CliSession(out=out)
    before = session.options
    session.handle(COMMANDS[field].format(value))
    assert session.options is before
    (line,) = out.getvalue().splitlines()
    assert line.startswith("error: ")
    return line.partition("error: ")[2]


SURFACES = [(refused_by_query, None), (refused_by_server, None),
            (refused_by_argv, FLAGS), (refused_by_repl, COMMANDS)]


@pytest.mark.parametrize("surface,field,value", [
    pytest.param(surface, field, value,
                 id=f"{surface.__name__}-{field}={value}")
    for surface, exposes in SURFACES
    for field, value in INVALID
    if exposes is None or field in exposes])
def test_invalid_setting_refused_up_front(surface, field, value, capsys):
    assert surface(field, value, capsys) == expected_message(field, value)


class TestRemovedSettings:
    """One kernel name for both join families; the active-items
    structure is a parameter of ``ll_join`` only."""

    def test_six_fields(self):
        assert [f.name for f in fields(ExecOptions)] == [
            "strategy", "pushdown", "kernel", "workers", "shard_min_rows",
            "executor"]

    def test_active_structure_is_not_a_query_knob(self):
        with pytest.raises(TypeError):
            ExecOptions(active_structure="heap")
        with pytest.raises(TypeError):
            Database().query("1", active_structure="heap")

    def test_separate_staircase_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--query", "1", "--staircase-kernel", "ll"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --staircase-kernel" in \
            capsys.readouterr().err

    def test_kernel_family_form_refused(self):
        out = io.StringIO()
        session = CliSession(out=out)
        before = session.options
        session.handle("\\kernel staircase ll")
        assert session.options is before
        assert out.getvalue().startswith(
            "error: unknown join kernel 'staircase'")


class TestExecOptions:
    def test_frozen(self):
        options = ExecOptions()
        with pytest.raises(FrozenInstanceError):
            options.strategy = "ll"

    def test_workers_normalized_to_a_count(self):
        assert ExecOptions(workers="serial").workers == 1
        assert ExecOptions(workers="3").workers == 3

    def test_replace_revalidates(self):
        options = ExecOptions(strategy="ll")
        changed = replace(options, workers="2")
        assert changed.workers == 2 and changed.strategy == "ll"
        with pytest.raises(ValueError, match="invalid workers setting"):
            replace(options, workers=0)
        with pytest.raises(ValueError, match="unknown join kernel"):
            replace(options, kernel="simd")

    def test_scopes_share_the_options_object(self):
        options = ExecOptions(strategy="ll", kernel="vectorized")
        ctx = DynamicContext(Database().store, options=options)
        child = ctx.child_scope()
        assert child.options is options
        assert child.child_scope().options is options
        assert ctx.function_scope({"x": [1]}).options is options
        assert DynamicContext(Database().store).options == ExecOptions()

    def test_query_knobs_override_options(self):
        db = Database()
        db.add_document("d.xml", '<d><a start="0" end="9"/>'
                                 '<b start="2" end="3"/></d>')
        query = 'doc("d.xml")//a/select-narrow::b'
        base = ExecOptions(strategy="ll", kernel="vectorized")
        want = db.query(query).serialize()
        assert db.query(query, options=base).serialize() == want
        assert db.query(query, options=base,
                        strategy="udf").serialize() == want
        with pytest.raises(TypeError):
            db.query("1", warp=9)


class TestServerOptions:
    def test_built_once_and_passed_per_query(self, monkeypatch):
        db = Database()
        server = QueryServer(db=db, default_timeout=0)
        assert server.options == ExecOptions(strategy="ll")
        assert QueryServer(db=db, strategy="basic").options.strategy \
            == "basic"
        seen = []
        real = db.query

        def spy(text, **kwargs):
            seen.append(kwargs["options"])
            return real(text, **kwargs)

        monkeypatch.setattr(db, "query", spy)

        async def run():
            async with server:
                for _ in range(3):
                    assert (await server.query("1 + 1")).serialized == "2"

        asyncio.run(run())
        assert len(seen) == 3
        assert all(options is server.options for options in seen)

    @pytest.mark.parametrize("executor,workers,warmed", [
        ("process", 2, True),
        ("process", "serial", False),
        ("thread", 2, False),
    ])
    def test_pool_warmed_on_process_executor_only(self, monkeypatch,
                                                  executor, workers,
                                                  warmed):
        from repro.exec import procpool

        calls = []
        monkeypatch.setattr(procpool, "warm_pool", calls.append)
        server = QueryServer(db=Database(), executor=executor,
                             workers=workers)

        async def run():
            async with server:
                pass

        asyncio.run(run())
        assert calls == ([2] if warmed else [])
