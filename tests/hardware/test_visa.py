"""VISA session lifecycle regressions: idempotent close, context-manager
exit semantics and the resource manager round trip."""

import pytest

from repro.hardware.visa import (
    SimulatedVisaSession,
    VisaError,
    VisaResourceManager,
)

RESOURCE = "USB0::0x05E6::0x2230::SIM::INSTR"


def echo_handler(command):
    return command.upper() if command.endswith("?") else ""


@pytest.fixture()
def session():
    return SimulatedVisaSession(resource_name=RESOURCE,
                                handler=echo_handler)


class TestCloseSemantics:
    def test_close_is_idempotent(self, session):
        session.close()
        session.close()  # no-op, not an error
        assert not session.is_open

    def test_write_after_close_raises(self, session):
        session.close()
        with pytest.raises(VisaError, match="closed"):
            session.write("OUTPUT ON")

    def test_query_after_close_raises(self, session):
        session.close()
        with pytest.raises(VisaError, match="closed"):
            session.query("*IDN?")

    def test_close_composes_with_context_manager(self, session):
        with session:
            session.close()  # explicit close inside the block is fine
        assert not session.is_open


class TestContextManager:
    def test_clean_exit_closes(self, session):
        with session as entered:
            assert entered is session
            assert session.is_open
        assert not session.is_open

    def test_exception_path_closes_without_swallowing(self, session):
        with pytest.raises(RuntimeError, match="mid-command"):
            with session:
                raise RuntimeError("mid-command")
        assert not session.is_open


class TestResourceManager:
    def test_open_resource_round_trip(self):
        manager = VisaResourceManager()
        manager.register(RESOURCE, echo_handler)
        with manager.open_resource(RESOURCE) as session:
            assert session.query("*IDN?") == "*IDN?"
        assert not session.is_open
