"""The ``python -m repro`` entry point: every subcommand prints its help."""

import pytest

from repro.__main__ import _COMMANDS, main


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
