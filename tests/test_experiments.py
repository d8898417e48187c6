"""The claims ledger's command line, and determinism of its real rows."""

import pytest

from repro.experiments import CLAIMS, SIMULATED, all_claims
from repro.experiments.__main__ import main


@pytest.mark.parametrize("artifact", sorted(
    a for row in all_claims() if row.mode == SIMULATED for a in row.ids))
def test_cli_prints_every_simulated_artifact(artifact, capsys):
    assert main([artifact]) == 0
    out = capsys.readouterr().out
    assert f"{artifact}" in out and "-sample" in out
    assert "check | paper | ours | bound | ok" in " ".join(out.split())


def test_cli_choices_are_the_ledger_ids(capsys):
    with pytest.raises(SystemExit):
        main(["figure11"])
    assert "figure10-train" in capsys.readouterr().err


def test_table3_deterministic_in_seed():
    table3 = CLAIMS.get("table3")
    a, b = (table3.run("tiny", 5) for _ in range(2))
    strip = lambda rows: {k: {c: v for c, v in r.items() if c != "runtime_s"}
                          for k, r in rows.items()}
    assert strip(a) == strip(b)
