"""Every CLI request of the golden corpus (`tests/cli_golden.py`) gives the
bytes and exit code whose digest is committed in `tests/golden/`, both cold
and, in reverse order, with every memo warm."""

import cli_golden


def _first_changed(want: dict, got: dict, count: int = 5) -> list:
    return [name for name in want if got.get(name) != want[name]][:count]


def test_cli_answers_match_the_golden_digests(perfbench_workloads, monkeypatch, tmp_path):
    inputs, requests = cli_golden.corpus(perfbench_workloads)
    want_inputs = cli_golden.read(cli_golden.INPUTS)
    got_inputs = cli_golden.input_digests(inputs)
    assert got_inputs == want_inputs, ("inputs changed", _first_changed(want_inputs, got_inputs))
    want = cli_golden.read(cli_golden.REQUESTS)
    assert [request_id for request_id, _ in requests] == list(want)
    monkeypatch.chdir(tmp_path)
    cli_golden.write_inputs(inputs)
    cold = cli_golden.run(requests)
    assert cold == want, ("cold", _first_changed(want, cold))
    warm = cli_golden.run(requests[::-1])
    assert warm == want, ("warm, in reverse", _first_changed(want, warm))
