"""Every output byte of a fixed set of runs against ``tests/golden.json`` (see ``make_golden.py``)."""

import json

from make_golden import GOLDEN, RESUMED, STRAIGHT, environment, produce


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    digests = produce()

    changed = sorted(key for key in golden["digests"].keys() & digests.keys() if golden["digests"][key] != digests[key])
    missing = sorted(golden["digests"].keys() - digests.keys())
    extra = sorted(digests.keys() - golden["digests"].keys())
    here = environment()
    where = (
        f"golden digests made on {golden['environment']}, this run on {here}"
        + ("" if golden["environment"] == here else " (the environments differ)")
    )
    assert not (changed or missing or extra), (
        f"{len(changed)} changed, {len(missing)} missing, {len(extra)} unexpected of {len(golden['digests'])} files; "
        f"changed: {changed[:5]}, missing: {missing[:5]}, unexpected: {extra[:5]}; {where}"
    )

    resumed = {key.removeprefix(f"runs/{RESUMED}/"): value for key, value in digests.items() if key.startswith(f"runs/{RESUMED}/")}
    straight = {key.removeprefix(f"runs/{STRAIGHT}/"): value for key, value in digests.items() if key.startswith(f"runs/{STRAIGHT}/")}
    assert resumed == straight, "a run resumed from round 1 differs from the straight run"
