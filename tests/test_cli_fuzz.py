"""Seeded fuzz of the command line: extreme configs exit 0 or 2, never a
traceback or a warning (pytest turns warnings into errors here)."""

import numpy as np
import pytest

from duallink.cli import main

# Extreme values per config key.  The noise PSDs put the default scenario's
# route SNRs just inside and just outside the [-50, 90] dB window: at
# -174 dBm/Hz they are 40.0 dB direct and 3.2 dB reflected.
EXTREMES = {
    "noise_psd": ["-223.9", "-224.1", "-120.7", "-120.9", "-280", "-20"],
    "p_max": ["-30", "30"],
    "n_r": ["1", "100000000"],
    "l_x": ["5e-5", "5e-3"],
    "k_a": ["0", "1"],
    "q_d": ["1.0"],
    "q_r": ["0.0", "0.3"],
    "alpha": ["0.0", "1e-30", "1e-31", "1e-12", "0.9999", "1.0"],
    "arrival_rate": ["0", "1e-3", "1e6", "1e120", "1.1e120", "1e150"],
    "slot_duration": ["1e-12", "9.9e114", "1.1e115"],  # service factors 1e-5 to 1.1e118
    "grid": ["0.0, 1e-30", "0.0, 1e-31", "0.5, 0.9999", "1e-12, 1.0"],
}
COMMANDS = [["solve"], ["simulate"], ["sweep"], ["oracle", "--grid-n", "11"]]


def _configs(seed, count):
    rng = np.random.default_rng(seed)
    keys = sorted(EXTREMES)
    for _ in range(count):
        chosen = rng.choice(len(keys), size=rng.integers(1, 4), replace=False)
        lines = {keys[k]: EXTREMES[keys[k]][rng.integers(len(EXTREMES[keys[k]]))] for k in chosen}
        yield {"grid": "0.05, 0.2", "horizon": "1000", **lines}


CONFIGS = list(_configs(2024, 24))


@pytest.mark.parametrize("lines", CONFIGS, ids=[f"config-{i}" for i in range(len(CONFIGS))])
def test_extreme_configs_exit_cleanly(tmp_path, capsys, lines):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
    for command in COMMANDS:
        out = str(tmp_path / "out.csv")
        code = main([*command, "--config", str(cfg), "--out", out])
        captured = capsys.readouterr()
        assert code in (0, 2), (command, lines)
        if code == 2:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        else:
            assert captured.err == "" and "nan" not in captured.out, (command, lines)
