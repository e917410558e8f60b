"""CLI bytes against the committed corpus (see `golden_corpus.py`)."""

import json

import numpy as np

import golden_corpus


def test_cli_output_matches_the_corpus(tmp_path, monkeypatch):
    monkeypatch.delenv("TREELAB_VERTEX_CAP", raising=False)  # the default budget
    every = golden_corpus.cases()
    recorded = {p.stem for p in golden_corpus.CASES_DIR.glob("*.json")}
    assert recorded == set(every), "corpus files and case list differ"
    differ = []
    for name, argv in every.items():
        want = golden_corpus.load(name)
        got = golden_corpus.run(argv, tmp_path)
        if got != want:
            differ.append(name + ": " + ", ".join(
                key for key in want if got.get(key) != want[key]))
    numpy = json.loads(golden_corpus.MANIFEST.read_text())["numpy"]
    assert not differ, (f"{len(differ)} of {len(every)} cases differ (corpus "
                        f"from numpy {numpy}, running {np.__version__}):\n"
                        + "\n".join(differ))
