"""Golden outputs: ``compare --index`` and ``dump-index`` on a fixed corpusgen
dataset write the same bytes as the code the digests were recorded from.

A change that is meant to leave rankings, reports and the index format alone
must keep every digest below. ``PYTHONPATH=src python tests/test_golden.py``
prints them afresh; replace them only in a change that is meant to alter an
output, and say why in its description.
"""
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

import corpusgen
from ontovsm.cli import main

from conftest import write_jsonl

# sha256 of every file written by `compare --index ix --out out --interp MODE`
# and of `dump-index --index ix`'s output, on corpusgen's
# synthetic_dataset(seed=7, n_docs=200, n_queries=20). The index, the run files
# and the dump are the same in both modes; only the reports differ.
SHARED = {
    "dump-index":
        "85e9672727fbe0032e86884f9d5499f8f4cd73d0a1363d9892cb5b6adf8cd79f",
    "ix/kb.jsonl":
        "e24c55ca4d75884fd683cd4da7ba718dfcba67872e806f42d17719f2c6772903",
    "ix/postings.jsonl":
        "1811c9956b8c19a9b423874d39199fcf00d5d6abd2f2522ce09a84d754275c3a",
    "ix/stats.json":
        "23484a65d46e3775960c46ceb3f3db22afc3ef6aaecd4b3e5e243bf3fc081d94",
    "ix/taxonomy.jsonl":
        "455aed133866935087e5175440e55db1ae7274fdd39e3d4e16b9dfefc117b435",
    "out/runs/kw-and-ne-n.run":
        "7f7caa0110004c0a4560902541655e6de0401448ad757fc5220f7ecc2c133fb0",
    "out/runs/kw-and-ne-o.run":
        "b4ab5814185d7fea3c577281aac4412e45dcbe4c8576944eb34f24e8e453c093",
    "out/runs/kw-or-ne-n.run":
        "692d3bdd2066164b0359e7f322476b2c62ad60e38668efa28d13d5eed0a68fcd",
    "out/runs/kw-or-ne-o.run":
        "6b968796fd040eed5211afb9ceda99c0820d95d62e37fe144e7b7c4f154e6151",
    "out/runs/kw-plus-ne.run":
        "3347deb6d27534e05611b0330cb59a936c61c5f28b4d7d0fc6688354d65446a4",
    "out/runs/kw.run":
        "58e7bad3dec055099dc4c0b6cd1f313aa70bc7047ebcaeabada71f5e46b8c529",
    "out/runs/ne-n.run":
        "e1aaa2782b1acff7b413512730d5c3f404f8d7345372599481db9c20fdcab807",
    "out/runs/ne-o.run":
        "f993132e795443c7b208282e4a23746397ee8577e4e436546b150533344116a8",
}
REPORTS = {
    "standard": {
        "out/curves/kw-and-ne-n.csv":
            "8dd5661e4f8b0dc117929754c83bb8c17d5085d0e07668376ffe99120acae3c9",
        "out/curves/kw-and-ne-o.csv":
            "5b20a6b4f91ae1efe55c42e6ecdaebc305dcd7d54d2f7ea230d7facadca8909b",
        "out/curves/kw-or-ne-n.csv":
            "2399da6e808c7a205e0e7208f50fe31eb36151feb184b82d2d6483afb2c25ef4",
        "out/curves/kw-or-ne-o.csv":
            "47d9cd5974c902982d3c491a5db31dc2400431c1fccad2e5386058c2a0d5a04f",
        "out/curves/kw-plus-ne.csv":
            "5f2009f9d61ffd61fb3f268afe28f71dcf5e1fd45bea269e9c36ffae33fea7cd",
        "out/curves/kw.csv":
            "91f6fcfba873b53d9ac3cb5b24cd277234fcb260ea727ce3dddbfdb758a4191c",
        "out/curves/ne-n.csv":
            "b6a21d8af5f63f6e21559275c5538a748c9946bd01a632139d4d388f9281742b",
        "out/curves/ne-o.csv":
            "fb4f03d9845573079cd90a72a39bc9d37d731654b2dfbe33785876f65da850e7",
        "out/f_measure.csv":
            "8bb68c258b34dfd619e2f4a6298b2fdbe390b61c6379d95c076bd76801f5a5a8",
        "out/precision.csv":
            "3588e06b6ad0a531e78f66697fab90adc813865784004e93528c2881cc7ecba3",
    },
    "windowed": {
        "out/curves/kw-and-ne-n.csv":
            "d031f164954d0694de785e963424a821879a76113800364ec43decbec6c218d8",
        "out/curves/kw-and-ne-o.csv":
            "9668e642db7c446d6897d1d98cd7b096616790ddfbbc6016f3e1e55663f19d2a",
        "out/curves/kw-or-ne-n.csv":
            "6ab1fb7f0998b60c7a1756af9e2819d2be66eb37356d6b208bb473a84af58a9a",
        "out/curves/kw-or-ne-o.csv":
            "2b28d7affd9aca200ce73f958f3806238eb59f7ac651b66936a3a4c5f95402d8",
        "out/curves/kw-plus-ne.csv":
            "11cc687515fbfce78833f24e5129649484ed22ba1bb8a530e6aecea86b1c71a3",
        "out/curves/kw.csv":
            "82a5776319e1ed0d7ef98bd673c365cde0dc14fb0126049a86b3174bd0c41adf",
        "out/curves/ne-n.csv":
            "d8ff925c3660db129d8e272d3694aa19ea51e356c728353cc7d4645787c1e909",
        "out/curves/ne-o.csv":
            "3e7ccb3e03567f67e83bcb35c52f767874604954580236c0fd715cfcf6214d1e",
        "out/f_measure.csv":
            "3bc07654188593356472c63b2d823652123089bbc328fa33e30f0f77c0807fdc",
        "out/precision.csv":
            "b0de05320e645e53e1ffee431e7bbe6d03f4e09078a659fca3cc5b4fbab3b6ff",
    },
}


def output_digests(tmp: Path, interp: str) -> dict[str, str]:
    data = corpusgen.synthetic_dataset(seed=7, n_docs=200, n_queries=20)
    data_dir = tmp / "data"
    data_dir.mkdir(exist_ok=True)
    for name in ("taxonomy", "kb", "docs", "queries"):
        write_jsonl(data_dir / f"{name}.jsonl", data[name])
    (data_dir / "qrels.txt").write_text("".join(corpusgen.qrels_lines(data["qrels"])))
    out, ix = tmp / interp / "out", tmp / interp / "ix"
    argv = ["compare", "--out", str(out), "--index", str(ix), "--interp", interp]
    for flag, name in (("--taxonomy", "taxonomy.jsonl"), ("--kb", "kb.jsonl"),
                       ("--corpus", "docs.jsonl"), ("--queries", "queries.jsonl"),
                       ("--qrels", "qrels.txt")):
        argv += [flag, str(data_dir / name)]
    dump = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with contextlib.redirect_stdout(dump):
        assert main(["dump-index", "--index", str(ix)]) == 0
    digests = {
        f"{root.name}/{p.relative_to(root).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
        for root in (out, ix)
        for p in root.rglob("*")
        if p.is_file()
    }
    digests["dump-index"] = hashlib.sha256(dump.getvalue().encode()).hexdigest()
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("interp", sorted(REPORTS))
def test_outputs_match_recorded_digests(tmp_path, interp):
    assert output_digests(tmp_path, interp) == {**SHARED, **REPORTS[interp]}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for mode in sorted(REPORTS):
            print(mode, output_digests(Path(tmp), mode))
