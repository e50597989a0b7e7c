"""Golden digests of every pipeline output, for any supported Python.

run_pipeline(workdir) writes a small tests/synthbed.py testbed into workdir,
runs all 14 covbias subcommands in-process through covbias.cli.main in the
order of the README pipeline, and returns the sha256 of every file left in
workdir and of the stdout of every run that writes a report there. MANIFEST
holds those digests. A change that alters any of them says which outputs
changed and why, and updates MANIFEST.

Standard library only, so it runs without pytest (tests/test_golden.py runs
it in the test suite):

    PYTHONPATH=src python3 tests/golden.py

It exits 0 when every digest matches and 1 otherwise, printing each
mismatch as a MANIFEST line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from covbias import write_mono, write_parallel
from covbias.cli import main

from synthbed import make_testbed

N_TUNE = 100


def _run(workdir: str, stdout: dict[str, str], *argv: str) -> str:
    """Run one subcommand in workdir; record and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in argv])
    if code != 0:
        raise RuntimeError(f"covbias {' '.join(argv)} exited {code}")
    if out.getvalue():
        name = f"{argv[0]}.stdout"
        if name in stdout:
            raise RuntimeError(f"a second covbias {argv[0]} printed its report")
        stdout[name] = out.getvalue()
    return out.getvalue()


def run_pipeline(workdir: str) -> dict[str, str]:
    """sha256 of every file in workdir and of each report printed to stdout."""
    bed = make_testbed(seed=7, n_mono=2_000, n_heldout=100, n_pairs_each=200)
    tune, rest = bed.pairs[:N_TUNE], bed.pairs[N_TUNE:]

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    write_mono(bed.src_mono, path("mono.src"))
    write_mono(bed.tgt_mono, path("mono.tgt"))
    write_mono(bed.src_heldout, path("heldout.src"))
    write_parallel(tune, path("tune.src"), path("tune.tgt"))
    write_mono([pair.source_pos for pair in tune], path("tune.src.pos"))
    write_parallel(rest, path("all.src"), path("all.tgt"))
    write_mono([pair.source_pos for pair in rest], path("all.src.pos"))
    write_mono([pair.target_pos for pair in rest], path("all.tgt.pos"))
    # a system output for fmeasure: the reference shifted by one line
    write_mono([pair.target for pair in rest[1:] + rest[:1]], path("hyp.tgt"))

    stdout: dict[str, str] = {}

    def run(*argv: str) -> str:
        return _run(workdir, stdout, *argv)

    # detection
    for side in ("src", "tgt"):
        run("train-lm", "--input", f"@mono.{side}", "--output", f"@{side}.lm",
            "--order", "3", "--min-count", "2")
    run("perplexity", "--model", "@src.lm", "--input", "@heldout.src")
    models = ("--source-model", "@src.lm", "--target-model", "@tgt.lm")
    run("score-pairs", *models, "--source", "@tune.src", "--target", "@tune.tgt",
        "--output", "@tune_scores.tsv")
    run("score-pairs", *models, "--source", "@tune.src", "--target", "@tune.tgt",
        "--length-normalize", "--offset-c", "0.25", "--output", "@tune_scores_norm.tsv")
    with open(path("tune_scores.tsv"), encoding="utf-8") as handle:
        scores = [line.split("\t")[1] for line in handle.read().splitlines()[1:]]
    rows = [f"{score}\t{label.code}\n" for score, label in zip(scores, bed.gold[:N_TUNE])]
    with open(path("tune_table.tsv"), "w", encoding="utf-8") as handle:
        handle.write("score\tgold\n" + "".join(rows))
    tuned = run("tune-offset", "--input", "@tune_table.tsv")
    offset_c = tuned.splitlines()[1].split("\t")[0]
    all_pairs = ("--source", "@all.src", "--target", "@all.tgt")
    run("score-pairs", *models, *all_pairs, "--output", "@raw.tsv")
    run("classify", "--scores", "@raw.tsv", "--offset-c", offset_c, "--output", "@records.tsv")

    # divergence and adequacy
    run("select", "--records", "@records.tsv", "--ratio", "20", "--output", "@split.tsv")
    run("jsdiv", *all_pairs, "--side", "source", "--source-pos", "@all.src.pos",
        "--split", "@split.tsv", "--output", "@js.tsv")
    run("random-split", "--count", str(len(rest)), "--fraction", "0.5", "--seed", "13",
        "--output", "@rand.tsv")
    run("jsdiv", *all_pairs, "--side", "target", "--target-pos", "@all.tgt.pos",
        "--split", "@rand.tsv")
    run("fmeasure", "--hyp", "@hyp.tgt", "--ref", "@all.tgt", "--ref-pos", "@all.tgt.pos",
        "--output", "@fmeasure.tsv")

    # fluency
    run("abstract", "--input", "@all.src", "--pos", "@all.src.pos", "--output", "@all.src.abs")
    run("train-lm", "--input", "@all.src.abs", "--output", "@abs.lm",
        "--order", "3", "--min-count", "1")
    fluency = ("--plain-lm", "@src.lm", "--abstracted-lm", "@abs.lm")
    run("fluency", "--input", "@tune.src", "--pos", "@tune.src.pos", *fluency,
        "--output", "@fluency_tune.tsv")
    run("fluency", "--input", "@all.src", "--pos", "@all.src.pos", *fluency,
        "--baseline", "@fluency_tune.tsv")

    # corpus preparation
    run("tag", *all_pairs, "--records", "@records.tsv",
        "--out-source", "@tagged.src", "--out-target", "@tagged.tgt")
    for selector, report in (("--selection", "@split.tsv"), ("--records", "@records.tsv")):
        name = selector[2:]
        run("split-finetune", *all_pairs, selector, report,
            "--out-pretrain-source", f"@{name}.pre.src",
            "--out-pretrain-target", f"@{name}.pre.tgt",
            "--out-finetune-source", f"@{name}.fine.src",
            "--out-finetune-target", f"@{name}.fine.tgt",
            "--manifest", f"@{name}.manifest.tsv")
    run("merge-augment", "--authentic-source", "@all.src", "--authentic-target", "@all.tgt",
        "--synthetic-source", "@tune.src", "--synthetic-target", "@tune.tgt",
        "--tag-token", "<BT>", "--seed", "77",
        "--out-source", "@merged.src", "--out-target", "@merged.tgt",
        "--manifest", "@merged.manifest.tsv")

    digests = {}
    for name in sorted(os.listdir(workdir)):
        with open(path(name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    for name, text in stdout.items():
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


MANIFEST = {
    'abs.lm': 'c8b350defe3e19fa438a72b9fe4aaf8cc26626e67b7b8f573c5333eda1c5cb43',
    'all.src': '686a752cc886bf83f712279a3f0ab29420b5cf06cd40581cc6ce3a82a855a50a',
    'all.src.abs': '4435446abbee11096c6e7db877402cc4013a7b143695102eed7325a94ba6b170',
    'all.src.pos': 'b4a78424032c10e56ba2434b7b21fe65e1f15a2b35a4475a69b2f293eda0d406',
    'all.tgt': '076bb0a9236b2a7d12f6f38155984c856eeadd4cc9d000e873782c0efec2ef2f',
    'all.tgt.pos': 'b4a78424032c10e56ba2434b7b21fe65e1f15a2b35a4475a69b2f293eda0d406',
    'fluency.stdout': '4f240e76f6fb668a952694b61dcd17b3c6520818818061747744ccd76be2aeb3',
    'fluency_tune.tsv': '9fb8214692fb30bd35512df3ff1a8c0c556f729037077c15531312ffcbc48c8f',
    'fmeasure.tsv': '6978de2eed1b8ab1c085795e024cb048f3329e37d050ae48b7222a05efddbcd7',
    'heldout.src': '903854bb784e78ab010f3105df2f287e6f05d39fe3815966c517d49448fedfb9',
    'hyp.tgt': '3906977f07f222f663f68e5dccee8e5e33935f96c8a46cf85b0fc040346df7d0',
    'js.tsv': 'ccd2c4f5323784346fb8f0dd0940f80042697d92c147efac3bd78f204e820d27',
    'jsdiv.stdout': '00f861467af140520e13e07f418b86db7712cd18a0598e7c492d277bc52b17bc',
    'merged.manifest.tsv': '63aba2615092c4c2bf528c715a2c37aab7326a3023c1322237ba19696e29a584',
    'merged.src': '556005dbc4de88aba46e4c2448720116b7e38884a6b29e9af7eb521b8362061c',
    'merged.tgt': 'd9e63c9e2242cb917adb0a454bf6d31611dba29ec8e844c826de88c3c6b8d14e',
    'mono.src': '5db0bf5e1a4d76d327b9ae4ef87d3f70eba62a5ce9ce66f76631c62f2baca353',
    'mono.tgt': 'dd6df994ad5651adcf9e0002ea5bc3e437afc474e10b7ac60c1a9b1863750efb',
    'perplexity.stdout': '90fe6a385024c062e61e0fb5649baad88991107359c18ca503f8ae5ab4a8845d',
    'rand.tsv': 'fc3a33630868c037a8c5ad129ae36394918478d83fb20020799823d882701cba',
    'raw.tsv': 'f4219763eeb514d77ba3cddcbd18206779d6ef38e48124cd4acf463d296f7de8',
    'records.fine.src': 'd696a8257c0e49636547028dd3ec0232796c2b513e3256089fb81a63b49c35f3',
    'records.fine.tgt': 'b56d6010cb366cc265ba34fa302145332306ad5e3a71d1d6e674e493286e07bc',
    'records.manifest.tsv': '107b7b14c5d8a9f04351ac661a61da99c81397759d2fdde6bca7ff8b03abbf00',
    'records.pre.src': '686a752cc886bf83f712279a3f0ab29420b5cf06cd40581cc6ce3a82a855a50a',
    'records.pre.tgt': '076bb0a9236b2a7d12f6f38155984c856eeadd4cc9d000e873782c0efec2ef2f',
    'records.tsv': '8699750fa614c4b2cb1fcb6f882c7103f7cfb8cb64c8e738ae255e3ff1a0a252',
    'selection.fine.src': '4fa0f0e93cc12d4ba4762b08eabe213188c922bdb436521178e769d9c21a8550',
    'selection.fine.tgt': '8880a88632ab1bdf3e65b14863034fe68900d9107dc0175df5ba2e0e5c3e0211',
    'selection.manifest.tsv': 'baac1da9835f5889b5468d2edce8ffed7650bf1f2224ded3e2920065fd049297',
    'selection.pre.src': '686a752cc886bf83f712279a3f0ab29420b5cf06cd40581cc6ce3a82a855a50a',
    'selection.pre.tgt': '076bb0a9236b2a7d12f6f38155984c856eeadd4cc9d000e873782c0efec2ef2f',
    'split.tsv': 'b909965772c9f1440b416b7c3f214174bdd89b3ec24baa5a532c5bb54e3bfba2',
    'src.lm': '01c14c4047f81bde79f61312ee6a235d5d17a64a29c19e0414aa443f102d6ad0',
    'tagged.src': 'b7f35b1dad0cb864e0464f40a6d648e4690edb14fccc028d38cda72d5d40782a',
    'tagged.tgt': '076bb0a9236b2a7d12f6f38155984c856eeadd4cc9d000e873782c0efec2ef2f',
    'tgt.lm': '6491d066fd73198c4ea899fb11278c5646892c751537e44cb1c8ebd1908b30e3',
    'tune-offset.stdout': '276c5eeeb7b49b6b2c327b8d71c52f84692074259e7449fed0d1d137c7e189e8',
    'tune.src': '98ae8aafa5fa9eda8484033dc6e6b15e6f16acee3d75277b780affa493457b88',
    'tune.src.pos': '55bf05f306e373f4e2535ca17737bb492b22d6cc3c6d632fb6ed60a61e3459cb',
    'tune.tgt': '84e85e194f362233a574a817354ebb87b50e23bf8459bc27284a5b68528b1dff',
    'tune_scores.tsv': '772c42c5802d0036923d654ab26834c8225fd0c8b0a06d6faab4544ecec63bd5',
    'tune_scores_norm.tsv': '622d5db2e4125f82471f5c786b45d9587a70565223b747e4982ef395cb85681c',
    'tune_table.tsv': '80c01d8175c6b8c9394f73735752d4bb06b4ac9af21428418d603c40448b2184',
}


def mismatches(digests: dict[str, str]) -> list[str]:
    """One MANIFEST line per name whose digest differs, is new or is missing."""
    names = sorted(set(digests) | set(MANIFEST))
    return [
        f"    {name!r}: {digests.get(name)!r},"
        for name in names
        if digests.get(name) != MANIFEST.get(name)
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        lines = mismatches(run_pipeline(scratch))
    if lines:
        print(f"{len(lines)} digest(s) differ from MANIFEST:", *lines, sep="\n")
        sys.exit(1)
    print(f"all {len(MANIFEST)} digests match")
