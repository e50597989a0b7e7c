"""fmeasure, fluency, split-finetune and merge-augment read their corpus in one pass.

Each holds counts or one written line per side, never a pair as tokens, and
each writes its outputs all-or-nothing: a fault that the pass meets on the
last line leaves no output file and no temporary file behind.
"""

import os
import tracemalloc

import pytest

from covbias import NGramModel, write_mono, write_parallel
from covbias.cli import main

from synthbed import make_testbed

N_PAIRS = 5_000
SELECTED = range(1, N_PAIRS, N_PAIRS // 10)  # a 10-line selection


def _write_bed(root, pairs, stem):
    """The files the four subcommands read, for pairs, under root/stem.*."""
    write_parallel(pairs, str(root / f"{stem}.src"), str(root / f"{stem}.tgt"))
    write_mono([p.source_pos for p in pairs], str(root / f"{stem}.src.pos"))
    write_mono([p.target_pos for p in pairs], str(root / f"{stem}.tgt.pos"))
    write_mono([p.target for p in pairs[1:] + pairs[:1]], str(root / f"{stem}.hyp"))


def _argv(command, root, stem, selection="", synthetic=None):
    """The command line of one subcommand over the root/stem.* files.

    merge-augment takes its synthetic corpus from root/synthetic.* if given.
    """
    def path(name):
        return str(root / name)

    corpus = [path(f"{stem}.src"), path(f"{stem}.tgt")]
    argv = {
        "fmeasure": ["--hyp", path(f"{stem}.hyp"), "--ref", corpus[1],
                     "--ref-pos", path(f"{stem}.tgt.pos"), "--output", path("out.tsv")],
        "fluency": ["--input", corpus[0], "--pos", path(f"{stem}.src.pos"),
                    "--plain-lm", path("m.lm"), "--abstracted-lm", path("m.lm"),
                    "--output", path("out.tsv")],
        "split-finetune": ["--source", corpus[0], "--target", corpus[1],
                           "--selection", selection,
                           "--out-pretrain-source", path("pre.src"),
                           "--out-pretrain-target", path("pre.tgt"),
                           "--out-finetune-source", path("fine.src"),
                           "--out-finetune-target", path("fine.tgt"),
                           "--manifest", path("manifest.tsv")],
        "merge-augment": ["--authentic-source", corpus[0], "--authentic-target", corpus[1],
                          "--synthetic-source", path(f"{synthetic or stem}.src"),
                          "--synthetic-target", path(f"{synthetic or stem}.tgt"),
                          "--tag-token", "<BT>",
                          "--out-source", path("merged.src"), "--out-target", path("merged.tgt"),
                          "--manifest", path("manifest.tsv")],
    }[command]
    return [command, *argv]


@pytest.fixture(scope="module")
def bed(tmp_path_factory):
    root = tmp_path_factory.mktemp("streaming")
    testbed = make_testbed(seed=5, n_mono=2_000, n_heldout=0, n_pairs_each=N_PAIRS // 2)
    _write_bed(root, testbed.pairs, "big")
    _write_bed(root, testbed.pairs[:3], "warm")
    for stem, lines in (("big", SELECTED), ("warm", [1])):
        rows = "".join(f"{n}\tmost_source\n" for n in lines)
        (root / f"{stem}.sel.tsv").write_text("line_no\tgroup\n" + rows, encoding="utf-8")
    model = NGramModel.train(testbed.src_mono, order=3)
    model._index()  # the dicts a long run builds, so that they count as the model
    return root, model


@pytest.mark.parametrize(
    "command, bound",
    [
        ("fmeasure", 2**20),
        ("fluency", 2**20),
        ("split-finetune", 2**20),
        ("merge-augment", 300 * 2 * N_PAIRS),  # under 300 B per merged pair
    ],
)
def test_streamed_subcommands_hold_no_pair_as_tokens(bed, monkeypatch, command, bound):
    """Past the models, a 5,000-pair run keeps counts or written lines, not token tuples."""
    root, model = bed
    monkeypatch.setattr(NGramModel, "load", classmethod(lambda cls, path: model))
    # a warm-up run, so imports count for nothing
    seed = ["--seed", "3"] if command == "merge-augment" else []  # the run that holds lines
    assert main(_argv(command, root, "warm", str(root / "warm.sel.tsv")) + seed) == 0
    tracemalloc.start()
    try:
        assert main(_argv(command, root, "big", str(root / "big.sel.tsv")) + seed) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if command == "split-finetune":
        assert len((root / "fine.src").read_text().splitlines()) == len(SELECTED)
    if command == "merge-augment":
        assert len((root / "merged.src").read_text().splitlines()) == 2 * N_PAIRS
    assert peak < bound, f"{command} peaked at {peak} bytes above its models"


@pytest.fixture
def small(tmp_path):
    """A 20-pair bed with a model, for runs that must fail on their last line."""
    testbed = make_testbed(seed=7, n_mono=200, n_heldout=0, n_pairs_each=10)
    _write_bed(tmp_path, testbed.pairs, "c")
    NGramModel.train(testbed.src_mono, order=2, min_count=1).save(str(tmp_path / "m.lm"))
    return tmp_path, len(testbed.pairs)


def _fails_leaving_nothing(root, argv, message, capsys):
    before = sorted(os.listdir(root))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"covbias: error: {message}\n"
    assert sorted(os.listdir(root)) == before  # no output and no .tmp-* file


def test_split_finetune_refuses_a_selection_past_the_end_and_writes_nothing(small, capsys):
    root, n = small
    selection = root / "sel.tsv"
    selection.write_text(f"line_no\tgroup\n2\tmost_source\n{n + 1}\tmost_source\n", "utf-8")
    argv = _argv("split-finetune", root, "c", str(selection))
    message = f"selection names line {n + 1} but the corpus has {n} lines"
    _fails_leaving_nothing(root, argv, message, capsys)


@pytest.mark.parametrize("seed", [["--seed", "3"], []], ids=["shuffled", "in-order"])
def test_merge_augment_collision_on_the_last_synthetic_line_writes_nothing(
    small, capsys, seed
):
    root, n = small
    (root / "syn.tgt").write_bytes((root / "c.tgt").read_bytes())
    (root / "syn.src").write_text((root / "c.src").read_text("utf-8")[:-1] + " <BT>\n", "utf-8")
    argv = _argv("merge-augment", root, "c", synthetic="syn") + seed
    message = f"{root / 'syn.src'}: line {n}: corpus already contains the tag token '<BT>'"
    _fails_leaving_nothing(root, argv, message, capsys)


@pytest.mark.parametrize("command, pos", [("fluency", "c.src.pos"), ("fmeasure", "c.tgt.pos")])
def test_a_tag_count_fault_on_the_last_line_writes_nothing(small, capsys, command, pos):
    root, n = small
    lines = (root / pos).read_text("utf-8").splitlines()
    tokens = len(lines[-1].split())
    lines[-1] = " ".join(lines[-1].split()[:-1])
    (root / pos).write_text("".join(line + "\n" for line in lines), "utf-8")
    message = f"{root / pos}: line {n} has {tokens - 1} tags for {tokens} tokens"
    _fails_leaving_nothing(root, _argv(command, root, "c"), message, capsys)
