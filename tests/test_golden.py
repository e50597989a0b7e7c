from golden import mismatches, run_pipeline


def test_every_pipeline_output_matches_its_golden_digest(tmp_path):
    digests = run_pipeline(str(tmp_path))
    assert mismatches(digests) == []
