"""The README's code examples run as written."""
import contextlib
import io
import re
from pathlib import Path

import corpusgen

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {
        "taxonomy_records": corpusgen.TAXONOMY_RECORDS,
        "entity_records": corpusgen.ENTITY_RECORDS,
        "doc_records": corpusgen.CITY_DOC_RECORDS,
        "query_record": corpusgen.ALIAS_ENTITY_QUERY,
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, namespace)
    # The query names the city by another alias; only d1 mentions the city.
    doc_id, score = out.getvalue().split()
    assert doc_id == "d1" and 0.0 < float(score) <= 1.0
