"""Every JSON report the CLI prints conforms to docs/report_schema.json.

jsonschema is not a dependency, so `validate` covers exactly the keywords
the report schema uses: type, enum, required, properties, items, $ref,
pattern, additionalProperties and oneOf.
"""

import json
import re
from pathlib import Path

from test_cli import run_cli

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(value, schema, path="$") -> list[str]:
    """The ways value breaks schema, one message each; [] when it conforms."""
    errors = []
    if "$ref" in schema:
        errors += validate(value, SCHEMA[schema["$ref"].removeprefix("#/")], path)
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](value) for t in types):
            return errors + [f"{path}: {value!r} is not of type {schema['type']}"]
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} is not one of {schema['enum']}")
    if "pattern" in schema and isinstance(value, str) and not re.search(schema["pattern"], value):
        errors.append(f"{path}: {value!r} does not match {schema['pattern']}")
    if "oneOf" in schema:
        fits = sum(not validate(value, sub, path) for sub in schema["oneOf"])
        if fits != 1:
            errors.append(f"{path}: {value!r} fits {fits} of the oneOf schemas, not 1")
    if isinstance(value, dict):
        errors += [f"{path}: missing {key!r}" for key in schema.get("required", ())
                   if key not in value]
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                errors += validate(item, properties[key], f"{path}.{key}")
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                errors += validate(item, extra, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors += validate(item, schema["items"], f"{path}[{i}]")
    return errors


def _cli_stream(*argv_lists):
    """The `# set:` stream of one or two `gen` runs, the second relabelled B."""
    chunks = []
    for i, argv in enumerate(argv_lists):
        code, out = run_cli(argv)
        assert code == 0
        chunks.append(out.replace("# set: A", "# set: B") if i else out)
    return "".join(chunks)


RECTS = "# set: A\n0 0\n1 0\n1 2\n0 2\n# set: B\n0 0\n2 0\n2 1\n0 1\n"
TRIANGLE_AND_SQUARE = "# set: A\n0 0\n1 0\n0 1\n# set: B\n0 0\n1 0\n1 1\n0 1\n"
WILD = ["gen", "wild", "--x", "4"]
CASE_C = ["gen", "case-c", "--m", "4", "--n", "4", "--k", "7"]
FIGURE_2 = (["gen", "eps-trapezoid", "--m", "4", "--h", "16", "--c", "1", "--d", "2",
             "--ones", "8,12,14"],
            ["gen", "trapezoid", "--m", "4", "--h", "7", "--c", "1", "--d", "2"])
TRAPEZOIDS = (["gen", "trapezoid", "--m", "2", "--h", "2", "--c", "0", "--d", "0"],
              ["gen", "trapezoid", "--m", "3", "--h", "2", "--c", "0", "--d", "0"])


def samples(tmp_path):
    """emitted_by command -> [(argv, stdin)], at least one run per command."""
    return {
        "bound": [(["bound", "--mode", "sections"], _cli_stream(WILD))],
        "check thm2": [(["check", "thm2"], _cli_stream(*TRAPEZOIDS))],
        "check thm3": [(["check", "thm3"], _cli_stream(*FIGURE_2)),
                       (["check", "thm3"], _cli_stream(CASE_C))],
        "check 1d": [(["check", "1d"], "# set: A\n0 0\n1 0\n2 0\n# set: B\n0 5\n1 5\n")],
        "check split": [(["check", "split"], _cli_stream(CASE_C))],
        "check continuous": [(["check", "continuous"], RECTS)],
        "sweep": [(["sweep", "--grid", "2x2", "--mode", "sections"], "")],
        "poly report": [(["poly", "report"], RECTS)],
        "poly decompose": [(["poly", "decompose"], RECTS),
                           (["poly", "decompose"], TRIANGLE_AND_SQUARE)],
        "poly partition": [(["poly", "partition", "--k", "3"], RECTS)],
        "poly graph-bounds": [(["poly", "graph-bounds"], RECTS)],
        "poly sum --json": [(["poly", "sum", "--json"], RECTS)],
        "lemma-avg": [(["lemma-avg", "--a", "0=1,1=2", "--b", "0=3,1=4"], "")],
        "figure": [(["figure", "2", "--out-dir", str(tmp_path)], "")],
        "sumset": [(["sumset"], _cli_stream(WILD))],
        "compress --json": [(["compress", "--json"], _cli_stream(WILD))],
    }


def schema_entries():
    """(emitted_by command, key of the report inside the output or None,
    schema entry) for every command the schema names."""
    out = []
    for entry in SCHEMA.values():
        if not isinstance(entry, dict):
            continue
        for command in entry.get("emitted_by", ()):
            under = re.fullmatch(r"(.*) \(under key '(\w+)'\)", command)
            out.append((under[1], under[2], entry) if under else (command, None, entry))
    return out


def test_every_cli_report_conforms(tmp_path):
    runs = samples(tmp_path)
    entries = schema_entries()
    assert {command for command, _, _ in entries} == set(runs)
    for command, key, entry in entries:
        for argv, stdin in runs[command]:
            code, out = run_cli(argv, stdin_text=stdin)
            assert code == 0, argv
            report = json.loads(out)
            if key is not None:
                report = report[key]
            assert validate(report, entry) == [], (argv, key)


def test_thm3_reports_name_their_families():
    reports = [json.loads(run_cli(["check", "thm3"], stdin_text=stream)[1])
               for stream in (_cli_stream(*FIGURE_2), _cli_stream(CASE_C))]
    assert [r["verdict"] for r in reports] == ["EpsTrapezoidPair", "CaseCPair"]


def test_validator_rejects_nonconforming_reports():
    bound = {"mode": "sections", "m": 1, "n": 3, "lhs": "17", "rhs": "17",
             "gap": "0", "extremal": True}
    assert validate(bound, SCHEMA["bound_report"]) == []
    bad = [
        ({**bound, "lhs": 17}, "bound_report"),
        ({**bound, "gap": "1/x"}, "bound_report"),
        ({k: v for k, v in bound.items() if k != "rhs"}, "bound_report"),
        ({**bound, "mode": "columns"}, "bound_report"),
        ({**bound, "m": True}, "bound_report"),
        ({"verdict": "CaseCPair", "also_matches": ["d"]}, "classification"),
        ({"verdict": "CaseCPair", "witness_map": {"a11": 1}}, "classification"),
        ({"delta": "0", "slope_gap_bound": 2}, "graph_bounds"),
        ({"sets": {"A": ["0 0"]}}, "compressed_sets"),
        ([], "homothety_certificate"),
    ]
    for report, name in bad:
        assert validate(report, SCHEMA[name]) != [], (report, name)
