"""Code-size guard over the service and store crates.

Counts non-test lines: the lines of each Rust source file before its first
`#[cfg(test)]` (unit tests sit at the end of their module). The per-table
module must stay a thin owner of the ingest and read paths — health, trust,
durability, configuration and the refresh live in their own modules — so
`crates/service/src/table.rs` may not grow past TABLE_MAX. The crate totals
are printed for the record and not gated.
"""

from pathlib import Path

from _common import finish

TABLE = Path("crates/service/src/table.rs")
TABLE_MAX = 800
CRATES = [Path("crates/service/src"), Path("crates/store/src")]


def non_test_lines(path):
    count = 0
    with open(path) as f:
        for line in f:
            if line.lstrip().startswith("#[cfg(test)]"):
                break
            count += 1
    return count


failures = []
table = non_test_lines(TABLE)
if table > TABLE_MAX:
    failures.append(f"{TABLE} has {table} non-test lines (max {TABLE_MAX})")
totals = {src: sum(non_test_lines(p) for p in sorted(src.rglob("*.rs"))) for src in CRATES}
for src, lines in totals.items():
    print(f"{src}: {lines} non-test lines")
finish(
    "SIZE",
    failures,
    f"size guard ok: {TABLE} {table}/{TABLE_MAX} non-test lines; "
    + ", ".join(f"{src} {lines}" for src, lines in totals.items()),
)
