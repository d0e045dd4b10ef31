//! DESIGN.md §4 lists, for every workspace crate, one bullet per module its
//! `lib.rs` declares. This test keeps that inventory true: for each
//! `crates/<dir>/src/lib.rs`, the names before the first `:` of the
//! bullets under `### crates/<dir>` must equal the crate's `mod`
//! declarations.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The module names of each `- `a`/`b`: …` bullet directly under the
/// heading `### crates/<dir>`, up to the next heading.
fn design_modules(design: &str, dir: &str) -> Option<BTreeSet<String>> {
    let mut lines = design.lines();
    lines.find(|line| {
        line.strip_prefix("### crates/")
            .and_then(|rest| rest.split_whitespace().next())
            == Some(dir)
    })?;
    let mut names = BTreeSet::new();
    for line in lines.take_while(|line| !line.starts_with('#')) {
        let Some(bullet) = line.strip_prefix("- ") else {
            continue;
        };
        let (head, _) = bullet
            .split_once(':')
            .unwrap_or_else(|| panic!("crates/{dir}: bullet without `:`: {line}"));
        for name in head.split('/') {
            let name = name
                .strip_prefix('`')
                .and_then(|n| n.strip_suffix('`'))
                .unwrap_or_else(|| panic!("crates/{dir}: bullet must name `modules`: {line}"));
            assert!(
                names.insert(name.to_owned()),
                "crates/{dir}: `{name}` listed twice"
            );
        }
    }
    Some(names)
}

/// The file modules `lib.rs` declares (`mod name;` / `pub mod name;`).
/// Inline modules such as `mod tests { … }` are not part of the inventory.
fn declared_modules(lib: &str) -> BTreeSet<String> {
    lib.lines()
        .filter_map(|line| {
            let line = line.trim_start();
            let rest = line
                .strip_prefix("pub ")
                .or_else(|| line.strip_prefix("pub(crate) "))
                .unwrap_or(line);
            let name = rest.strip_prefix("mod ")?.strip_suffix(';')?;
            Some(name.trim().to_owned())
        })
        .collect()
}

#[test]
fn design_lists_every_crate_module() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let mut crates = 0;
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(lib) = fs::read_to_string(dir.join("src/lib.rs")) else {
            continue;
        };
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("crate directory name");
        let listed = design_modules(&design, name)
            .unwrap_or_else(|| panic!("DESIGN.md §4 has no `### crates/{name}` section"));
        assert_eq!(
            listed,
            declared_modules(&lib),
            "DESIGN.md `### crates/{name}` bullets vs crates/{name}/src/lib.rs modules"
        );
        crates += 1;
    }
    assert!(crates > 0, "no crate with a src/lib.rs found");
}
