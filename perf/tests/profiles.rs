//! The benchmark must build the repository's crates the way the
//! repository does: every `[profile.*]` table of the root manifest must
//! appear, with the same settings, in this package's manifest.

use std::collections::BTreeMap;

/// `[profile.*]` tables of a manifest: header → sorted `key = value` lines.
fn profiles(manifest: &str) -> BTreeMap<String, Vec<String>> {
    let mut tables: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            current = line.starts_with("[profile.").then(|| line.to_string());
            if let Some(h) = &current {
                tables.entry(h.clone()).or_default();
            }
        } else if let Some(h) = &current {
            let setting: String = line.split_whitespace().collect::<Vec<_>>().join(" ");
            tables.get_mut(h).expect("table opened").push(setting);
        }
    }
    tables.values_mut().for_each(|v| v.sort());
    tables
}

#[test]
fn build_profiles_match_the_root_manifest() {
    let here = env!("CARGO_MANIFEST_DIR");
    let read = |p: String| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
    let root = profiles(&read(format!("{here}/../Cargo.toml")));
    let perf = profiles(&read(format!("{here}/Cargo.toml")));
    assert!(
        root.contains_key("[profile.release]"),
        "the root manifest sets the release profile"
    );
    assert_eq!(
        perf, root,
        "perf/Cargo.toml profiles drifted from the root's"
    );
}

#[test]
fn the_parser_sees_settings_and_ignores_other_tables() {
    let t = profiles("[package]\nname = \"x\"\n[profile.release]\nlto = \"thin\" # why\ncodegen-units=1\n[dependencies]\na = 1\n");
    assert_eq!(t.len(), 1);
    assert_eq!(
        t["[profile.release]"],
        ["codegen-units=1", "lto = \"thin\""]
    );
}
