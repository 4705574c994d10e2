//! No dead public surface: every `pub fn` and `pub const` declared in
//! `crates/*/src` is named somewhere outside the tests.
//!
//! The scan is by name. It reads every `.rs` file of `crates/`, `tools/`,
//! `examples/` and `benchmark/src`, drops every `tests/` directory, each
//! `#[cfg(test)]` item (a `#[cfg(test)] mod m;` drops `m`'s file too) and
//! every `use` declaration, and counts the places a declared name appears
//! on what is left, in code or in a comment, other than where a `fn` or
//! `const` defines it and the doc comment on that definition. A name that
//! appears nowhere else, or only in the bodies of other dead functions, is
//! dead: delete it, or give it a caller. Being by name, the scan counts a
//! mention in a comment and a use inside a function of the same name
//! (recursion, a method handing on to a namesake) as callers. Test oracles
//! and observation hooks that exist for the tests sit in [`ALLOWED`], each
//! with the reason it stays.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Public names with no caller outside the tests that stay on purpose.
const ALLOWED: [(&str, &str); 10] = [
    (
        "naive_dft",
        "O(N²) DFT oracle every NTT engine is checked against",
    ),
    (
        "naive_msm",
        "double-and-add oracle every MSM engine is checked against",
    ),
    (
        "poly_stage_cpu",
        "CPU POLY stage the GPU engines' quotient is checked against",
    ),
    (
        "widening_mul",
        "reference product for `dfp` and the field proptests",
    ),
    ("access_warp", "stateful L2 check of `strided_warp_sectors`"),
    (
        "job_host",
        "where a cluster job runs, read by the host-kill tests",
    ),
    (
        "counter_total",
        "snapshot read of the registry-agreement tests",
    ),
    (
        "histogram_labeled",
        "snapshot read of the registry-agreement tests",
    ),
    (
        "host_window",
        "window the host fold picks, read by the fold tests",
    ),
    (
        "with_rate",
        "token-bucket admission, set only by the fair-share tests",
    ),
];

/// Every `.rs` file under `dir`, `tests/` and `target/` directories left
/// out.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "tests" && name != "target" {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `src` with comments, string literals and char literals replaced by
/// spaces (newlines kept, so lines still line up).
fn code_only(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |out: &mut String, ch: char| out.push(if ch == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < c.len() {
        let after_ident = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
        let raw_hashes = (c[i] == 'r' && !after_ident)
            .then(|| c[i + 1..].iter().take_while(|&&ch| ch == '#').count())
            .filter(|&h| c.get(i + 1 + h) == Some(&'"'));
        if c[i] == '/' && c.get(i + 1) == Some(&'/') {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if c[i] == '/' && c.get(i + 1) == Some(&'*') {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, c[i]);
                    i += 1;
                }
            }
        } else if let Some(hashes) = raw_hashes {
            i += hashes + 2;
            while i < c.len() {
                if c[i] == '"' && (1..=hashes).all(|k| c.get(i + k) == Some(&'#')) {
                    i += hashes + 1;
                    break;
                }
                blank(&mut out, c[i]);
                i += 1;
            }
        } else if c[i] == '"' {
            i += 1;
            while i < c.len() && c[i] != '"' {
                if c[i] == '\\' {
                    i += 1;
                }
                if let Some(&ch) = c.get(i) {
                    blank(&mut out, ch);
                }
                i += 1;
            }
            i += 1;
        } else if c[i] == '\'' && (c.get(i + 1) == Some(&'\\') || c.get(i + 2) == Some(&'\'')) {
            // A char literal; a lifetime (`'a`) has no closing quote.
            i += 2;
            while i < c.len() && c[i] != '\'' {
                i += 1;
            }
            i += 1;
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// One file, split by what its lines are.
struct Scanned {
    /// Indices of the lines outside `#[cfg(test)]` items and `use`
    /// declarations.
    kept: Vec<usize>,
    /// Modules the file declares as `#[cfg(test)] mod name;`.
    test_mods: Vec<String>,
}

fn scan(code: &str) -> Scanned {
    let lines: Vec<&str> = code.lines().collect();
    let mut out = Scanned {
        kept: Vec::new(),
        test_mods: Vec::new(),
    };
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim();
        if let Some(rest) = t.strip_prefix("#[cfg(test)]") {
            // Skip the gated item: to its `;`, or to the brace that closes
            // its body.
            let (mut depth, mut opened) = (0i64, false);
            let mut item = rest.to_string();
            loop {
                for ch in item.chars() {
                    opened |= ch == '{';
                    depth += i64::from(ch == '{') - i64::from(ch == '}');
                }
                let words = words(&item);
                if let ["mod", name] = words.as_slice() {
                    if !opened && item.trim_end().ends_with(';') {
                        out.test_mods.push(name.to_string());
                    }
                }
                let done = if opened {
                    depth == 0
                } else {
                    item.trim_end().ends_with(';')
                };
                i += 1;
                if done || i >= lines.len() {
                    break;
                }
                item = lines[i].to_string();
            }
        } else if t.starts_with("use ")
            || t.starts_with("pub use ")
            || t.starts_with("pub(") && t.contains(") use ")
        {
            while i < lines.len() && !lines[i].contains(';') {
                i += 1;
            }
            i += 1;
        } else {
            out.kept.push(i);
            i += 1;
        }
    }
    out
}

/// Identifier tokens of a line.
fn words(line: &str) -> Vec<&str> {
    line.split(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The names a code line defines with `fn` / `const`, and whether each is
/// `pub`.
fn definitions(code_line: &str) -> Vec<(&str, bool)> {
    let w = words(code_line);
    let mut out = Vec::new();
    for i in 0..w.len() {
        if !matches!(w[i], "fn" | "const") || w.get(i + 1) == Some(&"fn") {
            continue;
        }
        if let Some(name) = w.get(i + 1) {
            // `pub const fn` and `pub fn` are public; `pub(crate) fn`
            // reads `pub crate fn` and is not.
            let before = &w[..i];
            let public = match before {
                [.., "pub", "const"] => w[i] == "fn",
                [.., "pub"] => true,
                _ => false,
            };
            out.push((*name, public));
        }
    }
    out
}

/// Where each name appears: the functions whose bodies hold it (`None`
/// outside any function).
type Uses = BTreeMap<String, Vec<Option<String>>>;

/// Records where one file names each word into `uses`, and returns the
/// public names it declares.
fn tally(src: &str, code: &str, s: &Scanned, uses: &mut Uses) -> Vec<String> {
    let text: Vec<&str> = src.lines().collect();
    let code: Vec<&str> = code.lines().collect();
    let mut declared = Vec::new();
    // Open braces, each with the function whose body it opens, if any.
    let mut stack: Vec<Option<String>> = Vec::new();
    let mut pending: Option<String> = None;
    // Doc comments and attributes waiting for the item they describe,
    // with the function around them.
    let mut preamble: Vec<(usize, Option<String>)> = Vec::new();
    for &i in &s.kept {
        let mut owner = stack.iter().rev().flatten().next().cloned();
        let t = text[i].trim_start();
        if t.starts_with("///") || t.starts_with("#[") {
            preamble.push((i, owner));
            continue;
        }
        for (k, ch) in code[i].char_indices() {
            match ch {
                '{' => {
                    let opens = pending.take();
                    owner = opens.clone().or(owner);
                    stack.push(opens);
                }
                '}' => {
                    stack.pop();
                }
                ';' => pending = None,
                _ => {}
            }
            let after_ident = code[i][..k]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if code[i][k..].starts_with("fn ") && !after_ident {
                pending = words(&code[i][k + 3..]).first().map(|n| n.to_string());
            }
        }
        let defined = definitions(code[i]);
        let public = defined.iter().filter(|(_, public)| *public);
        declared.extend(public.map(|(name, _)| name.to_string()));
        for (j, owner) in preamble.drain(..).chain([(i, owner)]) {
            let w = words(text[j]);
            for (k, word) in w.iter().enumerate() {
                let defines = k > 0 && matches!(w[k - 1], "fn" | "const");
                let own_doc = j != i && defined.iter().any(|(n, _)| n == word);
                if !defines && !own_doc {
                    uses.entry(word.to_string())
                        .or_default()
                        .push(owner.clone());
                }
            }
        }
    }
    declared
}

/// The declared names that appear only in the bodies of other dead
/// functions. What an allowed function's body names is alive.
fn dead(declared: &BTreeSet<String>, uses: &Uses, allowed: &BTreeSet<&str>) -> BTreeSet<String> {
    let mut dead = BTreeSet::new();
    loop {
        let next: BTreeSet<String> = declared
            .iter()
            .filter(|name| {
                uses.get(*name).into_iter().flatten().all(|owner| {
                    owner
                        .as_deref()
                        .is_some_and(|o| dead.contains(o) && !allowed.contains(o))
                })
            })
            .cloned()
            .collect();
        if next == dead {
            return dead;
        }
        dead = next;
    }
}

/// The dead public names of `crates/*/src`, over the files of `root`.
fn dead_under(root: &Path, allowed: &BTreeSet<&str>) -> BTreeSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "tools", "examples", "benchmark/src"] {
        walk(&root.join(dir), &mut files);
    }
    let scanned: Vec<(PathBuf, String, String, Scanned)> = files
        .into_iter()
        .map(|path| {
            let src = fs::read_to_string(&path).unwrap();
            let code = code_only(&src);
            let s = scan(&code);
            (path, src, code, s)
        })
        .collect();
    let test_files: BTreeSet<PathBuf> = scanned
        .iter()
        .flat_map(|(path, _, _, s)| {
            let dir = path.parent().unwrap().to_path_buf();
            s.test_mods
                .iter()
                .flat_map(move |m| [dir.join(format!("{m}.rs")), dir.join(m).join("mod.rs")])
        })
        .collect();
    let crates = root.join("crates");
    let mut declared = BTreeSet::new();
    let mut uses = Uses::new();
    for (path, src, code, s) in &scanned {
        if test_files.contains(path) {
            continue;
        }
        let public = tally(src, code, s, &mut uses);
        let in_crate_src = path.strip_prefix(&crates).is_ok_and(|rel| {
            rel.components()
                .nth(1)
                .is_some_and(|c| c.as_os_str() == "src")
        });
        if in_crate_src {
            declared.extend(public);
        }
    }
    dead(&declared, &uses, allowed)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

#[test]
fn every_public_fn_and_const_is_named_outside_the_tests() {
    let allowed: BTreeSet<&str> = ALLOWED.iter().map(|(name, _)| *name).collect();
    let dead = dead_under(&repo_root(), &allowed);
    let dead: BTreeSet<&str> = dead.iter().map(String::as_str).collect();
    let unexplained: Vec<&str> = dead.difference(&allowed).copied().collect();
    assert!(
        unexplained.is_empty(),
        "public items named nowhere outside the tests (delete them, give them a \
         caller, or allow them with a reason): {unexplained:?}"
    );
    // An allowed name that gained a caller, or is gone, leaves the list.
    let stale: Vec<&str> = allowed.difference(&dead).copied().collect();
    assert!(
        stale.is_empty(),
        "allowed names that are not dead: {stale:?}"
    );
}

#[test]
fn the_scan_skips_tests_uses_literals_and_own_docs() {
    let src = r##"
/// `live()` is alive: `main` calls it.
pub fn live() {}
pub const fn dead_const_fn() {}
pub(crate) fn private() {}
pub const LIMIT: u32 = 1;
/// `own_doc` names only itself.
pub fn own_doc() {}
pub fn quoted() { called_by_dead(); let _ = "a { brace"; let _ = r#"a } brace"#; let _ = '{'; }
/// See [`documented`].
fn main() { live(); let _ = LIMIT; let _ = "}"; }
pub fn documented() {}
pub fn recursive(n: u32) -> u32 { if n == 0 { 0 } else { recursive(n - 1) } }
pub fn called_by_dead() {}
use crate::tested;
pub fn tested() {}
#[cfg(test)]
mod tests {
    fn t() { super::tested(); super::own_doc(); super::quoted(); }
}
#[cfg(test)]
mod oracle;
"##;
    let code = code_only(src);
    let s = scan(&code);
    assert_eq!(s.test_mods, ["oracle"]);
    let mut uses = Uses::new();
    let declared: BTreeSet<String> = tally(src, &code, &s, &mut uses).into_iter().collect();
    assert_eq!(
        declared,
        [
            "LIMIT",
            "called_by_dead",
            "dead_const_fn",
            "documented",
            "live",
            "own_doc",
            "quoted",
            "recursive",
            "tested",
        ]
        .map(String::from)
        .into()
    );
    assert_eq!(
        dead(&declared, &uses, &BTreeSet::new()),
        [
            "called_by_dead",
            "dead_const_fn",
            "own_doc",
            "quoted",
            "tested"
        ]
        .map(String::from)
        .into()
    );
}
