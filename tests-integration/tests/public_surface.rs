//! No dead public surface: every `pub` item declared in `crates/*/src` is
//! reached from code outside the tests.
//!
//! The scan reads every `.rs` file of `crates/`, `tools/`, `examples/` and
//! `benchmark/src` without its `tests/` directories, `#[cfg(test)]` items
//! (a `#[cfg(test)] mod m;` drops `m`'s file too), comments and literals.
//! It parses each file's items (`fn`, `const`, `static`, `struct`, `enum`,
//! `union`, `trait`, `type` and the items of `impl` and `trait` blocks) and
//! attributes each word of code to the items it can name:
//!
//! - `module::name` or `Type::name` (`Self::name` inside an impl, a type
//!   alias's name for the type it names) counts for the items of that
//!   module or type;
//! - a bare `name` counts for the item its file defines, or else for what
//!   the file imports with `use` under that name, through the crate
//!   roots' `pub use`;
//! - `.name(` counts for every method called `name`;
//! - what the scan cannot resolve (a glob import, a generic `T::name`)
//!   counts for every item of that name.
//!
//! Code outside `crates/*/src` (tools, examples, benches, `benchmark/src`)
//! is live, and so is the code of a live item. An item is live when live
//! code uses it; an impl's items go with its type, and a trait impl's
//! items with the trait's items of the same name. What nothing revives is
//! dead, so recursion, or a method handing on to its namesake, keeps
//! nothing alive. A dead `pub` item fails the test unless [`ALLOWED`]
//! names it with the reason it stays. A `pub` item that only its own crate names is `pub(crate)`, and
//! rustc's `dead_code` guards it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Public items no code outside the tests reaches that stay on purpose,
/// as `module::name` or `Type::name`. An allowed type keeps its methods.
const ALLOWED: [(&str, &str); 9] = [
    (
        "engine::naive_msm",
        "double-and-add oracle every MSM engine is checked against",
    ),
    (
        "CpuMsm::serial",
        "window-serial Pippenger oracle the MSM and prover suites compare to",
    ),
    (
        "qap::poly_stage_cpu",
        "CPU POLY stage the GPU engines' quotient is checked against",
    ),
    (
        "BigInt::widening_mul",
        "reference product for the field proptests and `dfp`",
    ),
    (
        "memory::L2Cache",
        "stateful L2 model `strided_warp_sectors` is checked against",
    ),
    (
        "Cluster::job_host",
        "where a cluster job runs, read by the host-kill tests",
    ),
    (
        "MetricsSnapshot::counter_total",
        "snapshot read of the registry-agreement tests",
    ),
    (
        "ShardTask::host_window",
        "window the host fold picks, read by the fold tests",
    ),
    (
        "FaultInjector::events",
        "injection log the chaos tests replay run against run",
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

/// `src` with comments and string literals replaced by spaces and char
/// literals dropped (newlines kept, so lines still line up).
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

/// A token of code: an identifier, or punctuation (`::` and `..` are one
/// token each, a number is `0`). Lifetimes are dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(&'a str),
}

fn tokens(code: &str) -> Vec<Tok<'_>> {
    let b = code.as_bytes();
    let word = |ch: u8| ch.is_ascii_alphanumeric() || ch == b'_' || ch >= 0x80;
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let ch = b[i];
        if ch.is_ascii_whitespace() {
            i += 1;
        } else if word(ch) {
            let start = i;
            while i < b.len() && word(b[i]) {
                i += 1;
            }
            out.push(if ch.is_ascii_digit() {
                Tok::Punct("0")
            } else {
                Tok::Ident(&code[start..i])
            });
        } else if ch == b'\'' {
            // A lifetime or a loop label.
            i += 1;
            while i < b.len() && word(b[i]) {
                i += 1;
            }
        } else if let Some(p) = ["::", ".."].into_iter().find(|p| code[i..].starts_with(p)) {
            out.push(Tok::Punct(p));
            i += 2;
        } else {
            out.push(Tok::Punct(&code[i..i + 1]));
            i += 1;
        }
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fn,
    Value,
    Type,
    Trait,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Owner {
    Free,
    Impl(usize),
    Trait(usize),
}

struct Item {
    name: String,
    kind: Kind,
    krate: String,
    /// The file's module (`""` at a crate root), or the inline `mod`.
    module: String,
    file: usize,
    owner: Owner,
    /// Declared plain `pub` in `crates/*/src`: what the scan reports.
    reported: bool,
    /// Declared outside `crates/*/src`: always live.
    root: bool,
}

struct Impl {
    self_ty: String,
    trait_name: Option<String>,
    krate: String,
}

/// The code a use sits in.
#[derive(Clone, Copy)]
enum Scope {
    Root,
    Item(usize),
    Impl(usize),
}

/// How a word is reached.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Access {
    Bare,
    /// `q::name` (`crate`, `self` and `super` stand for the file's crate).
    Path(String),
    /// `.name(` or `.name::<`.
    Method,
    /// `<T as Trait>::name`, or `Self::name` outside an impl.
    Any,
}

struct Use {
    word: String,
    access: Access,
    file: usize,
    scope: Scope,
}

/// What a `use` path names, by local name.
type Imports = BTreeMap<String, Vec<Vec<String>>>;

#[derive(Default)]
struct Model {
    items: Vec<Item>,
    impls: Vec<Impl>,
    uses: Vec<Use>,
    /// Per file.
    imports: Vec<Imports>,
    /// Per crate: what its root's `pub use` re-exports.
    reexports: BTreeMap<String, Imports>,
    crates: BTreeSet<String>,
    /// Per file.
    file_crate: Vec<String>,
    /// Type alias → the types it names (`type G1 = Projective<..>`).
    aliases: BTreeMap<String, Vec<String>>,
}

/// Where a file sits: its crate, its module, and whether its items are
/// live by placement (outside `crates/*/src`).
fn place(rel: &str) -> (String, String, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    let stem = parts.last().unwrap().trim_end_matches(".rs");
    let module = match stem {
        "lib" | "main" => String::new(),
        "mod" => parts[parts.len() - 2].to_string(),
        s => s.to_string(),
    };
    match parts.as_slice() {
        ["crates", dir, "src", ..] => (format!("gzkp_{}", dir.replace('-', "_")), module, false),
        ["tools", dir, ..] => (dir.to_string(), module, true),
        ["benchmark", ..] => ("gzkp_benchmark".to_string(), module, true),
        _ => (format!("target:{stem}"), module, true),
    }
}

/// The file parser: items and uses, by token index.
struct FileParser<'m, 't> {
    m: &'m mut Model,
    toks: &'t [Tok<'t>],
    file: usize,
    krate: String,
    root: bool,
    crate_root: bool,
    test_mods: Vec<String>,
}

/// What the items being parsed sit in.
#[derive(Clone)]
struct Ctx {
    module: String,
    owner: Owner,
    scope: Scope,
    self_ty: Option<String>,
}

impl<'t> FileParser<'_, 't> {
    fn ident(&self, i: usize) -> Option<&'t str> {
        match self.toks.get(i) {
            Some(Tok::Ident(w)) => Some(w),
            _ => None,
        }
    }

    fn is(&self, i: usize, p: &str) -> bool {
        self.toks.get(i) == Some(&Tok::Punct(p))
    }

    /// From an opening delimiter, the index after its match.
    fn skip_group(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut k = i;
        while k < self.toks.len() {
            match self.toks[k] {
                Tok::Punct("(" | "[" | "{") => depth += 1,
                Tok::Punct(")" | "]" | "}") => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        k
    }

    /// The first `{` or `;` from `i` outside parentheses and brackets (and
    /// outside braces too, when `braces` is set, for initializers).
    fn find_body(&self, mut i: usize, end: usize, braces: bool) -> usize {
        while i < end {
            match self.toks[i] {
                Tok::Punct("(" | "[") => i = self.skip_group(i),
                Tok::Punct("{") if braces => i = self.skip_group(i),
                Tok::Punct("{" | ";") => return i,
                _ => i += 1,
            }
        }
        end
    }

    /// The end of the item whose keyword is at `i`.
    fn item_end(&self, i: usize, end: usize) -> usize {
        let braces = matches!(self.ident(i), Some("const" | "static" | "type" | "use"));
        let at = self.find_body(i, end, braces);
        if self.is(at, "{") {
            self.skip_group(at)
        } else {
            (at + 1).min(end)
        }
    }

    fn use_tree(
        &self,
        mut i: usize,
        prefix: &[String],
        out: &mut Vec<(String, Vec<String>)>,
    ) -> usize {
        let mut path = prefix.to_vec();
        loop {
            match self.toks.get(i) {
                Some(Tok::Ident("as")) => {
                    let local = self.ident(i + 1).unwrap_or("_").to_string();
                    out.push((local, path));
                    return i + 2;
                }
                Some(Tok::Ident(w)) => {
                    path.push(w.to_string());
                    i += 1;
                }
                Some(Tok::Punct("::")) => i += 1,
                Some(Tok::Punct("*")) => {
                    out.push(("*".to_string(), path));
                    return i + 1;
                }
                Some(Tok::Punct("{")) => {
                    i += 1;
                    while i < self.toks.len() && !self.is(i, "}") {
                        i = self.use_tree(i, &path, out);
                        if self.is(i, ",") {
                            i += 1;
                        }
                    }
                    return i + 1;
                }
                _ => {
                    if path.len() > prefix.len() {
                        out.push((path.last().unwrap().clone(), path));
                    }
                    return i;
                }
            }
        }
    }

    /// Records the `use` at `i` (its keyword); returns the index after it.
    fn parse_use(&mut self, i: usize, reexport: bool) -> usize {
        let mut paths = Vec::new();
        let mut k = self.use_tree(i + 1, &[], &mut paths);
        while k < self.toks.len() && !self.is(k, ";") {
            k += 1;
        }
        for (local, path) in paths {
            if reexport {
                let root = self.m.reexports.entry(self.krate.clone()).or_default();
                root.entry(local.clone()).or_default().push(path.clone());
            }
            self.m.imports[self.file]
                .entry(local)
                .or_default()
                .push(path);
        }
        k + 1
    }

    /// Records every word in `from..to` as a use from `scope`, but the one
    /// at `skip` (the name an item defines).
    fn record(&mut self, from: usize, to: usize, skip: usize, scope: Scope, self_ty: Option<&str>) {
        let mut k = from;
        while k < to {
            let Some(w) = self.ident(k) else {
                k += 1;
                continue;
            };
            if w == "use" {
                k = self.parse_use(k, false);
                continue;
            }
            let access = if k > 0 && self.is(k - 1, "::") {
                match k.checked_sub(2).and_then(|q| self.ident(q)) {
                    Some("Self") => self_ty.map_or(Access::Any, |t| Access::Path(t.to_string())),
                    Some(q) => Access::Path(q.to_string()),
                    None => Access::Any,
                }
            } else if k > 0 && self.is(k - 1, ".") {
                if !(self.is(k + 1, "(") || self.is(k + 1, "::")) {
                    // A field.
                    k += 1;
                    continue;
                }
                Access::Method
            } else if self.is(k + 1, ":") {
                // A field, a binding or a generic parameter being typed.
                k += 1;
                continue;
            } else {
                Access::Bare
            };
            if k != skip {
                self.m.uses.push(Use {
                    word: w.to_string(),
                    access,
                    file: self.file,
                    scope,
                });
            }
            k += 1;
        }
    }

    fn push_item(&mut self, name: &str, kind: Kind, public: bool, ctx: &Ctx) -> usize {
        self.m.items.push(Item {
            name: name.to_string(),
            kind,
            krate: self.krate.clone(),
            module: ctx.module.clone(),
            file: self.file,
            owner: ctx.owner,
            reported: public && !self.root,
            root: self.root,
        });
        self.m.items.len() - 1
    }

    /// The items of `i..end`.
    fn items(&mut self, mut i: usize, end: usize, ctx: &Ctx) {
        while i < end {
            let mut cfg_test = false;
            while self.is(i, "#") {
                if self.is(i + 1, "!") {
                    i = self.skip_group(i + 2);
                    continue;
                }
                let close = self.skip_group(i + 1);
                cfg_test |= self.toks[i + 1..close].windows(4).any(|w| {
                    w == [
                        Tok::Ident("cfg"),
                        Tok::Punct("("),
                        Tok::Ident("test"),
                        Tok::Punct(")"),
                    ]
                });
                i = close;
            }
            let start = i;
            let mut public = false;
            if self.ident(i) == Some("pub") {
                if self.is(i + 1, "(") {
                    i = self.skip_group(i + 1);
                } else {
                    public = true;
                    i += 1;
                }
            }
            loop {
                let next = self.ident(i + 1);
                match self.ident(i) {
                    Some("default" | "async" | "unsafe") => i += 1,
                    Some("extern") if next != Some("crate") => i += 1,
                    Some("const") if matches!(next, Some("fn" | "unsafe" | "async" | "extern")) => {
                        i += 1
                    }
                    _ => break,
                }
            }
            if i >= end {
                break;
            }
            if cfg_test {
                let e = self.item_end(i, end);
                if self.ident(i) == Some("mod") && self.is(i + 2, ";") {
                    let name = self.ident(i + 1).unwrap_or_default().to_string();
                    self.test_mods.push(name);
                }
                i = e;
                continue;
            }
            let kw = self.ident(i);
            let kind = match kw {
                Some("fn") => Some(Kind::Fn),
                Some("const" | "static") => Some(Kind::Value),
                Some("struct" | "enum" | "union" | "type") => Some(Kind::Type),
                _ => None,
            };
            if let Some(kind) = kind {
                let name_at = i + 1 + usize::from(self.ident(i + 1) == Some("mut"));
                let e = self.item_end(i, end);
                let name = self.ident(name_at).unwrap_or("_").to_string();
                let idx = self.push_item(&name, kind, public, ctx);
                if kw == Some("type") && ctx.owner == Owner::Free && self.is(i + 2, "=") {
                    // The aliased path's last segment, generics left out.
                    let path = self.toks[i + 3..e]
                        .iter()
                        .take_while(|t| matches!(t, Tok::Ident(_) | Tok::Punct("::")));
                    if let Some(Tok::Ident(target)) = path.last() {
                        let targets = self.m.aliases.entry(name.clone()).or_default();
                        targets.push(target.to_string());
                    }
                }
                self.record(start, e, name_at, Scope::Item(idx), ctx.self_ty.as_deref());
                i = e;
                continue;
            }
            match kw {
                Some("trait") => {
                    let name = self.ident(i + 1).unwrap_or("_").to_string();
                    let idx = self.push_item(&name, Kind::Trait, public, ctx);
                    let open = self.find_body(i, end, false);
                    self.record(start, open, i + 1, Scope::Item(idx), Some(&name));
                    let close = self.skip_group(open);
                    let inner = Ctx {
                        module: ctx.module.clone(),
                        owner: Owner::Trait(idx),
                        scope: Scope::Item(idx),
                        self_ty: Some(name),
                    };
                    self.items(open + 1, close - 1, &inner);
                    i = close;
                }
                Some("impl") => {
                    let open = self.find_body(i, end, false);
                    let (self_ty, trait_name) = self.impl_header(i + 1, open);
                    self.m.impls.push(Impl {
                        self_ty: self_ty.clone(),
                        trait_name,
                        krate: self.krate.clone(),
                    });
                    let idx = self.m.impls.len() - 1;
                    self.record(start, open, usize::MAX, Scope::Impl(idx), Some(&self_ty));
                    let close = self.skip_group(open);
                    let inner = Ctx {
                        module: ctx.module.clone(),
                        owner: Owner::Impl(idx),
                        scope: Scope::Impl(idx),
                        self_ty: Some(self_ty),
                    };
                    self.items(open + 1, close - 1, &inner);
                    i = close;
                }
                Some("mod") if self.is(i + 2, "{") => {
                    let close = self.skip_group(i + 2);
                    let inner = Ctx {
                        module: self.ident(i + 1).unwrap_or_default().to_string(),
                        ..ctx.clone()
                    };
                    self.items(i + 3, close - 1, &inner);
                    i = close;
                }
                Some("mod") => i += 3,
                Some("use") => i = self.parse_use(i, public && self.crate_root),
                Some(_) if self.is(i + 1, "!") => {
                    // A macro invocation or `macro_rules!` definition.
                    let mut k = i + 2;
                    if self.ident(k).is_some() {
                        k += 1;
                    }
                    let mut e = self.skip_group(k).min(end);
                    if self.is(e, ";") {
                        e += 1;
                    }
                    self.record(start, e, usize::MAX, ctx.scope, ctx.self_ty.as_deref());
                    i = e;
                }
                _ => {
                    self.record(i, i + 1, usize::MAX, ctx.scope, ctx.self_ty.as_deref());
                    i += 1;
                }
            }
        }
    }

    /// An impl header's self type and trait: the last identifier of each
    /// path, generic arguments left out.
    fn impl_header(&self, from: usize, to: usize) -> (String, Option<String>) {
        let mut depth = 0i32;
        let mut flat = Vec::new();
        for k in from..to {
            match self.toks[k] {
                Tok::Punct("<") => depth += 1,
                Tok::Punct(">") if !self.is(k.wrapping_sub(1), "-") => depth -= 1,
                Tok::Ident("where") if depth == 0 => break,
                t if depth == 0 => flat.push(t),
                _ => {}
            }
        }
        let last = |ts: &[Tok]| {
            ts.iter()
                .rev()
                .find_map(|t| match t {
                    Tok::Ident(w) if !matches!(*w, "mut" | "dyn") => Some(w.to_string()),
                    _ => None,
                })
                .unwrap_or_default()
        };
        match flat.iter().position(|t| *t == Tok::Ident("for")) {
            Some(f) => (last(&flat[f + 1..]), Some(last(&flat[..f]))),
            None => (last(&flat), None),
        }
    }
}

impl Model {
    /// Parses `files` (paths relative to the repository root, with their
    /// sources).
    fn build(files: &[(String, String)]) -> Model {
        let mut m = Model::default();
        let mut parsed: Vec<(String, Vec<String>)> = Vec::new();
        let codes: Vec<String> = files.iter().map(|(_, src)| code_only(src)).collect();
        for (file, ((rel, _), code)) in files.iter().zip(&codes).enumerate() {
            let toks = tokens(code);
            let (krate, module, root) = place(rel);
            m.crates.insert(krate.clone());
            m.file_crate.push(krate.clone());
            m.imports.push(Imports::new());
            let mut p = FileParser {
                m: &mut m,
                toks: &toks,
                file,
                krate,
                root,
                crate_root: module.is_empty(),
                test_mods: Vec::new(),
            };
            let ctx = Ctx {
                module,
                owner: Owner::Free,
                scope: Scope::Root,
                self_ty: None,
            };
            p.items(0, toks.len(), &ctx);
            let test_mods = std::mem::take(&mut p.test_mods);
            parsed.push((rel.clone(), test_mods));
        }
        // Drop what the files a `#[cfg(test)] mod m;` names declare and use.
        let test_files: BTreeSet<usize> = parsed
            .iter()
            .flat_map(|(rel, mods)| {
                let dir = rel.rsplit_once('/').map_or("", |(d, _)| d).to_string();
                let stem = rel.rsplit('/').next().unwrap().trim_end_matches(".rs");
                // A non-root module file's children live in its own directory.
                let dir = match stem {
                    "lib" | "main" | "mod" => dir,
                    s => format!("{dir}/{s}"),
                };
                mods.iter()
                    .flat_map(move |m| [format!("{dir}/{m}.rs"), format!("{dir}/{m}/mod.rs")])
            })
            .filter_map(|path| files.iter().position(|(rel, _)| *rel == path))
            .collect();
        m.uses.retain(|u| !test_files.contains(&u.file));
        for item in m.items.iter_mut() {
            if test_files.contains(&item.file) {
                item.reported = false;
                item.name.clear();
            }
        }
        m
    }

    fn owner_name(&self, item: &Item) -> Option<&str> {
        match item.owner {
            Owner::Free => None,
            Owner::Impl(j) => Some(&self.impls[j].self_ty),
            Owner::Trait(t) => Some(&self.items[t].name),
        }
    }

    /// The report name: `module::name` (the crate at its root) or
    /// `Type::name`.
    fn key(&self, i: usize) -> String {
        let item = &self.items[i];
        let q = self.owner_name(item).unwrap_or(if item.module.is_empty() {
            &item.krate
        } else {
            &item.module
        });
        format!("{q}::{}", item.name)
    }

    /// The items `q::w` names, from crate `from`.
    fn qualified(
        &self,
        by_name: &BTreeMap<&str, Vec<usize>>,
        q: &str,
        w: &str,
        from: &str,
        depth: usize,
    ) -> Vec<usize> {
        let named = by_name.get(w).cloned().unwrap_or_default();
        if matches!(q, "crate" | "self" | "super") {
            return named
                .into_iter()
                .filter(|&i| self.items[i].krate == from)
                .collect();
        }
        if self.crates.contains(q) {
            let mut out: Vec<usize> = named
                .into_iter()
                .filter(|&i| {
                    let item = &self.items[i];
                    item.krate == q && item.module.is_empty() && item.owner == Owner::Free
                })
                .collect();
            let paths = self.reexports.get(q).and_then(|r| r.get(w));
            for path in paths.into_iter().flatten() {
                out.extend(self.resolve(by_name, path, q, depth + 1));
            }
            return out;
        }
        let aliased = self.aliases.get(q).into_iter().flatten();
        let types: Vec<&str> = aliased.map(String::as_str).chain([q]).collect();
        let exact: Vec<usize> = named
            .iter()
            .copied()
            .filter(|&i| {
                let item = &self.items[i];
                let owner = self.owner_name(item);
                (item.owner == Owner::Free && item.module == q)
                    || owner.is_some_and(|o| types.contains(&o))
            })
            .collect();
        if exact.is_empty() {
            named
        } else {
            exact
        }
    }

    fn resolve(
        &self,
        by_name: &BTreeMap<&str, Vec<usize>>,
        path: &[String],
        from: &str,
        depth: usize,
    ) -> Vec<usize> {
        match path {
            [.., q, w] if depth < 8 => self.qualified(by_name, q, w, from, depth),
            _ => Vec::new(),
        }
    }

    /// The items one use can name.
    fn candidates(&self, by_name: &BTreeMap<&str, Vec<usize>>, u: &Use) -> Vec<usize> {
        let Some(named) = by_name.get(u.word.as_str()) else {
            return Vec::new();
        };
        let krate = &self.file_crate[u.file];
        match &u.access {
            Access::Any => named.clone(),
            Access::Method => named
                .iter()
                .copied()
                .filter(|&i| self.items[i].owner != Owner::Free && self.items[i].kind == Kind::Fn)
                .collect(),
            Access::Path(q) => self.qualified(by_name, q, &u.word, krate, 0),
            Access::Bare => {
                let free: Vec<usize> = named
                    .iter()
                    .copied()
                    .filter(|&i| self.items[i].owner == Owner::Free)
                    .collect();
                let local: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&i| self.items[i].file == u.file)
                    .collect();
                if !local.is_empty() {
                    return local;
                }
                let imports = &self.imports[u.file];
                match imports.get(&u.word) {
                    Some(paths) => paths
                        .iter()
                        .flat_map(|p| self.resolve(by_name, p, krate, 0))
                        .collect(),
                    // A name neither defined nor imported is a local, or
                    // comes in through a glob.
                    None if imports.contains_key("*") => free,
                    None => Vec::new(),
                }
            }
        }
    }

    /// The types (or traits) called `name`, those of `krate` first.
    fn named_kind(&self, name: &str, krate: &str, kinds: &[Kind]) -> Vec<usize> {
        let all: Vec<usize> = (0..self.items.len())
            .filter(|&i| {
                let it = &self.items[i];
                it.name == name && it.owner == Owner::Free && kinds.contains(&it.kind)
            })
            .collect();
        let own: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.items[i].krate == krate)
            .collect();
        if own.is_empty() {
            all
        } else {
            own
        }
    }

    /// The reported items nothing live reaches, with the items `allowed`
    /// names (and an allowed type's impl items) live.
    fn dead(&self, allowed: &BTreeSet<&str>) -> BTreeSet<String> {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, item) in self.items.iter().enumerate() {
            if !item.name.is_empty() {
                by_name.entry(&item.name).or_default().push(i);
            }
        }
        let mut users: Vec<Vec<Scope>> = vec![Vec::new(); self.items.len()];
        let mut memo: BTreeMap<(&str, &Access, usize), Vec<usize>> = BTreeMap::new();
        for u in &self.uses {
            let cands = memo
                .entry((&u.word, &u.access, u.file))
                .or_insert_with(|| self.candidates(&by_name, u));
            for &i in cands.iter() {
                users[i].push(u.scope);
            }
        }
        let impl_types: Vec<Vec<usize>> = self
            .impls
            .iter()
            .map(|im| self.named_kind(&im.self_ty, &im.krate, &[Kind::Type]))
            .collect();
        let impl_traits: Vec<Vec<usize>> = self
            .impls
            .iter()
            .map(|im| match &im.trait_name {
                Some(t) => self.named_kind(t, &im.krate, &[Kind::Trait]),
                None => Vec::new(),
            })
            .collect();
        let is_allowed = |i: usize| {
            allowed.contains(self.key(i).as_str())
                || matches!(self.items[i].owner, Owner::Impl(j)
                    if impl_types[j].iter().any(|&t| allowed.contains(self.key(t).as_str())))
        };
        let mut live: Vec<bool> = (0..self.items.len())
            .map(|i| self.items[i].root || (!self.items[i].name.is_empty() && is_allowed(i)))
            .collect();
        let mut impl_live = vec![false; self.impls.len()];
        loop {
            let mut changed = false;
            for j in 0..self.impls.len() {
                let types = &impl_types[j];
                if !impl_live[j] && (types.is_empty() || types.iter().any(|&t| live[t])) {
                    impl_live[j] = true;
                    changed = true;
                }
            }
            for i in 0..self.items.len() {
                if live[i] || self.items[i].name.is_empty() {
                    continue;
                }
                let used = || {
                    users[i].iter().any(|s| match *s {
                        Scope::Root => true,
                        Scope::Item(k) => live[k],
                        Scope::Impl(j) => impl_live[j],
                    })
                };
                let now = match self.items[i].owner {
                    Owner::Free | Owner::Trait(_) => used(),
                    Owner::Impl(j) if self.impls[j].trait_name.is_none() => impl_live[j] && used(),
                    Owner::Impl(j) => {
                        // A trait impl's item goes with the trait's item
                        // of that name, where the trait is in the tree.
                        let of_trait = |d: &usize| match self.items[*d].owner {
                            Owner::Trait(t) => impl_traits[j].contains(&t),
                            _ => false,
                        };
                        let decls: Vec<usize> = by_name[self.items[i].name.as_str()]
                            .iter()
                            .copied()
                            .filter(of_trait)
                            .collect();
                        impl_live[j] && (decls.is_empty() || decls.iter().any(|&d| live[d]))
                    }
                };
                if now {
                    live[i] = true;
                    // Calling a trait's method uses the trait.
                    if let Owner::Trait(t) = self.items[i].owner {
                        live[t] = true;
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (0..self.items.len())
            .filter(|&i| self.items[i].reported && !live[i])
            .map(|i| self.key(i))
            .collect()
    }
}

/// The scanned files of `root`, as (path relative to `root`, source).
fn sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in ["crates", "tools", "examples", "benchmark/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap();
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>();
            (rel.join("/"), fs::read_to_string(&path).unwrap())
        })
        .collect()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

#[test]
fn every_public_item_is_reached_outside_the_tests() {
    let model = Model::build(&sources(&repo_root()));
    let allowed: BTreeSet<&str> = ALLOWED.iter().map(|(name, _)| *name).collect();
    let unexplained = model.dead(&allowed);
    assert!(
        unexplained.is_empty(),
        "public items no code outside the tests reaches (delete them, give them a \
         caller, or allow them with a reason): {unexplained:?}"
    );
    // An allowed item that gained a caller, or is gone, leaves the list.
    let dead = model.dead(&BTreeSet::new());
    let stale: Vec<&str> = allowed
        .iter()
        .copied()
        .filter(|name| !dead.contains(*name))
        .collect();
    assert!(
        stale.is_empty(),
        "allowed items that are not dead: {stale:?}"
    );
}

#[test]
fn the_scan_skips_tests_uses_literals_and_own_docs() {
    let files = [
        (
            "crates/a/src/lib.rs",
            r##"
//! `commented()` is named here only.
pub mod shapes;
pub use shapes::{Shape, Lonely};
/// `live()` is alive: the tool calls it.
pub fn live() { helper(); }
fn helper() {}
pub const fn dead_const_fn() {}
pub(crate) fn private() {}
pub const LIMIT: u32 = 1;
/// `own_doc` names only itself.
pub fn own_doc() {}
pub fn quoted() { called_by_dead(); let _ = "a { brace"; let _ = r#"a } brace"#; let _ = '{'; }
pub fn called_by_dead() {}
pub fn commented() {}
pub fn recursive(n: u32) -> u32 { if n == 0 { 0 } else { recursive(n - 1) } }
pub fn verify() -> bool { true }
pub fn globbed() {}
use crate::tested;
pub fn tested() {}
#[cfg(test)]
pub fn test_hook() { only_the_hook(); }
pub fn only_the_hook() {}
#[cfg(test)]
mod tests {
    fn t() { super::tested(); super::own_doc(); super::quoted(); super::test_hook(); }
}
#[cfg(test)]
mod oracle;
"##,
        ),
        (
            "crates/a/src/shapes.rs",
            r##"
pub struct Shape { inner: Inner }
struct Inner;
pub trait Area { fn area(&self) -> u64; fn unused_area(&self) -> u64 { used_by_unused() } }
impl Area for Shape { fn area(&self) -> u64 { area_helper() } fn unused_area(&self) -> u64 { 0 } }
pub fn area_helper() -> u64 { 1 }
pub fn used_by_unused() -> u64 { 2 }
impl Shape {
    pub fn new() -> Self { Shape { inner: Inner } }
    pub fn size(&self) -> u64 { self.area() }
    pub fn hook(&mut self) -> bool { self.inner.hook() }
    pub fn get(&self) -> u64 { 0 }
}
impl Inner { pub fn hook(&mut self) -> bool { true } }
pub type Square = Shape;
pub struct Lonely;
impl Lonely { pub fn new() -> Self { Lonely } pub fn get(&self) -> u64 { Self::helper() } pub fn helper() -> u64 { 0 } }
"##,
        ),
        (
            "crates/a/src/oracle.rs",
            "pub fn only_in_a_test_module() { super::LIMIT; }\n",
        ),
        (
            "crates/b/src/lib.rs",
            r##"
pub fn verify() -> bool { false }
pub fn check() -> bool { true }
pub struct Other;
impl Other { pub fn new() -> Self { Other } }
"##,
        ),
        (
            "tools/t/src/main.rs",
            r##"
use gzkp_a::{live, Shape};
use gzkp_a::shapes::*;
use gzkp_b::verify;
/// See `documented` and `commented()`.
fn main() {
    live();
    let _ = gzkp_a::LIMIT;
    let _ = verify() && gzkp_b::check();
    let s = Square::new();
    let _: Option<gzkp_b::Other> = None;
    let _ = s.size() + s.get();
    globbed();
    let _ = "}";
}
"##,
        ),
    ]
    .map(|(path, src)| (path.to_string(), src.to_string()));
    let dead = Model::build(&files).dead(&BTreeSet::new());
    assert_eq!(
        dead,
        [
            // Reached only from a dead item, a test or the item's own doc.
            "gzkp_a::called_by_dead",
            "gzkp_a::dead_const_fn",
            "gzkp_a::own_doc",
            "gzkp_a::quoted",
            "gzkp_a::tested",
            // Named only in comments.
            "gzkp_a::commented",
            // Only recursion calls it.
            "gzkp_a::recursive",
            // The tool calls `gzkp_b`'s namesake.
            "gzkp_a::verify",
            // Only a `#[cfg(test)]` hook calls it.
            "gzkp_a::only_the_hook",
            // Only a namesake calls each.
            "Shape::hook",
            "Inner::hook",
            // `Square::new` is `Shape::new` through the alias.
            "Other::new",
            // A type only tests name, with its methods, though a live
            // `.get(` exists.
            "shapes::Lonely",
            "Lonely::new",
            "Lonely::get",
            "Lonely::helper",
            // A trait method nothing calls takes its impls' bodies along.
            "shapes::used_by_unused",
        ]
        .map(String::from)
        .into()
    );
    // An allowed type keeps its methods.
    let dead = Model::build(&files).dead(&BTreeSet::from(["shapes::Lonely"]));
    assert!(!dead.iter().any(|d| d.contains("Lonely")), "{dead:?}");
}
