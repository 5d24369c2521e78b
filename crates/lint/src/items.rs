//! The item model: a structural view of one source file.
//!
//! Where [`crate::lexer`] answers "is this character code?", the item
//! model answers "what *declarations* does this file make?". It is
//! built on the scrubbed text (so comments and literals can never fake
//! an item) and recognizes the declaration grammar the workspace
//! passes lean on: `use` paths, `fn`/`struct`/`enum`/`trait`/`impl`/
//! `mod` boundaries with brace-matched bodies, visibility qualifiers,
//! and attributes (including multi-line ones).
//!
//! Like the lexer, the parser is deliberately approximate where
//! precision does not matter for linting — it skips function bodies
//! wholesale and does not model expression grammar — but it is exact
//! about the three things the passes depend on: item boundaries,
//! `pub` reach (an item buried in a private inline module is not
//! surface), and `use`-path text for the layering graph.

use crate::lexer::{is_ident_char, Scrubbed};

/// Visibility of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No qualifier.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — visible inside the
    /// crate only, so never part of the public API surface.
    Restricted,
    /// Unrestricted `pub`.
    Pub,
}

/// What kind of declaration an [`Item`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// A `use` declaration; `path` is the whitespace-squeezed path
    /// text between `use` and `;` (group imports keep their braces).
    Use {
        /// Squeezed import path, e.g. `rrs_core::par::par_map` or
        /// `std::sync::{Mutex,Arc}`.
        path: String,
    },
    /// A module declaration. `inline` modules (`mod m { … }`) have
    /// their bodies parsed recursively; file modules (`mod m;`) are
    /// resolved across files by the API pass.
    Mod {
        /// Whether the module body is inline in this file.
        inline: bool,
    },
    /// A free or associated function.
    Fn,
    /// A struct declaration.
    Struct,
    /// An enum declaration.
    Enum,
    /// A union declaration.
    Union,
    /// A trait declaration (body not recursed: the trait line is the
    /// API surface unit).
    Trait,
    /// A `type` alias.
    TypeAlias,
    /// A `const` item.
    Const,
    /// A `static` item.
    Static,
    /// A `macro_rules!` definition (public when `#[macro_export]`).
    MacroRules,
    /// An `impl` block; associated items inside are parsed with
    /// [`Item::owner`] set to the target type name.
    Impl {
        /// The Self-type's final path segment (e.g. `DatasetView`).
        target: String,
        /// Whether this is a trait impl (`impl Trait for Type`).
        of_trait: bool,
    },
    /// An `extern crate` declaration.
    ExternCrate,
}

/// One declaration found in a file.
#[derive(Debug, Clone)]
pub struct Item {
    /// The declaration kind.
    pub kind: ItemKind,
    /// Declared name (empty for `use` and `impl` items).
    pub name: String,
    /// The item's own visibility qualifier.
    pub vis: Vis,
    /// 1-based line of the declaring keyword.
    pub line: usize,
    /// Inline-module chain enclosing the item within this file.
    pub module: Vec<String>,
    /// For associated items: the enclosing impl block's target type.
    pub owner: Option<String>,
    /// Whitespace-squeezed text of the item's attributes, e.g.
    /// `#[macro_export]#[derive(Debug)]`.
    pub attrs: String,
    /// Whether the declaration lies under a `#[cfg(test)]` mask.
    pub in_test: bool,
    /// Whether every enclosing inline module is `pub` (file-module
    /// reach is resolved separately by the API pass).
    pub reachable: bool,
}

impl Item {
    /// Is this item part of the crate's public API surface as far as
    /// this file can tell — `pub`, reachable through `pub` inline
    /// modules, and not test-gated? (`#[macro_export]` macros are
    /// public regardless of a `pub` qualifier.)
    #[must_use]
    pub fn is_surface(&self) -> bool {
        if self.in_test {
            return false;
        }
        if matches!(self.kind, ItemKind::MacroRules) {
            return self.attrs.contains("#[macro_export]");
        }
        self.vis == Vis::Pub && self.reachable
    }
}

/// One lexical token of the scrubbed text.
#[derive(Debug, Clone)]
struct Tok {
    /// Identifier text, or a single punctuation character. The only
    /// fused multi-character tokens are `->`, `=>`, and `::`, which
    /// the parser must not mistake for comparison or path punctuation.
    text: String,
    /// 1-based source line.
    line: usize,
}

impl Tok {
    fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Tokenizes scrubbed lines into identifiers and punctuation.
fn tokenize(scrubbed: &Scrubbed) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in scrubbed.lines.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if is_ident_char(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: idx + 1,
                });
                continue;
            }
            // Fuse the three digraphs the parser must see whole.
            let next = chars.get(i + 1).copied();
            let fused = match (c, next) {
                ('-', Some('>')) => Some("->"),
                ('=', Some('>')) => Some("=>"),
                (':', Some(':')) => Some("::"),
                _ => None,
            };
            if let Some(text) = fused {
                toks.push(Tok {
                    text: text.to_string(),
                    line: idx + 1,
                });
                i += 2;
            } else {
                toks.push(Tok {
                    text: c.to_string(),
                    line: idx + 1,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Parses the items declared in `scrubbed`.
#[must_use]
pub fn parse(scrubbed: &Scrubbed) -> Vec<Item> {
    let toks = tokenize(scrubbed);
    let mut out = Vec::new();
    let mut parser = Parser {
        toks: &toks,
        mask: &scrubbed.test_mask,
    };
    parser.block(0, toks.len(), &mut Ctx::root(), &mut out);
    out
}

/// Parsing context threaded through nested blocks.
struct Ctx {
    module: Vec<String>,
    owner: Option<String>,
    /// Every enclosing inline module is `pub`.
    reachable: bool,
}

impl Ctx {
    fn root() -> Self {
        Ctx {
            module: Vec::new(),
            owner: None,
            reachable: true,
        }
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    mask: &'a [bool],
}

impl Parser<'_> {
    fn in_test(&self, line: usize) -> bool {
        self.mask
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Parses the items in `toks[i..end]` (one block body), appending
    /// to `out`.
    fn block(&mut self, mut i: usize, end: usize, ctx: &mut Ctx, out: &mut Vec<Item>) {
        while i < end {
            i = self.item(i, end, ctx, out);
        }
    }

    /// Parses one item (or recovers by skipping a token), returning
    /// the index just past it.
    fn item(&mut self, mut i: usize, end: usize, ctx: &mut Ctx, out: &mut Vec<Item>) -> usize {
        // Attributes: `#[…]` item attrs and `#![…]` inner attrs.
        let mut attrs = String::new();
        while i < end && self.toks[i].is("#") {
            let mut j = i + 1;
            let inner = j < end && self.toks[j].is("!");
            if inner {
                j += 1;
            }
            if j >= end || !self.toks[j].is("[") {
                return i + 1;
            }
            let close = self.match_delim(j, end, "[", "]");
            if !inner {
                for t in &self.toks[i..close] {
                    attrs.push_str(&t.text);
                }
            }
            i = close;
            if inner {
                // Inner attributes belong to the enclosing scope, not
                // the next item.
                attrs.clear();
            }
        }
        if i >= end {
            return i;
        }

        // Visibility.
        let mut vis = Vis::Private;
        if self.toks[i].is("pub") {
            i += 1;
            if i < end && self.toks[i].is("(") {
                vis = Vis::Restricted;
                i = self.match_delim(i, end, "(", ")");
            } else {
                vis = Vis::Pub;
            }
        }

        // Modifier keywords that may precede the declaring keyword.
        // `const` doubles as an item keyword, so it only counts as a
        // modifier when followed by `fn` (or further modifiers).
        while i < end {
            let t = &self.toks[i].text;
            let is_modifier = matches!(t.as_str(), "default" | "async" | "unsafe" | "auto")
                || (t == "const"
                    && self.toks.get(i + 1).is_some_and(|n| {
                        matches!(n.text.as_str(), "fn" | "unsafe" | "async" | "extern")
                    }))
                || (t == "extern" && !self.toks.get(i + 1).is_some_and(|n| n.is("crate")));
            if is_modifier {
                i += 1;
            } else {
                break;
            }
        }
        if i >= end {
            return i;
        }

        let kw = self.toks[i].text.clone();
        let line = self.toks[i].line;
        let in_test = self.in_test(line);
        let emit = |kind: ItemKind, name: String, after: usize, out: &mut Vec<Item>| {
            out.push(Item {
                kind,
                name,
                vis,
                line,
                module: ctx.module.clone(),
                owner: ctx.owner.clone(),
                attrs: attrs.clone(),
                in_test,
                reachable: ctx.reachable,
            });
            after
        };

        match kw.as_str() {
            "use" => {
                let semi = self.skip_to_semi(i + 1, end);
                // Tokens are squeezed together except the `as` keyword,
                // which needs its spaces back to stay readable.
                let path: String = self.toks[i + 1..semi.saturating_sub(1).max(i + 1)]
                    .iter()
                    .map(|t| {
                        if t.is("as") {
                            " as ".to_string()
                        } else {
                            t.text.clone()
                        }
                    })
                    .collect();
                emit(ItemKind::Use { path }, String::new(), semi, out)
            }
            "mod" => {
                let name = self.ident_after(i + 1, end);
                let mut j = i + 2;
                while j < end && !self.toks[j].is("{") && !self.toks[j].is(";") {
                    j += 1;
                }
                if j < end && self.toks[j].is("{") {
                    let close = self.match_delim(j, end, "{", "}");
                    let after = emit(ItemKind::Mod { inline: true }, name.clone(), close, out);
                    let child_reachable = ctx.reachable && vis == Vis::Pub;
                    let mut child = Ctx {
                        module: {
                            let mut m = ctx.module.clone();
                            m.push(name);
                            m
                        },
                        owner: None,
                        reachable: child_reachable,
                    };
                    self.block(j + 1, close.saturating_sub(1), &mut child, out);
                    after
                } else {
                    emit(ItemKind::Mod { inline: false }, name, (j + 1).min(end), out)
                }
            }
            "fn" => {
                let name = self.ident_after(i + 1, end);
                let after = self.skip_signature_and_body(i + 1, end);
                emit(ItemKind::Fn, name, after, out)
            }
            "struct" | "enum" | "union" | "trait" => {
                let kind = match kw.as_str() {
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    "union" => ItemKind::Union,
                    _ => ItemKind::Trait,
                };
                let name = self.ident_after(i + 1, end);
                let after = self.skip_signature_and_body(i + 1, end);
                emit(kind, name, after, out)
            }
            "type" => {
                let name = self.ident_after(i + 1, end);
                emit(
                    ItemKind::TypeAlias,
                    name,
                    self.skip_to_semi(i + 1, end),
                    out,
                )
            }
            "const" | "static" => {
                let mut j = i + 1;
                // `static mut NAME`, `const NAME`; `const _` is legal.
                if j < end && self.toks[j].is("mut") {
                    j += 1;
                }
                let name = self.ident_after(j, end);
                emit(
                    if kw == "const" {
                        ItemKind::Const
                    } else {
                        ItemKind::Static
                    },
                    name,
                    self.skip_to_semi(j, end),
                    out,
                )
            }
            "impl" => {
                // Header: optional generics, then the type (or trait
                // `for` type) up to the body brace.
                let mut j = i + 1;
                if j < end && self.toks[j].is("<") {
                    j = self.match_angles(j, end);
                }
                let mut target_toks: Vec<usize> = Vec::new();
                let mut after_for: Option<usize> = None;
                let mut depth = 0usize;
                while j < end {
                    let t = &self.toks[j];
                    match t.text.as_str() {
                        "{" if depth == 0 => break,
                        ";" if depth == 0 => break,
                        "where" if depth == 0 => break,
                        "for" if depth == 0 => {
                            // `for<'a>` higher-ranked bounds also use
                            // `for`; a trait-impl `for` is followed by
                            // a type, not `<`.
                            if !self.toks.get(j + 1).is_some_and(|n| n.is("<")) {
                                after_for = Some(j + 1);
                            }
                            j += 1;
                            continue;
                        }
                        "<" => depth += 1,
                        ">" => depth = depth.saturating_sub(1),
                        "(" => {
                            j = self.match_delim(j, end, "(", ")");
                            continue;
                        }
                        "[" => {
                            j = self.match_delim(j, end, "[", "]");
                            continue;
                        }
                        _ => {}
                    }
                    if depth == 0 && t.text.chars().all(is_ident_char) {
                        target_toks.push(j);
                    }
                    j += 1;
                }
                // The target is the last plain identifier of the type
                // path — after `for` when this is a trait impl.
                let of_trait = after_for.is_some();
                let target = target_toks
                    .iter()
                    .rfind(|&&k| after_for.is_none_or(|f| k >= f))
                    .map(|&k| self.toks[k].text.clone())
                    .unwrap_or_default();
                // Find the body and recurse with the owner set.
                while j < end && !self.toks[j].is("{") && !self.toks[j].is(";") {
                    j += 1;
                }
                if j < end && self.toks[j].is("{") {
                    let close = self.match_delim(j, end, "{", "}");
                    let after = emit(
                        ItemKind::Impl {
                            target: target.clone(),
                            of_trait,
                        },
                        String::new(),
                        close,
                        out,
                    );
                    let mut child = Ctx {
                        module: ctx.module.clone(),
                        owner: Some(target),
                        reachable: ctx.reachable,
                    };
                    self.block(j + 1, close.saturating_sub(1), &mut child, out);
                    after
                } else {
                    emit(
                        ItemKind::Impl { target, of_trait },
                        String::new(),
                        (j + 1).min(end),
                        out,
                    )
                }
            }
            "macro_rules" => {
                let mut j = i + 1;
                if j < end && self.toks[j].is("!") {
                    j += 1;
                }
                let name = self.ident_after(j, end);
                while j < end && !self.toks[j].is("{") {
                    j += 1;
                }
                let close = self.match_delim(j, end, "{", "}");
                emit(ItemKind::MacroRules, name, close, out)
            }
            "extern" => {
                // Only `extern crate` reaches here (the modifier loop
                // consumed `extern "C"`-style qualifiers).
                let name = self.ident_after(i + 2, end);
                emit(
                    ItemKind::ExternCrate,
                    name,
                    self.skip_to_semi(i + 1, end),
                    out,
                )
            }
            _ => i + 1,
        }
    }

    /// The next token's identifier text, or empty.
    fn ident_after(&self, i: usize, end: usize) -> String {
        self.toks
            .get(i)
            .filter(|_| i < end)
            .map(|t| t.text.clone())
            .filter(|t| t.chars().all(is_ident_char))
            .unwrap_or_default()
    }

    /// Skips past a balanced `open`…`close` pair starting at `i`
    /// (which must point at `open`), returning the index just past the
    /// matching close (or `end`).
    fn match_delim(&self, i: usize, end: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            if self.toks[j].is(open) {
                depth += 1;
            } else if self.toks[j].is(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    /// Skips a balanced generic-argument list starting at `<`.
    fn match_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            match self.toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Skips to the `;` terminating a declaration, honoring nested
    /// `{}`/`()`/`[]` groups (initializers, `use` groups).
    fn skip_to_semi(&self, i: usize, end: usize) -> usize {
        let mut j = i;
        let mut depth = 0usize;
        while j < end {
            match self.toks[j].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Skips a declaration signature to its body (`{…}`, brace-matched
    /// and *not* recursed into) or terminating `;` — whichever comes
    /// first at zero bracket/paren/angle depth. `->` and `=>` are
    /// fused tokens, so return arrows never unbalance the angle count.
    fn skip_signature_and_body(&self, i: usize, end: usize) -> usize {
        let mut j = i;
        let mut angles = 0usize;
        while j < end {
            match self.toks[j].text.as_str() {
                "<" => angles += 1,
                ">" => angles = angles.saturating_sub(1),
                "(" => {
                    j = self.match_delim(j, end, "(", ")");
                    continue;
                }
                "[" => {
                    j = self.match_delim(j, end, "[", "]");
                    continue;
                }
                "{" if angles == 0 => return self.match_delim(j, end, "{", "}"),
                ";" if angles == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<Item> {
        parse(&Scrubbed::new(src))
    }

    fn surface(src: &str) -> Vec<String> {
        items(src)
            .iter()
            .filter(|i| i.is_surface())
            .map(|i| {
                if let Some(owner) = &i.owner {
                    format!("{owner}::{}", i.name)
                } else {
                    i.name.clone()
                }
            })
            .collect()
    }

    #[test]
    fn parses_fns_structs_and_visibility() {
        let src = "\
pub fn visible() -> u32 { 1 }
fn hidden() {}
pub(crate) fn internal() {}
pub struct S { pub x: u32 }
enum E { A, B }";
        let got = items(src);
        let names: Vec<(&str, Vis)> = got.iter().map(|i| (i.name.as_str(), i.vis)).collect();
        assert_eq!(
            names,
            vec![
                ("visible", Vis::Pub),
                ("hidden", Vis::Private),
                ("internal", Vis::Restricted),
                ("S", Vis::Pub),
                ("E", Vis::Private),
            ]
        );
        assert_eq!(got[0].line, 1);
        assert_eq!(got[3].kind, ItemKind::Struct);
    }

    #[test]
    fn fn_bodies_are_not_recursed() {
        let src = "pub fn outer() { fn inner() {} let s = S { x: 1 }; }";
        let got = items(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "outer");
    }

    #[test]
    fn return_arrows_do_not_unbalance_generics() {
        let src = "pub fn f<T: Fn(u32) -> u32>(x: T) -> impl Iterator<Item = u32> { x }
pub fn g() {}";
        let names: Vec<String> = items(src).iter().map(|i| i.name.clone()).collect();
        assert_eq!(names, vec!["f", "g"]);
    }

    #[test]
    fn use_paths_are_captured() {
        let src = "use std::sync::{Mutex, Arc};\npub use rrs_core::par::par_map;";
        let got = items(src);
        let ItemKind::Use { path } = &got[0].kind else {
            panic!("not a use: {:?}", got[0]);
        };
        assert_eq!(path, "std::sync::{Mutex,Arc}");
        let ItemKind::Use { path } = &got[1].kind else {
            panic!("not a use: {:?}", got[1]);
        };
        assert_eq!(path, "rrs_core::par::par_map");
        assert_eq!(got[1].vis, Vis::Pub);
    }

    #[test]
    fn inline_module_nesting_controls_reach() {
        let src = "\
pub mod outer {
    pub fn reached() {}
    mod inner {
        pub fn unreachable_fn() {}
    }
}
mod private {
    pub fn also_unreachable() {}
}";
        assert_eq!(surface(src), vec!["outer", "reached"]);
        let got = items(src);
        let reached = got.iter().find(|i| i.name == "reached").unwrap();
        assert_eq!(reached.module, vec!["outer"]);
        let buried = got.iter().find(|i| i.name == "unreachable_fn").unwrap();
        assert_eq!(buried.module, vec!["outer", "inner"]);
        assert!(!buried.reachable);
    }

    #[test]
    fn file_modules_are_recorded_not_recursed() {
        let got = items("pub mod alpha;\nmod beta;");
        assert_eq!(got[0].kind, ItemKind::Mod { inline: false });
        assert_eq!(got[0].name, "alpha");
        assert_eq!(got[0].vis, Vis::Pub);
        assert_eq!(got[1].vis, Vis::Private);
    }

    #[test]
    fn impl_methods_carry_their_owner() {
        let src = "\
pub struct W;
impl W {
    pub fn make() -> Self { W }
    fn private_helper(&self) {}
}
impl<'a> Iterator for Wrapper<'a> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> { None }
}";
        let got = items(src);
        assert_eq!(surface(src), vec!["W", "W::make"]);
        let imp = got
            .iter()
            .find(|i| {
                matches!(
                    &i.kind,
                    ItemKind::Impl {
                        of_trait: false,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(
            imp.kind,
            ItemKind::Impl {
                target: "W".into(),
                of_trait: false
            }
        );
        let trait_impl = got
            .iter()
            .find(|i| matches!(&i.kind, ItemKind::Impl { of_trait: true, .. }))
            .unwrap();
        assert_eq!(
            trait_impl.kind,
            ItemKind::Impl {
                target: "Wrapper".into(),
                of_trait: true
            }
        );
        let next = got.iter().find(|i| i.name == "next").unwrap();
        assert_eq!(next.owner.as_deref(), Some("Wrapper"));
        assert!(!next.is_surface(), "trait-impl methods carry no pub");
    }

    #[test]
    fn const_static_and_type_items() {
        let src = "\
pub const LIMIT: usize = 8;
static mut RAW: u32 = 0;
pub static NAMED: &str = \"x\";
pub type Alias = Vec<u32>;";
        let got = items(src);
        assert_eq!(got[0].kind, ItemKind::Const);
        assert_eq!(got[0].name, "LIMIT");
        assert_eq!(got[1].kind, ItemKind::Static);
        assert_eq!(got[1].name, "RAW");
        assert_eq!(got[2].name, "NAMED");
        assert_eq!(got[3].kind, ItemKind::TypeAlias);
        assert_eq!(got[3].name, "Alias");
    }

    #[test]
    fn const_initializers_with_braces_terminate_at_the_semicolon() {
        let src = "pub const X: P = P { a: 1, b: [2; 3] };\npub fn after() {}";
        let names: Vec<String> = items(src).iter().map(|i| i.name.clone()).collect();
        assert_eq!(names, vec!["X", "after"]);
    }

    #[test]
    fn macro_rules_surface_requires_macro_export() {
        let src = "\
#[macro_export]
macro_rules! public_macro { () => {}; }
macro_rules! private_macro { () => {}; }";
        let got = items(src);
        assert!(got[0].is_surface());
        assert!(!got[1].is_surface());
        assert_eq!(got[0].name, "public_macro");
    }

    #[test]
    fn multi_line_attributes_attach_to_their_item() {
        let src = "\
#[derive(
    Clone,
    Debug
)]
pub struct Multi {
    pub field: u32,
}";
        let got = items(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "Multi");
        assert_eq!(got[0].attrs, "#[derive(Clone,Debug)]");
        assert_eq!(got[0].line, 5, "line is the declaring keyword's");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "\
pub fn real() {}
#[cfg(test)]
mod tests {
    pub fn helper() {}
}";
        let got = items(src);
        assert!(!got.iter().find(|i| i.name == "real").unwrap().in_test);
        assert!(got.iter().find(|i| i.name == "tests").unwrap().in_test);
        assert!(got.iter().find(|i| i.name == "helper").unwrap().in_test);
        assert_eq!(surface(src), vec!["real"]);
    }

    #[test]
    fn inner_attributes_do_not_leak_onto_items() {
        let src = "#![warn(missing_docs)]\npub fn f() {}";
        let got = items(src);
        assert_eq!(got[0].name, "f");
        assert_eq!(got[0].attrs, "");
    }

    #[test]
    fn modifier_soup_before_fn_still_parses() {
        let src =
            "pub const unsafe fn cursed() {}\npub async fn task() {}\npub extern \"C\" fn ffi() {}";
        let names: Vec<String> = items(src).iter().map(|i| i.name.clone()).collect();
        assert_eq!(names, vec!["cursed", "task", "ffi"]);
    }

    #[test]
    fn where_clauses_and_generics_do_not_break_struct_bodies() {
        let src = "\
pub struct G<T>
where
    T: Clone,
{
    inner: Vec<T>,
}
pub fn after() {}";
        let names: Vec<String> = items(src).iter().map(|i| i.name.clone()).collect();
        assert_eq!(names, vec!["G", "after"]);
    }

    #[test]
    fn tuple_structs_and_unit_structs_terminate() {
        let src = "pub struct T(u32, String);\npub struct U;\npub fn after() {}";
        let names: Vec<String> = items(src).iter().map(|i| i.name.clone()).collect();
        assert_eq!(names, vec!["T", "U", "after"]);
    }

    #[test]
    fn trait_bodies_are_not_recursed() {
        let src = "\
pub trait Scheme {
    fn evaluate(&self) -> f64;
    fn name(&self) -> &str { \"default\" }
}
pub fn after() {}";
        let names: Vec<String> = items(src).iter().map(|i| i.name.clone()).collect();
        assert_eq!(names, vec!["Scheme", "after"]);
    }
}
