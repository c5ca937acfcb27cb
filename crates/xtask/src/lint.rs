//! The `etsqp-lint` engine: token/line-level static analysis over the
//! workspace's `.rs` files. No external dependencies — a small lexer
//! classifies each line into code/comment/string regions, tracks
//! `#[cfg(test)]` modules by brace depth, and rule passes run over the
//! classified lines.
//!
//! Rules (see DESIGN.md §"Static analysis & model checking"):
//!
//! * `safety-comment` — every `unsafe` keyword needs a `// SAFETY:`
//!   justification (or a `# Safety` doc section) in the contiguous
//!   comment/attribute block above it or on the same line.
//! * `no-panic-paths` — no `unwrap()` / `expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in engine hot paths
//!   ([`HOT_FILES`]) or the untrusted-input decode crates
//!   ([`HOT_DIRS`]); error paths must surface `Error` variants.
//! * `no-lossy-cast` — no narrowing `as` casts in accumulator/fused
//!   kernels ([`CAST_FILES`]); use the checked/widening helpers.
//! * `forbid-unsafe` — crates with zero `unsafe` must declare
//!   `#![forbid(unsafe_code)]` at their lib root.
//! * `unsafe-op-in-unsafe-fn` — crates containing `unsafe` must declare
//!   `#![deny(unsafe_op_in_unsafe_fn)]` at their lib root.
//! * `file-size` — no file under `crates/core/src/` may exceed
//!   [`MAX_CORE_FILE_LINES`] lines; oversized modules must be split
//!   (the decomposition that produced `crates/core/src/physical/`).
//! * `no-wrapping-arithmetic` — accumulator updates (`+=` / `*=`) in
//!   the kernel files ([`CAST_FILES`]) must visibly widen (i128/u128)
//!   or use `checked_`/`saturating_` forms; a silently wrapping
//!   accumulator corrupts aggregates instead of erroring (§VI-C).
//! * `lock-order` — lock acquisitions in the ingest path
//!   ([`LOCK_ORDER_SCOPE`]) must follow the declared
//!   shard → series → nothing order: nothing may be acquired while a
//!   series guard is held. This is the static half of the `lockdep`
//!   runtime tracker in `shims/parking_lot`.
//! * `no-sleep-poll` — no `thread::sleep` in the network service
//!   ([`SLEEP_SCOPE`]): a handler that sleeps and looks again puts its
//!   sleep under every request, so waits there must block on the event
//!   itself (socket timeout, channel, condvar). At most
//!   [`MAX_SLEEP_HATCHES`] escape hatch across the workspace.
//! * `one-walker` — in the engine ([`WALKER_SCOPE`]) only the cursor
//!   module ([`WALKER_FILE`]) may call the kernels a walk over packed
//!   deltas is made of ([`WALKER_KERNELS`]), so a second walker
//!   beside it fails here instead of waiting for a design review.
//! * `verify-once` — in the engine and in `Page` itself a page's checksum
//!   is recomputed (`.verify()`) only inside the deep plan check and
//!   `Page::ensure_verified`; every other check, the page's own decoders
//!   included, goes through the latter, which hashes a resident page
//!   object once, so one more re-hash per query fails here, not at a
//!   re-anchor.
//! * `residual-predicate` — in the physical IR a page-header bound meets
//!   a predicate conjunct's `lo` / `hi` only in the §V verdicts and the
//!   verifier's re-derivation; everything else asks the residual
//!   predicate, so a second coverage rule fails here.
//! * `float-keys` — in the engine and in storage a float becomes its
//!   ordered key (`f64_to_ordered_i64`) only where it is appended and
//!   where a float range filter is planned; everything past those two
//!   places already holds keys, so a second mapping fails here.
//!
//! The last three are rows of one table, [`HOME_BOUND`]: a construct that
//! may appear in its scope only inside its home functions.
//!
//! Escape hatch: `// lint:allow(<rule>) -- <reason>` on the offending
//! line or in the comment block directly above suppresses that rule
//! there. A directive without a reason (or naming an unknown rule) is
//! itself a violation (`lint-allow`), and every use is counted and
//! reported in the summary.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Engine hot-path files: panics are forbidden, errors must be `Error`s.
pub const HOT_FILES: [&str; 5] = [
    "crates/core/src/exec.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/fused.rs",
    "crates/core/src/decode.rs",
    "crates/core/src/decode_fold.rs",
];

/// Untrusted-input directories: every decode path in these crates faces
/// hostile bytes, so the `no-panic-paths` rule covers them wholesale
/// (the fuzzer enforces the same contract dynamically). The physical IR
/// (including the hot-scan source and plan compiler) rides along: it
/// sits between untrusted pages and the executor, so the same
/// no-panic contract applies. The SIMD kernel layer is included too:
/// every backend consumes byte streams handed up from untrusted pages,
/// so its safe wrappers must reject bad shapes as errors upstream, not
/// panic mid-kernel — and the same goes for the FastLanes and SIMD-boost
/// comparator crates, whose decode entry points take page payloads. The
/// fold cursor's source modules sit beside their hot-file parent.
/// The network service crate faces the most hostile input of all —
/// arbitrary bytes from remote peers — so it is covered wholesale: a
/// panic in a frame parser or connection handler is a remote DoS.
pub const HOT_DIRS: [&str; 8] = [
    "crates/encoding/src/",
    "crates/storage/src/",
    "crates/core/src/physical/",
    "crates/core/src/decode_fold/",
    "crates/simd/src/",
    "crates/fastlanes/src/",
    "crates/sboost/src/",
    "crates/serve/src/",
];

/// Accumulator/fused-kernel files: narrowing `as` casts are forbidden.
pub const CAST_FILES: [&str; 2] = ["crates/core/src/fused.rs", "crates/simd/src/agg.rs"];

/// Narrowing cast targets flagged by `no-lossy-cast`.
const NARROW_TYPES: [&str; 7] = ["u8", "i8", "u16", "i16", "u32", "i32", "f32"];

/// Markers that make an accumulator update visibly non-wrapping: the
/// line widens into 128-bit space or uses an explicit checked form.
const WIDE_MARKERS: [&str; 4] = ["i128", "u128", "checked_", "saturating_"];

/// Files subject to the `lock-order` rule: the sharded ingest path (the
/// locks classified for the runtime lockdep tracker) plus the scheduler
/// pool, which must never reach into storage locks at all.
pub const LOCK_ORDER_SCOPE: [&str; 3] = [
    "crates/storage/src/ingest/",
    "crates/storage/src/store.rs",
    "crates/core/src/pool.rs",
];

/// Files under this path are subject to the `file-size` ceiling.
pub const SIZE_SCOPE: &str = "crates/core/src/";

/// Line ceiling for engine source files (`file-size` rule).
pub const MAX_CORE_FILE_LINES: usize = 800;

/// Files under this path are subject to the `no-sleep-poll` rule.
pub const SLEEP_SCOPE: &str = "crates/serve/src/";

/// How many `lint:allow(no-sleep-poll)` hatches the workspace may carry
/// (the accept loop's back-off after a failed `accept`).
pub const MAX_SLEEP_HATCHES: usize = 1;

/// Files under this path are subject to the `one-walker` rule.
pub const WALKER_SCOPE: &str = "crates/core/src/";

/// The one module that walks packed 32-bit deltas.
pub const WALKER_FILE: &str = "crates/core/src/decode_fold/packed.rs";

/// The `etsqp_simd` kernels such a walk is made of: the bit unpackers
/// (32- and 64-bit lanes), the Stream VByte quad decoder, the
/// chain-layout prefix and the transpose that feeds it.
pub const WALKER_KERNELS: [&str; 5] = [
    "unpack_u32",
    "unpack_u64",
    "decode_quads",
    "chain_delta_decode",
    "layout_transpose",
];

/// A construct that, in the files under `scope`, may appear only inside
/// its home functions — found by brace depth, so nested blocks stay
/// inside them.
pub struct HomeBound {
    /// Rule name.
    pub rule: &'static str,
    /// Files under these paths are subject to the rule.
    pub scopes: &'static [&'static str],
    /// The construct, as the violation message names it.
    pub call: &'static str,
    /// Whether a line of masked code makes it.
    pub made_by: fn(&str) -> bool,
    /// The places in scope that may make it: (file, function).
    pub homes: &'static [(&'static str, &'static str)],
    /// Why, for the violation message.
    pub why: &'static str,
}

/// Page-header bounds, and the header's own overlap tests against them.
const HEADER_BOUNDS: [&str; 6] = [
    "first_ts",
    "last_ts",
    "min_value",
    "max_value",
    "overlaps_time",
    "overlaps_value",
];

/// A header bound and a predicate conjunct's bound (`lo` / `hi`) on one
/// line: a coverage or overlap comparison.
fn compares_header_to_conjunct(code: &str) -> bool {
    HEADER_BOUNDS.iter().any(|b| has_token(code, b))
        && (has_token(code, "lo") || has_token(code, "hi"))
}

/// The home-bound constructs of the engine:
///
/// * `verify-once` — `.verify()` hashes a page on every use; only the deep
///   plan check, which exists to recompute every pruned page's digest,
///   and `Page::ensure_verified`, which hashes once and marks, make it.
/// * `residual-predicate` — in the physical IR a page's header bounds are
///   held against a predicate's conjuncts only by the §V verdicts and by
///   the verifier's independent re-derivation; everything else asks
///   `Predicate::residual` or, for a bare time range, `TimeRange::covers`
///   (`crates/core/src/expr.rs`, outside the scope),
///   so a second coverage rule cannot drift from the first.
/// * `float-keys` — a float series holds its values as ordered keys from
///   `SeriesStore::append_f64` to the result row (its hot chunk, pages
///   and headers alike), and a float range filter is planned as keys by
///   `FloatRange::keys`; a key mapping anywhere else would map a column
///   that is keys already, or open a second float path beside the one.
pub const HOME_BOUND: [HomeBound; 3] = [
    HomeBound {
        rule: "verify-once",
        scopes: &["crates/core/src/", "crates/storage/src/page.rs"],
        call: ".verify()",
        made_by: |code| code.contains(".verify()"),
        homes: &[
            ("crates/core/src/physical/verify.rs", "verify_deep"),
            ("crates/storage/src/page.rs", "ensure_verified"),
        ],
        why: "re-hashes the page on every query; job-time checks go through `ensure_verified`",
    },
    HomeBound {
        rule: "residual-predicate",
        scopes: &["crates/core/src/physical/"],
        call: "header bound vs. conjunct bound",
        made_by: compares_header_to_conjunct,
        homes: &[
            ("crates/core/src/physical/scan.rs", "page_verdict"),
            ("crates/core/src/physical/scan.rs", "hot_verdict"),
            ("crates/core/src/physical/verify.rs", "header_proves"),
        ],
        why: "is a coverage rule of its own; ask `Predicate::residual` or `TimeRange::covers`",
    },
    HomeBound {
        rule: "float-keys",
        scopes: &["crates/core/src/", "crates/storage/src/"],
        call: "f64_to_ordered_i64",
        made_by: |code| has_token(code, "f64_to_ordered_i64"),
        homes: &[
            ("crates/storage/src/store.rs", "append_f64"),
            ("crates/core/src/float.rs", "keys"),
        ],
        why: "maps a float to a key a second time; a float series holds keys from the append on",
    },
];

/// Rule names accepted by the escape hatch.
pub const RULE_NAMES: [&str; 13] = [
    "safety-comment",
    "no-panic-paths",
    "no-lossy-cast",
    "forbid-unsafe",
    "unsafe-op-in-unsafe-fn",
    "file-size",
    "no-wrapping-arithmetic",
    "lock-order",
    "no-sleep-poll",
    "one-walker",
    "verify-once",
    "residual-predicate",
    "float-keys",
];

/// One rule violation at a specific location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULE_NAMES`] or `lint-allow`).
    pub rule: String,
    /// Human-readable description.
    pub msg: String,
}

/// One use of the `lint:allow` escape hatch.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule being suppressed.
    pub rule: String,
}

/// Result of analysing one file or a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations found, in file/line order.
    pub violations: Vec<Violation>,
    /// All escape-hatch uses (valid directives), in file/line order.
    pub allows: Vec<Allow>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of crates checked for the crate-level rules.
    pub crates_checked: usize,
}

impl Report {
    /// violations grouped by rule, for the one-line CI summary.
    pub fn counts_by_rule(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for v in &self.violations {
            *m.entry(v.rule.clone()).or_insert(0) += 1;
        }
        m
    }

    /// allows grouped by rule.
    pub fn allows_by_rule(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for a in &self.allows {
            *m.entry(a.rule.clone()).or_insert(0) += 1;
        }
        m
    }
}

// ---------------------------------------------------------------------
// Line classification
// ---------------------------------------------------------------------

/// One source line, split into masked code and comment text.
#[derive(Debug, Default)]
struct Line {
    /// Code with string contents blanked and comments removed.
    code: String,
    /// Comment text on this line (including the `//` / `/*` markers).
    comment: String,
    /// Inside a `#[cfg(test)]` module.
    in_test: bool,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum LexState {
    Code,
    LineComment,
    /// `doc` marks `/**` / `/*!` doc comments: their text is prose, so
    /// directives inside must stay inert (see [`parse_directive`]).
    BlockComment {
        depth: u32,
        doc: bool,
    },
    Str,
    RawStr(usize),
}

/// Splits source into lines of (masked code, comment text), tolerant of
/// nested block comments, raw strings, and char-vs-lifetime quotes.
fn classify(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut st = LexState::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            if st == LexState::LineComment {
                st = LexState::Code;
            }
            i += 1;
            continue;
        }
        let next = chars.get(i + 1).copied();
        match st {
            LexState::Code => {
                if c == '/' && next == Some('/') {
                    st = LexState::LineComment;
                    cur.comment.push_str("//");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    let doc = matches!(chars.get(i + 2), Some('*') | Some('!'));
                    st = LexState::BlockComment { depth: 1, doc };
                    cur.code.push(' ');
                    i += 2;
                } else if c == '"' {
                    st = LexState::Str;
                    cur.code.push('"');
                    i += 1;
                } else if c == 'b' && next == Some('"') && !prev_is_ident(&chars, i) {
                    // Plain byte string: same escape rules as `"…"`.
                    st = LexState::Str;
                    cur.code.push('"');
                    i += 2;
                } else if is_raw_str_start(&chars, i) {
                    let skip = usize::from(chars[i] == 'b');
                    let hashes = count_hashes(&chars, i + skip + 1);
                    st = LexState::RawStr(hashes);
                    cur.code.push('"');
                    i += skip + 1 + hashes + 1; // [b] r ### "
                } else if c == '\'' {
                    // Char literal vs lifetime heuristic.
                    if next == Some('\\') {
                        // Escaped char literal: scan to the closing quote,
                        // bounded at the newline so malformed input cannot
                        // swallow later lines.
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                            j += 1;
                        }
                        cur.code.push(' ');
                        i = if chars.get(j) == Some(&'\'') {
                            j + 1
                        } else {
                            j
                        };
                    } else if chars.get(i + 2) == Some(&'\'') {
                        cur.code.push(' ');
                        i += 3;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            LexState::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            LexState::BlockComment { depth, doc } => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::BlockComment {
                            depth: depth - 1,
                            doc,
                        }
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = LexState::BlockComment {
                        depth: depth + 1,
                        doc,
                    };
                    i += 2;
                } else {
                    // Doc block comments are prose: prefix each line's
                    // comment text with the `///` marker so directive
                    // parsing ignores it (safety-section matching still
                    // sees the text).
                    if doc && cur.comment.is_empty() {
                        cur.comment.push_str("///");
                    }
                    cur.comment.push(c);
                    i += 1;
                }
            }
            LexState::Str => {
                if c == '\\' {
                    // `\<newline>` is a line continuation: consume only
                    // the backslash so the line tracker still sees the
                    // newline (otherwise line numbers drift).
                    i += if next == Some('\n') { 1 } else { 2 };
                } else if c == '"' {
                    cur.code.push('"');
                    st = LexState::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            LexState::RawStr(h) => {
                if c == '"' && (0..h).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    cur.code.push('"');
                    st = LexState::Code;
                    i += 1 + h;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    mark_test_regions(&mut lines);
    lines
}

fn is_raw_str_start(chars: &[char], i: usize) -> bool {
    let start = if chars[i] == 'b' {
        if chars.get(i + 1) != Some(&'r') {
            // Plain byte strings (`b"…"`) have escapes; the Code branch
            // routes them through the Str state instead.
            return false;
        }
        i + 1
    } else if chars[i] == 'r' {
        i
    } else {
        return false;
    };
    if prev_is_ident(chars, i) {
        return false;
    }
    let hashes = count_hashes(chars, start + 1);
    chars.get(start + 1 + hashes) == Some(&'"')
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

fn count_hashes(chars: &[char], from: usize) -> usize {
    chars[from..].iter().take_while(|&&c| c == '#').count()
}

/// Marks lines inside `#[cfg(test)]` items by tracking brace depth.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth = 0usize;
    let mut pending: Option<usize> = None; // saw #[cfg(test)] at this depth
    let mut region: Option<usize> = None; // inside test item opened at depth
    for line in lines.iter_mut() {
        if region.is_some() {
            line.in_test = true;
        }
        if line.code.contains("#[cfg(test)]") && region.is_none() {
            pending = Some(depth);
            line.in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if region.is_none() && pending == Some(depth) {
                        region = Some(depth);
                        pending = None;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if region == Some(depth) {
                        region = None;
                        line.in_test = true; // closing brace still test code
                    }
                }
                // `#[cfg(test)] use foo;` — attribute on a braceless item.
                ';' if pending == Some(depth) => pending = None,
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `true` if `code` contains `token` delimited by non-identifier chars.
fn has_token(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(p) = code[start..].find(token) {
        let abs = start + p;
        let end = abs + token.len();
        let before_ok = abs == 0 || !is_ident_byte(bytes[abs - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = end;
    }
    false
}

/// First narrowing `as <ty>` cast on the line, if any.
fn narrowing_cast(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(p) = code[start..].find("as") {
        let abs = start + p;
        let end = abs + 2;
        let boundary = (abs == 0 || !is_ident_byte(bytes[abs - 1]))
            && (end >= bytes.len() || !is_ident_byte(bytes[end]));
        start = end;
        if !boundary {
            continue;
        }
        let rest = code[end..].trim_start();
        let ty: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if let Some(t) = NARROW_TYPES.iter().find(|t| **t == ty) {
            return Some(t);
        }
    }
    None
}

/// Position of the first shard-map lock acquisition on the line, if
/// any: a direct shard `RwLock` access or a [`ShardMap`] wrapper method
/// that takes one internally.
fn shard_acquisition(code: &str) -> Option<usize> {
    [
        "map.read()",
        "map.write()",
        "map.get(",
        "map.get_or_insert(",
        "map.names()",
    ]
    .iter()
    .filter_map(|p| code.find(p))
    .min()
}

/// Position of the first per-series mutex acquisition on the line.
fn series_acquisition(code: &str) -> Option<usize> {
    code.find("state.lock()")
}

/// Comment-only or attribute-only lines continue the lookback block
/// above an `unsafe` site / allow target.
fn continues_block(line: &Line) -> bool {
    let code = line.code.trim();
    if code.is_empty() {
        return !line.comment.is_empty();
    }
    code.starts_with("#[") || code.starts_with("#![")
}

const LOOKBACK: usize = 40;

/// Does line `i` (or its contiguous comment/attribute block above)
/// satisfy predicate `p` over comment text?
fn block_above_matches(lines: &[Line], i: usize, p: impl Fn(&str) -> bool) -> bool {
    if p(&lines[i].comment) {
        return true;
    }
    let mut j = i;
    let floor = i.saturating_sub(LOOKBACK);
    while j > floor {
        j -= 1;
        if !continues_block(&lines[j]) {
            return false;
        }
        if p(&lines[j].comment) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Escape hatch
// ---------------------------------------------------------------------

enum Directive {
    /// Well-formed: rules + reason present.
    Allow(Vec<String>),
    /// Malformed: error message.
    Bad(String),
}

/// Parses `lint:allow(rule-a, rule-b) -- reason` out of comment text.
///
/// Directives are only recognised in plain `//` comments: doc comments
/// (`///`, `//!`) are prose — text *describing* the directive syntax
/// must not activate (or half-activate) it.
fn parse_directive(comment: &str) -> Option<Directive> {
    let t = comment.trim_start();
    if t.starts_with("///") || t.starts_with("//!") {
        return None;
    }
    let at = comment.find("lint:allow")?;
    let rest = &comment[at + "lint:allow".len()..];
    let Some(open) = rest.find('(') else {
        return Some(Directive::Bad("missing '(' after lint:allow".into()));
    };
    let Some(close) = rest.find(')') else {
        return Some(Directive::Bad("missing ')' in lint:allow".into()));
    };
    if open > close {
        return Some(Directive::Bad("malformed lint:allow parentheses".into()));
    }
    let rules: Vec<String> = rest[open + 1..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Some(Directive::Bad("lint:allow names no rule".into()));
    }
    for r in &rules {
        if !RULE_NAMES.contains(&r.as_str()) {
            return Some(Directive::Bad(format!("unknown rule '{r}' in lint:allow")));
        }
    }
    let tail = &rest[close + 1..];
    let Some(dash) = tail.find("--") else {
        return Some(Directive::Bad(
            "lint:allow requires a reason: `-- <why this is sound>`".into(),
        ));
    };
    if tail[dash + 2..].trim().is_empty() {
        return Some(Directive::Bad("lint:allow reason is empty".into()));
    }
    Some(Directive::Allow(rules))
}

// ---------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------

/// Panic-y constructs forbidden in hot paths.
const PANIC_TOKENS: [(&str, &str); 6] = [
    (".unwrap()", "unwrap() panics"),
    (".expect(", "expect() panics"),
    ("panic!", "explicit panic!"),
    ("unreachable!", "unreachable! panics"),
    ("todo!", "todo! panics"),
    ("unimplemented!", "unimplemented! panics"),
];

/// Runs the line-level rules over one file's source. `rel_path` selects
/// which path-scoped rules apply (hot paths, cast files).
pub fn analyze_source(rel_path: &str, source: &str) -> Report {
    let lines = classify(source);
    let mut report = Report {
        files_scanned: 1,
        ..Report::default()
    };

    // Collect escape-hatch directives (and flag malformed ones).
    let mut allows_at: Vec<Vec<String>> = vec![Vec::new(); lines.len()];
    for (i, line) in lines.iter().enumerate() {
        match parse_directive(&line.comment) {
            Some(Directive::Allow(rules)) => {
                for r in &rules {
                    report.allows.push(Allow {
                        file: rel_path.to_string(),
                        line: i + 1,
                        rule: r.clone(),
                    });
                }
                allows_at[i] = rules;
            }
            Some(Directive::Bad(msg)) => report.violations.push(Violation {
                file: rel_path.to_string(),
                line: i + 1,
                rule: "lint-allow".into(),
                msg,
            }),
            None => {}
        }
    }
    // A directive suppresses a rule on its own line or anywhere in the
    // contiguous comment/attribute block directly above the violation.
    let allowed = |i: usize, rule: &str| -> bool {
        if allows_at[i].iter().any(|r| r == rule) {
            return true;
        }
        let mut j = i;
        let floor = i.saturating_sub(LOOKBACK);
        while j > floor {
            j -= 1;
            if !continues_block(&lines[j]) {
                return false;
            }
            if allows_at[j].iter().any(|r| r == rule) {
                return true;
            }
        }
        false
    };

    // Rule: file-size (engine modules must stay decomposed). The count
    // is physical source lines, tests included — test bulk is still
    // bulk the next reader scrolls past. The escape hatch is accepted
    // anywhere in the file (it is a file-level property).
    if rel_path.contains(SIZE_SCOPE) {
        let n = source.lines().count();
        let allowed_anywhere = allows_at
            .iter()
            .any(|rs| rs.iter().any(|r| r == "file-size"));
        if n > MAX_CORE_FILE_LINES && !allowed_anywhere {
            report.violations.push(Violation {
                file: rel_path.to_string(),
                line: n,
                rule: "file-size".into(),
                msg: format!(
                    "{n} lines exceeds the {MAX_CORE_FILE_LINES}-line ceiling for {SIZE_SCOPE} \
                     files; split the module"
                ),
            });
        }
    }

    // Rule: safety-comment (all files, tests included).
    for (i, line) in lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        let justified = block_above_matches(&lines, i, |c| {
            c.contains("SAFETY:") || c.contains("# Safety")
        });
        if !justified && !allowed(i, "safety-comment") {
            report.violations.push(Violation {
                file: rel_path.to_string(),
                line: i + 1,
                rule: "safety-comment".into(),
                msg: "`unsafe` without a `// SAFETY:` justification (or `# Safety` doc section)"
                    .into(),
            });
        }
    }

    // Rule: no-panic-paths (hot files + untrusted-input decode crates,
    // non-test code only).
    if HOT_FILES.iter().any(|f| rel_path.ends_with(f))
        || HOT_DIRS.iter().any(|d| rel_path.contains(d))
    {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for (tok, why) in PANIC_TOKENS {
                if line.code.contains(tok) && !allowed(i, "no-panic-paths") {
                    report.violations.push(Violation {
                        file: rel_path.to_string(),
                        line: i + 1,
                        rule: "no-panic-paths".into(),
                        msg: format!("{why} in an engine hot path; return an Error variant"),
                    });
                }
            }
        }
    }

    // Rule: no-lossy-cast (accumulator/fused kernels, non-test code).
    if CAST_FILES.iter().any(|f| rel_path.ends_with(f)) {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if let Some(ty) = narrowing_cast(&line.code) {
                if !allowed(i, "no-lossy-cast") {
                    report.violations.push(Violation {
                        file: rel_path.to_string(),
                        line: i + 1,
                        rule: "no-lossy-cast".into(),
                        msg: format!(
                            "narrowing `as {ty}` cast in a kernel; use a checked/widening helper"
                        ),
                    });
                }
            }
        }
    }

    // Rule: no-wrapping-arithmetic (accumulator kernels, non-test code).
    // Compound updates must visibly widen or use a checked form; the
    // rule is line-local by design, so an i128 accumulator whose type
    // is declared elsewhere needs the widening spelled at the update.
    if CAST_FILES.iter().any(|f| rel_path.ends_with(f)) {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = &line.code;
            if !(code.contains("+=") || code.contains("*=")) {
                continue;
            }
            if WIDE_MARKERS.iter().any(|m| code.contains(m)) {
                continue;
            }
            if !allowed(i, "no-wrapping-arithmetic") {
                report.violations.push(Violation {
                    file: rel_path.to_string(),
                    line: i + 1,
                    rule: "no-wrapping-arithmetic".into(),
                    msg: "unchecked accumulator update in a kernel; widen to i128/u128 or use a \
                          checked_/saturating_ form"
                        .into(),
                });
            }
        }
    }

    // Rule: no-sleep-poll (network service, non-test code). Matches the
    // call and a `use std::thread::sleep` that would hide later calls.
    if rel_path.contains(SLEEP_SCOPE) {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test || !line.code.contains("thread::sleep") {
                continue;
            }
            if !allowed(i, "no-sleep-poll") {
                report.violations.push(Violation {
                    file: rel_path.to_string(),
                    line: i + 1,
                    rule: "no-sleep-poll".into(),
                    msg: "thread::sleep in the serve layer; block on the event itself (socket \
                          timeout, channel, condvar)"
                        .into(),
                });
            }
        }
    }

    // Rule: one-walker (engine, non-test code, every file but the
    // cursor module). Matches calls and imports alike.
    if rel_path.contains(WALKER_SCOPE) && !rel_path.ends_with(WALKER_FILE) {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for kernel in WALKER_KERNELS {
                if has_token(&line.code, kernel) && !allowed(i, "one-walker") {
                    report.violations.push(Violation {
                        file: rel_path.to_string(),
                        line: i + 1,
                        rule: "one-walker".into(),
                        msg: format!(
                            "`{kernel}` outside {WALKER_FILE}; packed 32-bit deltas are walked \
                             by the cursor there, add a sink to it"
                        ),
                    });
                }
            }
        }
    }

    // Rules: the home-bound constructs (non-test code, everywhere in scope
    // but the bodies of the home functions, found by brace depth).
    for bound in (HOME_BOUND.iter()).filter(|b| b.scopes.iter().any(|s| rel_path.contains(s))) {
        let is_home = |code: &str| {
            code.contains("fn ")
                && (bound.homes.iter())
                    .any(|&(file, func)| rel_path.ends_with(file) && has_token(code, func))
        };
        let mut depth = 0usize;
        let mut entering = false; // saw `fn <home>`, its `{` still to come
        let mut home: Option<usize> = None; // depth the home body opened at
        for (i, line) in lines.iter().enumerate() {
            let code = line.code.as_str();
            if is_home(code) {
                entering = true;
            }
            if !line.in_test
                && !entering
                && home.is_none()
                && (bound.made_by)(code)
                && !allowed(i, bound.rule)
            {
                let homes: Vec<String> = bound.homes.iter().map(|h| format!("`{}`", h.1)).collect();
                report.violations.push(Violation {
                    file: rel_path.to_string(),
                    line: i + 1,
                    rule: bound.rule.into(),
                    msg: format!(
                        "`{}` {} (only {} may)",
                        bound.call,
                        bound.why,
                        homes.join(", ")
                    ),
                });
            }
            for c in code.chars() {
                match c {
                    '{' => {
                        if std::mem::take(&mut entering) {
                            home = Some(depth);
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if home == Some(depth) {
                            home = None;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Rule: lock-order (static half of the lockdep runtime tracker).
    // Extracts lock-acquisition sites and enforces the declared
    // shard → series → nothing order: while a bound series guard is
    // live, no classified lock may be acquired, and a single expression
    // must not chain series-then-shard. Guard liveness is approximated
    // by brace depth: a `let`-bound guard dies when its block closes.
    if LOCK_ORDER_SCOPE.iter().any(|s| rel_path.contains(s)) {
        let mut depth = 0usize;
        let mut series_held: Option<usize> = None; // depth where guard was bound
        for (i, line) in lines.iter().enumerate() {
            let code = line.code.as_str();
            if !line.in_test {
                if let (Some(sp), Some(shp)) = (series_acquisition(code), shard_acquisition(code)) {
                    if sp < shp && !allowed(i, "lock-order") {
                        report.violations.push(Violation {
                            file: rel_path.to_string(),
                            line: i + 1,
                            rule: "lock-order".into(),
                            msg: "series mutex acquired before a shard lock in one expression; \
                                  the declared order is shard \u{2192} series"
                                .into(),
                        });
                    }
                }
                if series_held.is_some()
                    && (shard_acquisition(code).is_some() || series_acquisition(code).is_some())
                    && !allowed(i, "lock-order")
                {
                    report.violations.push(Violation {
                        file: rel_path.to_string(),
                        line: i + 1,
                        rule: "lock-order".into(),
                        msg: "lock acquired while a series guard is held; the declared order is \
                              shard \u{2192} series \u{2192} nothing"
                            .into(),
                    });
                }
                if series_held.is_none()
                    && series_acquisition(code).is_some()
                    && code.trim_start().starts_with("let ")
                {
                    series_held = Some(depth);
                }
            }
            for c in code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if series_held.is_some_and(|d| depth < d) {
                            series_held = None;
                        }
                    }
                    _ => {}
                }
            }
            // An explicit drop() releases the guard early; coarse but
            // matches the ingest idiom (guards are dropped, not leaked).
            if series_held.is_some() && code.contains("drop(") {
                series_held = None;
            }
        }
    }

    report.violations.sort_by_key(|v| v.line);
    report
}

// ---------------------------------------------------------------------
// Crate-level rules + workspace walk
// ---------------------------------------------------------------------

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>, manifests: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            // A package with its own `[workspace]` table (the benchmark
            // under `bench/`) is a workspace of its own, not part of
            // this one: its sources answer to its own rules.
            if is_workspace_root(&path.join("Cargo.toml")) {
                continue;
            }
            walk_rs_files(&path, out, manifests);
        } else if name == "Cargo.toml" {
            manifests.push(path);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_workspace_root(manifest: &Path) -> bool {
    fs::read_to_string(manifest).is_ok_and(|m| m.lines().any(|l| l.trim() == "[workspace]"))
}

/// `true` when any line of `source` uses the `unsafe` keyword.
fn source_has_unsafe(source: &str) -> bool {
    classify(source)
        .iter()
        .any(|l| has_token(&l.code, "unsafe"))
}

fn crate_rule_violation(
    lib_root_rel: &str,
    lib_src: &str,
    has_unsafe: bool,
) -> Option<(String, String)> {
    let lines = classify(lib_src);
    let attr_present = |attr: &str| lines.iter().any(|l| l.code.contains(attr));
    let allow_present = |rule: &str| {
        lines.iter().any(|l| {
            matches!(parse_directive(&l.comment),
                     Some(Directive::Allow(rules)) if rules.iter().any(|r| r == rule))
        })
    };
    if !has_unsafe {
        if !attr_present("#![forbid(unsafe_code)]") && !allow_present("forbid-unsafe") {
            return Some((
                "forbid-unsafe".into(),
                format!(
                    "crate has no unsafe code but {lib_root_rel} lacks #![forbid(unsafe_code)]"
                ),
            ));
        }
    } else if !attr_present("#![deny(unsafe_op_in_unsafe_fn)]")
        && !allow_present("unsafe-op-in-unsafe-fn")
    {
        return Some((
            "unsafe-op-in-unsafe-fn".into(),
            format!("crate uses unsafe but {lib_root_rel} lacks #![deny(unsafe_op_in_unsafe_fn)]"),
        ));
    }
    None
}

/// Flags every `no-sleep-poll` hatch past [`MAX_SLEEP_HATCHES`]: the
/// rule exists to keep sleeps out, so its hatches are capped, not just
/// counted.
fn cap_sleep_hatches(report: &mut Report) {
    let extra = report
        .allows
        .iter()
        .filter(|a| a.rule == "no-sleep-poll")
        .skip(MAX_SLEEP_HATCHES);
    for a in extra {
        report.violations.push(Violation {
            file: a.file.clone(),
            line: a.line,
            rule: "no-sleep-poll".into(),
            msg: format!(
                "more than {MAX_SLEEP_HATCHES} lint:allow(no-sleep-poll) in the workspace; \
                 replace the sleep with a blocking wait"
            ),
        });
    }
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints every `.rs` file under `root` plus the crate-level rules for
/// every `Cargo.toml` package found.
pub fn lint_workspace(root: &Path) -> Report {
    let mut files = Vec::new();
    let mut manifests = Vec::new();
    walk_rs_files(root, &mut files, &mut manifests);
    files.sort();
    manifests.sort();

    let mut report = Report::default();
    for path in &files {
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        let r = analyze_source(&rel(root, path), &src);
        report.files_scanned += 1;
        report.violations.extend(r.violations);
        report.allows.extend(r.allows);
    }
    cap_sleep_hatches(&mut report);

    for manifest in &manifests {
        let dir = manifest.parent().unwrap_or(root);
        let lib_root = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|p| dir.join(p))
            .find(|p| p.is_file());
        let Some(lib_root) = lib_root else {
            continue; // virtual manifest (workspace root without lib/main)
        };
        let src_dir = dir.join("src");
        let has_unsafe = files
            .iter()
            .filter(|f| f.starts_with(&src_dir))
            .filter_map(|f| fs::read_to_string(f).ok())
            .any(|s| source_has_unsafe(&s));
        report.crates_checked += 1;
        let lib_rel = rel(root, &lib_root);
        if let Ok(lib_src) = fs::read_to_string(&lib_root) {
            if let Some((rule, msg)) = crate_rule_violation(&lib_rel, &lib_src, has_unsafe) {
                report.violations.push(Violation {
                    file: lib_rel,
                    line: 1,
                    rule,
                    msg,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/core/src/exec.rs";
    const KERNEL: &str = "crates/core/src/fused.rs";

    fn rules_fired(report: &Report) -> Vec<String> {
        report.violations.iter().map(|v| v.rule.clone()).collect()
    }

    // -- fixtures: each rule must fire on the bad snippet and stay
    //    silent on the good one. Fixture sources live outside `.rs`
    //    files so the linter does not flag its own test data.

    #[test]
    fn safety_comment_fires_on_bad_and_passes_good() {
        let bad = include_str!("../fixtures/safety_bad.rs.txt");
        let good = include_str!("../fixtures/safety_good.rs.txt");
        let r = analyze_source("crates/demo/src/lib.rs", bad);
        assert!(
            rules_fired(&r).contains(&"safety-comment".to_string()),
            "expected safety-comment violation: {r:?}"
        );
        let r = analyze_source("crates/demo/src/lib.rs", good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
    }

    #[test]
    fn no_panic_paths_fires_on_bad_and_passes_good() {
        let bad = include_str!("../fixtures/panic_bad.rs.txt");
        let good = include_str!("../fixtures/panic_good.rs.txt");
        let r = analyze_source(HOT, bad);
        let fired = rules_fired(&r);
        // One violation per panic-y construct in the fixture.
        assert!(
            fired.iter().filter(|r| *r == "no-panic-paths").count() >= 4,
            "expected several no-panic-paths violations: {r:?}"
        );
        let r = analyze_source(HOT, good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
        // The same bad source in a non-hot file is fine.
        let r = analyze_source("crates/bench/src/lib.rs", bad);
        assert!(!rules_fired(&r).contains(&"no-panic-paths".to_string()));
    }

    #[test]
    fn no_panic_paths_covers_untrusted_decode_dirs() {
        let bad = include_str!("../fixtures/panic_bad.rs.txt");
        for path in [
            "crates/encoding/src/gorilla.rs",
            "crates/storage/src/page.rs",
            "crates/simd/src/backend.rs",
            "crates/fastlanes/src/lib.rs",
            "crates/sboost/src/lib.rs",
        ] {
            let r = analyze_source(path, bad);
            assert!(
                rules_fired(&r).contains(&"no-panic-paths".to_string()),
                "decode dir {path} must be covered: {r:?}"
            );
        }
    }

    #[test]
    fn no_lossy_cast_fires_on_bad_and_passes_good() {
        let bad = include_str!("../fixtures/cast_bad.rs.txt");
        let good = include_str!("../fixtures/cast_good.rs.txt");
        let r = analyze_source(KERNEL, bad);
        assert!(
            rules_fired(&r).contains(&"no-lossy-cast".to_string()),
            "expected no-lossy-cast violation: {r:?}"
        );
        let r = analyze_source(KERNEL, good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
        let r = analyze_source("crates/core/src/sql.rs", bad);
        assert!(!rules_fired(&r).contains(&"no-lossy-cast".to_string()));
    }

    #[test]
    fn escape_hatch_suppresses_counts_and_requires_reason() {
        let ok = include_str!("../fixtures/allow_ok.rs.txt");
        let bad = include_str!("../fixtures/allow_missing_reason.rs.txt");
        let r = analyze_source(HOT, ok);
        assert!(r.violations.is_empty(), "allowed line still flagged: {r:?}");
        assert_eq!(r.allows.len(), 2, "both uses counted: {r:?}");
        let r = analyze_source(HOT, bad);
        let fired = rules_fired(&r);
        assert!(
            fired.contains(&"lint-allow".to_string()),
            "reason-less allow must be flagged: {r:?}"
        );
        assert!(
            fired.contains(&"no-panic-paths".to_string()),
            "malformed allow must not suppress: {r:?}"
        );
    }

    #[test]
    fn doc_comments_describing_the_directive_are_inert() {
        // Prose documentation of the escape-hatch syntax (as in this
        // module's own docs) is neither a directive nor a malformed one.
        let src = "\
//! Escape hatch: `// lint:allow(<rule>) -- <reason>` suppresses a rule.

/// One use of the `lint:allow` escape hatch.
pub fn f(v: &[i64]) -> i64 {
    v[0].wrapping_add(1)
}
";
        let r = analyze_source(HOT, src);
        assert!(r.violations.is_empty(), "{r:?}");
        assert!(r.allows.is_empty(), "{r:?}");
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_hot_path_rules() {
        let src = include_str!("../fixtures/cfg_test_ok.rs.txt");
        let r = analyze_source(HOT, src);
        assert!(r.violations.is_empty(), "test-module unwrap flagged: {r:?}");
    }

    #[test]
    fn forbid_unsafe_rule_fires_and_passes() {
        let clean_missing = "pub fn f() {}\n";
        let v = crate_rule_violation("crates/demo/src/lib.rs", clean_missing, false);
        assert_eq!(v.expect("must fire").0, "forbid-unsafe");
        let clean_present = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(crate_rule_violation("x/src/lib.rs", clean_present, false).is_none());
        // Escape hatch at crate level.
        let allowed = "// lint:allow(forbid-unsafe) -- proc-macro target pending\npub fn f() {}\n";
        assert!(crate_rule_violation("x/src/lib.rs", allowed, false).is_none());
    }

    #[test]
    fn unsafe_op_in_unsafe_fn_rule_fires_and_passes() {
        let missing = "pub fn f() {}\n";
        let v = crate_rule_violation("crates/demo/src/lib.rs", missing, true);
        assert_eq!(v.expect("must fire").0, "unsafe-op-in-unsafe-fn");
        let present = "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}\n";
        assert!(crate_rule_violation("x/src/lib.rs", present, true).is_none());
    }

    #[test]
    fn file_size_fires_over_ceiling_in_core_only() {
        let over: String = "fn f() {}\n".repeat(MAX_CORE_FILE_LINES + 1);
        let r = analyze_source("crates/core/src/big.rs", &over);
        let fired = rules_fired(&r);
        assert!(
            fired.contains(&"file-size".to_string()),
            "oversized core file must be flagged: {r:?}"
        );
        // Exactly at the ceiling is fine.
        let at: String = "fn f() {}\n".repeat(MAX_CORE_FILE_LINES);
        let r = analyze_source("crates/core/src/big.rs", &at);
        assert!(r.violations.is_empty(), "{r:?}");
        // The same bulk outside the scope is fine.
        let r = analyze_source("crates/simd/src/big.rs", &over);
        assert!(!rules_fired(&r).contains(&"file-size".to_string()));
    }

    #[test]
    fn file_size_escape_hatch_suppresses_and_is_counted() {
        let mut src =
            String::from("// lint:allow(file-size) -- generated lookup tables, split is churn\n");
        src.push_str(&"fn f() {}\n".repeat(MAX_CORE_FILE_LINES + 10));
        let r = analyze_source("crates/core/src/big.rs", &src);
        assert!(r.violations.is_empty(), "allowed file still flagged: {r:?}");
        assert_eq!(r.allows.len(), 1, "escape hatch must be counted: {r:?}");
        assert_eq!(r.allows[0].rule, "file-size");
    }

    #[test]
    fn no_wrapping_arithmetic_fires_on_bad_and_passes_good() {
        let bad = include_str!("../fixtures/wrapping_bad.rs.txt");
        let good = include_str!("../fixtures/wrapping_good.rs.txt");
        let r = analyze_source(KERNEL, bad);
        let fired = rules_fired(&r);
        assert_eq!(
            fired
                .iter()
                .filter(|r| *r == "no-wrapping-arithmetic")
                .count(),
            3,
            "one violation per unchecked update: {r:?}"
        );
        let r = analyze_source(KERNEL, good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
        // The same source outside the kernel files is fine.
        let r = analyze_source("crates/core/src/sql.rs", bad);
        assert!(!rules_fired(&r).contains(&"no-wrapping-arithmetic".to_string()));
    }

    #[test]
    fn no_sleep_poll_fires_in_serve_and_caps_its_hatches() {
        const SERVE: &str = "crates/serve/src/conn.rs";
        let bad = include_str!("../fixtures/sleep_poll_bad.rs.txt");
        let good = include_str!("../fixtures/sleep_poll_good.rs.txt");
        let r = analyze_source(SERVE, bad);
        assert_eq!(
            rules_fired(&r),
            ["no-sleep-poll", "no-sleep-poll"],
            "the import and the qualified call: {r:?}"
        );
        // The same source outside the serve layer is fine.
        let r = analyze_source("crates/bench/src/lib.rs", bad);
        assert!(r.violations.is_empty(), "out-of-scope file flagged: {r:?}");

        let mut r = analyze_source(SERVE, good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
        assert_eq!(r.allows.len(), 1, "the hatch is counted: {r:?}");
        cap_sleep_hatches(&mut r);
        assert!(
            r.violations.is_empty(),
            "one hatch is within the cap: {r:?}"
        );
        // A second hatch anywhere in the workspace is a violation.
        let second = analyze_source("crates/serve/src/server.rs", good);
        r.allows.extend(second.allows);
        cap_sleep_hatches(&mut r);
        assert_eq!(rules_fired(&r), ["no-sleep-poll"], "{r:?}");
        assert_eq!(r.violations[0].file, "crates/serve/src/server.rs");
    }

    #[test]
    fn one_walker_fires_in_core_outside_the_cursor_module() {
        let bad = include_str!("../fixtures/walker_bad.rs.txt");
        let good = include_str!("../fixtures/walker_good.rs.txt");
        let r = analyze_source("crates/core/src/fused.rs", bad);
        let walkers = rules_fired(&r)
            .iter()
            .filter(|r| *r == "one-walker")
            .count();
        assert_eq!(walkers, 6, "the import and one call per kernel: {r:?}");
        // The cursor module is where those calls belong ...
        let r = analyze_source(WALKER_FILE, bad);
        assert!(
            !rules_fired(&r).contains(&"one-walker".to_string()),
            "{r:?}"
        );
        // ... and other crates (benches, the kernels' own) are out of scope.
        let r = analyze_source("crates/bench/src/lib.rs", bad);
        assert!(r.violations.is_empty(), "out-of-scope file flagged: {r:?}");
        let r = analyze_source("crates/core/src/physical/agg.rs", good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
    }

    /// The (first) home file of a [`HOME_BOUND`] rule.
    fn home_of(rule: &str) -> &'static str {
        HOME_BOUND
            .iter()
            .find(|b| b.rule == rule)
            .map(|b| b.homes[0].0)
            .unwrap()
    }

    #[test]
    fn verify_once_fires_in_the_engine_outside_the_deep_check() {
        let bad = include_str!("../fixtures/verify_once_bad.rs.txt");
        let good = include_str!("../fixtures/verify_once_good.rs.txt");
        let r = analyze_source("crates/core/src/physical/agg.rs", bad);
        assert_eq!(
            rules_fired(&r),
            ["verify-once", "verify-once"],
            "one per job-time re-hash: {r:?}"
        );
        // The deep check's body is the call's home; the same file's other
        // functions are not.
        let home = home_of("verify-once");
        let r = analyze_source(home, good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
        let r = analyze_source(home, bad);
        assert_eq!(rules_fired(&r), ["verify-once", "verify-once"], "{r:?}");
        // A function of that name elsewhere in scope is no licence ...
        let r = analyze_source("crates/core/src/physical/scan.rs", good);
        assert_eq!(rules_fired(&r), ["verify-once"], "{r:?}");
        // ... the whole engine is in scope, the float key mapping too ...
        let r = analyze_source("crates/core/src/float.rs", bad);
        assert_eq!(rules_fired(&r), ["verify-once", "verify-once"], "{r:?}");
        // ... and so is the page: its decoders go through the mark, whose
        // body alone hashes ...
        let page = include_str!("../fixtures/verify_once_page.rs.txt");
        let r = analyze_source("crates/storage/src/page.rs", page);
        assert_eq!(rules_fired(&r), ["verify-once"], "{r:?}");
        assert_eq!(r.violations[0].line, 16, "the decoder's re-hash: {r:?}");
        // ... while the rest of the storage crate and the benches hash freely.
        for path in ["crates/storage/src/store.rs", "crates/bench/src/lib.rs"] {
            let r = analyze_source(path, bad);
            assert!(r.violations.is_empty(), "out-of-scope file flagged: {r:?}");
        }
    }

    #[test]
    fn residual_predicate_fires_on_a_second_coverage_rule() {
        let bad = include_str!("../fixtures/residual_bad.rs.txt");
        let good = include_str!("../fixtures/residual_good.rs.txt");
        let r = analyze_source("crates/core/src/physical/pipe.rs", bad);
        assert_eq!(
            rules_fired(&r),
            ["residual-predicate"; 3],
            "a time cover, a value cover and an overlap test: {r:?}"
        );
        // The verdict is a home; the residual and conjunct-free header
        // reads are no comparison at all.
        let r = analyze_source(home_of("residual-predicate"), good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
        // The verifier re-derives coverage in its one home, nowhere else.
        let proves = "pub(super) fn header_proves(page: &Page, pred: &Predicate) -> bool {\n    \
                      pred.time.is_none_or(|t| t.lo <= page.header.first_ts)\n}\n";
        let r = analyze_source("crates/core/src/physical/verify.rs", proves);
        assert!(r.violations.is_empty(), "{r:?}");
        let r = analyze_source("crates/core/src/physical/verify_partial.rs", proves);
        assert_eq!(rules_fired(&r), ["residual-predicate"], "{r:?}");
        // Outside the physical IR (the residual itself, the float key
        // mapping) the rule does not apply.
        for path in ["crates/core/src/expr.rs", "crates/core/src/float.rs"] {
            let r = analyze_source(path, bad);
            assert!(r.violations.is_empty(), "out-of-scope file flagged: {r:?}");
        }
    }

    #[test]
    fn float_keys_fires_outside_the_append_and_the_range_filter() {
        let bad = include_str!("../fixtures/float_keys_bad.rs.txt");
        let good = include_str!("../fixtures/float_keys_good.rs.txt");
        // A hot tail mapped to keys at query time, in the engine or in
        // storage: the import and both calls.
        for path in [
            "crates/core/src/physical/pipe.rs",
            "crates/storage/src/ingest/hot.rs",
        ] {
            let r = analyze_source(path, bad);
            assert_eq!(rules_fired(&r), ["float-keys"; 3], "{path}: {r:?}");
        }
        // The range filter's key mapping is a home, and a test may map
        // freely ...
        let r = analyze_source("crates/core/src/float.rs", good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
        // ... but only in its own file ...
        let r = analyze_source("crates/core/src/physical/scan.rs", good);
        assert_eq!(rules_fired(&r), ["float-keys"], "{r:?}");
        // ... and so is the append.
        let append = "pub fn append_f64(&self, name: &str, ts: i64, value: f64) -> Result<()> {\n    \
                      self.push(name, true, [(ts, etsqp_encoding::f64_to_ordered_i64(value))])\n}\n";
        let r = analyze_source(home_of("float-keys"), append);
        assert!(r.violations.is_empty(), "{r:?}");
        let r = analyze_source("crates/storage/src/ingest/hot.rs", append);
        assert_eq!(rules_fired(&r), ["float-keys"], "{r:?}");
        // The codecs that define the mapping, the oracle's crate root and
        // the benches are out of scope.
        for path in [
            "crates/encoding/src/lib.rs",
            "src/lib.rs",
            "crates/bench/src/lib.rs",
        ] {
            let r = analyze_source(path, bad);
            assert!(r.violations.is_empty(), "out-of-scope file flagged: {r:?}");
        }
    }

    #[test]
    fn lock_order_fires_on_inversion_and_passes_ordered() {
        let bad = include_str!("../fixtures/lock_order_bad.rs.txt");
        let good = include_str!("../fixtures/lock_order_good.rs.txt");
        let scoped = "crates/storage/src/ingest/shard.rs";
        let r = analyze_source(scoped, bad);
        let fired = rules_fired(&r);
        assert_eq!(
            fired.iter().filter(|r| *r == "lock-order").count(),
            2,
            "held-guard and same-expression inversions must both fire: {r:?}"
        );
        let r = analyze_source(scoped, good);
        assert!(r.violations.is_empty(), "good fixture flagged: {r:?}");
        // The same source outside the lock-order scope is fine.
        let r = analyze_source("crates/core/src/exec.rs", bad);
        assert!(!rules_fired(&r).contains(&"lock-order".to_string()));
    }

    #[test]
    fn lock_order_covers_store_and_pool() {
        let bad = include_str!("../fixtures/lock_order_bad.rs.txt");
        for path in ["crates/storage/src/store.rs", "crates/core/src/pool.rs"] {
            let r = analyze_source(path, bad);
            assert!(
                rules_fired(&r).contains(&"lock-order".to_string()),
                "{path} must be in the lock-order scope: {r:?}"
            );
        }
    }

    // -- classifier unit coverage --

    #[test]
    fn byte_strings_are_masked_without_swallowing_code() {
        // The empty byte string used to overshoot its closing quote and
        // mask real code; the escaped quote used to end the literal
        // early and leave the rest of the line inside a string.
        let src = "let b = b\"\"; x.unwrap();\nlet c = b\"q\\\"uote\"; y.unwrap();\n";
        let r = analyze_source(HOT, src);
        let fired = rules_fired(&r);
        assert_eq!(
            fired.iter().filter(|r| *r == "no-panic-paths").count(),
            2,
            "unwraps after byte strings must be seen: {r:?}"
        );
        // Byte raw strings still mask their contents.
        let src = "let r = br#\"panic! .unwrap()\"#; z.unwrap();\n";
        let r = analyze_source(HOT, src);
        assert_eq!(
            rules_fired(&r)
                .iter()
                .filter(|r| *r == "no-panic-paths")
                .count(),
            1,
            "{r:?}"
        );
    }

    #[test]
    fn string_line_continuations_do_not_shift_line_numbers() {
        let src = "let s = \"line\\\n continued\";\nbad.unwrap();\n";
        let r = analyze_source(HOT, src);
        assert_eq!(r.violations.len(), 1, "{r:?}");
        assert_eq!(
            r.violations[0].line, 3,
            "the `\\<newline>` continuation must still count a line: {r:?}"
        );
    }

    #[test]
    fn unterminated_char_escape_stops_at_newline() {
        // Malformed input: `'\` with no closing quote on the line. The
        // scan used to run to the next quote anywhere in the file,
        // swallowing the following lines.
        let src = "let bad = '\\\nstill.unwrap();\n";
        let r = analyze_source(HOT, src);
        assert_eq!(
            rules_fired(&r)
                .iter()
                .filter(|r| *r == "no-panic-paths")
                .count(),
            1,
            "the line after the malformed literal must be classified: {r:?}"
        );
    }

    #[test]
    fn doc_block_comments_are_inert_for_directives() {
        let src = "\
/** Escape hatch: `lint:allow(no-panic-paths) -- reason` suppresses. */
pub fn f(o: Option<i64>) -> i64 {
    o.unwrap()
}
";
        let r = analyze_source(HOT, src);
        assert!(r.allows.is_empty(), "doc prose must not activate: {r:?}");
        assert!(
            rules_fired(&r).contains(&"no-panic-paths".to_string()),
            "doc prose must not suppress: {r:?}"
        );
    }

    #[test]
    fn doc_block_safety_section_still_satisfies_safety_comment() {
        let src = "\
/*! module prose */
/** Does spooky things.
# Safety
Caller must uphold X. */
pub unsafe fn spooky() {}
";
        let r = analyze_source("crates/demo/src/lib.rs", src);
        assert!(r.violations.is_empty(), "{r:?}");
    }

    #[test]
    fn nested_block_comments_mask_panic_tokens() {
        let src = "/* outer /* inner panic! */ still comment .unwrap() */\nlet x = 1;\n";
        let r = analyze_source(HOT, src);
        assert!(r.violations.is_empty(), "{r:?}");
    }

    #[test]
    fn strings_and_comments_are_masked() {
        let src = "let s = \"unsafe .unwrap() panic!\"; // unsafe in comment\n";
        let lines = classify(src);
        assert!(!has_token(&lines[0].code, "unsafe"));
        assert!(!lines[0].code.contains(".unwrap()"));
        assert!(lines[0].comment.contains("unsafe"));
    }

    #[test]
    fn raw_strings_and_lifetimes_are_handled() {
        let src =
            "fn f<'a>(x: &'a str) { let q = r#\"unsafe \"quoted\" panic!\"#; let c = 'u'; }\n";
        let lines = classify(src);
        assert!(!has_token(&lines[0].code, "unsafe"));
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[0].code.contains("<'a>"));
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "let x = a.unwrap_or(0);\nlet y = b.unwrap_or_else(|| 1);\nlet z = c.unwrap_or_default();\n";
        let r = analyze_source(HOT, src);
        assert!(r.violations.is_empty(), "{r:?}");
    }

    #[test]
    fn unsafe_code_attr_is_not_an_unsafe_keyword() {
        let src = "#![forbid(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n";
        let r = analyze_source("shims/bytes/src/lib.rs", src);
        assert!(r.violations.is_empty(), "{r:?}");
        assert!(!source_has_unsafe(src));
    }

    #[test]
    fn doc_safety_section_satisfies_safety_comment() {
        let src = "\
/// Does spooky things.
///
/// # Safety
///
/// Caller must uphold X.
#[inline]
pub unsafe fn spooky() {}
";
        let r = analyze_source("crates/demo/src/lib.rs", src);
        assert!(r.violations.is_empty(), "{r:?}");
    }
}
