//! The one byte-stable JSON writer behind every machine-readable report.
//!
//! Four emitters share this module — the `--format json` diagnostic array,
//! the SARIF log, the `nostd-readiness` worklist and the `concurrency`
//! inventory. Each hand-assembles its own key order (the workspace is
//! offline; no serde), but the parts that must agree byte-for-byte across
//! runs and emitters — string escaping and array layout — live here
//! exactly once.
//!
//! The array layout contract: `[` on the current line, one pre-rendered
//! item per line at `item_indent` spaces, `,`-separated, closing `]` at
//! `close_indent` spaces; an empty array collapses to `[]` with no
//! newlines. Every report's historical byte layout is an instance of this
//! rule, which is what lets them share the writer without re-golding.

/// Render pre-formatted items as a multi-line JSON array.
///
/// `item_indent` is the leading-space count of each item line and
/// `close_indent` that of the closing bracket. Empty input renders `[]`.
#[must_use]
pub fn array(items: &[String], item_indent: usize, close_indent: usize) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&" ".repeat(item_indent));
        out.push_str(item);
    }
    out.push('\n');
    out.push_str(&" ".repeat(close_indent));
    out.push(']');
    out
}

/// Render strings as a compact single-line JSON array of escaped strings
/// (`["a","b"]`) — witness chains and effect lists in the worklists.
#[must_use]
pub fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// Minimal JSON string escaping: quotes, backslashes, control characters.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_array_collapses() {
        assert_eq!(array(&[], 2, 0), "[]");
    }

    #[test]
    fn array_layout_matches_the_report_contract() {
        let items = vec!["{\"a\": 1}".to_string(), "{\"b\": 2}".to_string()];
        assert_eq!(array(&items, 2, 0), "[\n  {\"a\": 1},\n  {\"b\": 2}\n]");
        assert_eq!(
            array(&items[..1], 4, 2),
            "[\n    {\"a\": 1}\n  ]",
            "worklist indent"
        );
    }

    #[test]
    fn escape_covers_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn string_array_is_compact() {
        assert_eq!(
            string_array(&["a".to_string(), "b\"c".to_string()]),
            "[\"a\",\"b\\\"c\"]"
        );
    }
}
