//! The two text formats this crate speaks, each written once and in both
//! directions: [`prom`] is the Prometheus text exposition format, [`json`]
//! is JSON. Per format there is one escaper, one writer and one strict
//! parser; everything that emits or reads either format (`/metrics`,
//! `/status`, `/trace`, [`crate::ProfileReport`], the `tf-bench` report
//! files and the gates that read them back) goes through here, so a
//! property that holds for the writer (what it writes, the strict parser
//! reads back equal) holds for every document.

pub mod json;
pub mod prom;

/// A string strategy for the round-trip properties of both formats: up to
/// 24 characters, half of them from the set either format has to escape or
/// could trip over (quotes, backslashes, line breaks, control characters,
/// the formats' own punctuation, multi-byte and non-BMP scalars), the rest
/// drawn from all of Unicode.
#[cfg(test)]
pub(crate) fn hostile_string() -> impl proptest::prelude::Strategy<Value = String> {
    use proptest::prelude::*;
    const NASTY: [char; 16] = [
        '"', '\\', '\n', '\r', '\t', '\0', '\u{1f}', '\u{7f}', ' ', ',', '=', '{', '}', 'é',
        '\u{2028}', '😀',
    ];
    collection::vec((0usize..32, 0u32..0x11_0000), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(nasty, scalar)| match NASTY.get(nasty) {
                Some(&c) => c,
                None => char::from_u32(scalar).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}
