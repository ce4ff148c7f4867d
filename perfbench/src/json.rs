//! The little JSON the benchmark writes.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", charserve::json::escape(s))
}

/// A JSON number with every digit of the shortest round-tripping
/// representation; non-finite values (which JSON cannot carry) become
/// `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
    }
}
