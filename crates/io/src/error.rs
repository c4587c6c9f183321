//! Parse errors for the text formats.

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line. Running out of input
    /// reports the line after the last one read (0 where a format does
    /// not track lines).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let e = ParseError::new(7, "unexpected token `foo`");
        assert_eq!(e.to_string(), "line 7: unexpected token `foo`");
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ParseError>();
    }
}
