use std::fmt;

/// Errors raised while writing or parsing checkpoint images.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// The buffer ended before the structure it should contain.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// Magic bytes did not match the expected format.
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A section checksum failed — the image is corrupt.
    Checksum {
        /// Which section failed.
        section: &'static str,
    },
    /// A varint was malformed (overlong or overflowing).
    BadVarint,
    /// An unknown object-kind code.
    BadObjKind {
        /// The code found.
        code: u16,
    },
    /// A relation-table entry referenced a nonexistent record or slot.
    BadRelation {
        /// Record index referenced.
        record: u32,
        /// Pointer slot referenced.
        slot: u16,
    },
    /// A section declared bounds outside the image.
    BadSection {
        /// Which section.
        section: &'static str,
    },
    /// A structurally invalid field: a length or offset that cannot be
    /// represented or that overflows when combined with its base.
    Malformed {
        /// What was being read.
        what: &'static str,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Truncated { what } => write!(f, "image truncated while reading {what}"),
            ImageError::BadMagic => write!(f, "bad image magic"),
            ImageError::BadVersion { found } => write!(f, "unsupported image version {found}"),
            ImageError::Checksum { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            ImageError::BadVarint => write!(f, "malformed varint"),
            ImageError::BadObjKind { code } => write!(f, "unknown object kind code {code}"),
            ImageError::BadRelation { record, slot } => {
                write!(
                    f,
                    "relation entry references record {record} slot {slot} out of range"
                )
            }
            ImageError::BadSection { section } => {
                write!(f, "section '{section}' has out-of-bounds extent")
            }
            ImageError::Malformed { what } => {
                write!(f, "malformed field while reading {what}")
            }
        }
    }
}

impl std::error::Error for ImageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        assert!(ImageError::Truncated { what: "header" }
            .to_string()
            .contains("header"));
        assert!(ImageError::Checksum { section: "meta" }
            .to_string()
            .contains("meta"));
        assert!(ImageError::BadObjKind { code: 99 }
            .to_string()
            .contains("99"));
        assert!(ImageError::BadRelation { record: 1, slot: 2 }
            .to_string()
            .contains("1"));
        assert!(ImageError::BadVersion { found: 7 }
            .to_string()
            .contains("7"));
        assert!(ImageError::BadSection { section: "mem" }
            .to_string()
            .contains("mem"));
        assert!(ImageError::Malformed { what: "count" }
            .to_string()
            .contains("count"));
    }
}
