//! Database error type.

use std::fmt;

/// Errors produced by the video database.
#[derive(Debug)]
pub enum DbError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Decoding ran past the end of a buffer.
    UnexpectedEof {
        /// What was being decoded.
        context: &'static str,
    },
    /// A stored checksum did not match the payload.
    ChecksumMismatch {
        /// Byte offset of the corrupt record in the log.
        offset: u64,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// A record carried an unknown type tag.
    UnknownRecordType(u8),
    /// The requested clip does not exist.
    ClipNotFound(u64),
    /// A clip with this id already exists.
    DuplicateClip(u64),
    /// A string field failed UTF-8 validation.
    InvalidUtf8,
    /// A length field exceeded sanity bounds (corrupt or hostile data).
    LengthOutOfBounds(u64),
    /// The clip's stored record failed integrity checks and has been
    /// quarantined; re-ingesting the clip repairs it.
    ClipQuarantined(u64),
    /// A failed append could not be rolled back; the log refuses
    /// further writes (reads still work) until reopened.
    LogPoisoned,
    /// A collection handed to the encoder exceeds the `u32` length
    /// prefix (or the codec's sanity bound). This is a caller mistake
    /// caught before any bytes hit the log — previously the length was
    /// cast with `as u32` and silently truncated, corrupting the record.
    TooLarge {
        /// What was being encoded.
        context: &'static str,
        /// The offending element count.
        len: usize,
    },
    /// An empty payload was handed to [`crate::log::Log::append`].
    /// Zero-length frames are reserved as a corruption signature: an
    /// all-zero 8-byte window decodes as a "valid" empty frame (length
    /// zero plus the CRC-32 of empty input, which is zero), so recovery
    /// must be able to treat them as damage, never as data.
    EmptyRecord,
    /// A shard of a [`crate::shard::ShardedDb`] failed to open and was
    /// quarantined; operations routed to it fail while the remaining
    /// shards keep serving.
    ShardUnavailable {
        /// Shard file name within the database directory.
        file: String,
        /// Why the shard was quarantined (the stringified open error).
        reason: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "io error: {e}"),
            DbError::UnexpectedEof { context } => {
                write!(f, "unexpected end of buffer while decoding {context}")
            }
            DbError::ChecksumMismatch { offset } => {
                write!(f, "checksum mismatch at log offset {offset}")
            }
            DbError::BadMagic => write!(f, "not a tsvr video database (bad magic)"),
            DbError::UnknownRecordType(t) => write!(f, "unknown record type {t}"),
            DbError::ClipNotFound(id) => write!(f, "clip {id} not found"),
            DbError::DuplicateClip(id) => write!(f, "clip {id} already exists"),
            DbError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            DbError::LengthOutOfBounds(n) => write!(f, "length field {n} out of bounds"),
            DbError::ClipQuarantined(id) => {
                write!(
                    f,
                    "clip {id} is quarantined (corrupt record; re-ingest to repair)"
                )
            }
            DbError::LogPoisoned => {
                write!(
                    f,
                    "log poisoned by an unrecoverable append failure; reopen to recover"
                )
            }
            DbError::TooLarge { context, len } => {
                write!(
                    f,
                    "{context} with {len} elements exceeds the u32 length prefix"
                )
            }
            DbError::EmptyRecord => {
                write!(f, "empty record payloads are not supported (zero-length frames are reserved as a corruption signature)")
            }
            DbError::ShardUnavailable { file, reason } => {
                write!(f, "shard {file} is quarantined: {reason}")
            }
        }
    }
}

impl DbError {
    /// Whether this error indicates corrupt stored data (as opposed to
    /// an environmental failure or a caller mistake). Corruption errors
    /// trigger quarantine; others propagate.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            DbError::UnexpectedEof { .. }
                | DbError::ChecksumMismatch { .. }
                | DbError::UnknownRecordType(_)
                | DbError::InvalidUtf8
                | DbError::LengthOutOfBounds(_)
                | DbError::BadMagic
        )
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

/// Result alias for database operations.
pub type Result<T> = std::result::Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_details() {
        assert!(DbError::ClipNotFound(42).to_string().contains("42"));
        assert!(DbError::ChecksumMismatch { offset: 128 }
            .to_string()
            .contains("128"));
        assert!(DbError::UnknownRecordType(9).to_string().contains('9'));
        assert!(DbError::UnexpectedEof { context: "meta" }
            .to_string()
            .contains("meta"));
    }

    #[test]
    fn corruption_classification_is_stable() {
        assert!(DbError::ChecksumMismatch { offset: 0 }.is_corruption());
        assert!(DbError::UnexpectedEof { context: "x" }.is_corruption());
        assert!(DbError::LengthOutOfBounds(1).is_corruption());
        assert!(DbError::InvalidUtf8.is_corruption());
        assert!(DbError::UnknownRecordType(200).is_corruption());
        assert!(DbError::BadMagic.is_corruption());
        assert!(!DbError::Io(std::io::Error::other("x")).is_corruption());
        assert!(!DbError::ClipNotFound(1).is_corruption());
        assert!(!DbError::ClipQuarantined(1).is_corruption());
        assert!(!DbError::LogPoisoned.is_corruption());
        // TooLarge and EmptyRecord are caller mistakes caught on encode,
        // not stored-data corruption — they must never trigger quarantine.
        assert!(!DbError::TooLarge {
            context: "rows",
            len: 5
        }
        .is_corruption());
        assert!(!DbError::EmptyRecord.is_corruption());
    }

    #[test]
    fn io_error_round_trips_source() {
        let e: DbError = std::io::Error::other("boom").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("boom"));
    }
}
